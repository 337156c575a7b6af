"""nmsparse benchmark: closed-loop workloads run in-process through the CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload tensor-file --seed 0 --seconds 45 --trace 0

Workloads (see workloads.py and NOTES.md): tensor-file, whose op is the
tensor-file op, and verify-scan-train, whose op is the verify-scan op
followed by the train-masked op. One client, one process, no threads of
its own; BLAS runs on one thread.

Every run first sets up three times (input generation and one warm-up
op). With --trace 0 a closed loop then runs for --seconds over the
sub-ops of all three ops, interleaved, and the run prints every
end-to-end metric. With --trace 1 the loop runs only the workload's own
op, alternately traced by the span tracer (tracing.py) and untraced, and
the run prints the per-layer metrics. The last line of standard output is
one JSON object with the result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# The untraced loop picks the sub-op charged least so far and charges a
# sub-op at least this many seconds each time it runs, so that short
# sub-ops are sampled several times for each run of a long one.
MIN_CHARGE_S = 0.25
WORKLOAD_NAMES = ("tensor-file", "verify-scan-train")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library(src: Path):
    """Import nmsparse from the checkout's sources; returns (lib, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(src))
    import nmsparse
    import nmsparse.cli
    import nmsparse.tensorio
    seconds = time.perf_counter() - start
    if Path(nmsparse.__file__).resolve().parent != (src / "nmsparse").resolve():
        raise ImportError(f"nmsparse was imported from {nmsparse.__file__}, not {src}")
    return types.SimpleNamespace(cli=nmsparse.cli, tensorio=nmsparse.tensorio), seconds


def blas_threads(np) -> str:
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def cache_bytes(level: int) -> int | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if int((index / "level").read_text()) == level and \
                    (index / "type").read_text().strip() in ("Unified", "Data"):
                text = (index / "size").read_text().strip()
                scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1], 1)
                return int(text.rstrip("KM")) * scale
        except (OSError, ValueError):
            continue
    return None


def environment_lines(np, nproc: int) -> list[str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    l2, l3 = cache_bytes(2), cache_bytes(3)
    mib = 1 << 20
    tensor = 2048 * 2048 * 4
    lines = [
        f"nproc {nproc}; Python {platform.python_version()}; numpy {np.__version__}; "
        f"BLAS {blas.get('name')} {blas.get('version')}; BLAS threads {blas_threads(np)}",
        f"L2 {l2 / mib if l2 else '?'} MiB per core, L3 {l3 / mib if l3 else '?'} MiB "
        "(as reported by the kernel for cpu0)",
    ]
    if l2 and l3:
        lines.append(
            f"tensor-file input: {tensor / mib:.0f} MiB float32 = {tensor / l2:.0f}x L2, "
            f"{tensor / l3:.2f}x L3; prune works on float64 copies of "
            f"{2 * tensor / mib:.0f} MiB = {2 * tensor / l3:.2f}x L3")
    if l3:
        lines.append(
            f"4x-LLC rule not met: an input of 4x L3 is {4 * l3 / 2**30:.1f} GiB of float32, "
            f"and prune peaks near 15 float64 copies of its input ({15 * 8 * l3 / 2**30:.0f} GiB), "
            "far more than this machine's memory; the working set is far beyond L2 but inside L3")
    return lines


def tail_percentile(samples: list[float]) -> str:
    """The highest of a few percentiles with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            ordered = sorted(samples)
            return f"p{p:g} {ordered[min(n - 1, int(p / 100.0 * n))]:.4f} s"
    return "no percentile has 10 ops beyond it"


class Run:
    """Failure bookkeeping shared by every op of one run.

    Ops repeat deterministic work on fixed inputs, so failures are counted
    per distinct sub-op (one kind on one input): a repeat re-times the same
    work and must reproduce its output, which the checks enforce.
    """

    def __init__(self):
        self.failed: dict[str, bool] = {}
        self.problems: list[str] = []
        self.times: dict[str, list[float]] = {}
        self.fail_notes: dict[str, str] = {}

    def record(self, workload, outcomes, timed: bool) -> float:
        for oc in outcomes:
            self.problems += workload.check(oc)
            self.failed[oc.key] = self.failed.get(oc.key, False) or oc.failed
            if oc.failed and oc.key not in self.fail_notes:
                detail = (oc.stdout + oc.stderr).strip().splitlines()
                bad = [line for line in detail if "FAIL" in line or "rror" in line] or detail[-1:]
                self.fail_notes[oc.key] = oc.missed_gate or f"status {oc.status}: " + " | ".join(bad[:3])
            if oc.status == "exception":
                self.problems.append(f"{oc.key}: raised\n{oc.stderr}")
            if timed:
                self.times.setdefault(oc.key, []).append(oc.seconds)
        return sum(oc.seconds for oc in outcomes)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "nmsparse" / "cli.py").is_file():
        print(f"error: no nmsparse sources under {src}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # One BLAS thread: the library's matrix products are small, and a
    # second OpenBLAS thread spins between them, taking a whole core of a
    # two-core host and making op times several times noisier.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
    try:
        lib, import_s = import_library(src)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # The benchmark's own modules import numpy, so they load only after the
    # library's import (numpy included) has been timed and BLAS is capped.
    import numpy as np

    import tracing
    import workloads

    for line in environment_lines(np, nproc):
        print(f"env: {line}")
    workdir = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, lib, import_s, workdir, workloads, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def subop_loop(seconds: float, every, state: Run) -> dict[str, float]:
    """Run the sub-ops of every op, one at a time, for ``seconds``.

    Each step runs the sub-op charged least so far (a sub-op is charged its
    time, but at least MIN_CHARGE_S), ties going to the earlier one in op
    order. So the first round runs every sub-op once, in order,
    and later rounds interleave long and short sub-ops across the whole run
    instead of sampling any of them in one burst: the speed of a small
    shared host drifts by 10-30% over tens of seconds. Every sub-op runs
    at least once. Returns the seconds spent in each sub-op.
    """
    entries = [(wl, key) for wl in every for key in wl.subops]
    charged = dict.fromkeys(entries, 0.0)
    spent = {key: 0.0 for _, key in entries}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not all(spent.values()):
        wl, key = min(entries, key=charged.__getitem__)
        oc = wl.run_subop(key)
        state.record(wl, [oc], timed=True)
        charged[wl, key] += max(oc.seconds, MIN_CHARGE_S)
        spent[key] += oc.seconds
    return spent


def run_ops(own) -> list:
    """One op of the workload: the op of each of its classes, in order."""
    return [(wl, wl.run_op()) for wl in own]


def trace_loop(seconds: float, own, state: Run, tracer):
    """Alternate traced and untraced ops of the workload for ``seconds``,
    so that the tracing overhead compares ops run in the same conditions.
    Returns the op times of both kinds."""
    traced_ops, plain_ops = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not plain_ops:
        traced = len(traced_ops) <= len(plain_ops)
        if traced:
            tracer.op = len(traced_ops)
            tracer.install()
        try:
            results = run_ops(own)
        finally:
            if traced:
                tracer.uninstall()
        seconds_op = sum(state.record(wl, outcomes, timed=not traced) for wl, outcomes in results)
        (traced_ops if traced else plain_ops).append(seconds_op)
    return traced_ops, plain_ops


def run(args, lib, import_s: float, workdir: Path, workloads, tracing) -> dict:
    state = Run()
    every = [cls(lib, workdir / cls.name, args.seed) for cls in workloads.OPS]
    own = [wl for wl in every if type(wl) in workloads.WORKLOADS[args.workload]]
    for wl in every:
        wl.workdir.mkdir()

    # Set-up: input generation plus one warm-up op, several times; the
    # warm-up outputs are the reference every later op must reproduce.
    setups = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        for wl in own:
            wl.generate()
        results = run_ops(own)
        setups.append(time.perf_counter() - start)
        for wl, outcomes in results:
            if i == 0:
                wl.prepare_checks()
            state.record(wl, outcomes, timed=False)
    setup_s = import_s + statistics.median(setups)
    # Read before any other op runs: the loop repeats the same ops.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    start = time.perf_counter()
    if args.trace:
        tracer = tracing.Tracer()
        traced_ops, plain_ops = trace_loop(args.seconds, own, state, tracer)
        loop = f"{len(traced_ops)} traced and {len(plain_ops)} untraced ops"
    else:
        for wl in every:
            if wl not in own:
                wl.generate()
                wl.prepare_checks()
        spent = subop_loop(args.seconds, every, state)
        loop = ", ".join(f"{key} {s:.2f} s" for key, s in spent.items())
    print(f"{args.workload}: set-up {setup_s:.3f} s (import {import_s:.3f} s + median of "
          + ", ".join(f"{s:.3f}" for s in setups) + " s); loop "
          f"{time.perf_counter() - start:.2f} s: {loop}")

    metrics = {}
    if args.trace:
        trace_dir = workdir.parent / "traces"
        trace_dir.mkdir(exist_ok=True)
        trace_path = trace_dir / f"{args.workload}-s{args.seed}.jsonl"
        tracer.write(trace_path)
        traced_op, plain_op = statistics.median(traced_ops), statistics.median(plain_ops)
        layer, notes = tracing.layer_metrics(tracer, len(traced_ops), plain_op, traced_op)
        print(f"trace: {len(tracer.spans)} spans over {len(traced_ops)} ops written to "
              f"{trace_path.relative_to(ROOT)}; median op {traced_op:.4f} s traced, "
              f"{plain_op:.4f} s untraced ({len(plain_ops)} ops, interleaved)")
        for note in notes:
            print(f"trace: {note}")
        for name, unit in tracing.metric_specs():
            value, unit = layer[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"layer {name} = {value:.6g} {unit}")
    else:
        for wl in every:
            for key in wl.subops:
                samples = state.times[key]
                name, value, unit = workloads.subop_metric(key, samples)
                metrics[name] = {"value": value, "unit": unit}
                print(f"metric {name} = {value:.6g} {unit}  ({wl.name} op {key}: {len(samples)} "
                      f"calls, median {statistics.median(samples):.4f} s, {tail_percentile(samples)})")
        failed_ratio = sum(state.failed.values()) / len(state.failed)
        for name, value, unit in (("setup_s", setup_s, "s"),
                                  ("failed_ops_ratio", failed_ratio, "ratio"),
                                  ("peak_rss_mb", peak_rss_mb, "MB")):
            metrics[name] = {"value": value, "unit": unit}
            print(f"metric {name} = {value:.6g} {unit}")

    attempted, failed = len(state.failed), sum(state.failed.values())
    print(f"ops: {failed} of {attempted} distinct sub-ops failed")
    for key, note in state.fail_notes.items():
        print(f"failed: {key}: {note}")
    for problem in state.problems:
        print(f"incorrect: {problem}")
    return {"correct": not state.problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
