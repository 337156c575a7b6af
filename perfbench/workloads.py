"""The three ops, their inputs and the checks on each, and the two
benchmark workloads made of them.

An op is a closed-loop unit of work made of sub-ops, each one call into
the library (a ``nmsparse.cli.main`` command, or the tensorio API for the
compressed-file load). Sub-ops run and are timed one by one; the
benchmark's own checks run after each sub-op, outside its timed region.
Repeats of a sub-op must reproduce its first output exactly, so a check
that relates two sub-ops compares with the other sub-op's first output.

A sub-op *fails* when the program reports failure (a nonzero exit code or
an exception) or when it misses a statistical quality gate (the training
accuracy gate); its time still counts, since the program did the work. A
sub-op that reports success but whose output fails an exact check makes
the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import struct
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROWS = COLS = 2048
AXIS0_ROWS = 2050  # 2050 % 4 == 2: blocking along axis 0 leaves a 2-row tail
VERIFY_METHODS = ("mvue24", "approx24", "mvue12")
VERIFY_BLOCKS = 100
VERIFY_SAMPLES = 10_000
# `nmsparse verify` draws its blocks from --seed. It runs at the CLI default,
# 0, at every workload seed: the failure set of the SE-floor defect (see
# NOTES.md) changes from seed to seed, so a seed-dependent input would make
# failed_ops_ratio swing between runs instead of tracking the code.
VERIFY_SEED = 0
SCAN_STEP = 0.02
TRAIN_EPOCHS = 40
VAL_ACC_SLACK = 0.02  # masked final val_acc >= dense - 0.02, as in C9


@dataclass
class Outcome:
    """One executed sub-op."""

    key: str
    seconds: float
    status: int | str          # exit code, or "exception"
    stdout: str = ""
    stderr: str = ""
    files: dict = field(default_factory=dict)   # artifact name -> bytes
    missed_gate: str = ""      # a quality gate the output missed

    @property
    def failed(self) -> bool:
        return self.status != 0 or bool(self.missed_gate)


def call_cli(cli, key: str, argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            status = cli.main(argv)
        except Exception:  # the boundary of one op: record it and go on
            status = "exception"
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return Outcome(key, seconds, status, out.getvalue(), err.getvalue())


# ---------------------------------------------------------------------------
# NMSP dense files, read and written by the benchmark itself so that inputs
# and output checks do not depend on the code under test.


def write_nmsp(path: Path, arr: np.ndarray) -> None:
    header = struct.pack("<4sHHH", b"NMSP", 1, 0, arr.ndim)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    with open(path, "wb") as fh:
        fh.write(header + np.ascontiguousarray(arr, dtype="<f4").tobytes())
        os.fsync(fh.fileno())


def read_output(path: Path) -> bytes:
    """Read a file an op wrote, and flush it to disk first, so that its
    write-back is not charged to the next timed call."""
    with open(path, "rb") as fh:
        os.fsync(fh.fileno())
        return fh.read()


def nmsp_payload(data: bytes, shape: tuple[int, ...]) -> np.ndarray:
    """The float32 payload of an NMSP file, checked against the shape."""
    magic, version, dtype, ndim = struct.unpack_from("<4sHHH", data, 0)
    if (magic, version, dtype, ndim) != (b"NMSP", 1, 0, len(shape)):
        raise ValueError(f"unexpected NMSP header {(magic, version, dtype, ndim)}")
    if struct.unpack_from(f"<{ndim}Q", data, 10) != shape:
        raise ValueError("unexpected NMSP shape")
    offset = 10 + 8 * ndim
    if len(data) != offset + 4 * math.prod(shape):
        raise ValueError("unexpected NMSP size")
    return np.frombuffer(data, dtype="<f4", offset=offset).reshape(shape)


def mixed_rows(gen: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Half standard-normal rows, half lognormal-magnitude rows of random
    sign (the mix of ``analysis.random_test_blocks``), so that all three
    regimes of the exact 2:4 sampler occur."""
    heavy = rows // 2
    normal = gen.standard_normal((rows - heavy, cols))
    mags = np.exp(2.0 * gen.standard_normal((heavy, cols)))
    signs = np.where(gen.random((heavy, cols)) < 0.5, -1.0, 1.0)
    return np.concatenate([normal, mags * signs]).astype(np.float32)


def greedy_reference(x: np.ndarray) -> np.ndarray:
    """Top-2 magnitudes of each innermost 4-block, ties to the lower index."""
    blocks = x.astype(np.float64).reshape(-1, 4)
    order = np.argsort(-np.abs(blocks), axis=1, kind="stable")
    keep = np.zeros(blocks.shape, dtype=bool)
    np.put_along_axis(keep, order[:, :2], True, axis=1)
    return np.where(keep, blocks, 0.0).astype(np.float32).reshape(x.shape)


def pattern_problems(out: np.ndarray, x: np.ndarray, axis: int) -> list[str]:
    """2:4 along ``axis`` (0 or 1 of a 2-D array), tail unchanged, kept
    entries keep their input's sign."""
    problems = []
    moved = out if axis == 1 else out.T
    whole = moved.shape[1] - moved.shape[1] % 4
    counts = np.count_nonzero(moved[:, :whole].reshape(moved.shape[0], -1, 4), axis=2)
    if np.any(counts > 2):
        problems.append(f"{int(np.sum(counts > 2))} blocks keep more than 2 entries")
    tail_in = (x if axis == 1 else x.T)[:, whole:]
    if not np.array_equal(moved[:, whole:], tail_in):
        problems.append("axis remainder was not passed through unchanged")
    kept = out != 0
    if np.any(np.signbit(out[kept]) != np.signbit(x[kept])):
        problems.append("a kept entry changed sign")
    return problems


# ---------------------------------------------------------------------------
# Workloads


class Op:
    """The inputs, sub-ops and checks of one op.

    ``generate`` builds the inputs from the seed; ``run_subop`` executes one
    sub-op and ``run_op`` all of them, in the order of ``subops`` (a later
    sub-op may read what an earlier one wrote); ``check`` returns problems
    found in one outcome, comparing a repeat with the sub-op's first run.
    """

    name = ""
    subops: tuple[str, ...] = ()

    def __init__(self, lib, workdir: Path, seed: int):
        self.lib = lib
        self.workdir = workdir
        self.seed = seed
        self.first: dict[str, Outcome] = {}

    def generate(self) -> None:
        pass

    def prepare_checks(self) -> None:
        """Reference data for the checks; not part of set-up time."""

    def run_subop(self, key: str) -> Outcome:
        raise NotImplementedError

    def run_op(self) -> list[Outcome]:
        return [self.run_subop(key) for key in self.subops]

    def check(self, oc: Outcome) -> list[str]:
        first = self.first.setdefault(oc.key, oc)
        if first is not oc:
            # A repeat must reproduce the first run, which was checked in full.
            if (first.status, first.stdout, first.files) != (oc.status, oc.stdout, oc.files):
                return [f"{oc.key}: output differs from the first run's"]
            oc.missed_gate = first.missed_gate
            return []
        return [] if oc.failed else [f"{oc.key}: {p}" for p in self.check_subop(oc)]

    def check_subop(self, oc: Outcome) -> list[str]:
        return []


class TensorFile(Op):
    """2:4 pruning of 2048x2048 float32 NMSP files through ``cli prune``."""

    name = "tensor-file"
    subops = ("prune_greedy", "prune_mvue24", "prune_axis0", "load_compressed")

    def generate(self):
        w = self.workdir
        self.x = mixed_rows(np.random.Generator(np.random.PCG64([self.seed, 1])), ROWS, COLS)
        self.x0 = mixed_rows(np.random.Generator(np.random.PCG64([self.seed, 2])), AXIS0_ROWS, COLS)
        write_nmsp(w / "in.nmsp", self.x)
        write_nmsp(w / "in_axis0.nmsp", self.x0)

    def prepare_checks(self):
        self.greedy_ref = greedy_reference(self.x)

    def _prune(self, key, method, src, dst, axis):
        w = self.workdir
        argv = ["prune", str(w / src), str(w / f"{dst}.nmsp"), "--method", method,
                "--pattern", "2:4", "--seed", str(self.seed),
                "--compressed", str(w / f"{dst}.nmsc")]
        if axis is not None:
            argv += ["--axis", str(axis)]
        oc = call_cli(self.lib.cli, key, argv)
        if not oc.failed:
            oc.files = {"dense": read_output(w / f"{dst}.nmsp"),
                        "compressed": read_output(w / f"{dst}.nmsc")}
        return oc

    def _load(self):
        tensorio = self.lib.tensorio
        start = time.perf_counter()
        try:
            dense = tensorio.decompress(tensorio.read_compressed(self.workdir / "mvue24.nmsc"))
        except Exception:  # the boundary of one op: record it and go on
            return Outcome("load_compressed", time.perf_counter() - start, "exception",
                           stderr=traceback.format_exc())
        oc = Outcome("load_compressed", time.perf_counter() - start, 0)
        oc.files = {"dense": np.asarray(dense.data).astype("<f4").tobytes(),
                    "shape": repr(tuple(dense.shape)).encode()}
        return oc

    # sub-op -> (method, input file, output stem, axis)
    PRUNES = {
        "prune_greedy": ("greedy", "in.nmsp", "greedy", None),
        "prune_mvue24": ("mvue24", "in.nmsp", "mvue24", None),
        "prune_axis0": ("mvue24", "in_axis0.nmsp", "axis0", 0),
    }

    def run_subop(self, key):
        if key == "load_compressed":  # reads what prune_mvue24 wrote
            return self._load()
        return self._prune(key, *self.PRUNES[key])

    def check_subop(self, oc):
        if oc.key == "load_compressed":
            return self._check_load(oc)
        if not oc.stdout.startswith("pruned "):
            return ["unexpected CLI output"]
        x = self.x0 if oc.key == "prune_axis0" else self.x
        try:
            out = nmsp_payload(oc.files["dense"], x.shape)
        except ValueError as exc:
            return [str(exc)]
        problems = pattern_problems(out, x, 0 if oc.key == "prune_axis0" else 1)
        if oc.key == "prune_greedy" and not np.array_equal(
                out.view(np.uint32), self.greedy_ref.view(np.uint32)):
            problems.append("greedy output differs from the top-2 reference")
        return problems

    def _check_load(self, oc):
        # prune_mvue24 reproduces its first output on every run (checked),
        # so the compressed file read here holds that output.
        dense = self.first.get("prune_mvue24")
        if dense is None or dense.failed:
            return []
        if oc.files["shape"] != repr((ROWS, COLS)).encode():
            return ["wrong shape"]
        if oc.files["dense"] != nmsp_payload(dense.files["dense"], (ROWS, COLS)).tobytes():
            return ["decompress(read_compressed) differs from the dense output"]
        return []


class VerifyScan(Op):
    """The Monte-Carlo property suite and the closed-form variance scan."""

    name = "verify-scan"
    subops = tuple(f"verify_{m}" for m in VERIFY_METHODS) + ("scan",)

    # Verify and scan take no random input besides verify's fixed --seed
    # (see VERIFY_SEED); the workload seed sets the inputs of the other ops.

    def run_subop(self, key):
        if key == "scan":
            csv = self.workdir / "scan.csv"
            oc = call_cli(self.lib.cli, key, ["scan", "--step", str(SCAN_STEP), "--out", str(csv)])
            if not oc.failed:
                oc.files = {"csv": read_output(csv)}
            return oc
        method = key.split("_", 1)[1]
        return call_cli(self.lib.cli, key, [
            "verify", "--method", method, "--blocks", str(VERIFY_BLOCKS),
            "--samples", str(VERIFY_SAMPLES), "--seed", str(VERIFY_SEED)])

    def check_subop(self, oc):
        if oc.key != "scan":
            lines = oc.stdout.splitlines()
            # Every method here is unbiased: each of its checks must PASS.
            if len(lines) != 4 or not all(": PASS (" in line for line in lines):
                return ["verify reported success without four PASS lines"]
            return []
        m = re.fullmatch(r"scanned (\d+) points \(skipped (\d+)\); max ratio ([0-9.eE+-]+) at .*\n",
                         oc.stdout)
        if m is None:
            return ["unexpected scan output"]
        points, skipped, ratio = int(m.group(1)), int(m.group(2)), float(m.group(3))
        problems = []
        if skipped != 0:
            problems.append(f"scan skipped {skipped} points")
        if not ratio < 2.0:
            problems.append(f"scan max ratio {ratio} is not below 2")
        if oc.files["csv"].count(b"\n") != points + 1:
            problems.append("scan CSV does not hold points + 1 lines")
        return problems


class TrainMasked(Op):
    """The demo MLP, with 2:4 gradient and activation masks and dense."""

    name = "train-masked"
    # Dense first: the masked run's accuracy gate compares with it.
    subops = ("train_dense", "train_mvue24")

    def _train(self, key, grad_mask, act_mask):
        csv = self.workdir / f"{key}.csv"
        oc = call_cli(self.lib.cli, key, [
            "demo-train", "--dataset", "two-moons", "--epochs", str(TRAIN_EPOCHS),
            "--grad-mask", grad_mask, "--act-mask", act_mask,
            "--seed", str(self.seed), "--out", str(csv)])
        if not oc.failed:
            oc.files = {"csv": read_output(csv)}
        return oc

    def run_subop(self, key):
        if key == "train_dense":
            return self._train(key, "none", "none")
        return self._train(key, "mvue24", "relu-greedy")

    @staticmethod
    def _curve(oc):
        lines = oc.files["csv"].decode().splitlines()
        return [tuple(float(v) for v in line.split(",")) for line in lines[1:]]

    def check_subop(self, oc):
        curve = self._curve(oc)
        if len(curve) != TRAIN_EPOCHS:
            return [f"{len(curve)} epochs in the CSV"]
        if not all(math.isfinite(loss) for _, loss, _ in curve):
            return ["non-finite loss"]
        dense = self.first.get("train_dense")
        if oc.key == "train_mvue24" and dense is not None and not dense.failed:
            # A quality gate, not an exact property: it holds at most seeds
            # (it misses at 1 of seeds 0-159, seed 101), so a miss is a
            # failed sub-op.
            m_acc, d_acc = curve[-1][2], self._curve(dense)[-1][2]
            if m_acc < d_acc - VAL_ACC_SLACK:
                oc.missed_gate = f"masked val_acc {m_acc} below dense {d_acc} - {VAL_ACC_SLACK}"
        return []


OPS = (TensorFile, VerifyScan, TrainMasked)

# Benchmark workload -> the ops it sets up, warms up and traces. Untraced
# runs of both measure the sub-ops of all three ops (every end-to-end
# metric is reported on every workload). Two workloads rather than one per
# op leave each run time enough to be steady on a small shared host.
WORKLOADS = {
    "tensor-file": (TensorFile,),
    "verify-scan-train": (VerifyScan, TrainMasked),
}

# End-to-end metric of each sub-op: (name, unit, work of one call). A
# throughput is the work of all calls of the run over their total time,
# and an epoch time the other way round.
SUBOP_METRICS = {
    "prune_greedy": ("prune_greedy_melem_per_s", "Melem/s", ROWS * COLS / 1e6),
    "prune_mvue24": ("prune_mvue24_melem_per_s", "Melem/s", ROWS * COLS / 1e6),
    "prune_axis0": ("prune_axis0_melem_per_s", "Melem/s", AXIS0_ROWS * COLS / 1e6),
    "load_compressed": ("load_compressed_melem_per_s", "Melem/s", ROWS * COLS / 1e6),
    "verify_mvue24": ("verify_mvue24_kdraws_per_s", "kdraws/s", VERIFY_BLOCKS * VERIFY_SAMPLES / 1e3),
    "verify_approx24": ("verify_approx24_kdraws_per_s", "kdraws/s", VERIFY_BLOCKS * VERIFY_SAMPLES / 1e3),
    "verify_mvue12": ("verify_mvue12_kdraws_per_s", "kdraws/s", VERIFY_BLOCKS * VERIFY_SAMPLES / 1e3),
    "scan": ("scan_kpoints_per_s", "kpoints/s", round(1.0 / SCAN_STEP) ** 3 / 1e3),
    "train_mvue24": ("train_mvue24_epoch_ms", "ms", None),
    "train_dense": ("train_dense_epoch_ms", "ms", None),
}


def subop_metric(key: str, samples: list[float]) -> tuple[str, float, str]:
    name, unit, work = SUBOP_METRICS[key]
    total = sum(samples)
    if work is None:
        return name, 1e3 * total / (TRAIN_EPOCHS * len(samples)), unit
    return name, work * len(samples) / total, unit
