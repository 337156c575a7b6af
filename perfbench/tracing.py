"""In-memory span tracer for the nmsparse modules, and the per-layer metrics.

The tracer replaces every public function of the traced modules with a
timing wrapper, at each name under which a module looks the function up
(``estimators.prune_array`` and ``traindemo.prune_array`` get separate
wrappers, so a span knows which module made the call). A span is one row:
name, site (the module whose name was called), start, end, parent span,
op id, and a measured size (blocks, draws, elements or bytes) taken from
the arguments or the result outside the timed interval.

Spans stay in memory while the benchmark runs and are written out once at
the end. Layers are the seven library modules; a function that a later
change deletes simply has no spans and its metrics are reported absent.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
import time

PACKAGE = "nmsparse"
MODULES = ("cli", "core", "estimators", "rng", "tensorio", "analysis", "traindemo")
CLASS_METHODS = {"rng": ("RandomStream",)}

# Span row fields.
NAME, SITE, START, END, PARENT, OP, SIZE = range(7)


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs[name]


def _rows(args, kwargs, result):
    return int(_arg(args, kwargs, 0, "values").shape[0])


def _array_bytes(args, kwargs, result):
    """Computed bytes a kernel call moves: every array argument read plus
    every array it returns."""
    total = 0
    items = list(args) + list(kwargs.values())
    items += list(result) if isinstance(result, tuple) else [result]
    for item in items:
        nbytes = getattr(item, "nbytes", None)
        if isinstance(nbytes, int):
            total += nbytes
    return total


def _kernel_size(args, kwargs, result):
    return (_rows(args, kwargs, result), _array_bytes(args, kwargs, result))


def _draws(args, kwargs, result):
    shape = _arg(args, kwargs, 1, "shape")
    count = 1
    for dim in (shape if isinstance(shape, tuple) else (shape,)):
        count *= int(dim)
    return count


def _tensor_elems(args, kwargs, result):
    return int(_arg(args, kwargs, 0, "t").data.size)


def _shape_elems(shape):
    count = 1
    for dim in shape:
        count *= int(dim)
    return count


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _checks(args, kwargs, result):
    return (sum(1 for check in result if check.passed), len(result))


# Sizes recorded per function. Each runs after the call returns, outside
# the span's interval; one that raises leaves the size unknown (None).
SIZERS = {
    "estimators.prune_mvue24_exact_array": _kernel_size,
    "estimators.prune_mvue24_approx_array": _kernel_size,
    "estimators.prune_mvue12_array": _kernel_size,
    "estimators.greedy_mask_array": _kernel_size,
    "estimators.prune_array": _rows,
    "estimators.exact24_marginal_probs": _rows,
    "estimators.approx24_variance_array": _rows,
    "estimators.variance_from_probs_array": _rows,
    "rng.RandomStream.uniforms": _draws,
    "core.split_axis": _tensor_elems,
    "core.pattern_violations": _tensor_elems,
    "core.merge_axis": lambda a, k, r: _shape_elems(_arg(a, k, 2, "shape")),
    "tensorio.compress": _tensor_elems,
    "tensorio.decompress": lambda a, k, r: _shape_elems(_arg(a, k, 0, "c").shape),
    "tensorio.read_tensor": _file_bytes,
    "tensorio.write_tensor": _file_bytes,
    "tensorio.read_compressed": _file_bytes,
    "tensorio.write_compressed": _file_bytes,
    "analysis.verify_estimator": _checks,
}


def _call_sites():
    """(span name, [(owner, attribute, calling module)]) for every public
    function of MODULES and public method of CLASS_METHODS: each function is
    found under every name by which a library module looks it up."""
    modules = {name.rpartition(".")[2]: module for name, module in sys.modules.items()
               if name == PACKAGE or name.startswith(PACKAGE + ".")}
    for short in MODULES:
        module = modules.get(short)
        if module is None:
            continue
        for attr, fn in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__ or inspect.isgeneratorfunction(fn):
                continue
            yield f"{short}.{attr}", [(owner, name, site) for site, owner in modules.items()
                                      for name, value in vars(owner).items() if value is fn]
        for cls_name in CLASS_METHODS.get(short, ()):
            cls = getattr(module, cls_name, None)
            for attr, fn in vars(cls).items() if cls is not None else ():
                if not attr.startswith("_") and inspect.isfunction(fn):
                    yield f"{short}.{cls_name}.{attr}", [(cls, attr, short)]


class Tracer:
    """Wraps the library's public functions and records one span per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()

    def install(self) -> None:
        for span_name, sites in list(_call_sites()):
            self.wrapped.add(span_name)
            for owner, attr, site in sites:
                original = getattr(owner, attr)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, span_name, site))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name: str, site: str):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        sizer = SIZERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, site, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if sizer is not None:
                try:
                    span[SIZE] = sizer(args, kwargs, result)
                except Exception:  # a changed signature must not stop the run
                    span[SIZE] = None
            return result

        return wrapper

    def write(self, path) -> None:
        """Write the spans as JSON lines; times are seconds on perf_counter."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": span[NAME], "site": span[SITE],
                    "start": span[START], "end": span[END], "parent": span[PARENT],
                    "op": span[OP], "size": span[SIZE],
                }) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
#
# Every function below reports .calls, .busy_s and .self_s per traced op
# (medians over ops of the per-op sums; self time is busy time minus the time
# covered by the span's direct children). Rates are computed from the
# argument sizes above, summed over the run.

FUNCTIONS = (
    "cli.main",
    "estimators.prune_mvue24_exact_array",
    "estimators.prune_mvue24_approx_array",
    "estimators.prune_mvue12_array",
    "estimators.greedy_mask_array",
    "estimators.prune_array",
    "estimators.prune_tensor",
    "estimators.exact24_marginal_probs",
    "estimators.approx24_variance_array",
    "estimators.variance_from_probs_array",
    "rng.RandomStream.uniforms",
    "core.split_axis",
    "core.merge_axis",
    "core.pattern_violations",
    "tensorio.read_tensor",
    "tensorio.write_tensor",
    "tensorio.compress",
    "tensorio.decompress",
    "tensorio.read_compressed",
    "tensorio.write_compressed",
    "analysis.verify_estimator",
    "analysis.mc_estimate",
    "analysis.write_scan_csv",
    "traindemo.train",
    "traindemo.generate_dataset",
)

KERNELS = (
    "estimators.prune_mvue24_exact_array",
    "estimators.prune_mvue24_approx_array",
    "estimators.prune_mvue12_array",
    "estimators.greedy_mask_array",
)

# (metric, unit, function it is computed from, how)
RATES = tuple(
    [(f"{k}.ns_per_block", "ns/block", k, "ns_per_unit") for k in KERNELS]
    + [(f"{k}.bytes_per_call", "bytes", k, "bytes_per_call") for k in KERNELS]
    + [
        ("estimators.prune_array.blocks_per_call", "blocks", "estimators.prune_array", "units_per_call"),
        ("rng.RandomStream.uniforms.ns_per_draw", "ns/draw", "rng.RandomStream.uniforms", "ns_per_unit"),
        ("rng.RandomStream.uniforms.draws_per_op", "count", "rng.RandomStream.uniforms", "units_per_op"),
        ("core.split_axis.ns_per_elem", "ns/elem", "core.split_axis", "ns_per_unit"),
        ("core.merge_axis.ns_per_elem", "ns/elem", "core.merge_axis", "ns_per_unit"),
        ("core.pattern_violations.ns_per_elem", "ns/elem", "core.pattern_violations", "ns_per_unit"),
        ("tensorio.read_tensor.mb_per_s", "MB/s", "tensorio.read_tensor", "mb_per_s"),
        ("tensorio.write_tensor.mb_per_s", "MB/s", "tensorio.write_tensor", "mb_per_s"),
        ("tensorio.compress.ns_per_elem", "ns/elem", "tensorio.compress", "ns_per_unit"),
        ("tensorio.decompress.ns_per_elem", "ns/elem", "tensorio.decompress", "ns_per_unit"),
    ]
)

EXTRAS = (
    ("core.split_axis.calls_per_op", "count"),
    ("tensorio.bytes_read_per_op", "bytes"),
    ("tensorio.bytes_written_per_op", "bytes"),
    ("analysis.verify.checks_passed_ratio", "ratio"),
    ("traindemo.mask_s", "s"),
    ("traindemo.dense_s", "s"),
    ("traindemo.mask_share", "ratio"),
    ("trace.overhead_s_per_op", "s"),
    ("trace.overhead_share", "ratio"),
)


def metric_specs() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    specs = []
    for fn in FUNCTIONS:
        specs += [(f"{fn}.calls", "count"), (f"{fn}.busy_s", "s"), (f"{fn}.self_s", "s")]
    specs += [(name, unit) for name, unit, _, _ in RATES]
    specs += list(EXTRAS)
    return specs


def _median_per_op(per_op: dict, ops: int) -> float:
    return statistics.median([per_op.get(op, 0.0) for op in range(ops)])


def layer_metrics(tracer: Tracer, ops: int, untraced_op_s: float, traced_op_s: float):
    """Per-layer metrics from the spans of ``ops`` traced ops.

    Returns (metrics, notes): metrics maps name -> (value, unit); notes are
    human-readable lines (absent functions, computed-rate labels).
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]

    by_name: dict[str, list[int]] = {}
    for idx, span in enumerate(spans):
        if span[OP] >= 0:
            by_name.setdefault(span[NAME], []).append(idx)

    def per_op(name, value, keep=lambda idx: True):
        acc: dict[int, float] = {}
        for idx in by_name.get(name, ()):
            if keep(idx):
                acc[spans[idx][OP]] = acc.get(spans[idx][OP], 0.0) + value(idx)
        return acc

    def busy(idx):
        return spans[idx][END] - spans[idx][START]

    metrics = {}
    notes = []
    for fn in FUNCTIONS:
        if fn not in tracer.wrapped:
            notes.append(f"{fn}: absent (no such public function); its metrics read 0")
        metrics[f"{fn}.calls"] = (_median_per_op(per_op(fn, lambda i: 1.0), ops), "count")
        metrics[f"{fn}.busy_s"] = (_median_per_op(per_op(fn, busy), ops), "s")
        metrics[f"{fn}.self_s"] = (_median_per_op(per_op(fn, lambda i: busy(i) - child[i]), ops), "s")

    def size(idx, part):
        value = spans[idx][SIZE]
        if value is None:
            return None
        return value[part] if isinstance(value, tuple) else value

    for name, unit, fn, how in RATES:
        idxs = [i for i in by_name.get(fn, ()) if size(i, 0) is not None]
        part = 1 if how == "bytes_per_call" else 0
        units = sum(size(i, part) for i in idxs)
        secs = sum(busy(i) for i in idxs)
        if how == "ns_per_unit":
            value = 1e9 * secs / units if units else 0.0
        elif how == "mb_per_s":
            value = units / 1e6 / secs if secs else 0.0
        elif how in ("bytes_per_call", "units_per_call"):
            value = units / len(idxs) if idxs else 0.0
        else:  # units_per_op
            value = units / ops
        metrics[name] = (value, unit)
    notes.append("rates (ns_per_*, mb_per_s, bytes_per_call, blocks_per_call) are computed "
                 "from argument and file sizes divided by span busy time")

    prune_calls = len(by_name.get("estimators.prune_tensor", ()))
    split_calls = len(by_name.get("core.split_axis", ()))
    metrics["core.split_axis.calls_per_op"] = (
        split_calls / prune_calls if prune_calls else 0.0, "count")

    def file_bytes(names):
        total = 0
        for fn in names:
            total += sum(size(i, 0) or 0 for i in by_name.get(fn, ()))
        return total / ops

    metrics["tensorio.bytes_read_per_op"] = (
        file_bytes(("tensorio.read_tensor", "tensorio.read_compressed")), "bytes")
    metrics["tensorio.bytes_written_per_op"] = (
        file_bytes(("tensorio.write_tensor", "tensorio.write_compressed")), "bytes")

    passed = total = 0
    for idx in by_name.get("analysis.verify_estimator", ()):
        if spans[idx][SIZE] is not None:
            passed += spans[idx][SIZE][0]
            total += spans[idx][SIZE][1]
    metrics["analysis.verify.checks_passed_ratio"] = (passed / total if total else 0.0, "ratio")

    train_idx = set(by_name.get("traindemo.train", ()))

    def under_train(idx):
        parent = spans[idx][PARENT]
        while parent >= 0:
            if parent in train_idx:
                return True
            parent = spans[parent][PARENT]
        return False

    def from_traindemo(idx):
        return spans[idx][SITE] == "traindemo"

    masks = [per_op(fn, busy, from_traindemo)
             for fn in ("estimators.prune_array", "estimators.greedy_mask_array")]
    mask = {op: sum(m.get(op, 0.0) for m in masks) for op in range(ops)}
    nested_data = per_op("traindemo.generate_dataset", busy, under_train)
    train_busy = per_op("traindemo.train", busy)
    mask_s = _median_per_op(mask, ops)
    dense = {op: train_busy.get(op, 0.0) - mask[op] - nested_data.get(op, 0.0)
             for op in range(ops)}
    train_total = _median_per_op(train_busy, ops)
    metrics["traindemo.mask_s"] = (mask_s, "s")
    metrics["traindemo.dense_s"] = (_median_per_op(dense, ops), "s")
    metrics["traindemo.mask_share"] = (mask_s / train_total if train_total else 0.0, "ratio")

    metrics["trace.overhead_s_per_op"] = (traced_op_s - untraced_op_s, "s")
    metrics["trace.overhead_share"] = (
        (traced_op_s - untraced_op_s) / untraced_op_s if untraced_op_s else 0.0, "ratio")
    return metrics, notes
