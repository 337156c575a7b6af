"""Command-line interface.

Exit codes: 0 success, 1 verified property failed, 2 usage error,
3 file I/O or format error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import analysis, estimators, tensorio, traindemo
from .core import SparsityPattern, pattern_violations
from .estimators import EstimatorKind
from .rng import RandomStream

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _pattern_arg(text: str) -> SparsityPattern:
    try:
        return SparsityPattern.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _method_arg(text: str) -> EstimatorKind:
    try:
        return EstimatorKind.from_name(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmsparse",
        description="N:M fine-grained sparsity: greedy and unbiased stochastic pruning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prune", help="prune a tensor file blockwise")
    p.add_argument("input", help="dense tensor file to read")
    p.add_argument("output", help="pruned dense tensor file to write")
    p.add_argument("--method", type=_method_arg, required=True)
    p.add_argument("--pattern", type=_pattern_arg, default=None, help="N:M, e.g. 2:4")
    p.add_argument("--axis", type=int, default=-1, help="blocking axis (default innermost)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--compressed", metavar="PATH", default=None,
                   help="also write the pruned tensor in compressed form")

    p = sub.add_parser("verify", help="run the estimator property suite")
    p.add_argument("--method", type=_method_arg, required=True)
    p.add_argument("--blocks", type=int, default=100)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pattern", type=_pattern_arg, default=None)

    p = sub.add_parser("scan", help="variance-ratio scan over 2:4 blocks")
    p.add_argument("--step", type=float, default=0.02)
    p.add_argument("--refine-edges", action="store_true")
    p.add_argument("--out", required=True, help="CSV output path")

    p = sub.add_parser("macs", help="expected multiply-accumulates under random masks")
    p.add_argument("--pattern", type=_pattern_arg, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("demo-train", help="train the demo MLP and write a CSV of curves")
    p.add_argument("--dataset", choices=traindemo.DATASET_KINDS, default="two-moons")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--grad-mask", default="none",
                   help="gradient estimator (stochastic method name or 'none')")
    p.add_argument("--act-mask", choices=traindemo.ACT_MODES, default="none")
    p.add_argument("--pattern", type=_pattern_arg, default=None,
                   help="activation-mask pattern (default 2:4)")
    p.add_argument("--epochs", type=int, default=120)
    p.add_argument("--lr", type=float, default=0.15)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV output path (epoch,loss,val_acc)")
    return parser


def _cmd_prune(args) -> int:
    tensor = tensorio.read_tensor(args.input)
    # read_tensor blocks the innermost axis, as --axis -1 does.
    if args.axis not in (tensor.block_axis, tensor.block_axis - len(tensor.shape)):
        tensor = type(tensor)(tensor.shape, tensor.data, args.axis)
    pattern = estimators.resolve_pattern(args.method, args.pattern)
    stream = RandomStream(args.seed)
    pruned = estimators.prune_tensor(tensor, args.method, pattern, stream)
    violations = pattern_violations(pruned, pattern)
    if violations:
        print(f"pruned output violates {pattern} in {violations} blocks", file=sys.stderr)
        return EXIT_PROPERTY
    tensorio.write_tensor(args.output, pruned)
    message = f"pruned {args.input} -> {args.output} method={args.method.value} pattern={pattern}"
    if args.compressed:
        comp = tensorio.compress(pruned, pattern)
        tensorio.write_compressed(args.compressed, comp)
        message += (
            f" compressed={args.compressed}"
            f" blocked_ratio={comp.blocked_compression_ratio():.4f}"
        )
    print(message)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.blocks < 1 or args.samples < 2:
        print("verify needs --blocks >= 1 and --samples >= 2", file=sys.stderr)
        return EXIT_USAGE
    checks = analysis.verify_estimator(
        args.method,
        num_blocks=args.blocks,
        samples=args.samples,
        seed=args.seed,
        pattern=args.pattern,
    )
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{args.method.value} {check.name}: {status} ({check.detail})")
    return EXIT_OK if all(c.passed for c in checks) else EXIT_PROPERTY


def _cmd_scan(args) -> int:
    summary = analysis.scan_summary(args.step, args.refine_edges, csv_path=args.out)
    print(
        f"scanned {summary.points} points (skipped {summary.skipped}); "
        f"max ratio {summary.max_ratio:.6f} at a={summary.worst_point}"
    )
    return EXIT_OK


def _cmd_macs(args) -> int:
    if args.trials < 1:
        print("macs needs --trials >= 1", file=sys.stderr)
        return EXIT_USAGE
    empirical, analytic = analysis.expected_macs(args.pattern, args.trials, args.seed)
    se = analysis.expected_macs_se(args.pattern, args.trials)
    dense = args.pattern.m
    print(
        f"pattern {args.pattern}: analytic mean {analytic:.6f} MACs/block "
        f"(dense {dense}), empirical {empirical:.6f} over {args.trials} trials"
    )
    if abs(empirical - analytic) > 3.0 * se:
        print(f"empirical mean deviates from analytic by more than 3 SE ({se:.2e})", file=sys.stderr)
        return EXIT_PROPERTY
    return EXIT_OK


def _cmd_demo_train(args) -> int:
    grad_mask = None
    if args.grad_mask != "none":
        grad_mask = EstimatorKind.from_name(args.grad_mask)
        if grad_mask is EstimatorKind.GREEDY_MSE:
            raise ValueError("gradient masking requires a stochastic estimator")
    config = traindemo.MlpConfig(
        epochs=args.epochs,
        lr=args.lr,
        batch_size=args.batch_size,
        seed=args.seed,
        grad_mask=grad_mask,
        act_mask=args.act_mask,
        act_pattern=args.pattern if args.pattern is not None else estimators.PATTERN_24,
    )
    data = traindemo.generate_dataset(args.dataset, args.n, args.noise, args.seed)
    records = traindemo.train(config, data)
    with open(args.out, "w", encoding="ascii", newline="\n") as fh:
        fh.write("epoch,loss,val_acc\n")
        for rec in records:
            fh.write(f"{rec.epoch},{rec.loss!r},{rec.val_acc!r}\n")
    final = records[-1]
    print(
        f"trained {args.dataset} for {config.epochs} epochs: "
        f"final loss {final.loss:.4f}, val accuracy {final.val_acc:.4f}"
    )
    return EXIT_OK


_COMMANDS = {
    "prune": _cmd_prune,
    "verify": _cmd_verify,
    "scan": _cmd_scan,
    "macs": _cmd_macs,
    "demo-train": _cmd_demo_train,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except tensorio.TensorFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
