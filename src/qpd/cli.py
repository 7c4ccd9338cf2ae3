"""Command-line front end: classify tensor files, run the oracle, sweep the
sign class, and check the inequality suite.

Exit codes: 0 when analytic and numeric verdicts agree (or no comparison was
requested), 2 on a conflict, 1 on input errors.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import product

from . import inequalities as ineq
from .binary import NotInSignClass, classify_binary, classify_sign_binary
from .oracle import (
    NonFiniteValue, OracleConfig, OracleResult, agreement, min_on_sphere, minima_on_sphere,
    verify_verdict,
)
from .tensors import TensorError, TooManyDigits, evaluate, format_scalar, load_tensor
from .ternary import STUDIED_LEVELS, NotInClass, SignClassTensor, classify_ternary
from .verdicts import Verdict


def _scalar_json(value):
    return format_scalar(value) if value is not None else None


def _vector_json(vec):
    return None if vec is None else [_scalar_json(v) for v in vec]


def _analytic_json(verdict):
    if verdict is None:
        return None
    out = {"class": verdict.classification.value}
    if isinstance(verdict, Verdict):
        out["branch"] = verdict.branch
    else:
        out["regime"] = verdict.regime
        out["condition_holds"] = dict(verdict.condition_holds)
        if verdict.monotone_bound is not None:
            out["monotone_bound"] = verdict.monotone_bound.value
    out["witness"] = _vector_json(verdict.witness)
    return out


def _numeric_json(result: OracleResult | None):
    if result is None:
        return None
    return {
        "min_value": result.min_value,
        "argmin": list(result.argmin),
        "verdict": result.verdict.value,
        "confirmed_exact": _scalar_json(result.confirmed_exact),
        "iterations": result.iterations,
    }


def _witness_exact(tensor, verdict):
    if verdict is None or verdict.witness is None:
        return None
    return {
        "point": _vector_json(verdict.witness),
        "value": _scalar_json(evaluate(tensor, verdict.witness)),
    }


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    for line in _render_text(report):
        print(line)


def _render_text(report: dict, prefix: str = "") -> list[str]:
    lines = []
    for key, value in sorted(report.items()):
        if isinstance(value, dict):
            lines.append(f"{prefix}{key}:")
            lines.extend(_render_text(value, prefix + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{prefix}{key}: ({len(value)} rows)")
        else:
            lines.append(f"{prefix}{key}: {value}")
    return lines


def _classify_tensor(tensor, mode):
    """Analytic verdict for the requested mode, or None for oracle-only.

    A ternary tensor outside the sign class downgrades to oracle-only, with a
    notice on stderr."""
    if mode == "oracle-only":
        return None
    if tensor.dim == 2:
        try:
            return classify_sign_binary(tensor)
        except NotInSignClass:
            return classify_binary(tensor)
    try:
        return classify_ternary(tensor)
    except NotInClass as exc:
        print(f"notice: tensor outside the analytic sign class ({exc}); oracle only",
              file=sys.stderr)
        return None


def _run_classify(args, cfg: OracleConfig) -> int:
    try:
        tensor = load_tensor(args.input)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 1
    except TensorError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 1
    if args.mode == "binary" and tensor.dim != 2 or args.mode == "ternary" and tensor.dim != 3:
        print(f"error: {args.input}: tensor dimension {tensor.dim} does not match "
              f"mode {args.mode}", file=sys.stderr)
        return 1

    numeric = None
    agreement = "n/a"
    try:
        analytic = _classify_tensor(tensor, args.mode)
        if analytic is None:
            numeric = min_on_sphere(tensor, cfg)
        elif not args.no_oracle:
            check = verify_verdict(tensor, analytic, cfg)
            numeric = check.numeric
            agreement = check.agreement
        report = {
            "input": str(args.input),
            "mode": args.mode,
            "agreement": agreement,
            "analytic": _analytic_json(analytic),
            "numeric": _numeric_json(numeric),
            "witness_exact": _witness_exact(tensor, analytic),
        }
    except (NonFiniteValue, TooManyDigits) as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 1
    _emit(report, args.format)
    return 2 if agreement == "conflict" else 0


def _run_sweep(args, cfg: OracleConfig) -> int:
    rows = []
    conflicts = 0
    counts: dict[str, int] = {}
    patterns = list(product((1, -1), repeat=6))
    for b in STUDIED_LEVELS:
        # One stacked oracle search per level, over its 64 sign patterns.
        tensors = [SignClassTensor(*bits, b).to_quartic() for bits in patterns]
        verdicts = [classify_ternary(tensor) for tensor in tensors]
        results = minima_on_sphere(tensors, cfg)
        for bits, verdict, result in zip(patterns, verdicts, results):
            agrees = agreement(verdict, result, cfg)
            if agrees == "conflict":
                conflicts += 1
            key = f"{format_scalar(b)}:{verdict.classification.value}"
            counts[key] = counts.get(key, 0) + 1
            rows.append(
                {
                    "b": format_scalar(b),
                    "s": list(bits[:3]),
                    "c": list(bits[3:]),
                    "analytic": verdict.classification.value,
                    "numeric": result.verdict.value,
                    "min_value": result.min_value,
                    "agreement": agrees,
                }
            )
    report = {
        "mode": "sweep",
        "rows": rows,
        "summary": {"counts": counts, "conflicts": conflicts, "tensors": len(rows)},
    }
    _emit(report, args.format)
    return 2 if conflicts else 0


def _run_inequalities(args, cfg: OracleConfig) -> int:
    if args.samples < 1:
        print("error: --samples must be >= 1", file=sys.stderr)
        return 1
    outcomes = ineq.check_inequalities(ineq.CHECKED_VARIANTS, args.samples, args.seed, cfg)
    results = []
    failures = 0
    for iid, rep in zip(ineq.CHECKED_VARIANTS, outcomes):
        if isinstance(rep, ineq.ViolationFound):
            failures += 1
            results.append({"inequality": iid.label, "status": "violated", "detail": str(rep)})
            continue
        results.append(
            {
                "inequality": iid.label,
                "status": "ok",
                "checked_points": rep.checked_points,
                "min_residual": _scalar_json(rep.min_residual),
                "equality_points": rep.equality_points,
                "oracle_min": rep.oracle_min,
                "oracle_exact": _scalar_json(rep.oracle_exact),
            }
        )
    report = {
        "mode": "inequalities",
        "samples": args.samples,
        "seed": args.seed,
        "results": results,
        "summary": {"checked": len(results), "violations": failures},
    }
    _emit(report, args.format)
    return 2 if failures else 0


class _Parser(argparse.ArgumentParser):
    """A malformed command line is an input error, exit 1; 2 is a conflict."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged."""
    parser = _Parser(
        prog="qpd",
        description="Decide positive (semi)definiteness of quartic forms in 2 "
        "or 3 variables, with independent numeric verification.",
    )
    parser.add_argument("input", nargs="?", help="tensor JSON file")
    parser.add_argument(
        "--mode",
        choices=["auto", "binary", "ternary", "oracle-only", "inequalities", "sweep"],
        default="auto",
    )
    parser.add_argument("--no-oracle", action="store_true",
                        help="skip the numeric verification pass")
    parser.add_argument("--grid", type=int, default=OracleConfig.grid_resolution,
                        help="seed grid resolution per angular dimension")
    parser.add_argument("--starts", type=int, default=OracleConfig.starts,
                        help="number of local refinements")
    parser.add_argument("--tol", type=float, default=OracleConfig.verdict_tol,
                        help="verdict band around zero for the sphere minimum")
    parser.add_argument("--max-denominator", type=int, default=OracleConfig.max_denominator,
                        help="denominator bound for exact confirmation")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--samples", type=int, default=1000,
                        help="random sample count for inequalities mode")
    parser.add_argument("--seed", type=int, default=0,
                        help="random seed for inequalities mode")
    return parser


def main(argv=None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # The reader closed stdout early (``qpd ... | head``).  Point stdout at
        # devnull, so that the interpreter's final flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _main(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = OracleConfig(grid_resolution=args.grid, starts=args.starts,
                           verdict_tol=args.tol, max_denominator=args.max_denominator)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.mode == "sweep":
        return _run_sweep(args, cfg)
    if args.mode == "inequalities":
        return _run_inequalities(args, cfg)
    if args.input is None:
        print("error: an input tensor file is required for this mode", file=sys.stderr)
        return 1
    return _run_classify(args, cfg)


if __name__ == "__main__":
    sys.exit(main())
