"""Command-line front end: classify tensor files, run the oracle, sweep the
sign class, and check the inequality suite.

Exit codes: 0 when analytic and numeric verdicts agree (or no comparison was
requested), 2 on a conflict, 1 on input errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from itertools import product

from . import inequalities as ineq
from .binary import NotInSignClass, classify_binary, classify_sign_binary
from .oracle import (AgreementReport, NonFiniteValue, OracleConfig, OracleResult,
                     min_on_sphere, verify_verdict)
from .tensors import ParseError, TensorError, evaluate, format_scalar, load_tensor
from .ternary import STUDIED_LEVELS, NotInClass, SignClassTensor, classify_ternary, validate_class
from .verdicts import Classification, ClassVerdict, Verdict


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
        out["regime"] = verdict.regime.value
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


def _oracle_config(args) -> OracleConfig:
    return OracleConfig(
        grid_resolution=args.grid,
        starts=args.starts,
        verdict_tol=args.tol,
        max_denominator=args.max_denominator,
    )


def _classify_tensor(tensor, mode):
    """Analytic verdict for the requested mode, or None for oracle-only.

    A ternary tensor outside the sign class downgrades to oracle-only."""
    if mode == "oracle-only":
        return None, None
    if tensor.dim == 2:
        try:
            return classify_sign_binary(tensor), None
        except NotInSignClass:
            return classify_binary(tensor), None
    try:
        validate_class(tensor)
    except NotInClass as exc:
        return None, f"tensor outside the analytic sign class ({exc}); oracle only"
    return classify_ternary(tensor), None


def _run_classify(args, cfg: OracleConfig) -> int:
    try:
        tensor = load_tensor(args.input)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 1
    except (ParseError, TensorError) as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 1
    if args.mode == "binary" and tensor.dim != 2 or args.mode == "ternary" and tensor.dim != 3:
        print(f"error: {args.input}: tensor dimension {tensor.dim} does not match "
              f"mode {args.mode}", file=sys.stderr)
        return 1

    numeric = None
    agreement = "n/a"
    try:
        analytic, notice = _classify_tensor(tensor, args.mode)
        if notice:
            print(f"notice: {notice}", file=sys.stderr)
        if analytic is None:
            numeric = min_on_sphere(tensor, cfg)
        elif not args.no_oracle:
            check: AgreementReport = verify_verdict(tensor, analytic, cfg)
            numeric = check.numeric
            agreement = check.agreement
    except NonFiniteValue as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 1

    report = {
        "input": str(args.input),
        "mode": args.mode,
        "agreement": agreement,
        "analytic": _analytic_json(analytic),
        "numeric": _numeric_json(numeric),
        "witness_exact": _witness_exact(tensor, analytic),
    }
    _emit(report, args.format)
    return 2 if agreement == "conflict" else 0


def _run_sweep(args, cfg: OracleConfig) -> int:
    rows = []
    conflicts = 0
    counts: dict[str, int] = {}
    for b in STUDIED_LEVELS:
        for s in product((1, -1), repeat=3):
            for c in product((1, -1), repeat=3):
                tensor = SignClassTensor(*s, *c, b).to_quartic()
                verdict = classify_ternary(tensor)
                check = verify_verdict(tensor, verdict, cfg)
                if check.agreement == "conflict":
                    conflicts += 1
                key = f"{format_scalar(b)}:{verdict.classification.value}"
                counts[key] = counts.get(key, 0) + 1
                rows.append(
                    {
                        "b": format_scalar(b),
                        "s": list(s),
                        "c": list(c),
                        "analytic": verdict.classification.value,
                        "numeric": check.numeric.verdict.value,
                        "min_value": check.numeric.min_value,
                        "agreement": check.agreement,
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
    variants = []
    for name in ineq.IneqName:
        variants.append(ineq.InequalityId(name))
        if name in (ineq.IneqName.C32_I, ineq.IneqName.C32_II):
            variants.append(ineq.InequalityId(name, frozenset(ineq.SWAPS)))
        else:
            variants.extend(
                ineq.InequalityId(name, frozenset([swap])) for swap in ineq.SWAPS
            )
    results = []
    failures = 0
    for iid in variants:
        label = iid.name.value + (
            "+" + "+".join(sorted(iid.exchange)) if iid.exchange else ""
        )
        try:
            rep = ineq.check_inequality(iid, args.samples, args.seed, cfg)
        except ineq.ViolationFound as exc:
            failures += 1
            results.append({"inequality": label, "status": "violated", "detail": str(exc)})
            continue
        except ValueError as exc:  # a bad --samples
            print(f"error: {exc}", file=sys.stderr)
            return 1
        results.append(
            {
                "inequality": label,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    parser.add_argument("--grid", type=int, default=256,
                        help="seed grid resolution per angular dimension")
    parser.add_argument("--starts", type=int, default=32,
                        help="number of local refinements")
    parser.add_argument("--tol", type=float, default=1e-8,
                        help="verdict band around zero for the sphere minimum")
    parser.add_argument("--max-denominator", type=int, default=10**6,
                        help="denominator bound for exact confirmation")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--samples", type=int, default=1000,
                        help="random sample count for inequalities mode")
    parser.add_argument("--seed", type=int, default=0,
                        help="random seed for inequalities mode")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _oracle_config(args)
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
