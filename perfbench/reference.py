"""Requests through ``qpd.cli.main`` and their check against the reference
outputs recorded in ``perfbench/reference``.

Exact fields must match the reference exactly: exit code, agreement, the
analytic class with its branch or regime, conditions and monotone bound, the
analytic witness point with its exact value, the numeric verdict, and for the
inequalities every status, checked-point count, ``min_residual`` and
``equality_points``.  Float sphere minima may differ from the reference by at
most ``FLOAT_TOL`` (absolute plus relative).  The exact value at the
rationalized argmin is compared by sign only, because it moves with the last
bits of the argmin: a numeric NotPSD must carry a negative
``confirmed_exact``, and a strict inequality a positive ``oracle_exact``.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from fractions import Fraction

FLOAT_TOL = 1e-9
FLOAT_KEYS = ("min_value", "oracle_min")
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")


def call_cli(argv) -> tuple[int, str]:
    """One in-process ``qpd`` invocation: (exit code, captured stdout).

    The module attribute is looked up on every call, so the traced run's
    wrapper is used when it is installed."""
    cli = sys.modules["qpd.cli"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def _sign(text) -> int | None:
    if text is None:
        return None
    value = Fraction(str(text))
    return (value > 0) - (value < 0)


def normalize(code: int, stdout: str) -> dict:
    """The checked part of one JSON report."""
    report = json.loads(stdout)
    if report.get("mode") == "inequalities":
        results = []
        for r in report["results"]:
            row = {k: r.get(k) for k in ("inequality", "status", "checked_points",
                                          "min_residual", "equality_points", "oracle_min")}
            row["oracle_exact_sign"] = _sign(r.get("oracle_exact"))
            results.append(row)
        return {"exit": code, "summary": report["summary"], "results": results}
    numeric = report["numeric"]
    if numeric is not None:
        numeric = {"verdict": numeric["verdict"], "min_value": numeric["min_value"],
                   "confirmed_sign": _sign(numeric["confirmed_exact"])}
    return {"exit": code, "agreement": report["agreement"], "analytic": report["analytic"],
            "witness_exact": report["witness_exact"], "numeric": numeric}


def _diff(expected, got, path, out):
    if isinstance(expected, dict) and isinstance(got, dict):
        for key in sorted(set(expected) | set(got)):
            _diff(expected.get(key), got.get(key), f"{path}.{key}", out)
    elif isinstance(expected, list) and isinstance(got, list) and len(expected) == len(got):
        for i, (e, g) in enumerate(zip(expected, got)):
            _diff(e, g, f"{path}[{i}]", out)
    elif path.rsplit(".", 1)[-1] in FLOAT_KEYS and isinstance(expected, float) \
            and isinstance(got, float):
        if not math.isclose(expected, got, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL):
            out.append(f"{path}: {got!r} != {expected!r} (tol {FLOAT_TOL})")
    elif expected != got or type(expected) is not type(got):
        out.append(f"{path}: {got!r} != {expected!r}")


def invariants(got: dict) -> list[str]:
    """Checks that hold whatever the reference says."""
    problems = []
    numeric = got.get("numeric")
    if numeric is not None and numeric["verdict"] == "NotPSD" and numeric["confirmed_sign"] != -1:
        problems.append("numeric NotPSD without a negative confirmed_exact")
    for row in got.get("results", ()):
        strict = row["inequality"].split("+")[0] != "C32_i"
        if row["status"] == "ok" and (row["oracle_exact_sign"] or 0) < (1 if strict else 0):
            problems.append(f"{row['inequality']}: oracle_exact sign {row['oracle_exact_sign']}")
    return problems


def mismatches(expected: dict, got: dict) -> list[str]:
    """Every way ``got`` disagrees with the reference; empty when it matches."""
    out: list[str] = []
    _diff(expected, got, "", out)
    return out + invariants(got)


def check(expected: dict, code: int, stdout: str) -> tuple[dict | None, list[str]]:
    """(normalized report, mismatches against ``expected``)."""
    try:
        got = normalize(code, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return None, [f"unreadable report (exit {code}): {exc!r}"]
    return got, mismatches(expected, got)


def load(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)
