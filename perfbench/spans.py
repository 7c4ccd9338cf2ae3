"""Span recorder for the traced benchmark run.

The recorder wraps selected public functions of the ``qpd`` modules at run
time (nothing under ``src/`` is edited): every call becomes a span with a
name, start, end, parent span and request id.  Spans stay in memory and are
written out once, at the end of the run.  A span's self time is its duration
minus the part of it that its child spans cover.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# Span name for each wrapped function, by module.  ``verdicts`` holds only
# data and gets no spans.
SPANS = {
    "tensors": {
        "load_tensor": "tensors.parse",
        "tensor_from_json": "tensors.parse",
        "evaluate": "tensors.evaluate",
    },
    "binary": {
        "classify_binary": "binary.classify",
        "classify_sign_binary": "binary.classify",
    },
    "ternary": {
        "validate_class": "ternary.validate",
        "classify_ternary": "ternary.classify",
    },
    "oracle": {
        "min_on_sphere": "oracle.min_on_sphere",
        "verify_verdict": "oracle.verify",
        "rationalize_and_confirm": "oracle.confirm",
        "negative_witness": "oracle.negative_witness",
    },
    "inequalities": {
        "residual": "inequalities.residual",
        "check_inequality": "inequalities.check",
        "residual_tensor": "inequalities.residual_tensor",
    },
    "cli": {"main": "cli.main"},
}
LAYERS = tuple(SPANS)
SPAN_NAMES = tuple(dict.fromkeys(n for fns in SPANS.values() for n in fns.values()))

# Oracle defaults the workloads run with; the seed-point count is computed
# from them, not measured.
GRID = 256
VERDICT_TOL = 1e-8


def seed_points(dim: int, grid: int = GRID) -> int:
    """Seed-grid size of ``min_on_sphere``: a half circle for binaries, a
    polar x azimuth grid plus one pole for ternaries."""
    return grid if dim == 2 else grid * grid + 1


def _oracle_note(result, args, kwargs):
    """(dim, min below -tol, confirmed NotPSD) for one ``min_on_sphere`` call."""
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    tol = VERDICT_TOL if cfg is None else cfg.verdict_tol
    return (args[0].dim, result.min_value < -tol, result.verdict.value == "NotPSD")


_NOTES = {"oracle.min_on_sphere": _oracle_note}


class Recorder:
    """In-memory span list.  A span is ``[name, start, end, parent, request,
    note]``; ``parent`` is the index of the enclosing span or -1."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []

    def wrap(self, fn, name):
        note = _NOTES.get(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[5] = note(result, args, kwargs)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request", "note"],
                       "spans": self.spans}, fh)


class Patch:
    """Installs the recorder's wrappers on every ``qpd`` module attribute that
    refers to a wrapped function, and restores the originals on exit.

    Functions imported by name into another module (``from .oracle import
    min_on_sphere``) are replaced there too; imports done inside function
    bodies read the patched module attribute at call time.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "qpd" or name.startswith("qpd."))]
        wrappers = {}
        for layer, fns in SPANS.items():
            mod = sys.modules[f"qpd.{layer}"]
            for fn_name, span in fns.items():
                fn = getattr(mod, fn_name)
                wrappers[id(fn)] = self.recorder.wrap(fn, span)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return self.recorder

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()
        return False


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> list[float]:
    """Per-span duration minus the time its child spans cover."""
    children: dict[int, list] = {}
    for rec in spans:
        if rec[3] >= 0:
            children.setdefault(rec[3], []).append((rec[1], rec[2]))
    return [rec[2] - rec[1] - covered(children.get(i, ())) for i, rec in enumerate(spans)]


def _has_ancestor(spans, i, prefix) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0].startswith(prefix):
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(spans, traced_wall: float, passes: int) -> dict[str, float]:
    """Per-layer metrics of ``passes`` traced passes over the same inputs,
    reported per pass.  ``traced_wall`` is the summed wall time of those
    passes."""
    own = self_times(spans)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    sphere_ms, seeds, attempts, confirmed = [], 0, 0, 0
    fallback = {"binary": 0, "ternary": 0}
    for i, rec in enumerate(spans):
        name = rec[0]
        calls[name] += 1
        self_s[name] += own[i]
        layer_self[name.split(".", 1)[0]] += own[i]
        if name == "oracle.min_on_sphere":
            sphere_ms.append((rec[2] - rec[1]) * 1e3)
            dim, negative, not_psd = rec[5]
            seeds += seed_points(dim)
            attempts += negative
            confirmed += negative and not_psd
        if name.startswith("oracle.") and not _has_ancestor(spans, i, "oracle."):
            for layer in fallback:
                if _has_ancestor(spans, i, layer + "."):
                    fallback[layer] += 1

    m: dict[str, float] = {}
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = calls[name] / passes
        m[f"{name}.self_s"] = self_s[name] / passes
    m["oracle.min_on_sphere.p50_ms"] = statistics.median(sphere_ms) if sphere_ms else 0.0
    m["oracle.not_psd_attempts"] = attempts / passes
    m["oracle.not_psd_confirmed_ratio"] = confirmed / attempts if attempts else 0.0
    m["oracle.seed_points"] = seeds / passes
    m["binary.oracle_fallback.calls"] = fallback["binary"] / passes
    m["ternary.oracle_fallback.calls"] = fallback["ternary"] / passes
    n_res = calls["inequalities.residual"]
    m["inequalities.residual.mean_us"] = self_s["inequalities.residual"] / n_res * 1e6 if n_res else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_share"] = layer_self[layer] / traced_wall if traced_wall > 0 else 0.0
    m["trace.wall_s"] = traced_wall / passes
    return m
