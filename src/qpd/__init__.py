"""Positive (semi)definiteness of quartic forms in two and three variables.

Analytic classifiers backed by exact rational arithmetic, cross-checked by a
sphere-minimization oracle.
"""
from .tensors import (
    BinaryQuartic,
    TernaryQuartic,
    build_tensor,
    evaluate,
    gradient,
    load_tensor,
    tensor_from_json,
)
from .ternary import rewrite_forms
from .verdicts import Classification, ClassVerdict, Regime, Verdict

__all__ = [
    "BinaryQuartic",
    "TernaryQuartic",
    "build_tensor",
    "evaluate",
    "gradient",
    "load_tensor",
    "rewrite_forms",
    "tensor_from_json",
    "Classification",
    "ClassVerdict",
    "Regime",
    "Verdict",
]

__version__ = "0.1.0"
