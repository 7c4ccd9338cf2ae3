"""Positive (semi)definiteness of quartic forms in two and three variables.

Analytic classifiers backed by exact rational arithmetic, cross-checked by a
sphere-minimization oracle.
"""
from .binary import classify_binary, classify_sign_binary
from .oracle import OracleConfig, min_on_sphere, minima_on_sphere, verify_verdict
from .tensors import (
    BinaryQuartic,
    TernaryQuartic,
    build_tensor,
    evaluate,
    load_tensor,
    tensor_from_json,
)
from .ternary import classify_ternary
from .verdicts import Classification, ClassVerdict, Verdict

__all__ = [
    "BinaryQuartic",
    "TernaryQuartic",
    "build_tensor",
    "evaluate",
    "load_tensor",
    "tensor_from_json",
    "classify_binary",
    "classify_sign_binary",
    "classify_ternary",
    "min_on_sphere",
    "minima_on_sphere",
    "OracleConfig",
    "verify_verdict",
    "Classification",
    "ClassVerdict",
    "Verdict",
]

__version__ = "0.1.0"
