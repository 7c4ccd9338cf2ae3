"""Shared verdict vocabulary for the analytic classifiers and the oracle."""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from .tensors import Vector


class Classification(enum.Enum):
    POSITIVE_DEFINITE = "PositiveDefinite"
    PSD_NOT_PD = "PositiveSemidefiniteNotDefinite"
    NOT_PSD = "NotPositiveSemidefinite"
    UNDETERMINED = "UndeterminedByTheory"


@dataclass(frozen=True)
class Verdict:
    """Classification of a binary quartic with the analytic branch that fired.

    ``witness`` is a point with a non-positive exact value when the class is
    not PD (strictly negative when not PSD).
    """

    classification: Classification
    branch: str
    witness: Optional[Vector] = None


@dataclass(frozen=True)
class ClassVerdict:
    """Classification of a sign-class ternary quartic.

    ``regime`` is the studied level that decided it ("11/6", "2", "5/2" or
    ">=8/3"), or "out-of-regime";
    ``condition_holds`` records the two analytic sign-pattern conditions;
    ``monotone_bound`` is the class inherited from a studied off-diagonal
    level via pointwise monotonicity when ``b`` falls between regimes.
    """

    classification: Classification
    regime: str
    condition_holds: dict = field(default_factory=dict)
    witness: Optional[Vector] = None
    monotone_bound: Optional[Classification] = None
