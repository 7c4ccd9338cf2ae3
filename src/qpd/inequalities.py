"""Quartic inequality residuals with their equality cases and exchange
symmetries.

The residual LHS - RHS of each inequality is a sign-class tensor (see
:class:`qpd.ternary.SignClassTensor`): unit diagonal, one off-diagonal level
b, and six sign bits.  The exchange flags swap the coefficients of designated
cubic monomial pairs (x1^3*x2 with x1*x2^3 and so on), which is the symmetry
the inequalities are claimed to respect; in the tensor each exchange flips one
s bit.
"""
from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .oracle import OracleConfig, min_on_sphere, rationalize_and_confirm
from .tensors import Scalar, TernaryQuartic, evaluate
from .ternary import SignClassTensor


class UnknownId(Exception):
    """Not a recognized inequality identifier."""


class ViolationFound(Exception):
    """A sampled point violated the inequality (a test failure, not user error)."""


class IneqName(enum.Enum):
    C32_I = "C32_i"
    C32_II = "C32_ii"
    C33_I = "C33_i"
    C33_II = "C33_ii"
    C33_III = "C33_iii"
    C33_IV = "C33_iv"


SWAPS = ("swap12", "swap13", "swap23")
# The sign bit each exchange negates, as an index into s = (s112, s113, s223).
_SWAP_BITS = {"swap12": 0, "swap13": 1, "swap23": 2}
# Every residual has s = _BASE_S before its exchanges; the table gives
# c = (c123, c223, c233) and the level b.
_BASE_S = (-1, 1, -1)
_CLASS_FORM = {
    IneqName.C32_I: ((-1, -1, -1), Fraction(11, 6)),
    IneqName.C32_II: ((-1, -1, -1), Fraction(2)),
    IneqName.C33_I: ((1, 1, 1), Fraction(5, 2)),
    IneqName.C33_II: ((1, 1, -1), Fraction(8, 3)),
    IneqName.C33_III: ((-1, -1, -1), Fraction(8, 3)),
    IneqName.C33_IV: ((-1, -1, 1), Fraction(5, 2)),
}


@dataclass(frozen=True)
class InequalityId:
    """An inequality together with its selected monomial exchanges.

    The two C32 inequalities only admit all three exchanges simultaneously;
    the C33 inequalities admit any combination.
    """

    name: IneqName
    exchange: frozenset = frozenset()

    def __post_init__(self):
        if not isinstance(self.name, IneqName):
            raise UnknownId(f"unknown inequality {self.name!r}")
        swaps = frozenset(self.exchange)
        unknown = swaps - set(SWAPS)
        if unknown:
            raise UnknownId(f"unknown exchange flags {sorted(unknown)}")
        if self.name in (IneqName.C32_I, IneqName.C32_II) and swaps not in (
            frozenset(),
            frozenset(SWAPS),
        ):
            raise UnknownId(
                "C32 inequalities admit only the simultaneous three-way exchange"
            )
        object.__setattr__(self, "exchange", swaps)

    @property
    def strict(self) -> bool:
        return self.name is not IneqName.C32_I


def residual_tensor(iid: InequalityId) -> TernaryQuartic:
    """LHS - RHS as its sign-class tensor; each exchange flips one s bit."""
    c, b = _CLASS_FORM[iid.name]
    s = list(_BASE_S)
    for swap in iid.exchange:
        s[_SWAP_BITS[swap]] *= -1
    return SignClassTensor(*s, *c, b).to_quartic()


def residual(iid: InequalityId, x) -> Scalar:
    """LHS - RHS of the inequality at x; exact for exact inputs."""
    if len(x) != 3:
        raise UnknownId("residuals are ternary; x must have 3 components")
    return evaluate(residual_tensor(iid), x)


_STRUCTURED_POINTS = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (-1, 0, 0), (0, -1, 0), (0, 0, -1),
    (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1),
    (1, 1, 1),
    (Fraction(1, 5), Fraction(-1, 5), 1),
    (Fraction(1, 2), Fraction(-1, 2), 1),
    (Fraction(1, 4), Fraction(-1, 4), 1),
    (-1, -3, -1),
)


def _on_diagonal(x) -> bool:
    return x[0] == x[1] == x[2]


def random_rational_point(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    return tuple(
        Fraction(rng.randint(-100, 100), rng.randint(1, 100)) for _ in range(3)
    )


@dataclass
class IneqReport:
    iid: InequalityId
    samples: int
    min_residual: Optional[Fraction] = None
    equality_points: int = 0
    checked_points: int = 0
    oracle_min: Optional[float] = None
    oracle_exact: Optional[Fraction] = None


def check_inequality(
    iid: InequalityId, samples: int, seed: int = 0, cfg: OracleConfig = OracleConfig()
) -> IneqReport:
    """Sample the residual at random exact rational points and the structured
    point set; raise ViolationFound at the first violated point.

    Also cross-checks via the sphere-minimization oracle on the residual
    tensor (configured by cfg), with exact confirmation at the rationalized
    argmin.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    report = IneqReport(iid, samples)
    points = list(_STRUCTURED_POINTS) + [
        random_rational_point(rng) for _ in range(samples)
    ]
    if iid.name is IneqName.C32_I:
        # Exercise both directions of the equality case.
        points += [(t, t, t) for t in (Fraction(1), Fraction(-3, 7), Fraction(11, 6))]
    T = residual_tensor(iid)
    minimum = None
    for x in points:
        value = evaluate(T, x)
        report.checked_points += 1
        nonzero = any(v != 0 for v in x)
        if value < 0:
            raise ViolationFound(f"{iid.name.value}: residual {value} < 0 at {x}")
        if value == 0 and nonzero:
            if iid.strict or not _on_diagonal(x):
                raise ViolationFound(
                    f"{iid.name.value}: unexpected zero residual at {x}"
                )
            report.equality_points += 1
        if iid.name is IneqName.C32_I and _on_diagonal(x) and value != 0:
            raise ViolationFound(
                f"{iid.name.value}: residual {value} != 0 on the diagonal at {x}"
            )
        if nonzero and (minimum is None or value < minimum):
            minimum = value
    report.min_residual = minimum

    result = min_on_sphere(T, cfg)
    report.oracle_min = result.min_value
    report.oracle_exact = rationalize_and_confirm(T, result.argmin, cfg.max_denominator)
    if result.min_value < -cfg.verdict_tol:
        raise ViolationFound(
            f"{iid.name.value}: oracle found sphere minimum {result.min_value} < 0"
        )
    if iid.strict and report.oracle_exact <= 0:
        raise ViolationFound(
            f"{iid.name.value}: exact value {report.oracle_exact} at rationalized "
            "argmin is not positive"
        )
    return report
