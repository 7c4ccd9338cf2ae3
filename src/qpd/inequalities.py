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
from itertools import chain
from typing import Optional, Sequence, Union

from .oracle import OracleConfig, min_on_sphere, rationalize_and_confirm
from .tensors import Scalar, TernaryQuartic, evaluate, exact_numerators, format_scalar
from .ternary import CUBIC_PAIRS, PROOF_POINTS, SignClassTensor


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


# Exchange i negates the sign bit s[i] of the cubic pair CUBIC_PAIRS[i].
SWAPS = tuple(f"swap{i}{j}" for i, j in CUBIC_PAIRS)
_C32 = (IneqName.C32_I, IneqName.C32_II)
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
        if self.name in _C32 and swaps not in (frozenset(), frozenset(SWAPS)):
            raise UnknownId(
                "C32 inequalities admit only the simultaneous three-way exchange"
            )
        object.__setattr__(self, "exchange", swaps)

    @property
    def strict(self) -> bool:
        return self.name is not IneqName.C32_I

    @property
    def label(self) -> str:
        """The name and the sorted exchanges joined by "+", e.g. "C33_i+swap12"."""
        return "+".join((self.name.value, *sorted(self.exchange)))


# Each inequality plain, then with every exchange it admits: all three at once
# for C32, one at a time for C33.
CHECKED_VARIANTS = tuple(
    InequalityId(name, frozenset(swaps))
    for name in IneqName
    for swaps in ([(), SWAPS] if name in _C32 else [(), *([swap] for swap in SWAPS)])
)


def residual_tensor(iid: InequalityId) -> TernaryQuartic:
    """LHS - RHS as its sign-class tensor; each exchange flips one s bit."""
    c, b = _CLASS_FORM[iid.name]
    s = list(_BASE_S)
    for swap in iid.exchange:
        s[SWAPS.index(swap)] *= -1
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
    *PROOF_POINTS,
)


def _on_diagonal(x) -> bool:
    return x[0] == x[1] == x[2]


def random_rational_point(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    return tuple(
        Fraction(rng.randint(-100, 100), rng.randint(1, 100)) for _ in range(3)
    )


@dataclass
class IneqReport:
    min_residual: Optional[Fraction] = None
    equality_points: int = 0
    checked_points: int = 0
    oracle_min: Optional[float] = None
    oracle_exact: Optional[Fraction] = None


def check_inequalities(
    iids: Sequence[InequalityId], samples: int, seed: int = 0,
    cfg: OracleConfig = OracleConfig(),
) -> list[Union[IneqReport, ViolationFound]]:
    """Check each variant in iids as check_inequality does, in one pass over
    the points: each point is drawn and scaled to integers once, then checked
    against every variant that has not yet failed.

    Returns, in the order of iids, each variant's IneqReport or the
    ViolationFound its own check would raise.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    tensors = [residual_tensor(iid) for iid in iids]
    forms = [T.integer_form for T in tensors]
    outcomes = [IneqReport() for _ in iids]
    minima = [None] * len(iids)  # (N, L**4) of the least nonzero-point value

    def feed(live, points):
        """Check points against the variants live (indices into iids) until
        each has failed; return those still standing."""
        for x in points:
            if not live:
                break
            nonzero, diagonal = any(x), _on_diagonal(x)
            # The denominator D_t * L**4 is positive, so N has f_t(x)'s sign.
            L4, numerators = exact_numerators([forms[t] for t in live], x)
            failed = False
            for t, N in zip(live, numerators):
                iid, report = iids[t], outcomes[t]
                report.checked_points += 1
                if N < 0:
                    problem = f"residual {Fraction(N, forms[t][0] * L4)} < 0"
                elif N == 0 and nonzero and (iid.strict or not diagonal):
                    problem = "unexpected zero residual"
                elif N != 0 and diagonal and iid.name is IneqName.C32_I:
                    problem = f"residual {Fraction(N, forms[t][0] * L4)} != 0 on the diagonal"
                else:
                    if N == 0 and nonzero:
                        report.equality_points += 1
                    least = minima[t]
                    if nonzero and (least is None or N * least[1] < least[0] * L4):
                        minima[t] = (N, L4)
                    continue
                at = ", ".join(str(format_scalar(v)) for v in x)
                outcomes[t] = ViolationFound(f"{iid.name.value}: {problem} at ({at})")
                failed = True
            if failed:
                live = [t for t in live if isinstance(outcomes[t], IneqReport)]
        return live

    # Random points are drawn as they are checked, so memory stays flat.
    live = feed(range(len(iids)), chain(
        _STRUCTURED_POINTS, (random_rational_point(rng) for _ in range(samples))))
    # Exercise both directions of C32_i's equality case.
    feed([t for t in live if iids[t].name is IneqName.C32_I],
         [(t, t, t) for t in (Fraction(1), Fraction(-3, 7), Fraction(11, 6))])

    for t, (iid, T, report) in enumerate(zip(iids, tensors, outcomes)):
        if not isinstance(report, IneqReport):
            continue
        N, L4 = minima[t]  # set by the first structured point, (1, 0, 0)
        report.min_residual = Fraction(N, forms[t][0] * L4)
        result = min_on_sphere(T, cfg)
        report.oracle_min = result.min_value
        report.oracle_exact = rationalize_and_confirm(T, result.argmin, cfg.max_denominator)
        if result.min_value < -cfg.verdict_tol:
            outcomes[t] = ViolationFound(
                f"{iid.name.value}: oracle found sphere minimum {result.min_value} < 0"
            )
        elif iid.strict and report.oracle_exact <= 0:
            outcomes[t] = ViolationFound(
                f"{iid.name.value}: exact value {report.oracle_exact} at rationalized "
                "argmin is not positive"
            )
    return outcomes


def check_inequality(
    iid: InequalityId, samples: int, seed: int = 0, cfg: OracleConfig = OracleConfig()
) -> IneqReport:
    """Sample the residual at random exact rational points and the structured
    point set; raise ViolationFound at the first violated point.

    Also cross-checks via the sphere-minimization oracle on the residual
    tensor (configured by cfg), with exact confirmation at the rationalized
    argmin.
    """
    [outcome] = check_inequalities([iid], samples, seed, cfg)
    if isinstance(outcome, ViolationFound):
        raise outcome
    return outcome
