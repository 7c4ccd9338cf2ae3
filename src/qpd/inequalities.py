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
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from typing import Optional, Sequence, Union

import numpy as np

from .oracle import OracleConfig, _gather, minima_on_sphere, rationalize_and_confirm
from .tensors import (
    EXPONENTS, Scalar, TernaryQuartic, evaluate, exact_numerators, format_scalar,
    integer_point,
)
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


def random_rational_point(rng: random.Random) -> tuple[int, tuple[int, int, int]]:
    """A random point x with coordinates p / q, p in [-100, 100] and q in
    [1, 100], as ``integer_point(x)``: x = n / L.  It is drawn straight into
    integers, with the draws of ``Fraction(p, q)`` for each coordinate.

    p and q are ``rng.randint(-100, 100)`` and ``rng.randint(1, 100)``, drawn
    by CPython's own rule for them: words of 8 and 7 random bits, each
    redrawn until it is below the range's 201 and 100 values.  The stream is
    the same, without ``randint``'s argument handling."""
    getrandbits = rng.getrandbits
    reduced = []
    for _ in range(3):
        p = getrandbits(8)
        while p >= 201:
            p = getrandbits(8)
        q = getrandbits(7)
        while q >= 100:
            q = getrandbits(7)
        p, q = p - 100, q + 1
        g = math.gcd(p, q)
        reduced.append((p // g, q // g))
    L = math.lcm(*(q for _, q in reduced))
    return L, tuple(p * (L // q) for p, q in reduced)


@dataclass
class IneqReport:
    min_residual: Optional[Fraction] = None
    equality_points: int = 0
    checked_points: int = 0
    oracle_min: Optional[float] = None
    oracle_exact: Optional[Fraction] = None


# Sample points are checked a chunk of at most _CHUNK points at a time.  A
# chunk's float arrays take about 1.5 MB each, and at most one chunk is drawn
# ahead of its check.
_CHUNK = 4096
# A point whose scaled integers L or n reach _FLOAT_LIMIT is checked exactly.
_FLOAT_LIMIT = 2**52
_TABLES = np.asarray(EXPONENTS[3])[None]
# Error bound of the float residuals (Higham, Accuracy and Stability of
# Numerical Algorithms, section 3.1; u = 2**-53, gamma_k = k*u / (1 - k*u)).
# The entries of n are integers below 2**52, so exact in float64, and every
# monomial of M is a nonzero integer or 0, so nothing underflows.  Allow each
# power n_j**e 4 ulps (relative 8u; pow is good to about one ulp), two
# rounded products per monomial and one rounding of each integer weight in
# K.  A dot product of 15 terms in any order, FMA or not, adds gamma_15 of
# the sum of |terms|.  So the computed F is within
#   ((1 + 8u)**3 * (1 + u)**3 * (1 + gamma_15) - 1) * (|M| @ |K|.T) < 43u * (|M| @ |K|.T)
# of the exact numerator N, with |M| and |K| as computed and summed exactly;
# their computed product is at most gamma_15 below that.  The bound B uses
# 128u, a margin of almost three, and 2**-46 is a power of two, so scaling
# by it is exact.
_ERROR = 2.0**-46


def _settled(scaled, K: np.ndarray, c32: np.ndarray) -> np.ndarray:
    """The (point, variant) pairs of one chunk that need no exact residual.

    scaled holds each point's ``integer_point``; K the variants' integer
    weights in ``EXPONENTS[3]`` order, one row per variant; c32 flags the
    C32_i variants.  A pair is settled when its float residual F = M @ K.T is
    certainly positive, |F| exceeding its error bound B, and certainly above
    the value N / L**4 of some other point, so it is neither a violation nor
    the chunk's least residual.  Zero, negative and undecided residuals,
    C32_i on the diagonal (which must vanish) and points with a scaled
    integer of _FLOAT_LIMIT or more are never settled.
    """
    small = [L < _FLOAT_LIMIT and max(map(abs, n)) < _FLOAT_LIMIT for L, n in scaled]
    # A point checked exactly gets the row 0, where F = B = 0 settles nothing.
    X = np.array([n if ok else (0, 0, 0) for (_, n), ok in zip(scaled, small)], dtype=float)
    L4 = np.array([float(L**4) if ok else 1.0 for (L, _), ok in zip(scaled, small)])[:, None]
    M = _gather(_TABLES, 1, len(X))(X[None])[0, 0]
    F = M @ K.T
    B = _ERROR * (np.abs(M) @ np.abs(K).T)
    diagonal = np.array([_on_diagonal(n) for _, n in scaled])
    positive = (F > B) & ~(diagonal[:, None] & c32)
    # N / L**4 lies in [(F - B) / L**4, (F + B) / L**4].  Widening B to 2B
    # covers the rounding of F -+ 2B, of L**4 and of the division, all within
    # 3u(|F| + 2B) <= 9u|F| < B where F > B.
    least = np.where(positive, (F + 2 * B) / L4, np.inf).min(axis=0)
    return positive & ((F - 2 * B) / L4 > least)


def check_inequalities(
    iids: Sequence[InequalityId], samples: int, seed: int = 0,
    cfg: OracleConfig = OracleConfig(),
) -> list[Union[IneqReport, ViolationFound]]:
    """Check each variant in iids as check_inequality does, in one pass over
    the points: each point is drawn and scaled to integers once, then checked
    against every variant that has not yet failed.

    A chunk of points is checked against all live variants by one float64
    product; ``exact_numerators`` decides every pair whose sign that cannot
    settle, every candidate for a variant's least residual and every
    violation, so the reports equal those of exact evaluation at every point.

    Returns, in the order of iids, each variant's IneqReport or the
    ViolationFound its own check would raise.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    tensors = [residual_tensor(iid) for iid in iids]
    forms = [T.integer_form for T in tensors]
    K = np.array([[float(w * c * D) for _, w, c in T.terms()]
                  for T, (D, _) in zip(tensors, forms)])
    c32 = np.array([iid.name is IneqName.C32_I for iid in iids])
    outcomes = [IneqReport() for _ in iids]
    minima = [None] * len(iids)  # (N, L**4) of the least nonzero-point value

    def feed(live, points):
        """Check points, each given as ``integer_point(x)``, against the
        variants live (indices into iids), a chunk at a time, until each has
        failed; return those still standing."""
        live, points = list(live), iter(points)
        while live and (chunk := list(islice(points, _CHUNK))):
            settled = _settled(chunk, K, c32)
            for i in np.flatnonzero(~settled[:, live].all(axis=1)):
                L, n = chunk[i]
                pending = [t for t in live if not settled[i, t]]
                if not pending:
                    continue
                nonzero, diagonal, L4 = any(n), _on_diagonal(n), L**4
                # The denominator D_t * L**4 is positive, so N has f_t(x)'s sign.
                _, numerators = exact_numerators([forms[t] for t in pending], n)
                failed = False
                for t, N in zip(pending, numerators):
                    iid, report = iids[t], outcomes[t]
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
                    at = ", ".join(str(format_scalar(Fraction(v, L))) for v in n)
                    outcomes[t] = ViolationFound(f"{iid.name.value}: {problem} at ({at})")
                    failed = True
                if failed:
                    live = [t for t in live if isinstance(outcomes[t], IneqReport)]
            for t in live:
                outcomes[t].checked_points += len(chunk)
        return live

    live = feed(range(len(iids)), chain(
        map(integer_point, _STRUCTURED_POINTS),
        (random_rational_point(rng) for _ in range(samples))))
    # Exercise both directions of C32_i's equality case.
    feed([t for t in live if iids[t].name is IneqName.C32_I],
         [integer_point((t, t, t)) for t in (Fraction(1), Fraction(-3, 7), Fraction(11, 6))])

    # One stacked oracle search for the variants still standing.
    standing = [t for t, report in enumerate(outcomes) if isinstance(report, IneqReport)]
    results = minima_on_sphere([tensors[t] for t in standing], cfg)
    for t, result in zip(standing, results):
        iid, T, report = iids[t], tensors[t], outcomes[t]
        N, L4 = minima[t]  # set in the first chunk, by its least nonzero point
        report.min_residual = Fraction(N, forms[t][0] * L4)
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
