"""Quartic inequality residuals with their equality cases and exchange
symmetries.

The residual LHS - RHS of each inequality is a sign-class tensor (see
:class:`qpd.ternary.SignClassTensor`): unit diagonal, one off-diagonal level
b, and six sign bits.  The exchange flags swap the coefficients of designated
cubic monomial pairs (x1^3*x2 with x1*x2^3 and so on), which is the symmetry
the inequalities are claimed to respect; in the tensor each exchange flips one
s bit.

``check_inequalities`` samples every variant at the same exact rational
points.  They are drawn a chunk at a time as int64 arrays (a denominator L
and an integer vector n per point), reading the generator's words in bulk
in the order ``random.randint`` would; each chunk is checked against all
variants by one float64 product with a proven error bound, and only the
(point, variant) pairs that bound leaves open are evaluated exactly, in
Python integers.
"""
from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .oracle import OracleConfig, gather_monomials, minima_on_sphere, rationalize_and_confirm
from .tensors import (
    EXPONENTS, TernaryQuartic, evaluate, exact_numerators, format_scalar, integer_point,
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


def residual(iid: InequalityId, x) -> Fraction:
    """LHS - RHS of the inequality at x, exactly (see ``evaluate``)."""
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


def _scaled(points) -> tuple[np.ndarray, np.ndarray]:
    """Exact points as int64 arrays ``(L, n)``: row i is ``integer_point``
    of the i-th point."""
    L = np.zeros(len(points), dtype=np.int64)
    n = np.zeros((len(points), 3), dtype=np.int64)
    for i, x in enumerate(points):
        L[i], n[i] = integer_point(x)
    return L, n


def _draw_points(rng: random.Random, count: int) -> tuple[np.ndarray, np.ndarray]:
    """count random points x with coordinates p / q, p in [-100, 100] and q
    in [1, 100], as int64 arrays ``(L, n)`` of shapes (count,) and (count, 3):
    x = n / L with L the lcm of the reduced denominators.

    p and q are the draws of ``rng.randint(-100, 100)`` and ``rng.randint(1,
    100)``, p then q for each coordinate, read from the same stream.  By
    CPython's rule each draw takes the top 8 (p) or 7 (q) bits of one 32-bit
    word w of the generator, redrawn until it is in range: p = w // 2**24 -
    100 where w // 2**24 < 201, q = w // 2**25 + 1 where w // 2**25 < 100.  So
    a word whose top byte is below 200 fills either kind of slot, one whose
    top byte is 200 fills a p slot only, and any other fills neither.
    ``getrandbits(32 * k)`` returns the next k words at once, word i in bits
    32 i to 32 i + 31.  Each word fills at most one slot, so a round reads
    exactly as many words as there are slots left: no word is read that the
    ``randint`` draws would not read, and the generator ends in their state.
    """
    slots = np.empty(6 * count, dtype=np.int64)  # p, q for each coordinate
    filled = 0
    while filled < len(slots):
        k = len(slots) - filled
        top = np.frombuffer(rng.getrandbits(32 * k).to_bytes(4 * k, "little"), "<u4") >> 24
        top = top[top < 201]
        # Walk the few top bytes of 200: one that lands on a q slot (odd
        # position) is redrawn, and each later word lands one slot earlier.
        keep = np.ones(len(top), dtype=bool)
        dropped = 0
        for j in np.flatnonzero(top == 200).tolist():
            if (filled + j - dropped) % 2:
                keep[j] = False
                dropped += 1
        top = top[keep]
        slots[filled:filled + len(top)] = top
        filled += len(top)
    p = slots[0::2].reshape(count, 3) - 100
    q = (slots[1::2] >> 1).reshape(count, 3) + 1
    g = np.gcd(p, q)
    p //= g
    q //= g
    L = np.lcm.reduce(q, axis=1)
    # |p| <= 100 and L <= 100**3, so |n| <= 10**8: nothing overflows.
    return L, p * (L[:, None] // q)


def _chunks(L: np.ndarray, n: np.ndarray, rng: Optional[random.Random] = None,
            samples: int = 0):
    """The points ``(L, n)``, then samples random points from rng, as arrays
    ``(L, n)`` of at most _CHUNK points each; the random points of a chunk
    are drawn when the chunk is asked for."""
    while len(L) or samples:
        k = min(_CHUNK - len(L[:_CHUNK]), samples)
        drawn_L, drawn_n = _draw_points(rng, k) if k else (L[:0], n[:0])
        samples -= k
        yield np.concatenate([L[:_CHUNK], drawn_L]), np.concatenate([n[:_CHUNK], drawn_n])
        L, n = L[_CHUNK:], n[_CHUNK:]


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
_COLUMN = {e: m for m, e in enumerate(EXPONENTS[3])}  # K's column of each monomial
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


def _settled(L: np.ndarray, n: np.ndarray, K: np.ndarray, c32: np.ndarray) -> np.ndarray:
    """The (point, variant) pairs of one chunk that need no exact residual.

    L and n hold the chunk's points as int64 arrays (see ``_scaled``); K the
    variants' integer weights in ``EXPONENTS[3]`` order, one row per variant;
    c32 flags the C32_i variants.  A pair is settled when its float residual
    F = M @ K.T is certainly positive, |F| exceeding its error bound B, and
    certainly above the value N / L**4 of some other point, so it is neither
    a violation nor the chunk's least residual.  Zero, negative and undecided
    residuals, C32_i on the diagonal (which must vanish) and points with a
    scaled integer of _FLOAT_LIMIT or more are never settled.
    """
    small = (L < _FLOAT_LIMIT) & ((n > -_FLOAT_LIMIT) & (n < _FLOAT_LIMIT)).all(axis=1)
    # A point checked exactly gets the row 0, where F = B = 0 settles nothing.
    X = np.where(small[:, None], n, 0).astype(float)
    L4 = (np.where(small, L, 1).astype(float) ** 2)[:, None] ** 2
    M = gather_monomials(_TABLES, 1, len(X))(X[None])[0, 0]
    F = M @ K.T
    B = _ERROR * (np.abs(M) @ np.abs(K).T)
    diagonal = (n[:, 0] == n[:, 1]) & (n[:, 1] == n[:, 2])
    positive = (F > B) & ~(diagonal[:, None] & c32)
    # N / L**4 lies in [(F - B) / L**4, (F + B) / L**4].  Widening B to 2B
    # covers the rounding of F -+ 2B, of the division and the two of L**4 =
    # (L*L)**2 (L*L is exact for L < 2**26, as for every drawn point), all
    # within 5u(|F| + 2B) <= 15u|F| < B where F > B.
    least = np.where(positive, (F + 2 * B) / L4, np.inf).min(axis=0)
    return positive & ((F - 2 * B) / L4 > least)


def check_inequalities(
    iids: Sequence[InequalityId], samples: int, seed: int = 0,
    cfg: OracleConfig = OracleConfig(),
) -> list[Union[IneqReport, ViolationFound]]:
    """Check each variant in iids at the structured points, at samples random
    exact rational points drawn from ``random.Random(seed)`` (see
    ``_draw_points``) and, for C32_i, at points of its diagonal; then
    cross-check the variants still standing by one stacked oracle search
    (configured by cfg) and the exact value at each rationalized argmin.

    A variant fails at its first violation: a negative residual, a zero
    residual at a nonzero point (for C32_i, one off the diagonal), a nonzero
    C32_i residual on the diagonal, an oracle minimum below -verdict_tol, or
    a strict variant's exact value at its rationalized argmin that is not
    positive.  Each point is drawn and scaled to integers once, then checked
    against every variant that has not yet failed.

    A chunk of points is checked against all live variants by one float64
    product; ``exact_numerators`` decides every pair whose sign that cannot
    settle, every candidate for a variant's least residual and every
    violation, so the reports equal those of exact evaluation at every point.

    Returns, in the order of iids, each variant's IneqReport (its least
    residual at a nonzero point, equality points, points checked, oracle
    minimum and exact value at the rationalized argmin) or the ViolationFound
    of its first violation.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    tensors = [residual_tensor(iid) for iid in iids]
    forms = [T.integer_form for T in tensors]
    K = np.zeros((len(iids), len(_COLUMN)))
    for t, (_, rows) in enumerate(forms):
        for k, *e in rows:
            K[t, _COLUMN[tuple(e)]] = float(k)
    c32 = np.array([iid.name is IneqName.C32_I for iid in iids])
    outcomes = [IneqReport() for _ in iids]
    minima = [None] * len(iids)  # (N, L**4) of the least nonzero-point value

    def feed(live, chunks):
        """Check the chunks of points, each as arrays (L, n), against the
        variants live (indices into iids) until each has failed; return
        those still standing."""
        live = list(live)
        while live and (chunk := next(chunks, None)) is not None:
            settled = _settled(*chunk, K, c32)
            rows = np.flatnonzero(~settled[:, live].all(axis=1))
            # Only the points left open become Python ints.
            for i, L, n in zip(rows, chunk[0][rows].tolist(), chunk[1][rows].tolist()):
                pending = [t for t in live if not settled[i, t]]
                if not pending:
                    continue
                nonzero, diagonal, L4 = any(n), n[0] == n[1] == n[2], L**4
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
                outcomes[t].checked_points += len(chunk[0])
        return live

    live = feed(range(len(iids)), _chunks(*_scaled(_STRUCTURED_POINTS), rng, samples))
    # Exercise both directions of C32_i's equality case.
    feed([t for t in live if iids[t].name is IneqName.C32_I],
         _chunks(*_scaled([(t, t, t) for t in (Fraction(1), Fraction(-3, 7), Fraction(11, 6))])))

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
    """``check_inequalities`` of the one variant iid: its IneqReport, or
    raise its ViolationFound.  Kept for the span table of
    ``perfbench/spans.py``, which wraps it."""
    [outcome] = check_inequalities([iid], samples, seed, cfg)
    if isinstance(outcome, ViolationFound):
        raise outcome
    return outcome
