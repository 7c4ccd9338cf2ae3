"""Classification of the unit-entry ternary quartic class.

The class: unit diagonal, unit-magnitude mixed entries, antisymmetric cubic
pairing (t_ijjj * t_iiij = -1), and a single off-diagonal level
b = t1122 = t1133 = t2233.  Classification dispatches on b; the sign-pattern
conditions III and IV decide the boundary levels.

Every NotPSD witness comes from the paper's necessity arguments: each states a
counterexample point for a representative pattern, and a per-pattern table of
the 24 relabelings carries it to the other patterns of its orbit.  A
relabeling permutes and negates the six sign bits; no tensor is built to
compute it, and no numeric search is made here.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import permutations, product
from typing import Callable, Optional

from .tensors import POSITIONS, Scalar, TernaryQuartic, Vector, evaluate
from .verdicts import Classification, ClassVerdict


class NotInClass(Exception):
    """The tensor is not a member of the unit-entry sign class."""


def _brief(value: Scalar) -> str:
    """A coefficient for a NotInClass text.  An exact one whose numerator or
    denominator reaches 10**12 is rounded to 6 significant digits and marked
    with "~", so that a huge one does not print all its digits."""
    if not isinstance(value, (int, Fraction)) or max(
            abs(value.numerator), value.denominator) < 10**12:
        return str(value)
    with localcontext() as ctx:
        ctx.prec = 6
        rounded = Decimal(value.numerator) / Decimal(value.denominator)
    return f"~{rounded.normalize():g}"


# The sign-class layout.  For the cubic pair (i, j), s_ij is at t_iiij, -s_ij
# at t_ijjj and the level b at t_iijj; the mixed entries _MIXED hold c.
CUBIC_PAIRS = ((1, 2), (1, 3), (2, 3))
_MIXED = ((1, 1, 2, 3), (1, 2, 2, 3), (1, 2, 3, 3))


@dataclass(frozen=True)
class SignClassTensor:
    """Structured form of a class member: six free sign bits and the level b.

    s112, s113, s223 are the s_ij of CUBIC_PAIRS (t1112, t1113, t2223); the
    paired entries t1222, t1333, t2333 are forced to the opposite signs.
    c123, c223, c233 are the _MIXED entries t1123, t1223, t1233.
    """

    s112: int
    s113: int
    s223: int
    c123: int
    c223: int
    c233: int
    b: Scalar

    @property
    def c(self) -> tuple[int, int, int]:
        return (self.c123, self.c223, self.c233)

    @property
    def s(self) -> tuple[int, int, int]:
        return (self.s112, self.s113, self.s223)

    def to_quartic(self) -> TernaryQuartic:
        coeffs = [1] * 15  # the diagonal; every other entry is placed below
        for (i, j), s in zip(CUBIC_PAIRS, self.s):
            for m, v in (((i, i, i, j), s), ((i, j, j, j), -s), ((i, i, j, j), self.b)):
                coeffs[POSITIONS[3][m]] = v
        for m, c in zip(_MIXED, self.c):
            coeffs[POSITIONS[3][m]] = c
        return TernaryQuartic(tuple(coeffs))


def validate_class(T: TernaryQuartic) -> SignClassTensor:
    """Check class membership and return the structured form.

    Raises NotInClass naming the first violated constraint.
    """
    for i in (1, 2, 3):
        if T.coeff((i, i, i, i)) != 1:
            raise NotInClass(f"t{i}{i}{i}{i} must be 1, got {_brief(T.coeff((i, i, i, i)))}")
    bits = []
    for i, j in CUBIC_PAIRS:
        tiiij = T.coeff((i, i, i, j))
        tijjj = T.coeff((i, j, j, j))
        if tiiij not in (1, -1):
            raise NotInClass(f"t{i}{i}{i}{j} must be +-1, got {_brief(tiiij)}")
        if tijjj * tiiij != -1:
            raise NotInClass(
                f"pairing violated: t{i}{j}{j}{j} * t{i}{i}{i}{j} must be -1, "
                f"got {_brief(tijjj)} * {tiiij}"
            )
        bits.append(int(tiiij))
    for midx in _MIXED:
        v = T.coeff(midx)
        if v not in (1, -1):
            raise NotInClass(f"t{''.join(map(str, midx))} must be +-1, got {_brief(v)}")
        bits.append(int(v))
    b = T.coeff((1, 1, 2, 2))
    for i, j in CUBIC_PAIRS[1:]:
        if T.coeff((i, i, j, j)) != b:
            raise NotInClass(
                f"off-diagonal level not uniform: t{i}{i}{j}{j} = "
                f"{_brief(T.coeff((i, i, j, j)))} but t1122 = {_brief(b)}"
            )
    return SignClassTensor(*bits, b)


def check_condition_iii(S: SignClassTensor) -> bool:
    """t1222 = t2333 = t1113, t1112 = t1333 = t2223, and all t_iijk = -1."""
    chain1 = (-S.s112 == -S.s223 == S.s113)
    chain2 = (S.s112 == -S.s113 == S.s223)
    return chain1 and chain2 and S.c == (-1, -1, -1)


def check_condition_iv(S: SignClassTensor) -> bool:
    """All t_iijk = 1; or all -1 with the condition-III sign equalities;
    or exactly two of them -1."""
    if S.c == (1, 1, 1):
        return True
    if S.c == (-1, -1, -1):
        return check_condition_iii(S)
    return S.c.count(-1) == 2


# Sign group modulo the global flip (which acts trivially on even degree).
_SIGN_VECTORS = ((1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1))
_GROUP = tuple(
    (perm, sigma) for perm in permutations((1, 2, 3)) for sigma in _SIGN_VECTORS
)


@functools.cache
def _relabelings(pattern: tuple) -> tuple:
    """((perm, sigma, image pattern), ...) for the sign pattern s + c, one
    entry per element of _GROUP in its order.

    The image is the pattern of x -> T(y) with y_{perm[i]} = sigma[i] * x_i,
    computed on the six bits: its s_ij is sigma_i sigma_j times the s of the
    pair (perm[i], perm[j]), negated when perm reverses that pair, and its c_k
    is the product of the other two sigma times c at perm[k].  A relabeling
    leaves the level b in place, so the table does not depend on it.
    """
    s = dict(zip(CUBIC_PAIRS, pattern[:3]))
    c = pattern[3:]
    table = []
    for perm, sigma in _GROUP:
        image = []
        for i, j in CUBIC_PAIRS:
            p, q = perm[i - 1], perm[j - 1]
            image.append(sigma[i - 1] * sigma[j - 1] * (s[p, q] if p < q else -s[q, p]))
        sign = sigma[0] * sigma[1] * sigma[2]
        image += [sign * sigma[k] * c[perm[k] - 1] for k in range(3)]
        table.append((perm, sigma, tuple(image)))
    return tuple(table)


def _closure(literal: Callable[[SignClassTensor], bool]) -> frozenset:
    """The sign patterns s + c that some relabeling (index permutation and/or
    variable negation) carries onto one satisfying the literal condition.

    The literal conditions fix a representative; negating one variable moves
    the c-pattern as well as the s-pattern, so the set they carve out is only
    meaningful up to this closure.  Neither condition reads the level b.
    """
    return frozenset(
        image
        for pattern in product((1, -1), repeat=6)
        if literal(SignClassTensor(*pattern, Fraction(1)))
        for _, _, image in _relabelings(pattern)
    )


_ORBIT_III = _closure(check_condition_iii)
_ORBIT_IV = _closure(check_condition_iv)


def condition_iii_up_to_relabeling(S: SignClassTensor) -> bool:
    return S.s + S.c in _ORBIT_III


def condition_iv_up_to_relabeling(S: SignClassTensor) -> bool:
    return S.s + S.c in _ORBIT_IV


@dataclass(frozen=True)
class _Level:
    """How a studied level b is decided.

    The class is ``holds`` when ``condition`` holds (always when it is None)
    and NotPSD otherwise.  ``witness_cases`` are the counterexample points of
    the necessity arguments, each with the c-pattern of the representative it
    was stated for (s fixed at _REPRESENTATIVE_S).
    """

    condition: Optional[Callable[[SignClassTensor], bool]]
    holds: Classification
    witness_cases: tuple = ()


_REPRESENTATIVE_S = (1, 1, -1)
# The levels 11/6 and 2 share their necessity arguments.
_LOW_LEVEL_CASES = (
    ((-1, -1, 1), (Fraction(1, 5), Fraction(-1, 5), Fraction(1))),
    ((1, -1, 1), (Fraction(1, 2), Fraction(-1, 2), Fraction(1))),
    ((1, 1, 1), (Fraction(1, 5), Fraction(-1, 5), Fraction(1))),
    ((-1, -1, -1), (Fraction(-1), Fraction(-3), Fraction(-1))),
)
# Conditions are applied up to relabeling: the literal statements fix a
# representative and are not invariant under variable negation.
_LEVELS = {
    Fraction(11, 6): _Level(condition_iii_up_to_relabeling, Classification.PSD_NOT_PD,
                            _LOW_LEVEL_CASES),
    Fraction(2): _Level(condition_iii_up_to_relabeling, Classification.POSITIVE_DEFINITE,
                        _LOW_LEVEL_CASES),
    Fraction(5, 2): _Level(
        condition_iv_up_to_relabeling, Classification.POSITIVE_DEFINITE,
        (((1, -1, 1), (Fraction(1, 4), Fraction(-1, 4), Fraction(1))),
         ((-1, -1, -1), (Fraction(-1), Fraction(-3), Fraction(-1)))),
    ),
    # Every level b >= 8/3 is decided as 8/3.
    Fraction(8, 3): _Level(None, Classification.POSITIVE_DEFINITE),
}
STUDIED_LEVELS = tuple(_LEVELS)
# The distinct counterexample points of the necessity arguments.
PROOF_POINTS = tuple(dict.fromkeys(
    point for row in _LEVELS.values() for _, point in row.witness_cases
))


def proof_witness(S: SignClassTensor) -> Optional[Vector]:
    """A counterexample point lifted from the necessity arguments.

    Looks up the first relabeling that carries the pattern onto a stated
    representative case and maps that case's point back; returns it when its
    exact value is negative, and None when no representative covers this
    pattern at this level.
    """
    row = _LEVELS.get(S.b)
    if row is None or not row.witness_cases:
        return None
    cases = {_REPRESENTATIVE_S + c: point for c, point in row.witness_cases}
    T = S.to_quartic()
    for perm, sigma, image in _relabelings(S.s + S.c):
        point = cases.get(image)
        if point is not None:
            inv = {perm[i]: i + 1 for i in range(3)}
            witness = tuple(
                sigma[inv[j] - 1] * point[inv[j] - 1] for j in (1, 2, 3)
            )
            if evaluate(T, witness) < 0:
                return witness
    return None


def _class_at_level(S: SignClassTensor, level: Fraction) -> Classification:
    row = _LEVELS[level]
    if row.condition is None or row.condition(S):
        return row.holds
    return Classification.NOT_PSD


def _monotone_bound(S: SignClassTensor):
    """(bound, witness) inherited from studied levels: NotPSD propagates down
    from the smallest studied level >= b, PSD/PD propagate up from the largest
    studied level <= b.  Only a level b < 8/3 comes here, so a studied level
    lies above it."""
    b = S.b
    below = [lv for lv in STUDIED_LEVELS if lv <= b]
    upper = min(lv for lv in STUDIED_LEVELS if lv >= b)
    if _class_at_level(S, upper) is Classification.NOT_PSD:
        # At b the form is lower by 6(upper - b)(x1^2 x2^2 + x1^2 x3^2 + x2^2 x3^2) >= 0.
        return Classification.NOT_PSD, proof_witness(SignClassTensor(*S.s, *S.c, upper))
    if below:
        lower = max(below)
        cls = _class_at_level(S, lower)
        if cls is not Classification.NOT_PSD:
            # Means "at least this strong"; PSD_NOT_PD reads "at least PSD".
            return cls, None
    return None, None


def classify_ternary(T: TernaryQuartic) -> ClassVerdict:
    """Analytic classification of a class member by its level b.

    Levels 11/6, 2, 5/2 and >= 8/3 are decided by conditions III/IV; any
    other level is UndeterminedByTheory with a monotonicity bound attached.
    """
    S = validate_class(T)
    cond = {
        "III": condition_iii_up_to_relabeling(S),
        "IV": condition_iv_up_to_relabeling(S),
        "III-literal": check_condition_iii(S),
        "IV-literal": check_condition_iv(S),
    }
    top = STUDIED_LEVELS[-1]
    level = top if S.b >= top else S.b
    if level not in _LEVELS:
        bound, witness = _monotone_bound(S)
        return ClassVerdict(Classification.UNDETERMINED, "out-of-regime", cond, witness,
                            monotone_bound=bound)
    cls = _class_at_level(S, level)
    witness = None
    if cls is Classification.NOT_PSD:
        witness = proof_witness(S)
    regime = f">={level}" if level == top else str(level)
    return ClassVerdict(cls, regime, cond, witness)

