"""Classification of the unit-entry ternary quartic class.

The class: unit diagonal, unit-magnitude mixed entries, antisymmetric cubic
pairing (t_ijjj * t_iiij = -1), and a single off-diagonal level
b = t1122 = t1133 = t2233.  Classification dispatches on b; the sign-pattern
conditions III and IV decide the boundary levels.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Optional

from .tensors import Scalar, TernaryQuartic, Vector, evaluate, multi_indices
from .verdicts import Classification, ClassVerdict, Regime


class NotInClass(Exception):
    """The tensor is not a member of the unit-entry sign class."""


_PAIRS = ((1, 2), (1, 3), (2, 3))
_CUBIC = {(1, 2): "s112", (1, 3): "s113", (2, 3): "s223"}


@dataclass(frozen=True)
class SignClassTensor:
    """Structured form of a class member: six free sign bits and the level b.

    s112, s113, s223 are t1112, t1113, t2223; the paired entries t1222, t1333,
    t2333 are forced to the opposite signs.  c123, c223, c233 are t1123,
    t1223, t1233.
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
        entries = {
            (1, 1, 1, 1): Fraction(1),
            (2, 2, 2, 2): Fraction(1),
            (3, 3, 3, 3): Fraction(1),
            (1, 1, 1, 2): Fraction(self.s112),
            (1, 2, 2, 2): Fraction(-self.s112),
            (1, 1, 1, 3): Fraction(self.s113),
            (1, 3, 3, 3): Fraction(-self.s113),
            (2, 2, 2, 3): Fraction(self.s223),
            (2, 3, 3, 3): Fraction(-self.s223),
            (1, 1, 2, 3): Fraction(self.c123),
            (1, 2, 2, 3): Fraction(self.c223),
            (1, 2, 3, 3): Fraction(self.c233),
            (1, 1, 2, 2): self.b,
            (1, 1, 3, 3): self.b,
            (2, 2, 3, 3): self.b,
        }
        return TernaryQuartic.from_map(entries)


def validate_class(T: TernaryQuartic) -> SignClassTensor:
    """Check class membership and return the structured form.

    Raises NotInClass naming the first violated constraint.
    """
    for i in (1, 2, 3):
        if T.coeff((i, i, i, i)) != 1:
            raise NotInClass(f"t{i}{i}{i}{i} must be 1, got {T.coeff((i,i,i,i))}")
    signs = {}
    for i, j in _PAIRS:
        tiiij = T.coeff((i, i, i, j))
        tijjj = T.coeff((i, j, j, j))
        if tiiij not in (1, -1):
            raise NotInClass(f"t{i}{i}{i}{j} must be +-1, got {tiiij}")
        if tijjj * tiiij != -1:
            raise NotInClass(
                f"pairing violated: t{i}{j}{j}{j} * t{i}{i}{i}{j} must be -1, "
                f"got {tijjj} * {tiiij}"
            )
        signs[_CUBIC[(i, j)]] = int(tiiij)
    cs = {}
    for name, midx in (("c123", (1, 1, 2, 3)), ("c223", (1, 2, 2, 3)), ("c233", (1, 2, 3, 3))):
        v = T.coeff(midx)
        if v not in (1, -1):
            raise NotInClass(f"t{''.join(map(str, midx))} must be +-1, got {v}")
        cs[name] = int(v)
    b = T.coeff((1, 1, 2, 2))
    for i, j in ((1, 3), (2, 3)):
        if T.coeff((i, i, j, j)) != b:
            raise NotInClass(
                f"off-diagonal level not uniform: t{i}{i}{j}{j} = "
                f"{T.coeff((i, i, j, j))} but t1122 = {b}"
            )
    return SignClassTensor(b=b, **signs, **cs)


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
        return (-S.s112 == -S.s223 == S.s113) and (S.s112 == -S.s113 == S.s223)
    return S.c.count(-1) == 2


# Sign group modulo the global flip (which acts trivially on even degree).
_SIGN_VECTORS = ((1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1))
_GROUP = tuple(
    (perm, sigma) for perm in permutations((1, 2, 3)) for sigma in _SIGN_VECTORS
)


def transform(T: TernaryQuartic, perm: tuple[int, int, int], signs: tuple[int, int, int]) -> TernaryQuartic:
    """The tensor of x -> T(y) with y_{perm[i]} = signs[i] * x_i.

    perm is a permutation of (1,2,3) given as the images of (1,2,3).
    """
    pm = {1: perm[0], 2: perm[1], 3: perm[2]}
    entries = {}
    for midx in multi_indices(3):
        src = tuple(sorted(pm[i] for i in midx))
        sgn = 1
        for i in midx:
            sgn *= signs[i - 1]
        entries[midx] = sgn * T.coeff(src)
    return TernaryQuartic.from_map(entries)


def _pattern_image(S: SignClassTensor, perm, sigma) -> tuple:
    moved = transform(S.to_quartic(), perm, sigma)
    img = validate_class(moved)
    return img.s + img.c


_ORBIT_CACHE: dict = {}


def _orbit_condition(S: SignClassTensor, literal) -> bool:
    """Whether some relabeling (index permutation and/or variable negation)
    of the sign pattern satisfies the literal condition.

    The literal conditions fix a representative; negating one variable moves
    the c-pattern as well as the s-pattern, so the set they carve out is only
    meaningful up to this closure.
    """
    key = (literal.__name__, S.s, S.c)
    hit = _ORBIT_CACHE.get(key)
    if hit is None:
        hit = any(
            literal(SignClassTensor(*_pattern_image(S, perm, sigma), S.b))
            for perm, sigma in _GROUP
        )
        _ORBIT_CACHE[key] = hit
    return hit


def condition_iii_up_to_relabeling(S: SignClassTensor) -> bool:
    return _orbit_condition(S, check_condition_iii)


def condition_iv_up_to_relabeling(S: SignClassTensor) -> bool:
    return _orbit_condition(S, check_condition_iv)


# Counterexample points from the necessity arguments, keyed by the
# representative sign pattern they were stated for (s fixed at (1,1,-1)).
_WITNESS_CASES_LOW = (  # levels 11/6 and 2
    ((-1, -1, 1), (Fraction(1, 5), Fraction(-1, 5), Fraction(1))),
    ((1, -1, 1), (Fraction(1, 2), Fraction(-1, 2), Fraction(1))),
    ((1, 1, 1), (Fraction(1, 5), Fraction(-1, 5), Fraction(1))),
    ((-1, -1, -1), (Fraction(-1), Fraction(-3), Fraction(-1))),
)
_WITNESS_CASES_5_2 = (
    ((1, -1, 1), (Fraction(1, 4), Fraction(-1, 4), Fraction(1))),
    ((-1, -1, -1), (Fraction(-1), Fraction(-3), Fraction(-1))),
)
_REPRESENTATIVE_S = (1, 1, -1)


def _witness_cases(S: SignClassTensor):
    if S.b in (Fraction(11, 6), Fraction(2)):
        return _WITNESS_CASES_LOW
    if S.b == Fraction(5, 2):
        return _WITNESS_CASES_5_2
    return ()


def proof_witness(S: SignClassTensor) -> Optional[Vector]:
    """A counterexample point lifted from the necessity arguments.

    Searches the 24 relabelings (permutations x sign flips) for a match with
    a stated representative case; returns the correspondingly relabeled point,
    or None when no representative covers this pattern.
    """
    cases = _witness_cases(S)
    if not cases:
        return None
    T = S.to_quartic()
    reps = {}
    for c_pattern, point in cases:
        rep = SignClassTensor(*_REPRESENTATIVE_S, *c_pattern, S.b).to_quartic()
        reps[rep.coeffs] = point
    for perm in permutations((1, 2, 3)):
        inv = {perm[i]: i + 1 for i in range(3)}
        for sigma in _SIGN_VECTORS:
            moved = transform(T, perm, sigma)
            point = reps.get(moved.coeffs)
            if point is not None:
                witness = tuple(
                    sigma[inv[j] - 1] * point[inv[j] - 1] for j in (1, 2, 3)
                )
                if evaluate(T, witness) < 0:
                    return witness
    return None


STUDIED_LEVELS = (Fraction(11, 6), Fraction(2), Fraction(5, 2), Fraction(8, 3))


def _class_at_level(S: SignClassTensor, level: Fraction) -> Classification:
    # Conditions are applied up to relabeling: the literal statements fix a
    # representative and are not invariant under variable negation.
    if level == Fraction(11, 6):
        return (
            Classification.PSD_NOT_PD
            if condition_iii_up_to_relabeling(S)
            else Classification.NOT_PSD
        )
    if level == Fraction(2):
        return (
            Classification.POSITIVE_DEFINITE
            if condition_iii_up_to_relabeling(S)
            else Classification.NOT_PSD
        )
    if level == Fraction(5, 2):
        return (
            Classification.POSITIVE_DEFINITE
            if condition_iv_up_to_relabeling(S)
            else Classification.NOT_PSD
        )
    return Classification.POSITIVE_DEFINITE  # level >= 8/3


def _negative_witness(S: SignClassTensor, at_level: Optional[Fraction] = None) -> Optional[Vector]:
    """Exact negative point for a NotPSD pattern, from the proof-case table
    first and the numeric oracle otherwise."""
    probe = S if at_level is None else SignClassTensor(*S.s, *S.c, at_level)
    w = proof_witness(probe)
    T = S.to_quartic()
    if w is not None and evaluate(T, w) < 0:
        return w
    from .oracle import OracleConfig, negative_witness

    return negative_witness(T, OracleConfig())


def _monotone_bound(S: SignClassTensor):
    """(bound, witness) inherited from studied levels: NotPSD propagates down
    from the smallest studied level >= b, PSD/PD propagate up from the largest
    studied level <= b."""
    b = S.b
    below = [lv for lv in STUDIED_LEVELS if lv <= b]
    above = [lv for lv in STUDIED_LEVELS if lv >= b]
    if above:
        upper = min(above)
        if _class_at_level(S, upper) is Classification.NOT_PSD:
            w = _negative_witness(S, at_level=upper)
            if w is not None and evaluate(S.to_quartic(), w) < 0:
                return Classification.NOT_PSD, w
            return Classification.NOT_PSD, None
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
    b = S.b
    if b == Fraction(11, 6):
        regime = Regime.B_11_6
    elif b == Fraction(2):
        regime = Regime.B_2
    elif b == Fraction(5, 2):
        regime = Regime.B_5_2
    elif b >= Fraction(8, 3):
        regime = Regime.B_GE_8_3
    else:
        regime = Regime.OUT_OF_REGIME

    if regime is Regime.OUT_OF_REGIME:
        bound, witness = _monotone_bound(S)
        return ClassVerdict(
            Classification.UNDETERMINED, regime, cond, witness, monotone_bound=bound
        )

    level = b if regime is not Regime.B_GE_8_3 else Fraction(8, 3)
    cls = _class_at_level(S, min(level, Fraction(8, 3)))
    witness = None
    if cls is Classification.NOT_PSD:
        witness = _negative_witness(S)
    return ClassVerdict(cls, regime, cond, witness)
