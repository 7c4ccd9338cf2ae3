"""Analytic classification of binary quartics via the I/J invariants.

The definiteness conditions compare expressions containing square roots of
the diagonal entries; all of those live in the quadratic extension by
sqrt(t1111*t2222), so exact rational inputs get exact verdicts through
sign-aware squaring.

Every test is decided in integers, on the coefficients scaled by the lcm
D > 0 of their denominators (``integer_coeffs``).  That is exact because each
test is the sign of a homogeneous polynomial in the coefficients, or of
p + q*sqrt(m) with p, q and m homogeneous and deg m = 2 (deg p - deg q): the
condition on the cubic terms has p of degree 3 and q and m of degree 2, and
the others have lower degrees in the same pattern.  Scaling by D multiplies
such an expression by D**deg p > 0, so every sign, and so every branch, is
the same for T and for D*T.
"""
from __future__ import annotations

from dataclasses import dataclass

from .oracle import OracleConfig, negative_witness
from .tensors import BinaryQuartic, Scalar, Vector, exact_numerators
from .verdicts import Classification, Verdict


class NotInSignClass(Exception):
    """Entries are not all +-1 with unit diagonal."""


@dataclass(frozen=True)
class InvariantPair:
    """The classical I and J invariants and disc = I^3 - 27 J^2.

    The quartic discriminant is 4 * 12^3 * disc, so disc carries its sign.
    """

    I: Scalar
    J: Scalar

    @property
    def disc(self) -> Scalar:
        return self.I**3 - 27 * self.J**2


def invariants_IJ(T: BinaryQuartic) -> InvariantPair:
    """I and J of T's own coefficients."""
    return _invariants(*T.coeffs)


def _invariants(a, b, c, d, e) -> InvariantPair:
    I = a * e - 4 * b * d + 3 * c**2
    J = a * c * e + 2 * b * c * d - c**3 - a * d**2 - b**2 * e
    return InvariantPair(I, J)


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _radical_sign(p, q, m) -> int:
    """Sign of p + q*sqrt(m) for rational (here integer) p, q and m >= 0."""
    if m < 0:
        raise ValueError("negative radicand")
    sp, sq = _sign(p), _sign(q)
    if sq == 0 or m == 0:
        return sp
    if sp == 0:
        return sq
    if sp == sq:
        return sp
    return sp * _sign(p * p - q * q * m)


def _shared_pieces(a, b, c, d, e):
    m = a * e  # all radicals below reduce to sqrt(a*e)
    # | b*sqrt(e) -+ d*sqrt(a) | <= sqrt(6ace +- 2*sqrt((ae)^3)), squared:
    p_shared = 6 * a * c * e - b * b * e - a * d * d
    q_shared = 2 * (m + b * d)
    cond_minus = _radical_sign(p_shared, q_shared, m) >= 0
    cond_plus = _radical_sign(p_shared, -q_shared, m) >= 0
    c_below_root = _radical_sign(-c, 1, m)  # sign of sqrt(ae) - c
    branch_ii = _radical_sign(c, -1, m) > 0 and cond_plus
    return m, cond_minus, c_below_root, branch_ii


def condition_I(T: BinaryQuartic) -> tuple[bool, str]:
    """The definiteness condition; requires positive diagonal entries."""
    a, b, c, d, e = k = T.integer_coeffs[1]
    disc = _invariants(*k).disc
    m, cond_minus, c_below_root, branch_ii = _shared_pieces(*k)
    if disc == 0:
        # b*sqrt(e) = d*sqrt(a), times sqrt(a); exact for a > 0, and for
        # a = 0 eq_mixed already forces b = 0
        eq_cubics = _radical_sign(-a * d, b, m) == 0
        # 2 b^2 + a*sqrt(ae) = 3 a c, i.e. (3ac - 2b^2) - a*sqrt(ae) = 0
        eq_mixed = _radical_sign(3 * a * c - 2 * b * b, -a, m) == 0
        if eq_cubics and eq_mixed and c_below_root > 0:
            return True, "I-disc0"
        return False, ""
    if disc > 0 and cond_minus:
        if _radical_sign(3 * c, 1, m) > 0 and c_below_root >= 0:
            return True, "I-branch-i"
        if branch_ii:
            return True, "I-branch-ii"
    return False, ""


def condition_II(T: BinaryQuartic) -> tuple[bool, str]:
    """The semidefiniteness condition; requires positive diagonal entries."""
    k = T.integer_coeffs[1]
    c = k[2]
    disc = _invariants(*k).disc
    m, cond_minus, c_below_root, branch_ii = _shared_pieces(*k)
    if disc >= 0 and cond_minus:
        if _radical_sign(3 * c, 1, m) >= 0 and c_below_root >= 0:
            return True, "II-branch-i"
        if branch_ii:
            return True, "II-branch-ii"
    return False, ""


def classify_binary(T: BinaryQuartic) -> Verdict:
    """PD/PSD/neither for a general binary quartic.

    Assumes positive diagonal entries for the analytic conditions; a negative
    diagonal refutes PSD outright and a zero diagonal has its own closed
    form.  A NotPSD witness that no small point gives comes from the numeric
    oracle with exact confirmation, and is None if the oracle finds none.
    """
    _, (a, _, _, _, e) = T.integer_coeffs
    if a < 0:
        return Verdict(Classification.NOT_PSD, "diagonal-negative", (1, 0))
    if e < 0:
        return Verdict(Classification.NOT_PSD, "diagonal-negative", (0, 1))
    if a == 0 or e == 0:
        return _classify_degenerate(T)

    pd, branch = condition_I(T)
    if pd:
        return Verdict(Classification.POSITIVE_DEFINITE, branch)
    psd, branch = condition_II(T)
    if psd:
        return Verdict(Classification.PSD_NOT_PD, branch)
    return Verdict(Classification.NOT_PSD, "II-fails", _negative_point(T))


def _classify_degenerate(T: BinaryQuartic) -> Verdict:
    """Diagonal entry exactly zero: PD is impossible (a unit vector gives 0).

    For a = 0 the form is 4b x^3 y + y^2 (6c x^2 + 4d xy + e y^2), which is
    PSD iff b = 0, c >= 0 and 2d^2 <= 3ce; e = 0 mirrors it.  Only a form
    that is not PSD asks the oracle, for a witness.
    """
    a, b, c, d, e = T.integer_coeffs[1]
    if a == 0:
        psd = b == 0 and c >= 0 and 2 * d * d <= 3 * c * e
    else:
        psd = d == 0 and c >= 0 and 2 * b * b <= 3 * a * c
    if not psd:
        return Verdict(Classification.NOT_PSD, "degenerate-diagonal", _negative_point(T))
    zero_at = (1, 0) if a == 0 else (0, 1)
    # Recorded reports carry this branch name, though no oracle is asked here.
    return Verdict(Classification.PSD_NOT_PD, "degenerate-diagonal-oracle", zero_at)


def _negative_point(T: BinaryQuartic) -> Vector | None:
    """An exact point with negative value, or None if none is found."""
    for x in ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2), (2, -1)):
        if _scaled_value(T, x) < 0:
            return x
    return negative_witness(T, OracleConfig())


def _scaled_value(T: BinaryQuartic, x: tuple[int, int]) -> int:
    """D * f(x) at an integer point x, an integer with the sign of f(x)."""
    return exact_numerators((T.integer_form,), x)[1][0]


def classify_sign_binary(T: BinaryQuartic) -> Verdict:
    """Fast path for unit-magnitude entries with unit diagonal:
    PSD iff t1122 = 1; PD additionally needs t1112 * t1222 = -1."""
    D, (a, b, c, d, e) = T.integer_coeffs
    if D != 1 or any(v not in (1, -1) for v in (b, c, d)) or a != 1 or e != 1:
        raise NotInSignClass(f"entries {T.coeffs} are not a unit sign pattern")
    if c == 1:
        if b * d == -1:
            return Verdict(Classification.POSITIVE_DEFINITE, "sign-class")
        return Verdict(Classification.PSD_NOT_PD, "sign-class")
    witness = (1, -1) if b + d >= 0 else (1, 1)
    assert _scaled_value(T, witness) < 0
    return Verdict(Classification.NOT_PSD, "sign-class", witness)
