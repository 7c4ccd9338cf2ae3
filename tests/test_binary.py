import hashlib
import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpd import binary
from qpd.binary import (
    NotInSignClass,
    _radical_sign,
    classify_binary,
    classify_sign_binary,
    condition_I,
    condition_II,
    invariants_IJ,
)
from qpd.tensors import BinaryQuartic, evaluate
from qpd.verdicts import Classification, Verdict

PD = Classification.POSITIVE_DEFINITE
PSD = Classification.PSD_NOT_PD
NPSD = Classification.NOT_PSD


class TestInvariants:
    def test_all_ones(self):
        inv = invariants_IJ(BinaryQuartic(1, 1, 1, 1, 1))
        assert (inv.I, inv.J, inv.disc) == (0, 0, 0)

    def test_mixed_cubic_signs(self):
        inv = invariants_IJ(BinaryQuartic(1, 1, 1, -1, 1))
        assert (inv.I, inv.J) == (8, -4)
        assert inv.disc == 80

    def test_zero_tensor(self):
        inv = invariants_IJ(BinaryQuartic(0, 0, 0, 0, 0))
        assert (inv.I, inv.J, inv.disc) == (0, 0, 0)

    def test_disc_matches_full_discriminant_formula(self):
        rng = random.Random(3)
        for _ in range(200):
            t = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)]
            a, b, c, d, e = t
            delta = (
                4 * 12**3 * (a * e - 4 * b * d + 3 * c**2) ** 3
                - 72**2 * 6**2
                * (a * c * e + 2 * b * c * d - c**3 - a * d**2 - b**2 * e) ** 2
            )
            disc = invariants_IJ(BinaryQuartic(*t)).disc
            assert delta == 4 * 12**3 * disc


class TestClassifyBinary:
    def test_all_ones_is_psd_boundary(self):
        assert classify_binary(BinaryQuartic(1, 1, 1, 1, 1)).classification is PSD

    def test_opposed_cubics_definite(self):
        assert classify_binary(BinaryQuartic(1, 1, 1, -1, 1)).classification is PD

    def test_negative_square_term(self):
        v = classify_binary(BinaryQuartic(1, 1, -1, 1, 1))
        assert v.classification is NPSD
        assert v.witness is not None
        assert evaluate(BinaryQuartic(1, 1, -1, 1, 1), v.witness) < 0
        assert evaluate(BinaryQuartic(1, 1, -1, 1, 1), (1, -1)) == -12

    def test_negative_diagonal(self):
        v = classify_binary(BinaryQuartic(-1, 0, 1, 0, 1))
        assert v.classification is NPSD and v.witness == (1, 0)

    def test_zero_diagonal_psd(self):
        # 6 x^2 y^2 + y^4: nonnegative, zero along the x axis
        v = classify_binary(BinaryQuartic(0, 0, 1, 0, 1))
        assert v.classification is PSD

    def test_zero_diagonal_indefinite(self):
        # 4 x^3 y + y^4 changes sign
        v = classify_binary(BinaryQuartic(0, 1, 0, 0, 1))
        assert v.classification is NPSD
        assert evaluate(BinaryQuartic(0, 1, 0, 0, 1), v.witness) < 0

    def test_perfect_square_plus(self):
        # (x^2 + y^2)^2 is PD
        assert classify_binary(BinaryQuartic(1, 0, F(1, 3), 0, 1)).classification is PD


def negative_t(b, c, d, e):
    """A rational t with g(t) = 4b t^3 + 6c t^2 + 4d t + e < 0, or None when
    g is nonnegative.  Beyond R, larger than every root (Cauchy), g has the
    sign of its leading term; a quadratic with c > 0 is least at its
    vertex."""
    def g(t):
        return 4 * b * t**3 + 6 * c * t**2 + 4 * d * t + e
    if b or c < 0 or (c == 0 and d):
        lead = abs(4 * b or 6 * c or 4 * d)
        R = 1 + (6 * abs(c) + 4 * abs(d) + abs(e)) / lead
        candidates = (R, -R)
    else:
        candidates = (-d / (3 * c),) if c else ()
    return next((t for t in candidates if g(t) < 0), None)


coefficients = st.fractions(-6, 6, max_denominator=6)


class TestDegenerate:
    @given(st.booleans(), coefficients, coefficients, coefficients,
           st.fractions(0, 6, max_denominator=6))
    @settings(max_examples=200, deadline=None)
    @example(False, 0, 1, 3, 6)  # 6 (x + y)^2 y^2: 2d^2 = 3ce, PSD
    @example(True, 0, 1, 3, 6)
    @example(False, 0, 0, 0, 2)  # 2 y^4
    @example(True, 0, 0, 1, 2)  # c = 0, d != 0: not PSD
    def test_rule_matches_exact_evaluation(self, mirrored, b, c, d, e):
        """f(t, 1) = g(t) for a = 0, and f(1, t) = g(t) for the mirrored form
        with e = 0: the verdict is NotPSD exactly when g takes a negative
        value, which evaluate confirms at that point."""
        T = BinaryQuartic(e, d, c, b, 0) if mirrored else BinaryQuartic(0, b, c, d, e)
        t = negative_t(b, c, d, e)
        v = classify_binary(T)
        if t is None:
            assert (v.classification, v.branch) == (PSD, "degenerate-diagonal-oracle")
            assert evaluate(T, v.witness) == 0
        else:
            assert (v.classification, v.branch) == (NPSD, "degenerate-diagonal")
            assert evaluate(T, (1, t) if mirrored else (t, 1)) < 0
            assert v.witness is None or evaluate(T, v.witness) < 0

    def test_no_oracle_witness_is_still_not_psd(self, monkeypatch):
        """y^2 (6x^2 + 18xy + 13y^2) is negative only for x/y in about
        (-1.79, -1.21), where no small probe point lies."""
        monkeypatch.setattr(binary, "negative_witness", lambda T, cfg: None)
        T = BinaryQuartic(0, 0, 1, F(9, 2), 13)
        assert evaluate(T, (F(-3, 2), 1)) < 0
        v = classify_binary(T)
        assert (v.classification, v.branch, v.witness) == (NPSD, "degenerate-diagonal", None)


def square_of_quadratic(alpha, beta, gamma):
    """(alpha x^2 + beta xy + gamma y^2)^2, whose discriminant is 0."""
    return BinaryQuartic(F(alpha * alpha), F(alpha * beta, 2),
                         F(beta * beta + 2 * alpha * gamma, 6), F(beta * gamma, 2),
                         F(gamma * gamma))


def sqrt_diff_sign(u, p, v, q):
    """Sign of u*sqrt(p) - v*sqrt(q) for rationals with p, q >= 0, compared
    term by term: an independent reference for the disc-0 cubic test."""
    a = 0 if (u == 0 or p == 0) else (u > 0) - (u < 0)
    b = 0 if (v == 0 or q == 0) else (v > 0) - (v < 0)
    if a != b:
        return 1 if a > b else -1
    if a == 0:
        return 0
    diff = u * u * p - v * v * q
    return a * ((diff > 0) - (diff < 0))


def disc0_reference(T):
    """condition_I's disc-0 test with b*sqrt(e) = d*sqrt(a) decided by
    sqrt_diff_sign."""
    a, b, c, d, e = T.coeffs
    eq_cubics = sqrt_diff_sign(b, e, d, a) == 0
    eq_mixed = _radical_sign(3 * a * c - 2 * b * b, -a, a * e) == 0
    return eq_cubics and eq_mixed and _radical_sign(-c, 1, a * e) > 0


class TestDiscZero:
    @pytest.mark.parametrize("abc, cls, branch", [
        ((1, 1, 1), PD, "I-disc0"),
        ((1, -1, 2), PD, "I-disc0"),
        ((2, 1, 3), PD, "I-disc0"),
        ((1, 3, 1), PSD, "II-branch-ii"),
    ], ids=["1,1,1", "1,-1,2", "2,1,3", "1,3,1"])
    def test_squares_of_quadratics(self, abc, cls, branch):
        T = square_of_quadratic(*abc)
        assert invariants_IJ(T).disc == 0
        assert T.t1112 != 0 and T.t1222 != 0
        v = classify_binary(T)
        assert (v.classification, v.branch) == (cls, branch)

    def test_disc0_branch_matches_reference(self):
        halves = [F(k, 2) for k in range(-2, 3)]
        forms = [square_of_quadratic(*abc) for abc in product(range(-3, 4), repeat=3)]
        forms += [BinaryQuartic(a, b, c, d, e)
                  for a, e in product((0, 1, 4), repeat=2)
                  for b, d in product(halves, repeat=2)
                  for c in (F(-1), F(0), F(1, 6), F(1, 3), F(1, 2), F(1))]
        definite = 0
        for T in forms:
            if invariants_IJ(T).disc != 0:
                continue
            a, b, _, d, e = T.coeffs
            if a > 0:
                assert (_radical_sign(-a * d, b, a * e) == 0) == (sqrt_diff_sign(b, e, d, a) == 0)
            expected = disc0_reference(T)
            assert condition_I(T) == ((True, "I-disc0") if expected else (False, ""))
            definite += expected and b != 0 and d != 0
        assert definite > 10  # the grid reaches the branch with b, d != 0


class TestSignClass:
    def test_definite_pattern(self):
        assert classify_sign_binary(BinaryQuartic(1, -1, 1, 1, 1)).classification is PD

    def test_negative_square_pattern(self):
        v = classify_sign_binary(BinaryQuartic(1, 1, -1, -1, 1))
        assert v.classification is NPSD
        assert evaluate(BinaryQuartic(1, 1, -1, -1, 1), v.witness) < 0

    def test_matched_cubics_boundary(self):
        assert classify_sign_binary(BinaryQuartic(1, -1, 1, -1, 1)).classification is PSD

    @pytest.mark.parametrize("T", [
        BinaryQuartic(1, 2, 1, 1, 1),
        BinaryQuartic(-1, 1, 1, 1, 1),
        BinaryQuartic(1, 1, 1, 1, -1),
        BinaryQuartic(1, 0, 1, 1, 1),
    ])
    def test_rejects_non_sign_class(self, T):
        with pytest.raises(NotInSignClass):
            classify_sign_binary(T)

    def test_exhaustive_agreement_with_general_classifier(self):
        for b, c, d in product((1, -1), repeat=3):
            T = BinaryQuartic(1, b, c, d, 1)
            assert (classify_sign_binary(T).classification
                    is classify_binary(T).classification)


def test_condition_I_implies_condition_II():
    rng = random.Random(11)
    seen_pd = 0
    for _ in range(500):
        t = [F(rng.randint(1, 8))] + [F(rng.randint(-6, 6), rng.randint(1, 6))
                                      for _ in range(3)] + [F(rng.randint(1, 8))]
        T = BinaryQuartic(t[0], t[1], t[2], t[3], t[4])
        if condition_I(T)[0]:
            seen_pd += 1
            assert condition_II(T)[0]
    assert seen_pd > 10  # the sample actually exercises the implication


def test_scaling_covariance():
    rng = random.Random(5)
    for _ in range(100):
        t = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(5)]
        lam = F(rng.randint(1, 20), rng.randint(1, 20))
        T = BinaryQuartic(*t)
        S = BinaryQuartic(*(lam * v for v in t))
        assert classify_binary(T).classification is classify_binary(S).classification


def test_float_coefficients_count_at_their_exact_value():
    """Float coefficients are decided at their exact binary values, so they
    give the verdict of their Fraction values.  The coefficients below are
    (x^2 + 1.1 xy + 0.15 y^2)^2 rounded to floats, and exactly they form a PD
    quartic; forms near a perfect square, where float arithmetic flips the
    sign conditions, agree too."""
    coeffs = (1.0, 0.55, 0.2516666666666667, 0.0825, 0.0225)
    T = BinaryQuartic(*coeffs)
    assert T.coeffs == tuple(map(F, coeffs))
    assert classify_binary(T) == Verdict(PD, "I-branch-ii")
    rng = random.Random(23)
    for _ in range(200):
        p, q = rng.uniform(-2, 2), rng.uniform(0.01, 2)
        coeffs = (1.0, p / 2, (p * p + 2 * q) / 6, p * q / 2, q * q)
        assert classify_binary(BinaryQuartic(*coeffs)) == classify_binary(
            BinaryQuartic(*map(F, coeffs)))


def pin_corpus():
    """A seeded corpus of rational binaries: general forms with denominators
    up to 10**6, forms with a zero or a negative diagonal entry, and forms with
    disc = 0 (squares of quadratics, and a double root times a quadratic)."""
    rng = random.Random(24)

    def rat(lo, hi, den):
        return F(rng.randint(lo, hi), rng.randint(1, den))

    forms = []
    for den in (1, 6, 1000, 10**6):
        for _ in range(60):
            a, e = rat(1, 9 * den, den), rat(1, 9 * den, den)
            forms.append(BinaryQuartic(a, *(rat(-12 * den, 12 * den, den) for _ in range(3)), e))
    for i in range(120):
        k = [rat(1, 9, 7), rat(-12, 12, 5), rat(-6, 12, 9), rat(-12, 12, 10**6), rat(1, 9, 4)]
        k[0 if i % 2 else 4] = F(0)
        if i % 3 == 0:
            k[1 if i % 2 else 3] = F(0)
        if i % 5 == 0:
            k[4 if i % 2 else 0] = F(0)
        forms.append(BinaryQuartic(*k))
    for i in range(60):
        k = [rat(1, 9, 3), rat(-6, 6, 5), rat(-6, 6, 10**6), rat(-6, 6, 2), rat(1, 9, 7)]
        k[0 if i % 2 else 4] *= -1
        forms.append(BinaryQuartic(*k))
    for _ in range(60):
        forms.append(square_of_quadratic(rat(1, 9, 5), rat(-9, 9, 10**6), rat(-9, 9, 7)))
    for _ in range(60):
        # (x - r y)^2 (p x^2 + q xy + s y^2)
        r, p, q, s = rat(-5, 5, 3), rat(1, 9, 4), rat(-9, 9, 10**6), rat(-9, 9, 4)
        cubic = (p, q - 2 * r * p, s - 2 * r * q + r * r * p, r * r * q - 2 * r * s, r * r * s)
        forms.append(BinaryQuartic(cubic[0], cubic[1] / 4, cubic[2] / 6, cubic[3] / 4, cubic[4]))
    return forms


# SHA-256 over class, branch and witness of classify_binary on pin_corpus(),
# recorded when the classifier still decided on Fraction coefficients.
CLASSIFY_DIGEST = "ecc8688480451671ba010e8e8b4575aeb35a3b9b53378094457a42fdc0f59ad6"


def test_classify_binary_is_pinned():
    digest = hashlib.sha256()
    seen = set()
    for T in pin_corpus():
        v = classify_binary(T)
        witness = None if v.witness is None else [str(x) for x in v.witness]
        digest.update(repr((v.classification.value, v.branch, witness)).encode())
        seen.add(v.branch)
    assert {"diagonal-negative", "degenerate-diagonal", "degenerate-diagonal-oracle",
            "I-disc0", "I-branch-i", "I-branch-ii", "II-branch-i", "II-branch-ii",
            "II-fails"} == seen
    assert digest.hexdigest() == CLASSIFY_DIGEST


positive = st.fractions(min_value=F(1, 10**6), max_value=10**6, max_denominator=10**6)


@given(st.lists(coefficients, min_size=5, max_size=5), positive)
@settings(max_examples=300, deadline=None)
@example([1, 1, 1, 1, 1], F(1, 3))  # PSD, disc = 0
@example(list(square_of_quadratic(1, -1, 2).coeffs), F(7, 10**6))  # PD, disc = 0
@example([0, 0, 1, F(9, 2), 13], F(5, 2))  # zero diagonal, no small witness
@example([-1, 0, 1, 0, 1], F(1, 7))
def test_class_and_branch_are_homogeneous(coeffs, k):
    """T and k*T, k > 0, get the same class and branch: every test of the
    classifier is the sign of a homogeneous expression in the coefficients,
    which is what deciding on the integers D*T relies on."""
    T, S = BinaryQuartic(*coeffs), BinaryQuartic(*(k * c for c in coeffs))
    v, w = classify_binary(T), classify_binary(S)
    assert (v.classification, v.branch) == (w.classification, w.branch)
    if T.t1111 > 0 and T.t2222 > 0:
        assert condition_I(T) == condition_I(S)
        assert condition_II(T) == condition_II(S)
