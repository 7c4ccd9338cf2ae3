import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpd.tensors import (
    EXPONENTS,
    MULTI_INDICES,
    MULTIPLICITIES,
    BadArity,
    BadIndex,
    BinaryQuartic,
    ConflictingEntries,
    DimensionMismatch,
    TensorError,
    TernaryQuartic,
    build_tensor,
    evaluate,
    multiplicity,
    parse_scalar,
)
from qpd.ternary import NotInClass, SignClassTensor

from helpers import gradient, rewrite_forms

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=20)


def case_tensor(s, c, b):
    return SignClassTensor(*s, *c, F(b)).to_quartic()


# Representative sign pattern of the necessity arguments.
S_REP = (1, 1, -1)


def test_parse_scalar_exact_fraction():
    assert parse_scalar("11/6") == F(11, 6)
    assert parse_scalar(3) == F(3)
    assert parse_scalar("2.5") == F(5, 2)
    # A float is read at its exact binary value.
    assert type(parse_scalar(0.1)) is F
    assert parse_scalar(0.1) == F(3602879701896397, 2**55)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_float_coefficients_are_refused(value):
    with pytest.raises(TensorError):
        build_tensor(2, {(1, 1, 1, 1): value, (2, 2, 2, 2): 1})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, False])
@pytest.mark.parametrize("position", [0, 2, 4])
def test_quartic_constructors_refuse_bad_coefficients(value, position):
    """Both quartic classes refuse inf, nan and bool coefficients at
    construction, as build_tensor does, wherever the coefficient stands."""
    binary = [F(1), 0, F(1, 2), 0, 1]
    binary[position] = value
    with pytest.raises(TensorError):
        BinaryQuartic(*binary)
    ternary = [F(1)] * 15
    ternary[3 * position] = value
    with pytest.raises(TensorError):
        TernaryQuartic(tuple(ternary))


def test_quartic_constructors_keep_finite_floats():
    assert evaluate(BinaryQuartic(0.5, 0, 0, 0, 1.0), (1, 1)) == F(3, 2)
    assert evaluate(TernaryQuartic((0.25,) * 15), (1, 0, 0)) == F(1, 4)


def test_ternary_quartic_keeps_its_coefficients_as_a_tuple():
    """A list of coefficients is stored as a tuple, so the tensor hashes (the
    oracle caches its last result by tensor) and equals the tuple-built one."""
    T = TernaryQuartic([1] * 15)
    assert T.coeffs == (1,) * 15
    assert T == TernaryQuartic((1,) * 15)
    assert hash(T) == hash(TernaryQuartic((1,) * 15))


def test_multi_index_counts():
    assert len(MULTI_INDICES[2]) == 5
    assert len(MULTI_INDICES[3]) == 15


def test_multiplicity():
    assert multiplicity((1, 1, 1, 1)) == 1
    assert multiplicity((1, 1, 1, 2)) == 4
    assert multiplicity((1, 1, 2, 2)) == 6
    assert multiplicity((1, 1, 2, 3)) == 12


class TestBuildTensor:
    def test_binary_sign_pattern(self):
        T = build_tensor(2, {(1, 1, 1, 1): 1, (2, 2, 2, 2): 1, (1, 1, 2, 2): 1,
                            (1, 1, 1, 2): 1, (1, 2, 2, 2): -1})
        assert T == BinaryQuartic(F(1), F(1), F(1), F(-1), F(1))

    def test_empty_ternary_is_zero(self):
        T = build_tensor(3, {})
        assert all(c == 0 for c in T.coeffs)

    def test_unsorted_keys_are_canonicalized(self):
        T = build_tensor(2, {(2, 1, 1, 1): 5})
        assert T.t1112 == 5

    def test_conflicting_permuted_keys(self):
        with pytest.raises(ConflictingEntries):
            build_tensor(2, {(1, 2, 1, 1): 5, (1, 1, 1, 2): 3})

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            build_tensor(2, {(1, 1, 1, 3): 1})

    def test_bad_arity(self):
        with pytest.raises(BadArity):
            build_tensor(2, {(1, 1, 1): 1})


class TestEvaluate:
    def test_case1_tensor(self):
        # b=11/6, two of the t_iijk equal -1
        T = case_tensor(S_REP, (-1, -1, 1), F(11, 6))
        assert evaluate(T, (F(1, 5), F(-1, 5), F(1))) == F(-72, 625)

    def test_origin(self):
        T = case_tensor(S_REP, (1, 1, 1), F(2))
        assert evaluate(T, (0, 0, 0)) == 0

    def test_case4_level2_tensor(self):
        T = case_tensor(S_REP, (-1, -1, -1), F(2))
        assert evaluate(T, (F(-1), F(-3), F(-1))) == -61

    def test_dimension_mismatch(self):
        T = BinaryQuartic(1, 0, 0, 0, 1)
        with pytest.raises(DimensionMismatch):
            evaluate(T, (1, 2, 3))

    def test_binary_expansion(self):
        # coefficients (t1111, 4 t1112, 6 t1122, 4 t1222, t2222)
        T = BinaryQuartic(F(1), F(2), F(3), F(5), F(7))
        x, y = F(2), F(-3)
        expected = x**4 + 8 * x**3 * y + 18 * x**2 * y**2 + 20 * x * y**3 + 7 * y**4
        assert evaluate(T, (x, y)) == expected


class TestGradient:
    def test_zero_at_origin(self):
        T = case_tensor(S_REP, (1, -1, 1), F(5, 2))
        assert gradient(T, (0, 0, 0)) == (0, 0, 0)

    def test_single_term(self):
        T = BinaryQuartic(1, 0, 0, 0, 0)
        assert gradient(T, (2, 5)) == (32, 0)

    def test_matches_finite_differences(self):
        import random

        rng = random.Random(7)
        h = 1e-5
        for _ in range(50):
            dim = rng.choice((2, 3))
            T = build_tensor(dim, {
                m: rng.uniform(-1, 1) for m in MULTI_INDICES[dim]
            })
            x = [rng.uniform(-1, 1) for _ in range(dim)]
            g = gradient(T, x)
            scale = max(1.0, max(abs(v) for v in g))
            for k in range(dim):
                xp, xm = list(x), list(x)
                xp[k] += h
                xm[k] -= h
                fd = (evaluate(T, xp) - evaluate(T, xm)) / (2 * h)
                assert abs(fd - g[k]) / scale <= 1e-6


class TestRewriteForms:
    def test_four_forms_agree_with_direct_evaluation(self):
        T = case_tensor((1, 1, 1), (1, 1, 1), F(2))
        x = (F(3, 7), F(-2, 5), F(1, 3))
        forms = rewrite_forms(T, x)
        assert forms == [evaluate(T, x)] * 4

    def test_origin(self):
        T = case_tensor(S_REP, (-1, -1, -1), F(11, 6))
        assert rewrite_forms(T, (0, 0, 0)) == [0, 0, 0, 0]

    def test_float_mode_at_boundary_zero(self):
        # semidefinite-boundary tensor: value 0 at (1,1,1)/sqrt(3)
        T = SignClassTensor(-1, 1, -1, -1, -1, -1, F(11, 6)).to_quartic()
        v = 1 / math.sqrt(3)
        assert all(abs(f) <= 1e-12 for f in rewrite_forms(T, (v, v, v)))

    def test_rejects_non_class_tensor(self):
        with pytest.raises(NotInClass):
            rewrite_forms(build_tensor(3, {}), (1, 1, 1))


@given(st.lists(rationals, min_size=3, max_size=3), rationals)
def test_homogeneity_exact(x, lam):
    T = SignClassTensor(1, -1, 1, -1, 1, -1, F(5, 2)).to_quartic()
    assert evaluate(T, [lam * v for v in x]) == lam**4 * evaluate(T, x)


@given(st.lists(rationals, min_size=2, max_size=2))
def test_euler_identity_binary(x):
    T = BinaryQuartic(F(2), F(-1, 3), F(1, 2), F(5), F(-7, 4))
    g = gradient(T, x)
    assert sum(gi * xi for gi, xi in zip(g, x)) == 4 * evaluate(T, x)


@given(st.dictionaries(st.sampled_from(MULTI_INDICES[3]), rationals, max_size=15),
       st.lists(rationals, min_size=3, max_size=3))
@settings(max_examples=50)
def test_symmetry_under_key_permutation(entries, x):
    import random

    rng = random.Random(0)
    shuffled = {}
    for key, value in entries.items():
        perm = list(key)
        rng.shuffle(perm)
        shuffled[tuple(perm)] = value
    assert evaluate(build_tensor(3, entries), x) == evaluate(build_tensor(3, shuffled), x)


@given(st.dictionaries(st.sampled_from(MULTI_INDICES[2]), rationals, max_size=5),
       st.lists(rationals, min_size=2, max_size=2))
@example(entries={(1, 1, 1, 2): F(49, 6)}, x=[F(67, 7), F(48, 5)])  # value ~2.7e5
@settings(max_examples=50)
def test_exact_float_agreement(entries, x):
    T = build_tensor(2, entries)
    Tf = build_tensor(2, {k: float(v) for k, v in entries.items()})
    exact = evaluate(T, x)
    approx = evaluate(Tf, [float(v) for v in x])
    # Forward error bound: each of the five terms picks up about a dozen
    # roundings (inputs, products, the running sum), so its error is below
    # 64 unit roundoffs of the exactly computed sum of |term|.
    magnitude = sum(abs(w * c * math.prod(x[i - 1] for i in midx))
                    for midx, w, c in T.terms())
    assert abs(float(exact) - approx) <= 64 * 2**-53 * (1 + float(magnitude))


def test_term_tables():
    for dim in (2, 3):
        idx = MULTI_INDICES[dim]
        assert MULTIPLICITIES[dim] == tuple(multiplicity(m) for m in idx)
        assert EXPONENTS[dim] == tuple(tuple(m.count(j) for j in range(1, dim + 1)) for m in idx)
        assert sum(MULTIPLICITIES[dim]) == dim**4


def fraction_loop(T, x):
    """Exact evaluation as a sum of Fraction products, one term at a time."""
    total = 0
    for midx, c in zip(MULTI_INDICES[T.dim], T.coeffs):
        if c == 0:
            continue
        mono = 1
        for i in midx:
            mono = mono * x[i - 1]
        total = total + multiplicity(midx) * c * mono
    return total


NEAR_1E40 = st.integers(10**40 - 10**6, 10**40 + 10**6)
exact_scalars = st.one_of(
    st.just(0),
    st.just(F(0)),
    st.integers(-1000, 1000),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=1000),
    st.builds(lambda n, d, sign: F(sign * n, d), NEAR_1E40, NEAR_1E40, st.sampled_from((1, -1))),
    st.builds(lambda n, sign: sign * n, NEAR_1E40, st.sampled_from((1, -1))),
)
coefficients = st.one_of(st.just(F(0)), st.integers(-50, 50), rationals, exact_scalars)


@st.composite
def quartic_and_point(draw, dim):
    coeffs = draw(st.lists(coefficients, min_size=len(MULTI_INDICES[dim]),
                           max_size=len(MULTI_INDICES[dim])))
    T = BinaryQuartic(*coeffs) if dim == 2 else TernaryQuartic(tuple(coeffs))
    x = draw(st.one_of(st.just([0] * dim), st.lists(exact_scalars, min_size=dim, max_size=dim)))
    return T, x


@pytest.mark.parametrize("dim", (2, 3))
@given(data=st.data())
@settings(max_examples=300)
def test_integer_evaluation_matches_fraction_loop(dim, data):
    T, x = data.draw(quartic_and_point(dim))
    assert evaluate(T, x) == fraction_loop(T, x)


def test_integer_form_lives_on_the_tensor():
    T = BinaryQuartic(F(1, 2), F(-1, 3), 0, F(5, 4), 7)
    D, rows = T.integer_form
    assert T.integer_form is T.integer_form
    assert D == 12
    # k_m = multiplicity * c_m * D for the four nonzero coefficients.
    assert rows == ((6, 4, 0), (-16, 3, 1), (60, 1, 3), (84, 0, 4))
    assert T == BinaryQuartic(F(1, 2), F(-1, 3), 0, F(5, 4), 7)
    # A float coefficient is read at its exact binary value: 1.5 = 3/2.
    assert BinaryQuartic(1.5, 0, 0, 0, 1).integer_form == (2, ((3, 4, 0), (2, 0, 4)))


# Tensors and points with float coefficients or coordinates, mixed with exact
# ones, with the float.hex of the result of the float term loop that evaluate
# used for float inputs before floats were read at their exact binary value.
FLOAT_PINS = [
    (BinaryQuartic(1.5, -0.25, 0.1, 2.0, 3.0), (0.3, -1.7), "0x1.af55b035bd50fp+3"),
    (TernaryQuartic(tuple(0.1 * k - 0.7 for k in range(15))), (0.6, -0.8, 1 / 3),
     "0x1.02e85c0898cf0p-9"),
    (SignClassTensor(-1, 1, -1, -1, -1, -1, F(11, 6)).to_quartic(), (1 / math.sqrt(3),) * 3,
     "0x1.4000000000000p-54"),
    (BinaryQuartic(0.1, 0.2, -0.3, 0.4, 0.5), (F(1, 3), F(-2, 7)), "-0x1.0b973bfb40fd2p-5"),
    (TernaryQuartic(tuple(F(k - 7, k + 1) for k in range(15))), (F(1, 3), 0.25, -2),
     "0x1.52fb40ea5c394p+1"),
]


@pytest.mark.parametrize("T, x, expected", FLOAT_PINS)
def test_float_evaluation_is_unchanged(T, x, expected):
    """evaluate returns a Fraction equal to the exact value with every float
    replaced by Fraction(float); the old float result differs from it by no
    more than the term loop's rounding error bound gamma_n * sum |term|."""
    def exact(values):
        return tuple(F(v) for v in values)

    coeffs = exact(T.coeffs)
    T_exact = BinaryQuartic(*coeffs) if T.dim == 2 else TernaryQuartic(coeffs)
    point = exact(x)
    value = evaluate(T, x)
    assert type(value) is F
    assert value == fraction_loop(T_exact, point)
    # Each term takes at most 6 roundings (a point coordinate, the monomial's
    # products and the coefficient's) and the sum one per term.
    n = 6 + len(coeffs)
    magnitude = sum(
        abs(multiplicity(midx) * c * math.prod(point[i - 1] for i in midx))
        for midx, c in zip(MULTI_INDICES[T.dim], coeffs)
    )
    assert abs(F(float.fromhex(expected)) - value) <= n * F(1, 2**53) * magnitude
