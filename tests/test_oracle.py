import hashlib
import math
import tracemalloc
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qpd import oracle
from qpd.binary import classify_binary
from qpd.inequalities import CHECKED_VARIANTS, residual_tensor
from qpd.oracle import (
    NonFiniteValue,
    NumericVerdict,
    OracleConfig,
    _exponents,
    _float_terms,
    _hessian_table,
    _kernel,
    _limit_denominator,
    _lowest,
    _refine,
    _seeds,
    _tangent_basis,
    _weights,
    min_on_sphere,
    minima_on_sphere,
    negative_witness,
    rationalize_and_confirm,
    verify_verdict,
)
from qpd.tensors import (MULTI_INDICES, MULTIPLICITIES, BinaryQuartic, TernaryQuartic,
                         build_tensor, evaluate)
from qpd.ternary import STUDIED_LEVELS, SignClassTensor
from qpd.verdicts import Classification

from helpers import gradient

CFG = OracleConfig(grid_resolution=64, starts=8)


def _eval_batch(X, C, E):
    """f at each row of X, as the oracle evaluates it: a stack of one form,
    its points given as (dim, 1, n)."""
    return _kernel(E.shape[1], 1, len(X))(X.T[:, None], _weights(C[None], E))[0][0]


def _grad_batch(X, C, E):
    """The gradient at each row of X, as the oracle evaluates it, one row per
    point."""
    return _kernel(E.shape[1], 1, len(X))(X.T[:, None], _weights(C[None], E))[1][:, 0].T


def case1_tensor():
    return SignClassTensor(1, 1, -1, -1, -1, 1, F(11, 6)).to_quartic()


def boundary_tensor():
    return SignClassTensor(-1, 1, -1, -1, -1, -1, F(11, 6)).to_quartic()


class TestMinOnSphere:
    def test_perfect_square_is_constant_one(self):
        # (x^2 + y^2)^2 restricted to the circle
        r = min_on_sphere(BinaryQuartic(1, 0, F(1, 3), 0, 1), CFG)
        assert abs(r.min_value - 1.0) < 1e-9
        assert r.verdict is NumericVerdict.PD

    def test_boundary_tensor_minimum_zero(self):
        r = min_on_sphere(boundary_tensor(), OracleConfig())
        assert abs(r.min_value) <= 1e-8
        assert r.verdict is NumericVerdict.BOUNDARY_PSD
        v = 1 / math.sqrt(3)
        dot = abs(sum(a * b for a, b in zip(r.argmin, (v, v, v))))
        assert math.acos(min(1.0, dot)) <= 1e-4

    def test_negative_case_is_confirmed_exactly(self):
        r = min_on_sphere(case1_tensor(), CFG)
        assert r.verdict is NumericVerdict.NOT_PSD
        assert r.confirmed_exact is not None and r.confirmed_exact < 0
        assert evaluate(case1_tensor(), r.witness) == r.confirmed_exact

    def test_argmin_is_unit(self):
        r = min_on_sphere(case1_tensor(), CFG)
        assert abs(sum(v * v for v in r.argmin) - 1.0) <= 1e-12

    def test_homogeneity_of_minimum(self):
        T = case1_tensor()
        S = build_tensor(3, {m: 3 * c for m, _, c in T.terms()})
        r1, r3 = min_on_sphere(T, CFG), min_on_sphere(S, CFG)
        assert r3.min_value == pytest.approx(3 * r1.min_value, rel=1e-8)

    def test_determinism(self):
        a = min_on_sphere(case1_tensor(), CFG)
        b = min_on_sphere(case1_tensor(), CFG)
        assert a.min_value == b.min_value and a.argmin == b.argmin

    def test_determinism_of_the_search(self):
        a = min_on_sphere.__wrapped__(case1_tensor(), CFG)
        b = min_on_sphere.__wrapped__(case1_tensor(), CFG)
        assert a == b

    def test_last_result_is_reused(self):
        first = min_on_sphere(case1_tensor(), CFG)
        assert min_on_sphere(case1_tensor(), CFG) is first  # an equal, new tensor
        min_on_sphere(case1_tensor(), OracleConfig(grid_resolution=32, starts=8))
        again = min_on_sphere(case1_tensor(), CFG)
        assert again is not first and again == first

    def test_overflow(self):
        with pytest.raises(NonFiniteValue):
            min_on_sphere(BinaryQuartic(1e308, 0.0, 1e308, 0.0, 1e308), CFG)
        with pytest.raises(NonFiniteValue):
            min_on_sphere(build_tensor(3, dict.fromkeys(MULTI_INDICES[3], 1e308)), CFG)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_overflowing_seed_values(self, dim):
        """Every weighted coefficient is finite, but the seed values near x = y,
        z = 0 are about 2.2e308."""
        entries = {m: F(7, 4) * 10**308 / w for m, w in zip(MULTI_INDICES[dim],
                                                               MULTIPLICITIES[dim])
                   if 3 not in m}
        T = build_tensor(dim, entries)
        assert np.all(np.isfinite(_float_terms([T])[0]))
        with pytest.raises(NonFiniteValue):
            min_on_sphere(T, CFG)


@pytest.mark.parametrize("dim", [2, 3])
def test_overflow_is_raised_exactly_when_a_seed_value_overflows(dim):
    """The search raises NonFiniteValue iff some seed value is inf or nan,
    also where the values skip the scan, for forms of mostly positive
    weights scaled from 2**1012 up to the top of the float64 range."""
    values = _seeds(dim, CFG.grid_resolution)[0]
    rng = np.random.default_rng(dim)
    raised = []
    for scale in 2.0 ** np.linspace(1012, 1023.99, 12):
        for _ in range(8):
            weights = rng.uniform(0.9, 1, len(MULTI_INDICES[dim]))
            signs = np.where(rng.random(len(weights)) < 0.8, scale, -scale)
            T = build_tensor(dim, {m: float(v) / w for m, w, v in zip(
                MULTI_INDICES[dim], MULTIPLICITIES[dim], weights * signs)})
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    minima_on_sphere([T], CFG)
                    raised.append(False)
                except NonFiniteValue:
                    raised.append(True)
                assert raised[-1] == (not np.all(np.isfinite(values(_float_terms([T])[0]))))
    assert any(raised) and not all(raised)


def former_float_terms(T):
    """T's weighted coefficients by the former formula w * float(c), one
    Fraction at a time, or None where it overflows or rounds a nonzero
    coefficient to 0."""
    C = []
    for _, w, c in T.terms():
        try:
            v = w * float(c)
        except OverflowError:
            return None
        if not math.isfinite(v) or (c != 0 and v == 0):
            return None
        C.append(v)
    return C


# Coefficients for _float_terms: rationals with numerators and denominators up
# to 10**300; floats, subnormals included, read at their exact values; and
# zeros.  A stack may get one extreme coefficient, a little inside or beyond an
# end of the float64 range.
COEFFICIENTS = st.one_of(
    st.builds(F, st.integers(-10**300, 10**300), st.integers(1, 10**300)),
    st.floats(-1e300, 1e300),
    st.sampled_from([0, F(0), 0.0, -0.0]),
)
EXTREMES = st.builds(lambda sign, v, k: sign * F(v) * F(2) ** k, st.sampled_from([1, -1]),
                     st.floats(1, 2, exclude_max=True),
                     st.one_of(st.integers(1016, 1024), st.integers(-1080, -1066)))


@st.composite
def stacks(draw):
    dim = draw(st.sampled_from([2, 3]))
    m = len(MULTI_INDICES[dim])
    rows = draw(st.lists(st.lists(COEFFICIENTS, min_size=m, max_size=m), min_size=1,
                         max_size=4))
    if draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, m - 1))] = draw(EXTREMES)
    return [BinaryQuartic(*r) if dim == 2 else TernaryQuartic(r) for r in rows]


@given(stacks())
@example([BinaryQuartic(F(2) ** 1024, 0, 0, 0, 1)])  # float(c) overflows
@example([BinaryQuartic(0, F(1e308), 0, 0, 1)])  # 4 * 1e308 overflows
@example([BinaryQuartic(1, 0, 0, 0, 1), BinaryQuartic(F(1, 2**1075), 0, 0, 0, 1)])  # -> 0
@example([TernaryQuartic([F(1, 2**1074)] * 15)])  # the least subnormal, times w
@example([TernaryQuartic([0] * 14 + [F(-3, 2**1076)])])  # rounds to -2**-1074
def test_float_terms_equal_the_former_formula(stack):
    """Each row of _float_terms, w * (k / D) from the integer coefficients,
    equals w * float(c) bit for bit, and a stack raises NonFiniteValue
    exactly when the former formula fails on one of its tensors."""
    rows = [former_float_terms(T) for T in stack]
    if any(row is None for row in rows):
        with pytest.raises(NonFiniteValue):
            _float_terms(stack)
    else:
        assert same_bits(_float_terms(stack), np.array(rows))


def general_ternary():
    coeffs = (3, F(-1, 2), F(5, 4), F(7, 3), 2, F(-3, 4), F(1, 6), F(-5, 2),
              F(2, 3), 1, F(9, 4), F(-1, 3), F(4, 5), F(-7, 6), F(5, 2))
    return build_tensor(3, dict(zip(MULTI_INDICES[3], coeffs)))


SIGN_CLASS = [SignClassTensor(*s, *c, b).to_quartic()
              for b in STUDIED_LEVELS
              for s in product((1, -1), repeat=3)
              for c in product((1, -1), repeat=3)]
VARIANTS = [residual_tensor(iid) for iid in CHECKED_VARIANTS]
DIM_TENSORS = {2: BinaryQuartic(F(3, 2), F(-1, 3), F(1, 4), F(5, 6), 2), 3: general_ternary()}


def reference_grid(dim, n):
    """The seed grid by its definition: n azimuths phi_j = pi j / n on the
    half-circle, and for ternaries n polar angles t_i = pi (i + 1/2) / n by
    the azimuths (seed i n + j), then the pole."""
    if dim == 2:
        theta = np.pi * np.arange(n) / n
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    polar = np.pi * (np.arange(n) + 0.5) / n
    azimuth = np.pi * np.arange(n) / n
    th, ph = np.meshgrid(polar, azimuth, indexing="ij")
    th, ph = th.ravel(), ph.ravel()
    pts = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1)
    return np.concatenate([pts, [[0.0, 0.0, 1.0]]])


def all_seeds(dim, n):
    """Every seed as the oracle builds it: n for a binary, n**2 + 1 for a
    ternary."""
    return _seeds(dim, n)[1](np.arange(n ** (dim - 1) + dim - 2))


class TestSeedCache:
    @pytest.mark.parametrize("n", [8, 64, 256, 1024])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_cached_seed_values_match_direct_evaluation(self, dim, n):
        """A binary's seed values are the mat-vec over the circle's monomials,
        bit for bit (a monomial table that is not C-contiguous changes the
        mat-vec's last bit); a ternary's factorized values agree to rounding.
        Of a ternary grid at most about 16,384 seeds are checked: every
        seed up to n = 128, above that every s-th for an odd s (which meets
        every azimuth), and the pole."""
        C, E = _float_terms([DIM_TENSORS[dim]])[0], _exponents(dim)
        values = _seeds(dim, n)[0](C)
        if dim == 2:
            direct = direct_monomials(reference_grid(2, n), E) @ C
            assert same_bits(values, direct)
            assert same_bits(values, _eval_batch(reference_grid(2, n), C, E))
        else:
            rows = np.r_[0:n * n:n * n // 16384 | 1, n * n]
            direct = direct_monomials(reference_grid(3, n)[rows], E) @ C
            assert np.abs(values[rows] - direct).max() <= 1e-14 * np.abs(C).sum()

    def test_cached_arrays_are_read_only(self):
        """Values and points are new arrays, so writing to them leaves the
        cached tables as they were."""
        C = _float_terms([DIM_TENSORS[3]])[0]
        values, points = _seeds(3, 64)
        first, seeds = values(C), points(np.arange(10))
        expected_values, expected_seeds = first.copy(), seeds.copy()
        first[:] = seeds[:] = 0.0
        assert same_bits(values(C), expected_values)
        assert same_bits(points(np.arange(10)), expected_seeds)

    def test_second_call_is_a_cache_hit(self):
        first = _seeds(3, 40)
        hits = _seeds.cache_info().hits
        second = _seeds(3, 40)
        assert _seeds.cache_info().hits == hits + 1
        assert all(a is b for a, b in zip(first, second))

    @pytest.mark.parametrize("n", [8, 16, 64, 256, 1024])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_start_points_match_the_grid(self, dim, n):
        """Every seed, the pole included, equals the meshgrid formula bit for
        bit, in the same order."""
        assert same_bits(all_seeds(dim, n), reference_grid(dim, n))

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_factorized_values_match_direct(self, n):
        """The U @ Q values equal the direct monomial formula to within
        1e-14 sum |C|, over the sign-class tensors, the inequality variants
        and a general ternary."""
        M = direct_monomials(reference_grid(3, n), _exponents(3))
        values = _seeds(3, n)[0]
        for T in SIGN_CLASS[::8] + VARIANTS + [DIM_TENSORS[3]]:
            C = _float_terms([T])[0]
            assert np.abs(values(C) - M @ C).max() <= 1e-14 * np.abs(C).sum()

    @pytest.mark.parametrize("n, k", [(256, 32), (64, 8)])
    def test_starts_match_direct_selection(self, n, k):
        """The starts are the ones the direct values select, in the same
        order, for all 256 sign-class tensors and the 20 variants."""
        M = direct_monomials(reference_grid(3, n), _exponents(3))
        values = _seeds(3, n)[0]
        for T in SIGN_CLASS + VARIANTS:
            C = _float_terms([T])[0]
            assert np.array_equal(_lowest(values(C), k), _lowest(M @ C, k))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_fused_gradient_matches_exact(self, dim):
        T = DIM_TENSORS[dim]
        points = [(F(1), F(-2, 3), F(1, 5)), (F(-3, 7), F(4, 9), F(2)), (F(1, 2), F(0), F(-1))]
        points = [p[:dim] for p in points]
        C, E = _float_terms([T])[0], _exponents(dim)
        G = _grad_batch(np.array(points, dtype=float), C, E)
        for row, p in zip(G, points):
            exact = [float(g) for g in gradient(T, p)]
            assert row.tolist() == pytest.approx(exact, rel=1e-12, abs=1e-10)


def direct_monomials(X, E):
    """M[i, m] = prod_j X[i, j] ** E[m, j] by the direct formula: one pow per
    entry, reduced by np.prod."""
    return np.prod(X[:, None, :] ** E[None], axis=2)


def loop_gradient(X, C, E):
    """The gradient one coordinate at a time from the direct formula."""
    G = np.empty_like(X)
    for k in range(X.shape[1]):
        Ek = E.copy()
        Ek[:, k] = np.maximum(Ek[:, k] - 1, 0)
        G[:, k] = direct_monomials(X, Ek) @ (C * E[:, k])
    return G


def unit_points(dim, n=500):
    X = np.random.default_rng(dim).standard_normal((n, dim))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    # Coordinates that are exactly +0.0 or -0.0, whose signs must survive.
    axes = np.eye(dim) * np.where(np.arange(dim) % 2, -1.0, 1.0)
    return np.concatenate([X, axes, -axes])


POINT_SETS = {
    "seeds-2": (2, lambda: all_seeds(2, 256)),
    "seeds-3": (3, lambda: all_seeds(3, 64)),
    "seeds-2-16": (2, lambda: all_seeds(2, 16)),
    "seeds-3-16": (3, lambda: all_seeds(3, 16)),
    "unit-2": (2, lambda: unit_points(2)),
    "unit-3": (3, lambda: unit_points(3)),
}


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestPowerTable:
    """The fused kernel's gather from one power table equals the direct
    pow-per-entry formulas bit for bit, signed zeros included."""

    @pytest.mark.parametrize("points", sorted(POINT_SETS))
    def test_monomials_and_values(self, points):
        """f and G for the tensor's coefficients and for each unit coefficient
        row, which reads out one monomial of f and of each df/dx_k, equal the
        direct formulas bit for bit."""
        dim, make = POINT_SETS[points]
        X = make()
        C, E = _float_terms([DIM_TENSORS[dim]])[0], _exponents(dim)
        kernel = _kernel(dim, 1, len(X))
        for row in [C, *np.eye(len(C))]:
            f, G = kernel(X.T[:, None], _weights(row[None], E))
            assert same_bits(f[0], direct_monomials(X, E) @ row)
            assert same_bits(G[:, 0], loop_gradient(X, row, E).T)

    @pytest.mark.parametrize("points", sorted(POINT_SETS))
    def test_gradient(self, points):
        dim, make = POINT_SETS[points]
        X = make()
        C, E = _float_terms([DIM_TENSORS[dim]])[0], _exponents(dim)
        assert same_bits(_grad_batch(X, C, E), loop_gradient(X, C, E))


def exact_hessian(T, x):
    """The Hessian from the tensor entries: 12 * sum_ij t_klij x_i x_j."""
    r = range(1, T.dim + 1)
    return [[12 * sum(T.coeff((k, l, i, j)) * x[i - 1] * x[j - 1] for i in r for j in r)
             for l in r] for k in r]


class TestNewton:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_hessian_weights_match_exact(self, dim):
        """The Hessian is the quadratic monomials times one weight matrix."""
        T = DIM_TENSORS[dim]
        C = _float_terms([T])[0]
        source, factor, pairs, lines = _hessian_table(dim)
        assert source.shape == factor.shape == (dim * (dim + 1) // 2,) * 2
        assert lines[dim].tolist() == [len(source) + k for k in range(dim)]
        W = C[source] * factor
        for p in [(F(1), F(-2, 3), F(1, 5)), (F(-3, 7), F(4, 9), F(2)), (F(1, 2), F(0), F(-1))]:
            x = np.array(p[:dim], dtype=float)
            H = (W @ (x[pairs[0]] * x[pairs[1]]))[lines[:dim]]
            exact = np.array(exact_hessian(T, p[:dim]), dtype=float)
            assert H.ravel().tolist() == pytest.approx(exact.ravel().tolist(), rel=1e-12, abs=1e-10)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_tangent_basis_is_orthonormal(self, dim):
        """Signed zeros and both poles included."""
        X = unit_points(dim).T
        B = _tangent_basis(X)
        assert B.shape == (dim, dim - 1, X.shape[1])
        gram = np.einsum("kan,kbn->abn", B, B)
        assert np.abs(gram - np.eye(dim - 1)[..., None]).max() < 1e-14
        assert np.abs(np.einsum("kan,kn->an", B, X)).max() < 1e-14


class TestSeedSelection:
    """_lowest(values, k) picks the seeds a full stable argsort would."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(11)
        ties = rng.integers(0, 5, 1000).astype(float)
        zeros = rng.choice([0.0, -0.0, 1.0], 200)  # +0.0 and -0.0 tie
        C = _float_terms([boundary_tensor()])[0]
        seed_values = _seeds(3, 256)[0](C)
        for values in (ties, zeros, rng.standard_normal(300), seed_values):
            for k in (1, 2, 32, len(values) - 1, len(values), len(values) + 24):
                yield values, k
        yield np.array([3.0, 1.0, 1.0, 2.0, 1.0, 0.5, 2.0, 1.0]), 32  # --grid 8 binary

    def test_matches_stable_argsort_prefix(self):
        for values, k in self.cases():
            expected = np.argsort(values, kind="stable")[:k]
            assert np.array_equal(_lowest(values, k), expected), (len(values), k)

    @pytest.mark.parametrize("n", [8, 16, 64, 256, 1024])
    def test_grid_screen_matches_stable_argsort_prefix(self, n):
        """Screening a ternary's n x n grid by its column minima picks the
        seeds a full stable argsort would, for every k from 1 to n + 2 (the
        screen runs for k up to n / 8, the plain path above): on seed values
        with ties, on values in {0, 1, 2, -0.0} and on values whose least is
        the pole.  At n = 1024 only the seed values are checked, at every k
        up to 130 and every 61st k after (each plain k there takes about 3.5
        ms, so all of them would take 3 s)."""
        rng = np.random.default_rng(n)
        C = _float_terms([boundary_tensor()])[0]
        grids = [_seeds(3, n)[0](C)]
        if n < 1024:
            grids.append(rng.choice([0.0, 1.0, 2.0, -0.0], n * n + 1))
            grids.append(np.append(rng.standard_normal(n * n), -5.0))
            ks = range(1, n + 3)
        else:
            ks = sorted({*range(1, 131), *range(1, n + 3, 61), n, n + 1, n + 2})
        for values in grids:
            expected = np.argsort(values, kind="stable")
            for k in ks:
                assert np.array_equal(_lowest(values, k, n), expected[:k]), (n, k)


# Default-oracle results, pinned bit for bit.  These tensors have several
# symmetric minimizers, so a change in float summation order tends to move the
# argmin (and the witness) to another one.  The pins hold for one numpy build
# on one CPU: numpy's power, which the kernel and the seed tables call, is not
# correctly rounded on about 2.7% of uniform cubes in [-1, 1] and differs from
# libm's pow on as many, and its result depends on the build and the CPU
# dispatch.
GOLDEN = {
    "binary-degenerate": (
        BinaryQuartic(0, F(-3, 4), F(11, 3), 2, 4),
        "-0x1.9546cfd979069p-4", ("-0x1.feea7f6e1290cp-1", "-0x1.0a64ac7e9e208p-4"),
        F(-15, 1024), (F(-1), F(-1, 8)),
    ),
    "sign-class-11/6": (
        SignClassTensor(1, -1, 1, 1, 1, 1, F(11, 6)).to_quartic(),
        "-0x1.55c34b5ad2238p-3",
        ("-0x1.d4a211d03ddecp-3", "0x1.09f4f2b60db8ep-2", "0x1.e059374182fc3p-1"),
        F(-51, 256), (F(-1, 4), F(1, 4), F(1)),
    ),
    "sign-class-23/12": (
        SignClassTensor(-1, 1, -1, 1, 1, 1, F(23, 12)).to_quartic(),
        "-0x1.d2eb8c9c3fac8p-4",
        ("-0x1.009a2fa30ca01p-2", "0x1.c67eb6ce85a33p-3", "-0x1.e27709350cd2ep-1"),
        F(-18879, 160000), (F(-1, 4), F(1, 5), F(-1)),
    ),
    "general-ternary": (
        general_ternary(),
        "-0x1.52c645e3f1bf0p+1",
        ("-0x1.22a4f582ea7e8p-1", "0x1.35a4f02bab04bp-1", "-0x1.1dfd6eb81484cp-1"),
        F(-16282471, 6002500), (F(-4, 7), F(3, 5), F(-4, 7)),
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_default_results(name):
    T, min_hex, argmin_hex, confirmed, witness = GOLDEN[name]
    r = min_on_sphere(T, OracleConfig())
    assert r.min_value.hex() == min_hex
    assert tuple(v.hex() for v in r.argmin) == argmin_hex
    assert r.verdict is NumericVerdict.NOT_PSD
    assert r.confirmed_exact == confirmed
    assert r.witness == witness




# SHA-256 over the default-oracle results of SIGN_CLASS: each min value and
# argmin as float.hex, the iterations and the witness.
SIGN_CLASS_DIGEST = "5d9717f1ab349867f388d236731f30b8ba4f8335ccd17c15c66687c8f20a4db7"


def test_refinement_stops_before_the_cap():
    """Newton steps stop every sign-class search within a few iterations."""
    digest = hashlib.sha256()
    iterations = []
    for T in SIGN_CLASS:
        r = min_on_sphere(T, OracleConfig())
        assert 0 < r.iterations < oracle._REFINE_ITERS
        iterations.append(r.iterations)
        digest.update(repr((r.min_value.hex(), [v.hex() for v in r.argmin],
                            r.iterations, r.witness)).encode())
    assert sorted(iterations)[len(iterations) // 2] <= 10
    assert digest.hexdigest() == SIGN_CLASS_DIGEST


# SHA-256 over the default-oracle results of the 20 inequality variants
# searched as one stack, hashed as for SIGN_CLASS_DIGEST.  TestStack shows
# that the stack equals each search alone; this pins both.
VARIANT_STACK_DIGEST = "1b990b1269fa79f09720bac3a0be6a2c837b710de34e6800fc28356b35aef340"


def test_variant_stack_results_are_pinned():
    digest = hashlib.sha256()
    for r in minima_on_sphere(VARIANTS, OracleConfig()):
        digest.update(repr((r.min_value.hex(), [v.hex() for v in r.argmin],
                            r.iterations, r.witness)).encode())
    assert digest.hexdigest() == VARIANT_STACK_DIGEST


# SHA-256 over minima_on_sphere of two stacks, the 20 inequality variants and
# the five binaries of TestStack.test_slow_forms_keep_their_own_iterations, at
# grid 8 with 4 and with 32 starts, hashed as for SIGN_CLASS_DIGEST.  The
# binaries take _direction's dim-2 branch; with 32 starts two variants
# backtrack (4 starts backtrack nowhere).
SMALL_GRID_DIGEST = "fa9a2f43b04bc1bdee7896389ee0afba8face436d2a41f93270d90add26eba77"


def test_small_grid_results_are_pinned():
    binaries = [DIM_TENSORS[2], BinaryQuartic(1, 1, 1, 1, 1), BinaryQuartic(1, 0, F(1, 3), 0, 1),
                BinaryQuartic(1, -1, 1, -1, 1), GOLDEN["binary-degenerate"][0]]
    digest = hashlib.sha256()
    for cfg in (OracleConfig(grid_resolution=8, starts=4), OracleConfig(grid_resolution=8)):
        for stack in (VARIANTS, binaries):
            for r in minima_on_sphere(stack, cfg):
                digest.update(repr((r.min_value.hex(), [v.hex() for v in r.argmin],
                                    r.iterations, r.witness)).encode())
    assert digest.hexdigest() == SMALL_GRID_DIGEST


def seeded_stack(dim, forms, seed):
    """``forms`` tensors of one dimension with seeded rational entries: the
    x_i**4 entries in [1, 8 dim - 4] and the others in [-1, 1], each over a
    denominator in [1, 4], so that some forms are PD and some are not."""
    rng = np.random.default_rng(seed)
    high = [8 * dim - 3 if len(set(i)) == 1 else 2 for i in MULTI_INDICES[dim]]
    low = [1 if h > 2 else -1 for h in high]
    rows = [[F(int(k), int(d)) for k, d in zip(rng.integers(low, high),
                                               rng.integers(1, 5, len(high)))]
            for _ in range(forms)]
    return [BinaryQuartic(*r) if dim == 2 else TernaryQuartic(r) for r in rows]


# SHA-256 over minima_on_sphere of seeded stacks of 1 and 3 forms of either
# dimension, at grids 8 and 16 with 1, 2 and 7 starts, then of one ternary at
# grid 32 with 1024 starts, hashed as for SIGN_CLASS_DIGEST.
ODD_SHAPES_DIGEST = "b261a6e1178758f12cfe774f01671e0af4f0a7164d0db971f457926789a93563"


def test_odd_stack_shapes_are_pinned():
    digest = hashlib.sha256()
    runs = [(seeded_stack(dim, forms, 100 * dim + forms),
             OracleConfig(grid_resolution=n, starts=k))
            for dim in (2, 3) for forms in (1, 3) for n in (8, 16) for k in (1, 2, 7)]
    runs.append((seeded_stack(3, 1, 1024), OracleConfig(grid_resolution=32, starts=1024)))
    for stack, cfg in runs:
        for r in minima_on_sphere(stack, cfg):
            digest.update(repr((r.min_value.hex(), [v.hex() for v in r.argmin],
                                r.iterations, r.witness)).encode())
    assert digest.hexdigest() == ODD_SHAPES_DIGEST


def short_sum_shapes():
    """The (terms, ...) shapes that _direction and the line search reduce over
    their first axis, for each dimension, before the (forms, starts) axes:
    the Hessian entries, B Hess f with r, the tangent Hessian, x . grad f,
    |r|**2 and r . c, the step D, and the candidates' norms."""
    for d in (2, 3):
        p = d * (d + 1) // 2
        yield from [(p, p), (d, d + 1, d - 1), (d, d - 1, d - 1), (d,), (d - 1,), (d - 1, d)]


@pytest.mark.parametrize("stack", [(1, 1), (20, 32)])
@pytest.mark.parametrize("terms", sorted(set(short_sum_shapes())))
def test_short_sums_add_left_to_right(terms, stack):
    """np.add.reduce over axis 0 with initial=0.0 adds the terms left to right
    onto +0.0 (so a sum of -0.0 terms is +0.0), with infinities and NaN among
    them, also on views whose first axis is not the outermost in memory."""
    shape = terms + stack
    rng = np.random.default_rng(len(shape) + sum(terms))
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    special = rng.random(shape) < 0.3
    a[special] = rng.choice([0.0, -0.0, -0.0, np.inf, -np.inf, np.nan], special.sum())
    a[:, :1] = -0.0
    first_inner = np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)
    with np.errstate(invalid="ignore", over="ignore"):
        for x in (a, a.swapaxes(-1, -2), first_inner, a[..., ::2]):
            total = np.zeros(x.shape[1:])
            for term in x:
                total = total + term
            assert np.add.reduce(x, axis=0, initial=0.0).tobytes() == total.tobytes()


# What the search held (traced, above its caller's baseline) when refinement
# of the 20-variant stack began, while the last form's 65,537 seed values
# stayed alive until the search returned.
HELD_WITH_SEED_VALUES = 563_072


def test_seed_values_are_freed_before_refinement(monkeypatch):
    minima_on_sphere(VARIANTS)  # builds the cached tables
    held = []
    refine = oracle._refine

    def traced(X, C):
        held.append(tracemalloc.get_traced_memory()[0])
        return refine(X, C)

    monkeypatch.setattr(oracle, "_refine", traced)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        minima_on_sphere(VARIANTS)
    finally:
        tracemalloc.stop()
    assert held[0] - base < HELD_WITH_SEED_VALUES - 2**19


@pytest.mark.parametrize("T", SIGN_CLASS[::16] + list(DIM_TENSORS.values()))
def test_frozen_starts_have_converged(T, monkeypatch):
    """Refining the frozen points again for the full iteration budget, with
    every stop rule off (stall, gradient norm and Newton decrement), lowers
    no start by more than 1e-12."""
    cfg = OracleConfig()
    C = _float_terms([T])[0]
    values, points = _seeds(T.dim, cfg.grid_resolution)
    X, f, _ = _refine(points(_lowest(values(C), cfg.starts))[None], C[None])
    monkeypatch.setattr(oracle, "_STALL", oracle._REFINE_ITERS + 1)
    monkeypatch.setattr(oracle, "_REFINE_TOL", 0.0)
    monkeypatch.setattr(oracle, "_DECREMENT", -np.inf)
    _, f_full, iterations = _refine(X, C[None])
    assert iterations.tolist() == [oracle._REFINE_ITERS]
    assert np.all(f_full >= f - 1e-12)


def bits(r):
    """An OracleResult with its floats as hex, so that equal means bit for bit."""
    return (r.min_value.hex(), [v.hex() for v in r.argmin], r.verdict, r.iterations,
            r.confirmed_exact, r.witness)


class TestStack:
    """minima_on_sphere refines a stack of forms in one loop, and each result
    equals that of searching its tensor alone, bit for bit."""

    def test_inequality_variants(self):
        """At grid 8 two variants backtrack: searched alone, each is its whole
        stack; stacked, only their rows search on while the others wait."""
        tensors = VARIANTS
        for cfg in (OracleConfig(), OracleConfig(grid_resolution=8)):
            alone = [min_on_sphere.__wrapped__(T, cfg) for T in tensors]
            stacked = minima_on_sphere(tensors, cfg)
            assert [bits(r) for r in stacked] == [bits(r) for r in alone]

    def test_slow_forms_keep_their_own_iterations(self):
        """(x + y)**4 and (x - y)**4 refine for over 10 iterations, since Newton
        converges only linearly at their fourfold zeros; the fast binaries
        stacked with them stop, and report, before."""
        slow = [BinaryQuartic(1, 1, 1, 1, 1), BinaryQuartic(1, -1, 1, -1, 1)]
        fast = [DIM_TENSORS[2], BinaryQuartic(1, 0, F(1, 3), 0, 1),
                GOLDEN["binary-degenerate"][0]]
        tensors = [fast[0], slow[0], fast[1], slow[1], fast[2]]
        cfg = OracleConfig()
        alone = [min_on_sphere.__wrapped__(T, cfg) for T in tensors]
        assert [r.iterations > 10 for r in alone] == [False, True, False, True, False]
        assert max(r.iterations for r in alone) <= 50
        assert [bits(r) for r in minima_on_sphere(tensors, cfg)] == [bits(r) for r in alone]

    def test_empty_and_mixed_stacks(self):
        assert minima_on_sphere([], CFG) == []
        with pytest.raises(ValueError):
            minima_on_sphere([DIM_TENSORS[2], DIM_TENSORS[3]], CFG)


@pytest.mark.parametrize("n", [8, 256])
@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_starts_equal_starts_alone(dim, n):
    """Each row of _starts on a 64-form stack equals the starts of its form
    alone, bit for bit: 64 sign-class ternaries, whose seed values tie, or 64
    binaries with small integer weights."""
    cfg = OracleConfig(grid_resolution=n)
    if dim == 3:
        C = _float_terms(SIGN_CLASS[::4])
    else:
        C = np.random.default_rng(n).integers(-4, 5, (64, 5)).astype(float)
    stacked = oracle._starts(C, dim, cfg)
    assert stacked.shape == (64, min(cfg.starts, n if dim == 2 else n * n + 1), dim)
    for row, starts in zip(C, stacked):
        assert same_bits(starts, oracle._starts(row[None], dim, cfg)[0])


@pytest.mark.parametrize("dim", [2, 3])
def test_a_stack_overflows_exactly_when_a_form_alone_does(dim):
    """A form of weights near the top of the float64 range, inserted into a
    stack of ordinary forms, makes _starts raise NonFiniteValue exactly when
    it raises alone."""
    rng = np.random.default_rng(10 + dim)
    m = len(MULTI_INDICES[dim])
    ordinary = rng.standard_normal((8, m))

    def overflows(C):
        try:
            oracle._starts(C, dim, CFG)
        except NonFiniteValue:
            return True
        return False

    alone = []
    for scale in 2.0 ** np.linspace(1012, 1023.99, 12):
        for _ in range(4):
            row = rng.uniform(0.9, 1, m) * np.where(rng.random(m) < 0.8, scale, -scale)
            alone.append(overflows(row[None]))
            stack = np.insert(ordinary, rng.integers(0, 9), row, axis=0)
            assert overflows(stack) == alone[-1]
    assert any(alone) and not all(alone)


class TestRationalize:
    def test_recovers_proof_point(self):
        value = rationalize_and_confirm(case1_tensor(), (0.2, -0.2, 1.0), 10)
        # the unnormalized proof point scaled to the stated coordinates
        assert value == evaluate(case1_tensor(), (F(1, 5), F(-1, 5), 1))

    def test_origin(self):
        assert rationalize_and_confirm(case1_tensor(), (0.0, 0.0, 0.0), 10) == 0

    def test_boundary_diagonal_is_exact_zero(self):
        value = rationalize_and_confirm(
            boundary_tensor(), (0.57735, 0.57735, 0.57735), 10**6
        )
        assert value == 0  # rationalizes onto the diagonal, where the form vanishes

    def test_boundary_off_diagonal_positive(self):
        value = rationalize_and_confirm(boundary_tensor(), (0.6, 0.5, 0.62), 100)
        assert value > 0

    def test_rejects_bad_denominator(self):
        for bound in (0, 2.5, 8.0, True, F(8)):
            with pytest.raises(ValueError):
                rationalize_and_confirm(case1_tensor(), (0.5, 0.5, 0.5), bound)

    def test_value_at_the_stdlib_rounding(self):
        """The exact value at the stdlib's rounding of each coordinate, for
        points off the grid of small denominators."""
        rng = np.random.default_rng(5)
        for T in (case1_tensor(), general_ternary(), DIM_TENSORS[2]):
            for _ in range(20):
                x = rng.standard_normal(T.dim) * 10.0 ** rng.integers(-9, 9)
                for bound in (1, 7, 8, 2048, 10**6):
                    point = [F(float(v)).limit_denominator(bound) for v in x]
                    assert rationalize_and_confirm(T, x, bound) == evaluate(T, point)


# Finite floats up to 1e300 in magnitude (subnormals and both zeros included),
# and exact integers.
ROUNDED = st.one_of(st.floats(-1e300, 1e300), st.integers(-2**60, 2**60).map(float))
BOUNDS = st.one_of(st.sampled_from([1, 8, 128, 2048, 32768, 524288, 10**6]),
                   st.integers(1, 10**6))


@given(ROUNDED, BOUNDS)
@example(0.0, 1)
@example(-0.0, 8)
@example(5e-324, 10**6)
@example(-2.2250738585072014e-308, 524288)
@example(1e300, 1)
@example(0.5, 1)  # halfway between 0 and 1: the stdlib keeps the convergent 0
@example(-1.5, 1)
@example(0.1, 32768)
def test_limit_denominator_matches_the_stdlib(v, bound):
    expected = F(v).limit_denominator(bound)
    assert _limit_denominator(*v.as_integer_ratio(), bound) == (
        expected.numerator, expected.denominator)


class TestVerifyVerdict:
    def test_definite_binary_agrees(self):
        T = BinaryQuartic(1, 1, 1, -1, 1)
        rep = verify_verdict(T, classify_binary(T), CFG)
        assert rep.agreement == "agree"
        assert rep.numeric.min_value > 0

    def test_counterexample_agrees(self):
        from qpd.ternary import classify_ternary

        T = case1_tensor()
        rep = verify_verdict(T, classify_ternary(T), CFG)
        assert rep.agreement == "agree"
        assert rep.numeric.verdict is NumericVerdict.NOT_PSD

    def test_zero_tensor_boundary(self):
        T = BinaryQuartic(0, 0, 0, 0, 0)
        rep = verify_verdict(T, classify_binary(T), CFG)
        assert rep.agreement == "agree"
        assert rep.numeric.verdict is NumericVerdict.BOUNDARY_PSD

    def test_undetermined_is_na(self):
        rep = verify_verdict(case1_tensor(), Classification.UNDETERMINED, CFG)
        assert rep.agreement == "n/a"

    def test_forced_disagreement_is_conflict(self):
        rep = verify_verdict(case1_tensor(), Classification.POSITIVE_DEFINITE, CFG)
        assert rep.agreement == "conflict"


def test_negative_witness_is_exact():
    T = case1_tensor()
    w = negative_witness(T, CFG)
    assert w is not None
    assert evaluate(T, w) < 0
    assert evaluate(T, w) == min_on_sphere(T, CFG).confirmed_exact


def test_list_built_ternary_is_searched():
    """min_on_sphere caches by tensor, so a ternary built from a list must
    hash; its result is that of the tuple-built tensor."""
    T = TernaryQuartic([1] * 15)
    assert bits(min_on_sphere(T, CFG)) == bits(
        min_on_sphere.__wrapped__(TernaryQuartic((1,) * 15), CFG))
    assert verify_verdict(T, Classification.UNDETERMINED, CFG).agreement == "n/a"


def test_negative_witness_absent_for_definite():
    assert negative_witness(BinaryQuartic(1, 0, F(1, 3), 0, 1), CFG) is None


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(grid_resolution=4)
    with pytest.raises(ValueError):
        OracleConfig(grid_resolution=10**12)  # checked before any allocation
    with pytest.raises(ValueError):
        OracleConfig(verdict_tol=0)
    with pytest.raises(ValueError):
        OracleConfig(verdict_tol=math.inf)
    with pytest.raises(ValueError):
        OracleConfig(starts=0)
    with pytest.raises(ValueError):
        OracleConfig(starts=10**12)  # checked before any allocation
    OracleConfig(starts=1024, verdict_tol=1e300)
    with pytest.raises(ValueError):
        OracleConfig(max_denominator=0)
    # A non-int (a bool included) would reach integer code as a float or a
    # Fraction; max_denominator=2.5 made every NotPSD search raise TypeError.
    for field in ("grid_resolution", "starts", "max_denominator"):
        for value in (16.0, 2.5, True, F(16), "16", None):
            with pytest.raises(ValueError, match=f"{field} must be an int"):
                OracleConfig(**{field: value})
