import hashlib
import math
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest

from qpd import oracle
from qpd.binary import classify_binary
from qpd.inequalities import CHECKED_VARIANTS, residual_tensor
from qpd.oracle import (
    NonFiniteValue,
    NumericVerdict,
    OracleConfig,
    _exponents,
    _float_terms,
    _gather,
    _kernel,
    _lowest,
    _refine,
    _seed_grid,
    _seed_table,
    _weights,
    min_on_sphere,
    minima_on_sphere,
    negative_witness,
    rationalize_and_confirm,
    verify_verdict,
)
from qpd.tensors import MULTI_INDICES, BinaryQuartic, build_tensor, evaluate
from qpd.ternary import STUDIED_LEVELS, SignClassTensor
from qpd.verdicts import Classification

from helpers import gradient

CFG = OracleConfig(grid_resolution=64, starts=8)


def _eval_batch(X, C, E):
    """f at each row of X, as the oracle evaluates it: a stack of one form."""
    return _kernel(E, 1, len(X))(X[None], _weights(C[None], E))[0][0]


def _grad_batch(X, C, E):
    """The gradient at each row of X, as the oracle evaluates it."""
    return _kernel(E, 1, len(X))(X[None], _weights(C[None], E))[1][0]


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


def general_ternary():
    coeffs = (3, F(-1, 2), F(5, 4), F(7, 3), 2, F(-3, 4), F(1, 6), F(-5, 2),
              F(2, 3), 1, F(9, 4), F(-1, 3), F(4, 5), F(-7, 6), F(5, 2))
    return build_tensor(3, dict(zip(MULTI_INDICES[3], coeffs)))


DIM_TENSORS = {2: BinaryQuartic(F(3, 2), F(-1, 3), F(1, 4), F(5, 6), 2), 3: general_ternary()}


class TestSeedCache:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_cached_seed_values_match_direct_evaluation(self, dim):
        C, E = _float_terms(DIM_TENSORS[dim])
        seeds, M = _seed_table(dim, 64)
        assert np.array_equal(seeds, _seed_grid(dim, 64))
        assert np.array_equal(M @ C, _eval_batch(_seed_grid(dim, 64), C, E))

    def test_cached_arrays_are_read_only(self):
        seeds, M = _seed_table(3, 64)
        assert not seeds.flags.writeable and not M.flags.writeable
        with pytest.raises(ValueError):
            M[0, 0] = 1.0

    def test_second_call_is_a_cache_hit(self):
        first = _seed_table(3, 40)
        hits = _seed_table.cache_info().hits
        second = _seed_table(3, 40)
        assert _seed_table.cache_info().hits == hits + 1
        assert all(a is b for a, b in zip(first, second))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_fused_gradient_matches_exact(self, dim):
        T = DIM_TENSORS[dim]
        points = [(F(1), F(-2, 3), F(1, 5)), (F(-3, 7), F(4, 9), F(2)), (F(1, 2), F(0), F(-1))]
        points = [p[:dim] for p in points]
        C, E = _float_terms(T)
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
    "seeds-2": (2, lambda: _seed_grid(2, 256)),
    "seeds-3": (3, lambda: _seed_grid(3, 64)),
    "seeds-2-16": (2, lambda: _seed_grid(2, 16)),
    "seeds-3-16": (3, lambda: _seed_grid(3, 16)),
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
        dim, make = POINT_SETS[points]
        X = make()
        C, E = _float_terms(DIM_TENSORS[dim])
        # E and, for each k, E with column k lowered: the kernel's tables.
        tables = [E] + [np.maximum(E - np.eye(dim, dtype=int)[k], 0) for k in range(dim)]
        M = _gather(np.stack(tables), 1, len(X))(X[None])[0]
        assert M.flags.c_contiguous
        for Ms, Es in zip(M, tables):
            assert same_bits(Ms, direct_monomials(X, Es))
        assert same_bits(_eval_batch(X, C, E), direct_monomials(X, E) @ C)

    @pytest.mark.parametrize("points", sorted(POINT_SETS))
    def test_gradient(self, points):
        dim, make = POINT_SETS[points]
        X = make()
        C, E = _float_terms(DIM_TENSORS[dim])
        G = _grad_batch(X, C, E)
        assert G.flags.c_contiguous
        assert same_bits(G, loop_gradient(X, C, E))

    def test_default_seed_table(self):
        seeds, M = _seed_table(3, OracleConfig().grid_resolution)
        assert same_bits(M, direct_monomials(np.asarray(seeds), _exponents(3)))


class TestSeedSelection:
    """_lowest(values, k) picks the seeds a full stable argsort would."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(11)
        ties = rng.integers(0, 5, 1000).astype(float)
        zeros = rng.choice([0.0, -0.0, 1.0], 200)  # +0.0 and -0.0 tie
        C, _ = _float_terms(boundary_tensor())
        seed_values = _seed_table(3, 256)[1] @ C
        for values in (ties, zeros, rng.standard_normal(300), seed_values):
            for k in (1, 2, 32, len(values) - 1, len(values), len(values) + 24):
                yield values, k
        yield np.array([3.0, 1.0, 1.0, 2.0, 1.0, 0.5, 2.0, 1.0]), 32  # --grid 8 binary

    def test_matches_stable_argsort_prefix(self):
        for values, k in self.cases():
            expected = np.argsort(values, kind="stable")[:k]
            assert np.array_equal(_lowest(values, k), expected), (len(values), k)


# Default-oracle results, pinned bit for bit.  These tensors have several
# symmetric minimizers, so a change in float summation order tends to move the
# argmin (and the witness) to another one.
GOLDEN = {
    "binary-degenerate": (
        BinaryQuartic(0, F(-3, 4), F(11, 3), 2, 4),
        "-0x1.9546cfd97906cp-4", ("-0x1.feea7f6e27815p-1", "-0x1.0a64ac7493e8ap-4"),
        F(-15, 1024), (F(-1), F(-1, 8)),
    ),
    "sign-class-11/6": (
        SignClassTensor(1, -1, 1, 1, 1, 1, F(11, 6)).to_quartic(),
        "-0x1.55c34b5ad2240p-3",
        ("-0x1.d4a211e8b3cb6p-3", "0x1.09f4f2b0c2da1p-2", "0x1.e0593740c0b32p-1"),
        F(-51, 256), (F(-1, 4), F(1, 4), F(1)),
    ),
    "sign-class-23/12": (
        SignClassTensor(-1, 1, -1, 1, 1, 1, F(23, 12)).to_quartic(),
        "-0x1.d2eb8c9c3fad0p-4",
        ("-0x1.c67eb6d69773ap-3", "0x1.e277093538ef3p-1", "0x1.009a2f9e2e222p-2"),
        F(-18879, 160000), (F(-1, 5), F(1), F(1, 4)),
    ),
    "general-ternary": (
        general_ternary(),
        "-0x1.52c645e3f1bf2p+1",
        ("-0x1.22a4f54b3aef2p-1", "0x1.35a4f05948c24p-1", "-0x1.1dfd6ebf48795p-1"),
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


SIGN_CLASS = [SignClassTensor(*s, *c, b).to_quartic()
              for b in STUDIED_LEVELS
              for s in product((1, -1), repeat=3)
              for c in product((1, -1), repeat=3)]


# SHA-256 over the default-oracle results of SIGN_CLASS: each min value and
# argmin as float.hex, the iterations and the witness.  It was recorded with
# separate value and gradient evaluations, one per-coordinate mat-vec each,
# which the fused kernel must reproduce bit for bit.
SIGN_CLASS_DIGEST = "2a28131ebbcf3f67fef4c0d04e7aec292d681072107e68555b11bc4739196f87"


def test_refinement_stops_before_the_cap():
    digest = hashlib.sha256()
    for T in SIGN_CLASS:
        r = min_on_sphere(T, OracleConfig())
        assert 0 < r.iterations < oracle._REFINE_ITERS
        digest.update(repr((r.min_value.hex(), [v.hex() for v in r.argmin],
                            r.iterations, r.witness)).encode())
    assert digest.hexdigest() == SIGN_CLASS_DIGEST


@pytest.mark.parametrize("T", SIGN_CLASS[::16] + list(DIM_TENSORS.values()))
def test_frozen_starts_have_converged(T, monkeypatch):
    """Refining the frozen points again for the full iteration budget, with
    the stop rule off, lowers no start by more than 1e-12."""
    cfg = OracleConfig()
    C, E = _float_terms(T)
    seeds, M = _seed_table(T.dim, cfg.grid_resolution)
    X, f, _ = _refine(seeds[_lowest(M @ C, cfg.starts)][None], C[None], E)
    monkeypatch.setattr(oracle, "_STALL", oracle._REFINE_ITERS + 1)
    _, f_full, iterations = _refine(X, C[None], E)
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
        tensors = [residual_tensor(iid) for iid in CHECKED_VARIANTS]
        cfg = OracleConfig()
        alone = [min_on_sphere.__wrapped__(T, cfg) for T in tensors]
        assert [bits(r) for r in minima_on_sphere(tensors, cfg)] == [bits(r) for r in alone]

    def test_slow_forms_keep_their_own_iterations(self):
        """(x + y)**4 and (x - y)**4 refine for over 300 iterations; the fast
        binaries stacked with them stop, and report, long before."""
        slow = [BinaryQuartic(1, 1, 1, 1, 1), BinaryQuartic(1, -1, 1, -1, 1)]
        fast = [DIM_TENSORS[2], BinaryQuartic(1, 0, F(1, 3), 0, 1),
                GOLDEN["binary-degenerate"][0]]
        tensors = [fast[0], slow[0], fast[1], slow[1], fast[2]]
        cfg = OracleConfig()
        alone = [min_on_sphere.__wrapped__(T, cfg) for T in tensors]
        assert [r.iterations > 300 for r in alone] == [False, True, False, True, False]
        assert [bits(r) for r in minima_on_sphere(tensors, cfg)] == [bits(r) for r in alone]

    def test_empty_and_mixed_stacks(self):
        assert minima_on_sphere([], CFG) == []
        with pytest.raises(ValueError):
            minima_on_sphere([DIM_TENSORS[2], DIM_TENSORS[3]], CFG)


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
        with pytest.raises(ValueError):
            rationalize_and_confirm(case1_tensor(), (0.5, 0.5, 0.5), 0)


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


def test_negative_witness_absent_for_definite():
    assert negative_witness(BinaryQuartic(1, 0, F(1, 3), 0, 1), CFG) is None


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(grid_resolution=4)
    with pytest.raises(ValueError):
        OracleConfig(verdict_tol=0)
    with pytest.raises(ValueError):
        OracleConfig(starts=0)
    with pytest.raises(ValueError):
        OracleConfig(max_denominator=0)
