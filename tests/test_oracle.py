import math
from fractions import Fraction as F

import numpy as np
import pytest

from qpd.binary import classify_binary
from qpd.oracle import (
    NonFiniteValue,
    NumericVerdict,
    OracleConfig,
    _eval_batch,
    _float_terms,
    _grad_batch,
    _grad_tables,
    _seed_grid,
    _seed_table,
    min_on_sphere,
    negative_witness,
    rationalize_and_confirm,
    verify_verdict,
)
from qpd.tensors import BinaryQuartic, build_tensor, evaluate, gradient, multi_indices
from qpd.ternary import SignClassTensor
from qpd.verdicts import Classification

CFG = OracleConfig(grid_resolution=64, starts=8)


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

    def test_overflow(self):
        with pytest.raises(NonFiniteValue):
            min_on_sphere(BinaryQuartic(1e308, 0.0, 1e308, 0.0, 1e308), CFG)


def general_ternary():
    coeffs = (3, F(-1, 2), F(5, 4), F(7, 3), 2, F(-3, 4), F(1, 6), F(-5, 2),
              F(2, 3), 1, F(9, 4), F(-1, 3), F(4, 5), F(-7, 6), F(5, 2))
    return build_tensor(3, dict(zip(multi_indices(3), coeffs)))


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
    def test_fused_gradient_equals_per_coordinate_loop(self, dim):
        C, E = _float_terms(DIM_TENSORS[dim])
        X = _seed_grid(dim, 16)
        expected = np.empty_like(X)
        for k in range(dim):
            Ek = E.copy()
            Ek[:, k] = np.maximum(Ek[:, k] - 1, 0)
            expected[:, k] = np.prod(X[:, None, :] ** Ek[None, :, :], axis=2) @ (C * E[:, k])
        assert np.array_equal(_grad_batch(X, *_grad_tables(C, E)), expected)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_fused_gradient_matches_exact(self, dim):
        T = DIM_TENSORS[dim]
        points = [(F(1), F(-2, 3), F(1, 5)), (F(-3, 7), F(4, 9), F(2)), (F(1, 2), F(0), F(-1))]
        points = [p[:dim] for p in points]
        C, E = _float_terms(T)
        G = _grad_batch(np.array(points, dtype=float), *_grad_tables(C, E))
        for row, p in zip(G, points):
            exact = [float(g) for g in gradient(T, p)]
            assert row.tolist() == pytest.approx(exact, rel=1e-12, abs=1e-10)


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
