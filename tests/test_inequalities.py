import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from qpd import inequalities
from qpd.inequalities import (
    CHECKED_VARIANTS,
    IneqName,
    InequalityId,
    SWAPS,
    UnknownId,
    check_inequality,
    residual,
    residual_tensor,
)
from qpd.ternary import SignClassTensor, classify_ternary, validate_class
from qpd.verdicts import Classification


def rid(name, *swaps):
    return InequalityId(name, frozenset(swaps))


class TestResidual:
    def test_c32_i_equality_point(self):
        assert residual(rid(IneqName.C32_I), (1, 1, 1)) == 0

    def test_c32_ii_at_ones(self):
        assert residual(rid(IneqName.C32_II), (1, 1, 1)) == 3

    def test_origin(self):
        for name in IneqName:
            assert residual(rid(name), (0, 0, 0)) == 0

    def test_difference_of_c32_pair_is_square_sum(self):
        rng = random.Random(1)
        for _ in range(200):
            x = tuple(F(rng.randint(-30, 30), rng.randint(1, 20)) for _ in range(3))
            diff = residual(rid(IneqName.C32_II), x) - residual(rid(IneqName.C32_I), x)
            x1, x2, x3 = x
            assert diff == x1**2 * x2**2 + x1**2 * x3**2 + x2**2 * x3**2

    def test_even(self):
        rng = random.Random(4)
        for name in IneqName:
            for _ in range(50):
                x = tuple(F(rng.randint(-30, 30), rng.randint(1, 20))
                          for _ in range(3))
                neg = tuple(-v for v in x)
                assert residual(rid(name), x) == residual(rid(name), neg)

    def test_bad_dimension(self):
        with pytest.raises(UnknownId):
            residual(rid(IneqName.C33_I), (1, 2))


def reference_residual(name, exchange, x):
    """LHS - RHS written out by hand, independently of the tensor code."""
    x1, x2, x3 = x

    def cubic(i, j):
        """x_i^3 x_j; exchanging the pair {i, j} makes it x_i x_j^3."""
        if f"swap{min(i, j)}{max(i, j)}" in exchange:
            i, j = j, i
        return x[i - 1] ** 3 * x[j - 1]

    squares = x1**2 * x2**2 + x1**2 * x3**2 + x2**2 * x3**2
    minus = (x1 + x2 - x3) ** 4 - 8 * cubic(1, 2) + 8 * cubic(1, 3) + 8 * cubic(3, 2)
    plus = (x1 + x2 + x3) ** 4 - 8 * cubic(3, 1) - 8 * cubic(1, 2) - 8 * cubic(2, 3)
    mixed = -24 * x1 * x2 * x3**2
    return {
        IneqName.C32_I: minus + 5 * squares + mixed,
        IneqName.C32_II: minus + 6 * squares + mixed,
        IneqName.C33_I: plus + 9 * squares,
        IneqName.C33_II: plus + 10 * squares + mixed,
        IneqName.C33_III: minus + 10 * squares + mixed,
        IneqName.C33_IV: minus + 9 * squares,
    }[name]


def allowed_variants():
    for name in IneqName:
        if name in (IneqName.C32_I, IneqName.C32_II):
            yield rid(name)
            yield rid(name, *SWAPS)
        else:
            for k in range(4):
                for swaps in combinations(SWAPS, k):
                    yield rid(name, *swaps)


def test_there_are_36_allowed_variants():
    assert len(set(allowed_variants())) == 36


def test_checked_variants_are_20_distinct_allowed_ones():
    assert len({iid.label for iid in CHECKED_VARIANTS}) == len(CHECKED_VARIANTS) == 20
    assert set(CHECKED_VARIANTS) <= set(allowed_variants())


@pytest.mark.parametrize("iid", list(allowed_variants()),
                         ids=lambda iid: iid.label)
def test_residual_matches_hand_written_expression(iid):
    rng = random.Random(7)
    for _ in range(200):
        x = tuple(F(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(3))
        assert residual(iid, x) == reference_residual(iid.name, iid.exchange, x)


class TestExchangeFlags:
    def test_c32_requires_all_or_nothing(self):
        with pytest.raises(UnknownId):
            rid(IneqName.C32_I, "swap12")
        rid(IneqName.C32_I, *SWAPS)  # simultaneous exchange is fine

    def test_c33_allows_single_swaps(self):
        for swap in SWAPS:
            rid(IneqName.C33_II, swap)

    def test_unknown_flag(self):
        with pytest.raises(UnknownId):
            rid(IneqName.C33_I, "swap21")

    def test_swapped_residual_differs_pointwise_but_stays_nonnegative(self):
        base = rid(IneqName.C33_I)
        swapped = rid(IneqName.C33_I, "swap12")
        x = (F(2), F(1), F(-1))
        assert residual(base, x) != residual(swapped, x)
        assert residual(swapped, x) > 0


class TestTensorBridge:
    def test_c32_i_is_the_boundary_class_tensor(self):
        expected = SignClassTensor(-1, 1, -1, -1, -1, -1, F(11, 6)).to_quartic()
        assert residual_tensor(rid(IneqName.C32_I)).coeffs == expected.coeffs

    def test_c32_ii_is_the_level2_tensor(self):
        expected = SignClassTensor(-1, 1, -1, -1, -1, -1, F(2)).to_quartic()
        assert residual_tensor(rid(IneqName.C32_II)).coeffs == expected.coeffs

    def test_c33_residuals_are_definite_class_tensors(self):
        for name in (IneqName.C33_I, IneqName.C33_II, IneqName.C33_III,
                     IneqName.C33_IV):
            T = residual_tensor(rid(name))
            S = validate_class(T)
            assert S.b in (F(5, 2), F(8, 3))
            v = classify_ternary(T)
            assert v.classification is Classification.POSITIVE_DEFINITE

    def test_swaps_preserve_class_membership(self):
        for swap in SWAPS:
            T = residual_tensor(rid(IneqName.C33_IV, swap))
            v = classify_ternary(T)
            assert v.classification is Classification.POSITIVE_DEFINITE


class TestCheckInequality:
    def test_small_run_passes(self):
        rep = check_inequality(rid(IneqName.C33_I), samples=200, seed=3)
        assert rep.checked_points >= 200
        assert rep.min_residual > 0
        assert rep.oracle_exact > 0

    def test_c32_i_counts_equality_points(self):
        rep = check_inequality(rid(IneqName.C32_I), samples=100, seed=3)
        assert rep.equality_points >= 3  # the sampled diagonal points
        assert rep.oracle_min == pytest.approx(0.0, abs=1e-8)

    def test_exchange_variant(self):
        rep = check_inequality(rid(IneqName.C33_II, "swap23"), samples=100, seed=9)
        assert rep.min_residual > 0

    def test_mirrored_c32(self):
        rep = check_inequality(rid(IneqName.C32_I, *SWAPS), samples=100, seed=9)
        assert rep.equality_points >= 3

    def test_points_are_drawn_as_they_are_checked(self, monkeypatch):
        evaluate, draw = inequalities.evaluate, inequalities.random_rational_point
        evaluated = []
        drawn_after = []  # points evaluated before each random draw

        def counting_evaluate(T, x):
            evaluated.append(x)
            return evaluate(T, x)

        def counting_draw(rng):
            drawn_after.append(len(evaluated))
            return draw(rng)

        monkeypatch.setattr(inequalities, "evaluate", counting_evaluate)
        monkeypatch.setattr(inequalities, "random_rational_point", counting_draw)
        check_inequality(rid(IneqName.C32_I), samples=5, seed=1)
        ahead = len(inequalities._STRUCTURED_POINTS)
        assert drawn_after == [ahead + k for k in range(5)]
        assert len(evaluated) == ahead + 5 + 3

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            check_inequality(rid(IneqName.C33_I), samples=0)
