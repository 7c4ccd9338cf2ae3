import json
import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpd import inequalities
from qpd.cli import main
from qpd.inequalities import (
    CHECKED_VARIANTS,
    IneqName,
    InequalityId,
    SWAPS,
    UnknownId,
    check_inequalities,
    check_inequality,
    random_rational_point,
    residual,
    residual_tensor,
)
from qpd.oracle import OracleConfig, min_on_sphere, rationalize_and_confirm
from qpd.tensors import evaluate, format_scalar, integer_point
from qpd.ternary import SignClassTensor, classify_ternary, validate_class
from qpd.verdicts import Classification


FAST = OracleConfig(grid_resolution=8, starts=1)


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
        draw, settled = inequalities.random_rational_point, inequalities._settled
        drawn, chunks = [], []  # (points drawn so far, chunk size) per chunk

        def counting_draw(rng):
            drawn.append(None)
            return draw(rng)

        def recording_settled(scaled, K, c32):
            chunks.append((len(drawn), len(scaled)))
            return settled(scaled, K, c32)

        monkeypatch.setattr(inequalities, "_CHUNK", 8)
        monkeypatch.setattr(inequalities, "random_rational_point", counting_draw)
        monkeypatch.setattr(inequalities, "_settled", recording_settled)
        rep = check_inequality(rid(IneqName.C32_I), samples=21, seed=1)
        ahead = len(inequalities._STRUCTURED_POINTS)
        assert ahead + 21 == 38
        assert [size for _, size in chunks] == [8, 8, 8, 8, 6, 3]
        # Each random point is drawn once, in the chunk that checks it: when
        # chunk j is checked, exactly the points of chunks 0..j are drawn.
        assert [n for n, _ in chunks] == [0, 0, 7, 15, 21, 21]
        assert rep.checked_points == ahead + 21 + 3

    def test_all_variants_share_each_point(self, monkeypatch):
        draw, settled = inequalities.random_rational_point, inequalities._settled
        numerators = inequalities.exact_numerators
        drawn, checks, exact = [], [], []

        def counting_draw(rng):
            drawn.append(draw(rng))
            return drawn[-1]

        def recording_settled(scaled, K, c32):
            checks.append((scaled, len(K)))
            return settled(scaled, K, c32)

        def recording_numerators(forms, x):
            exact.append(x)
            return numerators(forms, x)

        monkeypatch.setattr(inequalities, "random_rational_point", counting_draw)
        monkeypatch.setattr(inequalities, "_settled", recording_settled)
        monkeypatch.setattr(inequalities, "exact_numerators", recording_numerators)
        outcomes = check_inequalities(CHECKED_VARIANTS, samples=50, seed=1, cfg=FAST)
        ahead = len(inequalities._STRUCTURED_POINTS)
        assert len(drawn) == 50
        # One float check of every point, scaled once (random points are
        # drawn scaled), against all 20 variants; then the 3 diagonal points
        # for the two C32_i variants.
        points = [*map(integer_point, inequalities._STRUCTURED_POINTS), *drawn]
        diagonal = [(t, t, t) for t in (F(1), F(-3, 7), F(11, 6))]
        assert checks == [(points, 20), ([integer_point(x) for x in diagonal], 20)]
        # The exact residuals of a point are computed once, on its scaled
        # integers, for all the variants it leaves open.  The 3 diagonal
        # points come last, and (1, 1, 1) is also a structured point.
        scaled = [n for chunk, _ in checks for _, n in chunk]
        assert all(n in scaled for n in exact)
        assert exact[-3:] == [n for _, n in checks[1][0]]
        assert len(exact[:-3]) == len(set(exact[:-3]))
        assert [rep.checked_points for rep in outcomes] == [
            ahead + 50 + 3 * (iid.name is IneqName.C32_I) for iid in CHECKED_VARIANTS]

    @pytest.mark.parametrize("seed", range(4))
    def test_draws_equal_fraction_draws(self, seed):
        """Points are drawn straight into integers from the same randint
        draws, p then q per coordinate, as Fraction(p, q) points were."""
        ints, fractions = random.Random(seed), random.Random(seed)
        for _ in range(2000):
            point = tuple(F(fractions.randint(-100, 100), fractions.randint(1, 100))
                          for _ in range(3))
            assert inequalities.random_rational_point(ints) == integer_point(point)
        assert ints.random() == fractions.random()

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            check_inequality(rid(IneqName.C33_I), samples=0)
        with pytest.raises(ValueError):
            check_inequalities(CHECKED_VARIANTS, samples=0)


def reference_check(iid, samples, seed, cfg):
    """check_inequality as one pass per variant: its own draws, one
    ``evaluate`` Fraction per point, then the oracle's verdicts; the text of a
    violation, else the report."""
    rng = random.Random(seed)
    report = inequalities.IneqReport()
    drawn = (inequalities.random_rational_point(rng) for _ in range(samples))
    points = [*inequalities._STRUCTURED_POINTS,
              *(tuple(F(v, L) for v in n) for L, n in drawn)]
    if iid.name is IneqName.C32_I:
        points += [(t, t, t) for t in (F(1), F(-3, 7), F(11, 6))]
    T = residual_tensor(iid)
    for x in points:
        value = evaluate(T, x)
        report.checked_points += 1
        nonzero = any(v != 0 for v in x)
        diagonal = x[0] == x[1] == x[2]
        at = "(" + ", ".join(str(format_scalar(v)) for v in x) + ")"
        if value < 0:
            return f"{iid.name.value}: residual {value} < 0 at {at}"
        if value == 0 and nonzero:
            if iid.strict or not diagonal:
                return f"{iid.name.value}: unexpected zero residual at {at}"
            report.equality_points += 1
        if iid.name is IneqName.C32_I and diagonal and value != 0:
            return f"{iid.name.value}: residual {value} != 0 on the diagonal at {at}"
        if nonzero and (report.min_residual is None or value < report.min_residual):
            report.min_residual = value
    result = min_on_sphere(T, cfg)
    report.oracle_min = result.min_value
    report.oracle_exact = rationalize_and_confirm(T, result.argmin, cfg.max_denominator)
    if result.min_value < -cfg.verdict_tol:
        return f"{iid.name.value}: oracle found sphere minimum {result.min_value} < 0"
    if iid.strict and report.oracle_exact <= 0:
        return (f"{iid.name.value}: exact value {report.oracle_exact} at rationalized "
                "argmin is not positive")
    return report


def as_outcome(result):
    return str(result) if isinstance(result, inequalities.ViolationFound) else result


@pytest.mark.parametrize("seed", [0, 1, 2026])
def test_sampler_draws_equal_randint(seed):
    """random_rational_point draws the stream of ``Fraction(rng.randint(-100,
    100), rng.randint(1, 100))`` per coordinate: 102,000 draws per seed."""
    drawn, expected = random.Random(seed), random.Random(seed)
    for _ in range(17_000):
        point = [F(expected.randint(-100, 100), expected.randint(1, 100)) for _ in range(3)]
        assert random_rational_point(drawn) == integer_point(point)
    assert drawn.getstate() == expected.getstate()


@pytest.mark.parametrize("seed", range(4))
def test_one_pass_matches_a_pass_per_variant(seed):
    outcomes = check_inequalities(CHECKED_VARIANTS, 300, seed, FAST)
    for iid, got in zip(CHECKED_VARIANTS, outcomes, strict=True):
        assert as_outcome(got) == reference_check(iid, 300, seed, FAST), iid.label


def outcome_of(iid, samples, seed, cfg):
    """check_inequality's report, or the text of its ViolationFound."""
    try:
        return check_inequality(iid, samples, seed, cfg)
    except inequalities.ViolationFound as exc:
        return str(exc)


@pytest.mark.parametrize("name, form", [
    (IneqName.C33_I, ((1, 1, 1), F(0))),  # violated at a point
    (IneqName.C33_IV, ((-1, -1, 1), F(3))),  # still positive, other minima
], ids=["violated", "changed"])
def test_a_broken_variant_leaves_the_others_alone(monkeypatch, name, form):
    intact = check_inequalities(CHECKED_VARIANTS, 100, 5, FAST)
    monkeypatch.setitem(inequalities._CLASS_FORM, name, form)
    broken = check_inequalities(CHECKED_VARIANTS, 100, 5, FAST)
    for iid, before, after in zip(CHECKED_VARIANTS, intact, broken, strict=True):
        if iid.name is name:
            assert as_outcome(after) == outcome_of(iid, 100, 5, FAST), iid.label
            assert as_outcome(after) != as_outcome(before), iid.label
        else:
            assert after == before, iid.label


@pytest.mark.parametrize("name, form, detail", [
    (IneqName.C33_I, ((1, 1, 1), F(0)),
     "C33_i: residual -633/625 < 0 at (1/5, -1/5, 1)"),
    (IneqName.C32_II, ((-1, -1, -1), F(11, 6)),
     "C32_ii: unexpected zero residual at (1, 1, 1)"),
    (IneqName.C32_I, ((-1, -1, -1), F(2)),
     "C32_i: residual 3 != 0 on the diagonal at (1, 1, 1)"),
], ids=["negative", "zero", "diagonal"])
def test_violation_details_print_exact_rationals(monkeypatch, capsys, name, form, detail):
    monkeypatch.setitem(inequalities._CLASS_FORM, name, form)
    with pytest.raises(inequalities.ViolationFound) as exc:
        check_inequality(rid(name), samples=10)
    assert str(exc.value) == detail
    code = main(["--mode", "inequalities", "--samples", "10", "--format", "json",
                 "--grid", "32", "--starts", "8"])
    rows = json.loads(capsys.readouterr().out)["results"]
    assert code == 2
    assert {"inequality": name.value, "status": "violated", "detail": detail} in rows


def variants_of(*names):
    return [iid for iid in CHECKED_VARIANTS if iid.name in names]


def assert_matches_reference(variants, samples, seed):
    outcomes = check_inequalities(variants, samples, seed, FAST)
    for iid, got in zip(variants, outcomes, strict=True):
        assert as_outcome(got) == reference_check(iid, samples, seed, FAST), iid.label


# Levels up to 2 lie below the PSD threshold of every sign pattern except the
# eight of C32_i's orbit, whose threshold is 11/6; there those patterns vanish
# at points (+-t, +-t, +-t).
@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(list(IneqName)),
       c=st.tuples(*3 * [st.sampled_from((1, -1))]),
       b=st.just(F(11, 6)) | st.fractions(min_value=-2, max_value=2, max_denominator=12),
       seed=st.integers(0, 2**32), samples=st.integers(1, 300))
def test_filtered_check_equals_exact_reference(name, c, b, seed, samples):
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(inequalities._CLASS_FORM, name, (c, b))
        assert_matches_reference(variants_of(name), samples, seed)


def scripted(points):
    """A random_rational_point that deals points in order, from the start for
    each new generator."""
    def draw(rng):
        rng.dealt = getattr(rng, "dealt", -1) + 1
        return integer_point(points[rng.dealt])
    return draw


@pytest.mark.parametrize("at", [7, 8, 9], ids=["before", "on", "after"])
def test_violations_around_a_chunk_boundary(monkeypatch, at):
    """Chunks of 4 points start at positions 0, 4, 8 and 12.  C32_ii, moved to
    level 11/6, first vanishes at position at; C33_i, moved to level 0, first
    goes negative at at + 1.  Both fail again later, in the last chunk."""
    filler = [(F(k), 0, 0) if k % 2 else (0, F(k), 0) for k in range(2, 20)]
    points = filler[:15]
    points[at - 1] = (F(2), F(2), F(2))
    points[at] = (F(1, 5), F(-1, 5), F(1))
    points[12] = (F(3), F(3), F(3))
    points[13] = (F(1, 2), F(-1, 2), F(1))
    monkeypatch.setattr(inequalities, "_CHUNK", 4)
    monkeypatch.setattr(inequalities, "_STRUCTURED_POINTS", ((1, 0, 0),))
    monkeypatch.setattr(inequalities, "random_rational_point", scripted(points))
    monkeypatch.setitem(inequalities._CLASS_FORM, IneqName.C32_II, ((-1, -1, -1), F(11, 6)))
    monkeypatch.setitem(inequalities._CLASS_FORM, IneqName.C33_I, ((1, 1, 1), F(0)))
    variants = variants_of(IneqName.C32_I, IneqName.C32_II, IneqName.C33_I)
    outcomes = dict(zip(variants, check_inequalities(variants, len(points), 0, FAST)))
    assert str(outcomes[rid(IneqName.C32_II)]) == \
        "C32_ii: unexpected zero residual at (2, 2, 2)"
    assert str(outcomes[rid(IneqName.C33_I)]) == \
        "C33_i: residual -633/625 < 0 at (1/5, -1/5, 1)"
    assert_matches_reference(variants, len(points), 0)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("on_diagonal", [False, True], ids=["near", "on"])
def test_points_near_the_zero_set_of_c32_i(monkeypatch, seed, on_diagonal):
    """C32_i's residual vanishes on the diagonal.  At points within 1e-12 of
    it, or on it with denominators near 1e13, the float residual of C32_i's
    form is all rounding error, so these points must be decided exactly.
    C32_ii moves 1e-30 above C32_i's level, so that its least residual lies
    among them; C33_i moves onto that level, so that it fails at the first
    diagonal point.  Of the structured points only (1, 0, 0) is kept, since
    (1, 1, 1) would decide both."""
    def draw(rng):
        s = F(rng.randint(-100, 100), 100) + F(rng.randint(1, 10), 10**13)
        if on_diagonal:
            return integer_point((s, s, s))
        return integer_point(
            (s, s + F(rng.randint(1, 10), 10**13), s + F(rng.randint(-10, 10), 10**13)))

    monkeypatch.setattr(inequalities, "_STRUCTURED_POINTS", ((1, 0, 0),))
    monkeypatch.setattr(inequalities, "random_rational_point", draw)
    c, b = inequalities._CLASS_FORM[IneqName.C32_I]
    monkeypatch.setitem(inequalities._CLASS_FORM, IneqName.C32_II, (c, b + F(1, 10**30)))
    monkeypatch.setitem(inequalities._CLASS_FORM, IneqName.C33_I, (c, b))
    assert_matches_reference(
        variants_of(IneqName.C32_I, IneqName.C32_II, IneqName.C33_I), 200, seed)
