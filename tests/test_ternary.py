import random
import re
from fractions import Fraction as F
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpd.tensors import build_tensor, evaluate
from qpd.ternary import (
    _GROUP,
    _LEVELS,
    _REPRESENTATIVE_S,
    _SIGN_VECTORS,
    _relabelings,
    NotInClass,
    SignClassTensor,
    check_condition_iii,
    check_condition_iv,
    classify_ternary,
    condition_iii_up_to_relabeling,
    condition_iv_up_to_relabeling,
    proof_witness,
    validate_class,
)
from qpd.verdicts import Classification

from helpers import transform

PD = Classification.POSITIVE_DEFINITE
PSD = Classification.PSD_NOT_PD
NPSD = Classification.NOT_PSD

S_REP = (1, 1, -1)  # t1112 = t1113 = 1, t2223 = -1
ALL_PATTERNS = [(s, c) for s in product((1, -1), repeat=3)
                for c in product((1, -1), repeat=3)]


def tensor(s, c, b):
    return SignClassTensor(*s, *c, F(b)).to_quartic()


def reference_entries(S):
    """The sign-class layout written out entry by entry."""
    return {
        (1, 1, 1, 1): F(1),
        (2, 2, 2, 2): F(1),
        (3, 3, 3, 3): F(1),
        (1, 1, 1, 2): F(S.s112),
        (1, 2, 2, 2): F(-S.s112),
        (1, 1, 1, 3): F(S.s113),
        (1, 3, 3, 3): F(-S.s113),
        (2, 2, 2, 3): F(S.s223),
        (2, 3, 3, 3): F(-S.s223),
        (1, 1, 2, 3): F(S.c123),
        (1, 2, 2, 3): F(S.c223),
        (1, 2, 3, 3): F(S.c233),
        (1, 1, 2, 2): S.b,
        (1, 1, 3, 3): S.b,
        (2, 2, 3, 3): S.b,
    }


class TestLayout:
    @pytest.mark.parametrize("b", [F(7, 4), F(11, 6), F(2), F(5, 2), F(8, 3)])
    def test_to_quartic_matches_reference_and_round_trips(self, b):
        for s, c in ALL_PATTERNS:
            S = SignClassTensor(*s, *c, b)
            T = S.to_quartic()
            assert T == build_tensor(3, reference_entries(S))
            assert validate_class(T) == S

    @pytest.mark.parametrize("entry, value, message", [
        ((2, 2, 2, 2), F(3), "t2222 must be 1, got 3"),
        ((1, 1, 1, 3), F(2), "t1113 must be +-1, got 2"),
        ((1, 2, 2, 2), F(1), "pairing violated: t1222 * t1112 must be -1, got 1 * 1"),
        ((1, 2, 2, 3), F(0), "t1223 must be +-1, got 0"),
        ((1, 1, 3, 3), F(5, 2), "off-diagonal level not uniform: t1133 = 5/2 but t1122 = 2"),
    ], ids=["diagonal", "cubic", "pairing", "mixed", "level"])
    def test_not_in_class_messages(self, entry, value, message):
        entries = reference_entries(SignClassTensor(1, 1, 1, 1, 1, 1, F(2)))
        entries[entry] = value
        with pytest.raises(NotInClass, match=f"^{re.escape(message)}$"):
            validate_class(build_tensor(3, entries))


class TestValidateClass:
    def test_sufficiency_representative(self):
        T = tensor((-1, 1, -1), (-1, -1, -1), F(11, 6))
        S = validate_class(T)
        assert S.s == (-1, 1, -1)
        assert S.c == (-1, -1, -1)
        assert S.b == F(11, 6)

    def test_roundtrip(self):
        for s, c in ALL_PATTERNS:
            S = SignClassTensor(*s, *c, F(5, 2))
            assert validate_class(S.to_quartic()) == S

    def test_pairing_violation(self):
        S = SignClassTensor(1, 1, 1, 1, 1, 1, F(2))
        entries = {m: v for m, _, v in S.to_quartic().terms()}
        entries[(1, 2, 2, 2)] = 1  # same sign as t1112 breaks the pairing
        with pytest.raises(NotInClass, match="pairing"):
            validate_class(build_tensor(3, entries))

    def test_mixed_levels(self):
        S = SignClassTensor(1, 1, 1, 1, 1, 1, F(2))
        entries = {m: v for m, _, v in S.to_quartic().terms()}
        entries[(1, 1, 3, 3)] = F(5, 2)
        with pytest.raises(NotInClass, match="uniform"):
            validate_class(build_tensor(3, entries))

    def test_bad_diagonal(self):
        S = SignClassTensor(1, 1, 1, 1, 1, 1, F(2))
        entries = {m: v for m, _, v in S.to_quartic().terms()}
        entries[(2, 2, 2, 2)] = F(3)
        with pytest.raises(NotInClass, match="t2222"):
            validate_class(build_tensor(3, entries))


class TestConditions:
    def test_iii_holds_for_representative(self):
        assert check_condition_iii(SignClassTensor(-1, 1, -1, -1, -1, -1, F(11, 6)))

    def test_iii_fails_on_misaligned_signs(self):
        assert not check_condition_iii(SignClassTensor(1, 1, -1, -1, -1, -1, F(11, 6)))

    def test_iii_needs_all_minus_c(self):
        assert not check_condition_iii(SignClassTensor(-1, 1, -1, 1, 1, 1, F(11, 6)))

    def test_iv_all_plus(self):
        for s in product((1, -1), repeat=3):
            assert check_condition_iv(SignClassTensor(*s, 1, 1, 1, F(5, 2)))

    def test_iv_two_minus(self):
        for s in product((1, -1), repeat=3):
            assert check_condition_iv(SignClassTensor(*s, -1, -1, 1, F(5, 2)))

    def test_iv_single_minus_fails_literally(self):
        assert not check_condition_iv(SignClassTensor(1, 1, -1, -1, 1, 1, F(5, 2)))

    def test_literal_iii_implies_literal_iv(self):
        for s, c in ALL_PATTERNS:
            S = SignClassTensor(*s, *c, F(2))
            if check_condition_iii(S):
                assert check_condition_iv(S)

    def test_orbit_iii_implies_orbit_iv(self):
        for s, c in ALL_PATTERNS:
            S = SignClassTensor(*s, *c, F(2))
            if condition_iii_up_to_relabeling(S):
                assert condition_iv_up_to_relabeling(S)

    def test_orbit_iii_counts(self):
        # the literal condition carves out 2 patterns; its closure under
        # variable negation has 8
        literal = [p for p in ALL_PATTERNS
                   if check_condition_iii(SignClassTensor(*p[0], *p[1], F(2)))]
        orbit = [p for p in ALL_PATTERNS
                 if condition_iii_up_to_relabeling(SignClassTensor(*p[0], *p[1], F(2)))]
        assert len(literal) == 2
        assert len(orbit) == 8
        assert set(literal) <= set(orbit)


class TestRelabelings:
    def test_bit_action_equals_the_relabeled_tensor(self):
        """The sign-bit images equal the patterns of the relabeled tensors,
        for every pattern and every group element, in _GROUP order."""
        for s, c in ALL_PATTERNS:
            T = tensor(s, c, F(2))
            expected = []
            for perm, sigma in _GROUP:
                image = validate_class(transform(T, perm, sigma))
                expected.append((perm, sigma, image.s + image.c))
            assert _relabelings(s + c) == tuple(expected)

    def test_orbit_structure(self):
        """The 64 patterns fall into four orbits of sizes 8, 8, 24 and 24;
        the closures of conditions III and IV hold 8 and 40 patterns."""
        orbits = {frozenset(image for _, _, image in _relabelings(s + c))
                  for s, c in ALL_PATTERNS}
        assert sorted(map(len, orbits)) == [8, 8, 24, 24]
        assert set().union(*orbits) == {s + c for s, c in ALL_PATTERNS}
        for condition, size in ((condition_iii_up_to_relabeling, 8),
                                (condition_iv_up_to_relabeling, 40)):
            closure = {s + c for s, c in ALL_PATTERNS
                       if condition(SignClassTensor(*s, *c, F(2)))}
            assert len(closure) == size
            assert all(o <= closure or not o & closure for o in orbits)


class TestClassify:
    def test_level2_with_iii_is_definite(self):
        v = classify_ternary(tensor((-1, 1, -1), (-1, -1, -1), F(2)))
        assert v.classification is PD and v.regime == "2"

    def test_level_5_2_single_minus_counterexample(self):
        v = classify_ternary(tensor(S_REP, (1, -1, 1), F(5, 2)))
        assert v.classification is NPSD and v.regime == "5/2"
        assert v.witness == (F(1, 4), F(-1, 4), 1)
        assert evaluate(tensor(S_REP, (1, -1, 1), F(5, 2)), v.witness) == F(-15, 256)

    def test_level_8_3_always_definite(self):
        for s, c in ALL_PATTERNS:
            v = classify_ternary(tensor(s, c, F(8, 3)))
            assert v.classification is PD and v.regime == ">=8/3"

    def test_above_8_3_definite(self):
        v = classify_ternary(tensor(S_REP, (1, -1, 1), F(7, 2)))
        assert v.classification is PD and v.regime == ">=8/3"

    def test_boundary_level_psd(self):
        v = classify_ternary(tensor((-1, 1, -1), (-1, -1, -1), F(11, 6)))
        assert v.classification is PSD and v.regime == "11/6"

    def test_witnesses_are_exactly_negative(self):
        for b in (F(11, 6), F(2), F(5, 2)):
            for s, c in ALL_PATTERNS:
                T = tensor(s, c, b)
                v = classify_ternary(T)
                if v.classification is NPSD:
                    assert v.witness is not None
                    assert evaluate(T, v.witness) < 0

    def test_not_in_class(self):
        with pytest.raises(NotInClass):
            classify_ternary(build_tensor(3, {}))


class TestOutOfRegime:
    def test_between_levels_undetermined_with_pd_bound(self):
        v = classify_ternary(tensor((-1, 1, -1), (-1, -1, -1), F(11, 5)))
        assert v.classification is Classification.UNDETERMINED
        assert v.regime == "out-of-regime"
        assert v.monotone_bound is PD  # inherited upward from level 2

    def test_between_levels_not_psd_inherited_downward(self):
        T = tensor(S_REP, (1, 1, 1), F(19, 10))
        v = classify_ternary(T)
        assert v.classification is Classification.UNDETERMINED
        assert v.monotone_bound is NPSD
        assert v.witness is not None and evaluate(T, v.witness) < 0

    def test_low_level_boundary_pattern_has_no_bound(self):
        v = classify_ternary(tensor((-1, 1, -1), (-1, -1, -1), F(1)))
        assert v.classification is Classification.UNDETERMINED
        assert v.monotone_bound is None


class TestProofWitness:
    def test_case2_level2(self):
        S = SignClassTensor(*S_REP, 1, -1, 1, F(2))
        w = proof_witness(S)
        assert w == (F(1, 2), F(-1, 2), 1)
        assert evaluate(S.to_quartic(), w) == F(-9, 8)

    def test_case1_boundary_level(self):
        S = SignClassTensor(*S_REP, -1, -1, 1, F(11, 6))
        w = proof_witness(S)
        assert w == (F(1, 5), F(-1, 5), 1)
        assert evaluate(S.to_quartic(), w) == F(-72, 625)

    def test_definite_pattern_has_no_witness(self):
        assert proof_witness(SignClassTensor(-1, 1, -1, -1, -1, -1, F(2))) is None

    @pytest.mark.parametrize("level", [F(11, 6), F(2), F(5, 2)], ids=str)
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_every_not_psd_pattern_has_one(self, level, data):
        """Each NotPSD pattern at a studied level gets its witness from the
        proof cases, and by monotonicity in b the same point serves every level
        below: one drawn in the open gap down to the next lower studied level
        (to -10**6 below 11/6), where classify_ternary reports it without
        evaluating it."""
        lo = max((lv for lv in _LEVELS if lv < level), default=F(-10**6))
        below = data.draw(st.fractions(lo, level).filter(lambda b: lo < b < level), label="b")
        for s, c in ALL_PATTERNS:
            S = SignClassTensor(*s, *c, level)
            if classify_ternary(S.to_quartic()).classification is not NPSD:
                continue
            w = proof_witness(S)
            assert w is not None and evaluate(S.to_quartic(), w) < 0
            lower = tensor(s, c, below)
            v = classify_ternary(lower)
            assert v.monotone_bound is NPSD and v.witness == w
            assert evaluate(lower, w) < 0

    @pytest.mark.parametrize("level", [F(11, 6), F(2), F(5, 2)], ids=str)
    def test_equals_the_search_over_relabeled_tensors(self, level):
        for s, c in ALL_PATTERNS:
            S = SignClassTensor(*s, *c, level)
            assert proof_witness(S) == relabeled_tensor_search(S)

    def test_relabeled_patterns_get_relabeled_witnesses(self):
        base = SignClassTensor(*S_REP, -1, -1, 1, F(2))
        for perm in permutations((1, 2, 3)):
            moved = validate_class(transform(base.to_quartic(), perm, (1, 1, 1)))
            w = proof_witness(moved)
            assert w is not None
            assert evaluate(moved.to_quartic(), w) < 0


def relabeled_tensor_search(S):
    """Reference for proof_witness: relabel the whole tensor for each of the
    24 relabelings and match it against the representative case tensors."""
    cases = _LEVELS[S.b].witness_cases
    T = S.to_quartic()
    reps = {SignClassTensor(*_REPRESENTATIVE_S, *c, S.b).to_quartic().coeffs: point
            for c, point in cases}
    for perm in permutations((1, 2, 3)):
        inv = {perm[i]: i + 1 for i in range(3)}
        for sigma in _SIGN_VECTORS:
            point = reps.get(transform(T, perm, sigma).coeffs)
            if point is not None:
                witness = tuple(sigma[inv[j] - 1] * point[inv[j] - 1] for j in (1, 2, 3))
                if evaluate(T, witness) < 0:
                    return witness
    return None


def test_monotonicity_identity_in_level():
    rng = random.Random(2)
    squares = build_tensor(3, {(1, 1, 2, 2): F(1), (1, 1, 3, 3): F(1),
                               (2, 2, 3, 3): F(1)})
    for _ in range(100):
        s = tuple(rng.choice((1, -1)) for _ in range(3))
        c = tuple(rng.choice((1, -1)) for _ in range(3))
        b = F(rng.randint(-20, 20), rng.randint(1, 10))
        bp = b + F(rng.randint(0, 30), rng.randint(1, 10))
        x = tuple(F(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(3))
        lo, hi = tensor(s, c, b), tensor(s, c, bp)
        diff = evaluate(hi, x) - evaluate(lo, x)
        assert diff == 6 * (bp - b) * evaluate(squares, x) / 6
        assert diff >= 0


def test_relabeling_equivariance_of_classification():
    for b in (F(11, 6), F(2), F(5, 2), F(8, 3)):
        for s, c in ALL_PATTERNS:
            T = tensor(s, c, b)
            base = classify_ternary(T).classification
            for perm in permutations((1, 2, 3)):
                moved = transform(T, perm, (1, 1, 1))
                assert classify_ternary(moved).classification is base
