"""Acceptance gate: each criterion is a single test.

The conftest terminal-summary hook prints one pass/fail line per criterion
at the end of the run.
"""

import math
import random
from fractions import Fraction as F
from itertools import permutations, product

from qpd.binary import classify_binary, classify_sign_binary, invariants_IJ
from qpd.inequalities import IneqName, IneqReport, InequalityId, check_inequalities
from qpd.oracle import NumericVerdict, OracleConfig, min_on_sphere, verify_verdict
from qpd.tensors import BinaryQuartic, build_tensor, evaluate
from qpd.ternary import (
    SignClassTensor,
    check_condition_iii,
    classify_ternary,
    condition_iii_up_to_relabeling,
)
from qpd.verdicts import Classification

from helpers import gradient, rewrite_forms, transform

PD = Classification.POSITIVE_DEFINITE
PSD = Classification.PSD_NOT_PD
NPSD = Classification.NOT_PSD

LEVELS = (F(11, 6), F(2), F(5, 2), F(8, 3))
ALL_PATTERNS = [(s, c) for s in product((1, -1), repeat=3)
                for c in product((1, -1), repeat=3)]


def class_tensor(s, c, b):
    return SignClassTensor(*s, *c, b).to_quartic()


# ---------------------------------------------------------------------------
# 1. Exact counterexample reproduction (bit-exact rational arithmetic).

PROOF_VALUES = [
    # (level, c pattern, point, exact value) with s = (1, 1, -1)
    (F(11, 6), (-1, -1, 1), (F(1, 5), F(-1, 5), F(1)), F(-72, 625)),
    (F(11, 6), (1, -1, 1), (F(1, 2), F(-1, 2), F(1)), F(-27, 16)),
    (F(11, 6), (1, 1, 1), (F(1, 5), F(-1, 5), F(1)), F(-72, 625)),
    (F(11, 6), (-1, -1, -1), (F(-1), F(-3), F(-1)), F(-80)),
    (F(2), (-1, -1, 1), (F(1, 5), F(-1, 5), F(1)), F(-21, 625)),
    (F(2), (1, -1, 1), (F(1, 2), F(-1, 2), F(1)), F(-9, 8)),
    (F(2), (1, 1, 1), (F(1, 5), F(-1, 5), F(1)), F(-21, 625)),
    (F(2), (-1, -1, -1), (F(-1), F(-3), F(-1)), F(-61)),
    (F(5, 2), (1, -1, 1), (F(1, 4), F(-1, 4), F(1)), F(-15, 256)),
    (F(5, 2), (-1, -1, -1), (F(-1), F(-3), F(-1)), F(-4)),
]


def test_criterion_1_exact_proof_values():
    for b, c, point, expected in PROOF_VALUES:
        T = class_tensor((1, 1, -1), c, b)
        value = evaluate(T, point)
        assert isinstance(value, F) or value == int(value)
        assert value == expected, (b, c, value, expected)


# ---------------------------------------------------------------------------
# 2. Binary sign-class exhaustion: two classifiers and the oracle agree on
# all 8 unit-coefficient tensors; exactly 2 PD and 2 more PSD-not-PD.

def test_criterion_2_binary_exhaustion():
    cfg = OracleConfig(verdict_tol=1e-8)
    counts = {PD: 0, PSD: 0, NPSD: 0}
    for b, c, d in product((1, -1), repeat=3):
        T = BinaryQuartic(1, b, c, d, 1)
        fast = classify_sign_binary(T)
        general = classify_binary(T)
        assert fast.classification is general.classification
        report = verify_verdict(T, general, cfg)
        assert report.agreement == "agree", (b, c, d, report.agreement)
        counts[general.classification] += 1
    assert counts[PD] == 2 and counts[PSD] == 2 and counts[NPSD] == 4


# ---------------------------------------------------------------------------
# 3. Ternary exhaustive sweep: classifier vs oracle on all 256 tensors,
# boundary set at b = 11/6, all definite at b = 8/3, exact witnesses.

def test_criterion_3_ternary_sweep():
    cfg = OracleConfig(verdict_tol=1e-8)
    boundary_patterns = set()
    for b in LEVELS:
        for s, c in ALL_PATTERNS:
            T = class_tensor(s, c, b)
            verdict = classify_ternary(T)
            report = verify_verdict(T, verdict, cfg)
            assert report.agreement == "agree", (b, s, c, report.agreement)
            if verdict.classification is NPSD:
                assert verdict.witness is not None
                assert evaluate(T, verdict.witness) < 0
            if b == F(11, 6) and verdict.classification is PSD:
                boundary_patterns.add((s, c))
            if b == F(8, 3):
                assert verdict.classification is PD
    # At b = 11/6 the semidefinite-but-not-definite tensors are exactly the
    # sign-flip closure of the two literally stated boundary patterns.
    closure = {p for p in ALL_PATTERNS if condition_iii_up_to_relabeling(
        SignClassTensor(*p[0], *p[1], F(11, 6)))}
    literal = {p for p in ALL_PATTERNS if check_condition_iii(
        SignClassTensor(*p[0], *p[1], F(11, 6)))}
    assert boundary_patterns == closure
    assert len(literal) == 2 and literal <= boundary_patterns
    assert len(boundary_patterns) == 8


# ---------------------------------------------------------------------------
# 4. PSD boundary structure at the representative boundary tensor.

def test_criterion_4_boundary_structure():
    T = class_tensor((-1, 1, -1), (-1, -1, -1), F(11, 6))
    result = min_on_sphere(T, OracleConfig())
    assert result.verdict is NumericVerdict.BOUNDARY_PSD
    assert abs(result.min_value) <= 1e-8
    v = 1 / math.sqrt(3)
    dot = abs(sum(a * b for a, b in zip(result.argmin, (v, v, v))))
    assert math.acos(min(1.0, dot)) <= 1e-4


# ---------------------------------------------------------------------------
# 5. Invariant computation, exactly.

def test_criterion_5_invariants():
    assert invariants_IJ(BinaryQuartic(1, 1, 1, 1, 1)).disc == 0
    assert invariants_IJ(BinaryQuartic(1, 1, 1, -1, 1)).disc == 80


# ---------------------------------------------------------------------------
# 6. Inequality suite: 10^4 exact random points per residual, diagonal
# equality for the one non-strict inequality, oracle margins confirmed
# exactly for the strict ones.

def test_criterion_6_inequalities():
    iids = [InequalityId(name, frozenset()) for name in IneqName]
    reports = check_inequalities(iids, samples=10**4, seed=2026)
    for iid, report in zip(iids, reports):
        assert isinstance(report, IneqReport), report  # not a ViolationFound
        assert report.checked_points >= 10**4
        assert report.min_residual is not None and report.min_residual >= 0
        if iid.strict:
            assert report.min_residual > 0
            assert report.oracle_exact is not None and report.oracle_exact > 0
        else:
            assert report.equality_points >= 3
            assert abs(report.oracle_min) <= 1e-8


# ---------------------------------------------------------------------------
# 7. Property suites, >= 1000 randomized cases each.

def random_exact_tensor(rng, dim):
    if dim == 2:
        return BinaryQuartic(*(F(rng.randint(-20, 20), rng.randint(1, 12))
                               for _ in range(5)))
    return build_tensor(3, {
        m: F(rng.randint(-20, 20), rng.randint(1, 12))
        for m in product((1, 2, 3), repeat=4) if tuple(sorted(m)) == m})


def random_exact_point(rng, dim):
    return tuple(F(rng.randint(-40, 40), rng.randint(1, 20)) for _ in range(dim))


def test_criterion_7_property_suites():
    rng = random.Random(7)

    # Homogeneity: T(lam x) = lam^4 T(x).
    for _ in range(1000):
        dim = rng.choice((2, 3))
        T = random_exact_tensor(rng, dim)
        x = random_exact_point(rng, dim)
        lam = F(rng.randint(-15, 15), rng.randint(1, 10))
        assert evaluate(T, tuple(lam * v for v in x)) == lam**4 * evaluate(T, x)

    # Euler identity: x . grad T(x) = 4 T(x).
    for _ in range(1000):
        dim = rng.choice((2, 3))
        T = random_exact_tensor(rng, dim)
        x = random_exact_point(rng, dim)
        g = gradient(T, x)
        assert sum(xi * gi for xi, gi in zip(x, g)) == 4 * evaluate(T, x)

    # Four-way rewrite equality on class tensors.
    for _ in range(1000):
        s = tuple(rng.choice((1, -1)) for _ in range(3))
        c = tuple(rng.choice((1, -1)) for _ in range(3))
        b = F(rng.randint(-20, 20), rng.randint(1, 10))
        T = class_tensor(s, c, b)
        x = random_exact_point(rng, 3)
        reference = evaluate(T, x)
        forms = rewrite_forms(T, x)
        assert len(forms) == 4
        assert all(v == reference for v in forms)

    # Pointwise monotonicity in the off-diagonal level b.
    squares = build_tensor(3, {(1, 1, 2, 2): F(1), (1, 1, 3, 3): F(1),
                               (2, 2, 3, 3): F(1)})
    for _ in range(1000):
        s = tuple(rng.choice((1, -1)) for _ in range(3))
        c = tuple(rng.choice((1, -1)) for _ in range(3))
        b = F(rng.randint(-20, 20), rng.randint(1, 10))
        bp = b + F(rng.randint(0, 30), rng.randint(1, 10))
        x = random_exact_point(rng, 3)
        diff = evaluate(class_tensor(s, c, bp), x) - evaluate(class_tensor(s, c, b), x)
        assert diff == (bp - b) * evaluate(squares, x)
        assert diff >= 0

    # Gradient vs central finite differences at float points.  Tf holds T's
    # coefficients rounded to floats, which build_tensor reads as exact
    # Fractions; evaluate is exact at the float points, so only the step, the
    # quotient and the helper's gradient (Fraction times float) are rounded.
    step = 1e-5
    for _ in range(1000):
        dim = rng.choice((2, 3))
        T = random_exact_tensor(rng, dim)
        Tf = build_tensor(dim, {m: float(v) for m, _, v in T.terms()})
        x = tuple(rng.uniform(-1.5, 1.5) for _ in range(dim))
        g = gradient(Tf, x)
        scale = max(1.0, max(abs(v) for v in g))
        for k in range(dim):
            hi = tuple(v + step * (i == k) for i, v in enumerate(x))
            lo = tuple(v - step * (i == k) for i, v in enumerate(x))
            fd = (evaluate(Tf, hi) - evaluate(Tf, lo)) / (2 * step)
            assert abs(fd - g[k]) <= 1e-6 * scale

    # Relabeling equivariance of the classifier (1536 cases).
    for b in LEVELS:
        for s, c in ALL_PATTERNS:
            T = class_tensor(s, c, b)
            base = classify_ternary(T).classification
            for perm in permutations((1, 2, 3)):
                assert classify_ternary(transform(T, perm, (1, 1, 1))
                                        ).classification is base
