"""Numeric verification: global minimization of the quartic form on the unit
sphere, with exact confirmation of negative minima at rationalized points.

By homogeneity the sign of the sphere minimum decides everything: min > 0
means PD, min = 0 at a nonzero point means PSD on the boundary, min < 0
refutes PSD.  The method is a dense angular seed grid (a hemisphere, since
the form is even) followed by multi-start projected gradient descent with
backtracking, all in float64 via numpy.  A start stops once its value has
not strictly decreased for ``_STALL`` iterations, and refinement ends when
every start has stopped; ``_REFINE_ITERS`` is only a ceiling.

The seed grid and its monomial matrix depend only on the dimension and the
grid resolution, so they are built once per ``(dim, grid_resolution)`` and
cached (read-only); the seed values of a tensor are then one matrix-vector
product with its coefficient vector.

Refinement works on a stack of forms: ``minima_on_sphere`` refines the
starts of many tensors of one dimension in one loop, and ``min_on_sphere`` is
its stack of one.  Each form keeps its own steps, stall counts, line search
and iteration count, and a form that stops or has finished its line search is
no longer evaluated, so every form's result equals that of searching it
alone, bit for bit.  The stack pays the loop's fixed cost per numpy call once
for all its forms.

f and its gradient are evaluated together, in one kernel built per
``_refine`` call: a precomputed flat index gathers every monomial of f and of
each df/dx_k from one power table ``X[i, j] ** e`` (e = 0..4) with one
``take``, and the gathered factors are multiplied in x_1, x_2, ... order.  f
and each df/dx_k are then one mat-vec per form over a contiguous (n, m)
matrix, so products and sums keep the order of the direct formulas and the
results equal theirs bit for bit.  A backtracking candidate is evaluated
once (the powers of frozen starts, whose candidates are never accepted, are
not recomputed), and the gradient of an accepted point is carried into the
next iteration.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .tensors import EXPONENTS, Quartic, Vector, evaluate
from .verdicts import Classification


class NonFiniteValue(Exception):
    """Coefficients or seed values overflowed float64 to inf/nan, or a nonzero
    coefficient underflowed to 0."""


_OVERFLOW = "tensor coefficients overflow float64 evaluation"
_UNDERFLOW = "tensor coefficients underflow float64 evaluation"

# Refinement (see _refine): a start freezes after _STALL iterations without a
# strict decrease of its value, or once its tangential gradient norm drops
# below _REFINE_TOL; at most _REFINE_ITERS iterations run.
_STALL = 10
_REFINE_TOL = 1e-12
_REFINE_ITERS = 500
# The powers of a coordinate that _gather computes with pow.
_HIGH_POWERS = np.arange(2.0, 5.0)


class NumericVerdict(enum.Enum):
    PD = "PD"
    BOUNDARY_PSD = "BoundaryPSD"
    NOT_PSD = "NotPSD"


@dataclass(frozen=True)
class OracleConfig:
    grid_resolution: int = 256
    starts: int = 32
    verdict_tol: float = 1e-8
    max_denominator: int = 10**6

    def __post_init__(self):
        if self.grid_resolution < 8:
            raise ValueError("grid_resolution must be >= 8")
        if not self.verdict_tol > 0:  # rejects NaN too
            raise ValueError("verdict_tol must be positive")
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.max_denominator < 1:
            raise ValueError("max_denominator must be >= 1")


@dataclass(frozen=True)
class OracleResult:
    min_value: float
    argmin: tuple[float, ...]
    verdict: NumericVerdict
    confirmed_exact: Optional[Fraction] = None
    # The rational point whose exact value is confirmed_exact.
    witness: Optional[Vector] = None
    # Refinement iterations run before every start froze (at most _REFINE_ITERS).
    iterations: int = 0


def _exponents(dim: int) -> np.ndarray:
    """Exponent matrix E[m, j] = power of x_j in the m-th monomial, in the
    order ``T.terms()`` yields (``tensors.EXPONENTS``)."""
    return np.asarray(EXPONENTS[dim])


def _float_terms(T: Quartic):
    """Weighted coefficient vector and exponent matrix for vectorized
    evaluation: f(x) = sum_m C[m] * prod_j x_j ** E[m, j]."""
    terms = list(T.terms())
    try:
        C = np.asarray([w * float(c) for _, w, c in terms])
    except OverflowError:  # float(Fraction) beyond the float64 range
        raise NonFiniteValue(_OVERFLOW) from None
    if not np.all(np.isfinite(C)):
        raise NonFiniteValue(_OVERFLOW)
    if any(c != 0 and v == 0 for (_, _, c), v in zip(terms, C)):
        raise NonFiniteValue(_UNDERFLOW)  # the search would see another form
    return C, _exponents(T.dim)


def _gather(tables: np.ndarray, forms: int, n: int):
    """The monomials of a stack of up to ``forms`` sets of n points, as a
    function (X, needed) -> M with M[f, s, i, m] = prod_j X[f, i, j] **
    tables[s, m, j], C-contiguous.  X has shape (k, n, dim) for any k <= forms.

    Every entry is gathered by one ``take`` with an index built here, from the
    power table ``X[..., None] ** arange(5)`` (a quartic's monomials use no
    other powers), and the factors are multiplied in x_1, x_2, ... order, so
    M[f, s] equals ``np.prod(X[f, :, None, :] ** tables[s], axis=-1)`` bit for
    bit.  Index and buffers are form-major and built once for the whole
    stack: k forms use their first k rows.  Powers 0 and 1 are exactly 1 and
    X, so only powers 2 to 4 call ``pow``, and only for the points where
    ``needed`` (True, or a (k, n, 1, 1) mask) holds; the monomials of the
    other points are left over from an earlier call.
    """
    dim = tables.shape[-1]
    # index[f, j, s, i, m] is the position of X[f, i, j] ** tables[s, m, j].
    points = 5 * dim * np.arange(forms * n).reshape(forms, 1, 1, n, 1)
    index = (points + 5 * np.arange(dim)[:, None, None, None]
             + np.moveaxis(tables, -1, 0)[:, :, None])
    factors = np.empty(index.shape)  # reused: each call's M is a new array
    powers = np.ones((forms, n, dim, 5))

    def monomials(X, needed=True):
        k = len(X)
        P = powers[:k]
        P[..., 1] = X
        np.power(X[..., None], _HIGH_POWERS, out=P[..., 2:], where=needed)
        # The index is in range; "clip" spares take a buffered bounds check.
        return np.multiply.reduce(P.take(index[:k], out=factors[:k], mode="clip"), axis=1)

    return monomials


def _kernel(E: np.ndarray, forms: int, n: int):
    """f and its gradient at a stack of up to ``forms`` sets of n points, as
    one function (X, V, needed) -> (f, G) with X of shape (k, n, dim) and V =
    ``_weights(C, E)`` for the k forms' coefficient rows C; f and G are
    meaningful only where ``needed`` holds (see ``_gather``).

    One gather gives the monomials of E and of E with column k lowered by
    one (floored at 0) for each k, so f = M[:, 0] @ C and df/dx_k = M[:, 1 +
    k] @ (C * E[:, k]).  Each is one BLAS mat-vec over a contiguous (n, m)
    matrix (``np.matmul`` makes one per form and table), which sums in a
    fixed order, and G is made C-contiguous because numpy sums a row of a
    differently ordered array in another order.
    """
    dim = E.shape[1]
    lower = np.eye(dim + 1, dim, -1, dtype=int)[:, None]  # row 1 + k lowers column k
    monomials = _gather(np.maximum(E - lower, 0), forms, n)

    def kernel(X, V, needed=True):
        R = np.matmul(monomials(X, needed), V)
        return R[:, 0, :, 0], R[:, 1:, :, 0].transpose(0, 2, 1).copy()

    return kernel


def _weights(C: np.ndarray, E: np.ndarray) -> np.ndarray:
    """The kernel's mat-vec vectors for coefficient rows C (forms, m): C, then
    C * E[:, k] for each k, shaped (forms, 1 + dim, m, 1)."""
    return np.concatenate([C[:, None], C[:, None] * E.T], axis=1)[..., None]


def _seed_grid(dim: int, n: int) -> np.ndarray:
    if dim == 2:
        theta = np.pi * np.arange(n) / n  # hemisphere: antipodes are redundant
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    polar = np.pi * (np.arange(n) + 0.5) / n
    azimuth = np.pi * np.arange(n) / n
    th, ph = np.meshgrid(polar, azimuth, indexing="ij")
    th, ph = th.ravel(), ph.ravel()
    pts = np.stack(
        [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1
    )
    poles = np.array([[0.0, 0.0, 1.0]])
    return np.concatenate([pts, poles])


@functools.lru_cache(maxsize=8)
def _seed_table(dim: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Seed grid and its monomial matrix for every tensor of dimension dim,
    both read-only."""
    seeds = _seed_grid(dim, n)
    E = _exponents(dim)[None]
    M = np.empty((len(seeds), E.shape[1]))
    # In blocks of rows, so that no gather index spans the whole grid.  The
    # full blocks share one gather, and each block is written straight into M.
    size = min(len(seeds), 4096)
    full = _gather(E, 1, size)
    for i in range(0, len(seeds), size):
        block = seeds[i:i + size]
        gather = full if len(block) == size else _gather(E, 1, len(block))
        M[i:i + len(block)] = gather(block[None])[0, 0]
    seeds.flags.writeable = False
    M.flags.writeable = False
    return seeds, M


def _lowest(values: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(values, kind="stable")[:k]`` without sorting every value:
    only the values at or below the k-th smallest are sorted."""
    k = min(k, len(values))
    threshold = np.partition(values, k - 1)[k - 1]
    candidates = np.flatnonzero(values <= threshold)
    return candidates[np.argsort(values[candidates], kind="stable")][:k]


def _refine(X, C, E):
    """Batch projected gradient descent with backtracking line search, for a
    stack of forms: X holds each form's starts (forms, starts, dim), C one
    coefficient row per form.

    Accepted steps never increase the objective.  A start freezes once its
    tangential gradient norm drops below ``_REFINE_TOL`` or once its value has
    not strictly decreased for ``_STALL`` iterations; a form stops when all of
    its starts are frozen, or after ``_REFINE_ITERS`` iterations.  Each form
    keeps its own steps, stall counts and line search, and only forms still
    refining or still backtracking are evaluated, so each form's results equal
    those of refining it alone, bit for bit.  Returns the points, their values
    and each form's number of iterations.

    Every array keeps one row per form still refining (``rows`` names it);
    the rows of forms that stop are written out and dropped.
    """
    forms, n, _ = X.shape
    kernel = _kernel(E, forms, n)
    V = _weights(C, E)

    def trial(X, Gt, step, active, f, g2, V):
        """Candidates, their values, gradients and acceptance.  A frozen start
        is never accepted, so its candidate is not evaluated."""
        cand = X - (step * active)[:, :, None] * Gt
        cand /= np.sqrt(np.add.reduce(cand * cand, axis=2, keepdims=True))
        fc, Gc = kernel(cand, V, active[:, :, None, None])
        return cand, fc, Gc, active & (fc <= f - 1e-4 * step * g2)

    step = np.full((forms, n), 0.1)
    lowered = np.zeros((forms, n), dtype=int)  # the last iteration that lowered each start
    rows = np.arange(forms)  # the form of each row still refining
    X_out, f_out = np.empty_like(X), np.empty((forms, n))
    iterations = np.empty(forms, dtype=int)
    done = 0
    # Overflow to inf/nan is tolerated here; minima_on_sphere has checked the
    # seed values.  Row norms use np.linalg.norm's own formula.
    with np.errstate(over="ignore", invalid="ignore"):
        f, G = kernel(X, V)
        while True:
            Gt = G - np.add.reduce(G * X, axis=2, keepdims=True) * X
            gnorm = np.sqrt(np.add.reduce(Gt * Gt, axis=2))
            active = (gnorm > _REFINE_TOL) & (lowered > done - _STALL)
            running = active.any(axis=1)
            if done == _REFINE_ITERS:
                running[:] = False
            if not running.all():
                stopped = rows[~running]
                X_out[stopped], f_out[stopped] = X[~running], f[~running]
                iterations[stopped] = done
                if not running.any():
                    return X_out, f_out, iterations
                X, f, G, Gt, gnorm, active, step, lowered, V, rows = (
                    a[running] for a in (X, f, G, Gt, gnorm, active, step, lowered, V, rows))
            done += 1
            g2 = gnorm**2
            cand, fc, Gc, ok = trial(X, Gt, step, active, f, g2, V)
            if not ok.any(axis=1).all():
                # A form none of whose starts was accepted halves their steps
                # and tries again, at most 60 times in all.  ok implies active,
                # so a form searches on when it has an active but no accepted
                # start.
                for attempt in range(1, 61):
                    search = active.any(axis=1) > ok.any(axis=1)
                    every = search.all()
                    if not every:
                        if not search.any():
                            break
                        active &= search[:, None]  # a form done searching keeps its step
                    step = np.where(active, step / 2, step)
                    active &= step > 1e-18
                    if attempt == 60:
                        break
                    if every:
                        cand, fc, Gc, ok = trial(X, Gt, step, active, f, g2, V)
                    else:
                        s = np.flatnonzero(search)
                        cand[s], fc[s], Gc[s], ok[s] = trial(
                            X[s], Gt[s], step[s], active[s], f[s], g2[s], V[s])
            accepted = ok[:, :, None]
            X = np.where(accepted, cand, X)
            G = np.where(accepted, Gc, G)  # the gradient at the accepted points
            lowered = np.where(ok & (fc < f), done, lowered)
            f = np.where(ok, fc, f)
            step *= np.where(ok, 1.5, 0.5)
            step = np.minimum(np.maximum(step, 1e-18), 1e3)


def minima_on_sphere(
    tensors: Sequence[Quartic], cfg: OracleConfig = OracleConfig()
) -> list[OracleResult]:
    """``min_on_sphere`` of each tensor, all of one dimension, with one
    refinement for the whole stack.  Each result equals that of searching its
    tensor alone, bit for bit."""
    if not tensors:
        return []
    dims = {T.dim for T in tensors}
    if len(dims) != 1:
        raise ValueError("minima_on_sphere needs tensors of one dimension")
    [dim] = dims
    C = np.stack([_float_terms(T)[0] for T in tensors])
    seeds, M = _seed_table(dim, cfg.grid_resolution)
    starts = []
    for row in C:
        with np.errstate(over="ignore", invalid="ignore"):
            values = M @ row
        if not np.all(np.isfinite(values)):
            raise NonFiniteValue(_OVERFLOW)
        starts.append(seeds[_lowest(values, cfg.starts)])
    X, f, iterations = _refine(np.stack(starts), C, _exponents(dim))
    return [_result(T, X[i], f[i], int(iterations[i]), cfg) for i, T in enumerate(tensors)]


@functools.lru_cache(maxsize=1)
def min_on_sphere(T: Quartic, cfg: OracleConfig = OracleConfig()) -> OracleResult:
    """Approximate global minimum of the form on the unit sphere.

    The last result is kept, so a caller that asks again about the same tensor
    and config (the binary classifier's witness search, then the CLI's
    cross-check) reuses it instead of searching twice.
    """
    [result] = minima_on_sphere([T], cfg)
    return result


def _result(T: Quartic, X, f, iterations: int, cfg: OracleConfig) -> OracleResult:
    """The verdict on T from its refined starts X and their values f."""
    best = int(np.argmin(f))
    argmin = X[best] / np.linalg.norm(X[best])
    min_value = float(f[best])

    if min_value < -cfg.verdict_tol:
        verdict = NumericVerdict.NOT_PSD
    elif min_value > cfg.verdict_tol:
        verdict = NumericVerdict.PD
    else:
        verdict = NumericVerdict.BOUNDARY_PSD

    confirmed = witness = None
    if verdict is NumericVerdict.NOT_PSD:
        confirmation = _confirm_negative(T, argmin, cfg.max_denominator)
        if confirmation is None:
            # Cannot certify the negative value exactly; stay honest.
            verdict = NumericVerdict.BOUNDARY_PSD
        else:
            witness, confirmed = confirmation
    return OracleResult(
        min_value, tuple(float(v) for v in argmin), verdict, confirmed, witness, iterations
    )


def _rational_point(x, max_denominator: int) -> Vector:
    return tuple(Fraction(float(v)).limit_denominator(max_denominator) for v in x)


def rationalize_and_confirm(T: Quartic, x, max_denominator: int) -> Fraction:
    """Exact value of the form at the best rational approximation of x with
    denominators bounded by max_denominator."""
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    return evaluate(T, _rational_point(x, max_denominator))


def _confirm_negative(T: Quartic, x, max_denominator: int) -> Optional[tuple[Vector, Fraction]]:
    """The first rounding of x with a negative exact value, and that value.

    Denominator bounds climb 8, 128, 2048, ... while they stay within
    max_denominator, then max_denominator itself is tried.
    """
    den = 8
    while True:
        den = min(den, max_denominator)
        point = _rational_point(x, den)
        value = evaluate(T, point)
        if value < 0:
            return point, value
        if den == max_denominator:
            return None
        den *= 16


def negative_witness(T: Quartic, cfg: OracleConfig = OracleConfig()) -> Optional[Vector]:
    """An exact rational point with strictly negative value, if the oracle can
    find and confirm one."""
    return min_on_sphere(T, cfg).witness


_EXPECTED = {
    Classification.POSITIVE_DEFINITE: NumericVerdict.PD,
    Classification.PSD_NOT_PD: NumericVerdict.BOUNDARY_PSD,
    Classification.NOT_PSD: NumericVerdict.NOT_PSD,
}


@dataclass(frozen=True)
class AgreementReport:
    numeric: OracleResult
    agreement: str  # agree | conflict | inconclusive | n/a


def agreement(analytic, result: OracleResult, cfg: OracleConfig = OracleConfig()) -> str:
    """How the oracle's result bears on an analytic verdict: agree, conflict,
    inconclusive, or n/a.

    ``analytic`` is a Verdict, ClassVerdict, or Classification.  Disagreements
    whose numeric minimum sits within 10x the verdict band of the boundary are
    inconclusive rather than conflicts.
    """
    cls = analytic if isinstance(analytic, Classification) else analytic.classification
    expected = _EXPECTED.get(cls)
    if expected is None:
        return "n/a"
    if result.verdict is expected:
        return "agree"
    if abs(result.min_value) <= 10 * cfg.verdict_tol:
        return "inconclusive"
    return "conflict"


def verify_verdict(T: Quartic, analytic, cfg: OracleConfig = OracleConfig()) -> AgreementReport:
    """Run the oracle on T and compare against an analytic verdict (see
    ``agreement``)."""
    result = min_on_sphere(T, cfg)
    return AgreementReport(result, agreement(analytic, result, cfg))
