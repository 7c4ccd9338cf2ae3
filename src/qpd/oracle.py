"""Numeric verification: global minimization of the quartic form on the unit
sphere, with exact confirmation of negative minima at rationalized points.

By homogeneity the sign of the sphere minimum decides everything: min > 0
means PD, min = 0 at a nonzero point means PSD on the boundary, min < 0
refutes PSD.  The method is a dense angular seed grid (a hemisphere, since
the form is even) followed by multi-start descent on the sphere with
backtracking, all in float64 via numpy.  A start takes a Riemannian Newton
step where its tangent Hessian is positive definite and a projected gradient
step elsewhere.  It stops once its tangential gradient vanishes, once its
value has not strictly decreased for ``_STALL`` iterations, or, on a Newton
step, once its Newton decrement is below float resolution; refinement ends
when every start has stopped, and ``_REFINE_ITERS`` is only a ceiling.
Newton converges quadratically at a nondegenerate minimum, so a few
iterations usually suffice.

The seeds lie on a fixed angular grid: n azimuths for a binary, and n polar
angles by n azimuths plus the pole for a ternary.  Every monomial factors
into a polar and an azimuth part there, so a form's seed values are one
product of O(n) tables cached per ``(dim, grid_resolution)`` (see
``_seeds``), and only the chosen starts are built as points.

Refinement works on a stack of forms: ``minima_on_sphere`` refines the
starts of many tensors of one dimension in one loop, and ``min_on_sphere`` is
its stack of one.  Each form keeps its own steps, damping, stall counts, line
search and iteration count, and a form that stops or has finished its line
search is no longer evaluated, so every form's result equals that of
searching it alone, bit for bit.  The stack pays the loop's fixed cost per
numpy call once for all its forms.

f and its gradient are evaluated together, in one kernel (``_kernel``), the
module's only monomial gather: a C-contiguous index, cached read-only per
``(dim, n)``, gathers every monomial of f and of each df/dx_k from each
form's power table ``X[i, j] ** e`` (e = 0..4) with one ``take``, and the
gathered factors are multiplied in x_1, x_2, ... order.  f and each df/dx_k
are then one mat-vec per form over a contiguous (n, m) matrix, so products
and sums keep the order of the direct formulas and the results equal theirs
bit for bit.  The power and factor buffers belong to the kernel, which each
``_refine`` call builds, so searches do not share them.  A backtracking
candidate is evaluated once (the powers of frozen starts, whose candidates
are never accepted, are not recomputed), and the gradient of an accepted
point is carried into the next iteration.  The Hessian is a quadratic form
in x: its distinct entries are the quadratic monomials x_k x_l times a
per-form weight matrix (6 x 6 for ternaries), which ``_hessian_table``
gathers exactly from the coefficients.

Seeding reads a ternary's n**2 + 1 seed values once, to pick its starts
(``_lowest``); they are scanned for overflow only when sum |C|, which bounds
them, reaches 2**1020.
"""
from __future__ import annotations

import enum
import functools
import math
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
# strict decrease of its value, once its tangential gradient norm drops below
# _REFINE_TOL, or once its Newton decrement drops to _DECREMENT * sum |C|; at
# most _REFINE_ITERS iterations run.
_STALL = 10
_REFINE_TOL = 1e-12
_DECREMENT = 1e-15
_REFINE_ITERS = 500
# The powers of a coordinate that the kernel computes with pow.
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
        # A ternary form's n**2 + 1 seed values take 8.4 MB at the grid bound;
        # the refinement's arrays grow with the number of starts.
        if not 8 <= self.grid_resolution <= 1024:
            raise ValueError("grid_resolution must be between 8 and 1024")
        if not 0 < self.verdict_tol < math.inf:  # rejects NaN too
            raise ValueError("verdict_tol must be positive and finite")
        if not 1 <= self.starts <= 1024:
            raise ValueError("starts must be between 1 and 1024")
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


def _float_terms(T: Quartic) -> np.ndarray:
    """Weighted coefficient vector for vectorized evaluation: f(x) = sum_m
    C[m] * prod_j x_j ** E[m, j] with E = ``_exponents(T.dim)``."""
    terms = list(T.terms())
    try:
        C = np.asarray([w * float(c) for _, w, c in terms])
    except OverflowError:  # float(Fraction) beyond the float64 range
        raise NonFiniteValue(_OVERFLOW) from None
    if not np.all(np.isfinite(C)):
        raise NonFiniteValue(_OVERFLOW)
    if any(c != 0 and v == 0 for (_, _, c), v in zip(terms, C)):
        raise NonFiniteValue(_UNDERFLOW)  # the search would see another form
    return C


@functools.lru_cache(maxsize=8)
def _kernel_index(dim: int, n: int) -> np.ndarray:
    """The kernel's gather index for n points: index[j, s, i, m] is the
    position of X[i, j] ** E_s[m, j] (see ``_kernel``) in one form's power
    table of shape (n, dim, 5), flattened.  It is C-contiguous, so that
    ``take`` walks it in order, and read-only."""
    lower = np.eye(dim + 1, dim, -1, dtype=int)[:, None]  # row 1 + k lowers column k
    tables = np.maximum(_exponents(dim) - lower, 0)
    points = 5 * dim * np.arange(n)[:, None] + 5 * np.arange(dim)[:, None, None, None]
    index = np.ascontiguousarray(points + np.moveaxis(tables, -1, 0)[:, :, None])
    index.flags.writeable = False
    return index


def _kernel(dim: int, forms: int, n: int):
    """f and its gradient at a stack of up to ``forms`` sets of n points, as
    one function (X, V, needed) -> (f, G) with X of shape (k, n, dim) for any
    k <= forms and V = ``_weights(C, E)`` for the k forms' coefficient rows C.

    One ``take`` through the cached ``_kernel_index`` gathers, from each
    form's power table ``X[..., None] ** arange(5)`` (a quartic's monomials
    use no other powers), the monomials M[:, s] of E_0 = E =
    ``_exponents(dim)`` and of each E_(1 + k), E with column k lowered by one
    (floored at 0).  Their factors are multiplied in x_1, x_2, ... order, so
    each equals ``np.prod(X ** E_s[m], axis=-1)`` bit for bit.  Then f = M[:,
    0] @ C and df/dx_k = M[:, 1 + k] @ (C * E[:, k]), each one BLAS mat-vec
    over a contiguous (n, m) matrix (``np.matmul`` makes one per form and
    table), which sums in a fixed order; G is made C-contiguous because numpy
    sums a row of a differently ordered array in another order.

    The power and factor buffers are the kernel's own, built once for the
    whole stack: k forms use their first k rows.  Powers 0 and 1 are exactly
    1 and X, so only powers 2 to 4 call ``pow``, and only for the points
    where ``needed`` (True, or a (k, n, 1, 1) mask) holds; f and G are
    meaningful only there.
    """
    index = _kernel_index(dim, n)
    factors = np.empty((forms,) + index.shape)  # reused: each call's product is a new array
    powers = np.ones((forms, n, dim, 5))

    def kernel(X, V, needed=True):
        k = len(X)
        P = powers[:k]
        P[..., 1] = X
        np.power(X[..., None], _HIGH_POWERS, out=P[..., 2:], where=needed)
        # The index is in range; "clip" spares take a buffered bounds check.
        F = np.take(P.reshape(k, -1), index, axis=1, out=factors[:k], mode="clip")
        R = np.matmul(np.multiply.reduce(F, axis=1), V)
        return R[:, 0, :, 0], R[:, 1:, :, 0].transpose(0, 2, 1).copy()

    return kernel


def _weights(C: np.ndarray, E: np.ndarray) -> np.ndarray:
    """The kernel's mat-vec vectors for coefficient rows C (forms, m): C, then
    C * E[:, k] for each k, shaped (forms, 1 + dim, m, 1)."""
    return np.concatenate([C[:, None], C[:, None] * E.T], axis=1)[..., None]


@functools.lru_cache(maxsize=8)
def _seeds(dim: int, n: int):
    """The seed grid of resolution n as two functions: values(C), the form
    with coefficient row C at every seed, and points(idx), the seeds numbered
    idx.  Only O(n) tables are built, once per ``(dim, n)``.

    The azimuths phi_j = pi j / n span a half-circle (f is even); A holds the
    monomials cos^a phi_j sin^b phi_j.  A binary's seeds are this circle, so
    values = A @ C.  A ternary's seed i n + j is (sin t_i cos phi_j, sin t_i
    sin phi_j, cos t_i) with t_i = pi (i + 1/2) / n, and seed n**2 is the pole
    (0, 0, 1).  There x^a y^b z^c = sin^k t cos^(4 - k) t cos^a phi sin^b phi
    with k = a + b, so the n**2 values are U @ Q with U[i, k] = sin^k t_i
    cos^(4 - k) t_i and Q[k] = sum over a + b = k of C cos^a phi sin^b phi;
    the pole's value is the z^4 weight.  A and U are built by the direct
    formula, C-contiguous: a mat-vec over another layout rounds differently.
    """
    E = _exponents(dim)
    azimuth = np.pi * np.arange(n) / n
    circle = np.stack([np.cos(azimuth), np.sin(azimuth)], axis=1)
    A = np.prod(circle[:, None] ** E[:, :2], axis=2)
    if dim == 2:
        return (lambda C: A @ C), (lambda idx: circle[idx])
    polar = np.pi * (np.arange(n) + 0.5) / n
    # Row n is the pole, t = 0: with j = 0 it gives (0, 0, 1).
    sin, cos = np.append(np.sin(polar), 0.0), np.append(np.cos(polar), 1.0)
    E2 = _exponents(2)  # U's columns are the binary monomials of (sin t, cos t)
    U = np.prod(np.stack([sin[:n], cos[:n]], axis=1)[:, None] ** E2, axis=2)
    degree = E2[:, :1] == E[:, 0] + E[:, 1]  # degree[k, m]: monomial m is in Q[k]
    [pole] = np.flatnonzero(E[:, 2] == 4)

    def values(C):
        out = np.empty(n * n + 1)
        np.matmul(U, (degree * C) @ A.T, out=out[:-1].reshape(n, n))
        out[-1] = C[pole]
        return out

    def points(idx):
        i, j = np.divmod(idx, n)
        return np.stack([sin[i] * circle[j, 0], sin[i] * circle[j, 1], cos[i]], axis=1)

    return values, points


def _lowest(values: np.ndarray, k: int, n: int = 0) -> np.ndarray:
    """``np.argsort(values, kind="stable")[:k]`` without sorting every value:
    the values at or below a bound with at least k values at or below it are
    sorted by (value, index).

    With n = 0 the bound is the k-th smallest value.  With n > 0, values[:n *
    n] is read as an n x n grid (a ternary's seeds, the pole after them), and
    the bound is the k-th smallest of its column minima and the values after
    the grid: each is a distinct value, so at least k values lie at or below
    it.  That bound is looser, so more values are sorted; it pays only while
    k is a small share of the columns, and a grid of fewer than 8k columns
    takes the k-th smallest value.
    """
    k = min(k, len(values))
    if n < 8 * k:
        pool = values
    else:
        pool = np.concatenate([values[:n * n].reshape(n, n).min(axis=0), values[n * n:]])
    candidates = np.flatnonzero(values <= np.partition(pool, k - 1)[k - 1])
    return candidates[np.argsort(values[candidates], kind="stable")][:k]


@functools.lru_cache(maxsize=2)
def _hessian_table(dim: int):
    """``(source, factor, pairs, lines)`` for the Hessian of a quartic, whose
    entries are quadratic forms.  With the index pairs k <= l listed in
    ``pairs`` (shape (2, P)), the p-th distinct entry is

        d2f/dx_k dx_l = sum_q C[source[p, q]] * factor[p, q] * x_i x_j

    for the p-th pair (k, l) and the q-th pair (i, j).  Each weight is one
    coefficient times an integer (or 0), so ``C[:, source] * factor`` gives
    every form's P x P weight matrix exactly.  ``lines`` numbers the rows of
    Hess f, then grad f, in the distinct entries followed by G: lines[k, l]
    is the p of (min(k, l), max(k, l)), and lines[dim, l] is P + l."""
    pairs = [(k, l) for k in range(dim) for l in range(k, dim)]
    source = np.zeros((len(pairs), len(pairs)), dtype=int)
    factor = np.zeros((len(pairs), len(pairs)))
    for m, e in enumerate(_exponents(dim)):
        for p, (k, l) in enumerate(pairs):
            low = e.copy()
            low[k] -= 1
            low[l] -= 1
            if low.min() >= 0:
                q = pairs.index(tuple(np.repeat(np.arange(dim), low)))
                source[p, q], factor[p, q] = m, e[k] * (e[l] - (k == l))
    lines = [[pairs.index((min(k, l), max(k, l))) for l in range(dim)] for k in range(dim)]
    return source, factor, np.array(pairs).T, np.vstack([lines, len(pairs) + np.arange(dim)])


def _tangent_basis(X: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the tangent space at each unit row of X, shaped
    (..., dim - 1, dim).  For dim 3 it is the branchless basis of Duff et al.,
    "Building an Orthonormal Basis, Revisited" (JCGT, 2017)."""
    B = np.empty(X.shape[:-1] + (X.shape[-1] - 1, X.shape[-1]))
    if X.shape[-1] == 2:
        B[..., 0, 0], B[..., 0, 1] = -X[..., 1], X[..., 0]
        return B
    x, y, z = X[..., 0], X[..., 1], X[..., 2]
    sign = np.copysign(1.0, z)
    a = -1.0 / (sign + z)
    b = x * y * a
    B[..., 0, 0], B[..., 0, 1], B[..., 0, 2] = 1.0 + sign * x * x * a, sign * b, -sign * x
    B[..., 1, 0], B[..., 1, 1], B[..., 1, 2] = b, sign + y * y * a, -y
    return B


def _direction(X, G, W, pairs, lines):
    """Each start's step direction D, its predicted decrease, the squared
    tangential gradient norm, and whether the step is Newton's.

    In tangent coordinates (basis B, r = B grad f) the Riemannian Hessian of
    f on the sphere is A = B (Hess f - (x . grad f) I) B^T (Absil, Mahony &
    Sepulchre, 2008).  Where A is positive definite the step solves A c = -r;
    elsewhere it is the gradient step c = -r.  Then D = B^T c and the
    decrease is -r . c, which is the Newton decrement or |r|^2.  The rows of
    Hess f and then grad f are gathered from the Hessian's distinct entries
    and G by ``lines`` (see ``_hessian_table``), so that B Hess f and r come
    from one product.  Every operation acts on one start at a time, with sums
    over short trailing axes in a fixed order, so a start's direction does
    not depend on the stack.
    """
    B = _tangent_basis(X)
    quadratic = X[..., pairs[0]] * X[..., pairs[1]]
    H = np.add.reduce(quadratic[:, :, None] * W[:, None], axis=3)
    HG = np.concatenate([H, G], axis=2)[..., lines]
    HB = np.add.reduce(HG[:, :, None] * B[:, :, :, None], axis=4)
    r = HB[..., -1]
    A = np.add.reduce(HB[:, :, :, None, :-1] * B[:, :, None], axis=4)
    radial = np.add.reduce(G * X, axis=2)
    if r.shape[2] == 1:
        a = A[..., 0, 0] - radial
        positive = a > 0
        c = -r / a[..., None]
    else:
        a, b, e = A[..., 0, 0] - radial, A[..., 0, 1], A[..., 1, 1] - radial
        det = a * e - b * b
        positive = (a > 0) & (det > 0)
        c = np.empty_like(r)
        c[..., 0] = (b * r[..., 1] - e * r[..., 0]) / det
        c[..., 1] = (b * r[..., 0] - a * r[..., 1]) / det
    g2 = np.add.reduce(r * r, axis=2)
    decrement = -np.add.reduce(r * c, axis=2)
    newton = positive & np.isfinite(decrement)
    D = np.add.reduce(np.where(newton[..., None], c, -r)[..., None] * B, axis=2)
    return D, np.where(newton, decrement, g2), g2, newton


def _refine(X, C):
    """Batch Riemannian Newton descent with backtracking line search, for a
    stack of forms: X holds each form's starts (forms, starts, dim), C one
    coefficient row per form.

    A start takes a Newton step where its tangent Hessian is positive definite
    and a gradient step elsewhere (see ``_direction``), each with Armijo
    backtracking.  Gradient steps keep an adaptive length (x1.5 on acceptance,
    x0.5 on rejection); Newton steps keep their own damping, which starts at
    1, halves on rejection and doubles up to 1 on acceptance.  Accepted steps
    never increase the objective.  A start freezes once its tangential
    gradient norm drops below ``_REFINE_TOL``, once its value has not strictly
    decreased for ``_STALL`` iterations, or, on a Newton step, once its
    decrement is at most ``_DECREMENT`` times sum |C| (which bounds |f| on the
    sphere); a form stops when all of its starts are frozen, or after
    ``_REFINE_ITERS`` iterations.  Each form keeps its own steps, damping,
    stall counts and line search, and only forms still refining or still
    backtracking are evaluated, so each form's results equal those of refining
    it alone, bit for bit.  Returns the points, their values and each form's
    number of iterations.

    Every array keeps one row per form still refining (``rows`` names it);
    the rows of forms that stop are written out and dropped.
    """
    forms, n, dim = X.shape
    kernel = _kernel(dim, forms, n)
    V = _weights(C, _exponents(dim))
    source, factor, pairs, lines = _hessian_table(dim)
    W = C[:, source] * factor
    resolution = _DECREMENT * np.add.reduce(np.abs(C), axis=1)

    def trial(X, D, scale, active, f, decrease, V):
        """Candidates, their values, gradients and acceptance.  A frozen start
        is never accepted, so its candidate is not evaluated."""
        cand = X + (scale * active)[:, :, None] * D
        cand /= np.sqrt(np.add.reduce(cand * cand, axis=2, keepdims=True))
        fc, Gc = kernel(cand, V, active[:, :, None, None])
        return cand, fc, Gc, active & (fc <= f - 1e-4 * scale * decrease)

    step = np.full((forms, n), 0.1)
    damping = np.ones((forms, n))
    lowered = np.zeros((forms, n), dtype=int)  # the last iteration that lowered each start
    rows = np.arange(forms)  # the form of each row still refining
    X_out, f_out = np.empty_like(X), np.empty((forms, n))
    iterations = np.empty(forms, dtype=int)
    done = 0
    # Overflow to inf/nan is tolerated here; minima_on_sphere has checked the
    # seed values.  Row norms use np.linalg.norm's own formula.  A singular
    # tangent Hessian divides by zero, and that start takes a gradient step.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f, G = kernel(X, V)
        while True:
            D, decrease, g2, newton = _direction(X, G, W, pairs, lines)
            active = ((g2 > _REFINE_TOL**2) & (lowered > done - _STALL)
                      & ~(newton & (decrease <= resolution[:, None])))
            running = active.any(axis=1)
            if done == _REFINE_ITERS:
                running[:] = False
            if not running.all():
                stopped = rows[~running]
                X_out[stopped], f_out[stopped] = X[~running], f[~running]
                iterations[stopped] = done
                if not running.any():
                    return X_out, f_out, iterations
                (X, f, G, D, decrease, newton, active, step, damping, lowered, V, W,
                 resolution, rows) = (
                    a[running] for a in (X, f, G, D, decrease, newton, active, step, damping,
                                         lowered, V, W, resolution, rows))
            done += 1
            scale = np.where(newton, damping, step)
            cand, fc, Gc, ok = trial(X, D, scale, active, f, decrease, V)
            if not ok.any(axis=1).all():
                # A form none of whose starts was accepted halves their step
                # lengths and damping and tries again, at most 60 times in
                # all.  ok implies active, so a form searches on when it has
                # an active but no accepted start.
                for attempt in range(1, 61):
                    search = active.any(axis=1) > ok.any(axis=1)
                    if not search.any():
                        break
                    active &= search[:, None]  # a form done searching keeps its step
                    scale = np.where(active, scale / 2, scale)
                    active &= scale > 1e-18
                    if attempt == 60:
                        break
                    s = np.flatnonzero(search)
                    cand[s], fc[s], Gc[s], ok[s] = trial(
                        X[s], D[s], scale[s], active[s], f[s], decrease[s], V[s])
            accepted = ok[:, :, None]
            X = np.where(accepted, cand, X)
            G = np.where(accepted, Gc, G)  # the gradient at the accepted points
            lowered = np.where(ok & (fc < f), done, lowered)
            f = np.where(ok, fc, f)
            grown = np.where(newton, np.minimum(2 * scale, 1.0), 1.5 * scale)
            scale = np.minimum(np.maximum(np.where(ok, grown, scale / 2), 1e-18), 1e3)
            step = np.where(newton, step, scale)
            damping = np.where(newton, scale, damping)


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
    C = np.stack([_float_terms(T) for T in tensors])
    values, points = _seeds(dim, cfg.grid_resolution)
    grid = cfg.grid_resolution if dim == 3 else 0  # _lowest screens a ternary's n x n grid
    starts = []
    for row in C:
        # Every monomial is at most 1 in magnitude on the sphere, as are the
        # rounded seed tables, so no value exceeds sum |C| by more than its
        # rounding: only a form near the float64 limit needs the scan.
        with np.errstate(over="ignore", invalid="ignore"):
            v = values(row)
            bounded = np.add.reduce(np.abs(row)) < 2.0**1020
        if not bounded and not np.all(np.isfinite(v)):
            raise NonFiniteValue(_OVERFLOW)
        starts.append(points(_lowest(v, cfg.starts, grid)))
    X, f, iterations = _refine(np.stack(starts), C)
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
