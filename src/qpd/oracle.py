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

Refinement evaluates f and its gradient together, in one kernel built per
``_refine`` call: a precomputed flat index gathers every monomial of f and of
each df/dx_k from one power table ``X[i, j] ** e`` (e = 0..4) with one
``take``, and the gathered factors are multiplied in x_1, x_2, ... order.  f
and each df/dx_k are then one mat-vec over a contiguous (n, m) matrix, so
products and sums keep the order of the direct formulas and the results equal
theirs bit for bit.  A backtracking candidate is evaluated once, and the
gradient of an accepted point is carried into the next iteration.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .tensors import EXPONENTS, Quartic, Vector, evaluate
from .verdicts import Classification


class NonFiniteValue(Exception):
    """Coefficients or seed values overflowed float64 to inf/nan."""


_OVERFLOW = "tensor coefficients overflow float64 evaluation"

# Refinement (see _refine): a start freezes after _STALL iterations without a
# strict decrease of its value, or once its tangential gradient norm drops
# below _REFINE_TOL; at most _REFINE_ITERS iterations run.
_STALL = 10
_REFINE_TOL = 1e-12
_REFINE_ITERS = 500


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
    try:
        C = np.asarray([w * float(c) for _, w, c in T.terms()])
    except OverflowError:  # float(Fraction) beyond the float64 range
        raise NonFiniteValue(_OVERFLOW) from None
    if not np.all(np.isfinite(C)):
        raise NonFiniteValue(_OVERFLOW)
    return C, _exponents(T.dim)


def _gather(tables: np.ndarray, n: int):
    """The monomials of n points, as a function X -> M with
    M[s, i, m] = prod_j X[i, j] ** tables[s, m, j], C-contiguous.

    Every entry is gathered by one ``take`` with an index built here, from the
    power table ``X[:, :, None] ** arange(5)`` (a quartic's monomials use no
    other powers), and the factors are multiplied in x_1, x_2, ... order, so
    M[s] equals ``np.prod(X[:, None, :] ** tables[s], axis=-1)`` bit for bit.
    """
    dim = tables.shape[-1]
    starts = 5 * (dim * np.arange(n) + np.arange(dim)[:, None])  # of X[i, j]'s powers
    index = starts[:, None, :, None] + np.moveaxis(tables, -1, 0)[:, :, None, :]
    factors = np.empty(index.shape)  # reused: each call's M is a new array
    # The index is in range; "clip" spares take a buffered bounds check.
    return lambda X: np.multiply.reduce(
        (X[:, :, None] ** np.arange(5)).take(index, out=factors, mode="clip"), axis=0)


def _kernel(C: np.ndarray, E: np.ndarray, n: int):
    """f and its gradient at n points, as one function X -> (f, G).

    One gather gives the monomials of E and of E with column k lowered by
    one (floored at 0) for each k, so f = M[0] @ C and df/dx_k = M[1 + k] @
    W[k] with W[k] = C * E[:, k].  Each is one BLAS mat-vec over a contiguous
    (n, m) matrix (``np.matmul`` makes one per k), which sums in a fixed
    order, and G is made C-contiguous because numpy sums a row of a
    differently ordered array in another order.
    """
    dim = E.shape[1]
    lower = np.eye(dim + 1, dim, -1, dtype=int)[:, None]  # row 1 + k lowers column k
    monomials = _gather(np.maximum(E - lower, 0), n)
    W = E.T * C

    def kernel(X):
        M = monomials(X)
        return M[0] @ C, np.matmul(M[1:], W[:, :, None])[..., 0].T.copy()

    return kernel


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
    # In blocks of rows, so that no gather index spans the whole grid.
    blocks = [seeds[i:i + 4096] for i in range(0, len(seeds), 4096)]
    M = np.concatenate([_gather(E, len(b))(b)[0] for b in blocks])
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
    """Batch projected gradient descent with backtracking line search.

    Accepted steps never increase the objective.  A start freezes once its
    tangential gradient norm drops below ``_REFINE_TOL`` or once its value has
    not strictly decreased for ``_STALL`` iterations; the loop ends when every
    start is frozen, or after ``_REFINE_ITERS`` iterations.  Returns the
    points, their values and the number of iterations run.
    """
    kernel = _kernel(C, E, len(X))
    step = np.full(len(X), 0.1)
    stall = np.zeros(len(X), dtype=int)
    iterations = 0
    # Overflow to inf/nan is tolerated here; min_on_sphere has checked the
    # seed values.  Row norms use np.linalg.norm's own formula.
    with np.errstate(over="ignore", invalid="ignore"):
        f, G = kernel(X)
        while iterations < _REFINE_ITERS:
            Gt = G - np.add.reduce(G * X, axis=1, keepdims=True) * X
            gnorm = np.sqrt(np.add.reduce(Gt * Gt, axis=1))
            active = (gnorm > _REFINE_TOL) & (stall < _STALL)
            if not active.any():
                break
            iterations += 1
            for _bt in range(60):
                cand = X - (step * active)[:, None] * Gt
                cand /= np.sqrt(np.add.reduce(cand * cand, axis=1, keepdims=True))
                fc, Gc = kernel(cand)
                ok = active & (fc <= f - 1e-4 * step * gnorm**2)
                if ok.any() or not active.any():
                    break
                step = np.where(active, step / 2, step)
                active = active & (step > 1e-18)
            X = np.where(ok[:, None], cand, X)
            G = np.where(ok[:, None], Gc, G)  # the gradient at the accepted points
            stall = np.where(ok & (fc < f), 0, stall + 1)
            f = np.where(ok, fc, f)
            step = np.where(ok, step * 1.5, step / 2)
            step = np.minimum(np.maximum(step, 1e-18), 1e3)
    return X, f, iterations


@functools.lru_cache(maxsize=1)
def min_on_sphere(T: Quartic, cfg: OracleConfig = OracleConfig()) -> OracleResult:
    """Approximate global minimum of the form on the unit sphere.

    The last result is kept, so a caller that asks again about the same tensor
    and config (the binary classifier's witness search, then the CLI's
    cross-check) reuses it instead of searching twice.
    """
    C, E = _float_terms(T)
    seeds, M = _seed_table(T.dim, cfg.grid_resolution)
    with np.errstate(over="ignore", invalid="ignore"):
        values = M @ C
    if not np.all(np.isfinite(values)):
        raise NonFiniteValue(_OVERFLOW)
    order = _lowest(values, cfg.starts)
    X, f, iterations = _refine(seeds[order], C, E)
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


def verify_verdict(T: Quartic, analytic, cfg: OracleConfig = OracleConfig()) -> AgreementReport:
    """Run the oracle and compare against an analytic verdict.

    ``analytic`` is a Verdict, ClassVerdict, or Classification.  Disagreements
    whose numeric minimum sits within 10x the verdict band of the boundary are
    reported as inconclusive rather than conflicts.
    """
    cls = analytic if isinstance(analytic, Classification) else analytic.classification
    result = min_on_sphere(T, cfg)
    expected = _EXPECTED.get(cls)
    if expected is None:
        return AgreementReport(result, "n/a")
    if result.verdict is expected:
        agreement = "agree"
    elif abs(result.min_value) <= 10 * cfg.verdict_tol:
        agreement = "inconclusive"
    else:
        agreement = "conflict"
    return AgreementReport(result, agreement)
