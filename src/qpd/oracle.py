"""Numeric verification: global minimization of the quartic form on the unit
sphere, with exact confirmation of negative minima at rationalized points.

By homogeneity the sign of the sphere minimum decides everything: min > 0
means PD, min = 0 at a nonzero point means PSD on the boundary, min < 0
refutes PSD.  The method is a dense angular seed grid (a hemisphere, since
the form is even) followed by multi-start projected gradient descent with
backtracking, all in float64 via numpy.

The seed grid and its monomial matrix depend only on the dimension and the
grid resolution, so they are built once per ``(dim, grid_resolution)`` and
cached (read-only); the seed values of a tensor are then one matrix-vector
product with its coefficient vector.

Every monomial and gradient entry is gathered from one power table
``X[i, j] ** e`` (e = 0..4) per point set, so a refinement step makes
n * dim * 5 ``pow`` calls instead of one per monomial entry; the products and
mat-vecs keep the order of the direct formulas, so results are unchanged bit
for bit.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .tensors import Quartic, Scalar, Vector, evaluate, multi_indices
from .verdicts import Classification


class NonFiniteValue(Exception):
    """Coefficients or seed values overflowed float64 to inf/nan."""


_OVERFLOW = "tensor coefficients overflow float64 evaluation"


class NumericVerdict(enum.Enum):
    PD = "PD"
    BOUNDARY_PSD = "BoundaryPSD"
    NOT_PSD = "NotPSD"


@dataclass(frozen=True)
class OracleConfig:
    grid_resolution: int = 256
    starts: int = 32
    refine_iters: int = 500
    refine_tol: float = 1e-12
    verdict_tol: float = 1e-8
    max_denominator: int = 10**6

    def __post_init__(self):
        if self.grid_resolution < 8:
            raise ValueError("grid_resolution must be >= 8")
        if not (self.verdict_tol > 0 and self.refine_tol > 0):  # rejects NaN too
            raise ValueError("tolerances must be positive")
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


def _exponents(dim: int) -> np.ndarray:
    """Exponent matrix E[m, j] = power of x_j in the m-th monomial, in the
    order of ``multi_indices(dim)`` (the order ``T.terms()`` yields)."""
    return np.asarray([[midx.count(j + 1) for j in range(dim)] for midx in multi_indices(dim)])


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


def _powers(X: np.ndarray) -> np.ndarray:
    """Power table P[i, j, e] = X[i, j] ** e for e = 0..4, the only powers a
    quartic's monomials use."""
    return X[:, :, None] ** np.arange(5)


def _monomials(P: np.ndarray, E: np.ndarray) -> np.ndarray:
    """M[..., i, m] = prod_j X[i, j] ** E[..., m, j], gathered from the power
    table P of X.

    The factors are multiplied in ``np.prod``'s order (x_1's, then x_2's, ...),
    so M equals ``np.prod(X[:, None, :] ** E, axis=-1)`` bit for bit.  M is
    made C-contiguous because the gather is not, and BLAS sums a mat-vec over
    a differently ordered matrix in a different order.
    """
    M = P[:, 0, E[..., 0]]
    for j in range(1, E.shape[-1]):
        M = M * P[:, j, E[..., j]]
    return np.ascontiguousarray(np.moveaxis(M, 0, -2))


def _values(P: np.ndarray, C: np.ndarray, E: np.ndarray) -> np.ndarray:
    # Overflow to inf/nan is tolerated here; callers reject non-finite values.
    with np.errstate(over="ignore", invalid="ignore"):
        return _monomials(P, E) @ C


def _gradient(P: np.ndarray, Ek: np.ndarray, W: np.ndarray) -> np.ndarray:
    mono = _monomials(P, Ek)
    G = np.empty(P.shape[:2])
    for k in range(len(W)):
        G[:, k] = mono[k] @ W[k]
    return G


def _eval_batch(X: np.ndarray, C: np.ndarray, E: np.ndarray) -> np.ndarray:
    """f at each row of X."""
    return _values(_powers(X), C, E)


def _grad_tables(C: np.ndarray, E: np.ndarray):
    """Per-coordinate exponent table Ek[k] (E with column k lowered by one,
    floored at 0) and weights W[k] = C * E[:, k], so that
    df/dx_k = prod_j x_j ** Ek[k, m, j] @ W[k]."""
    dim = E.shape[1]
    Ek = np.repeat(E[None], dim, axis=0)
    for k in range(dim):
        Ek[k, :, k] = np.maximum(Ek[k, :, k] - 1, 0)
    return Ek, E.T * C


def _grad_batch(X: np.ndarray, Ek: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The gradient at each row of X."""
    return _gradient(_powers(X), Ek, W)


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
    M = _monomials(_powers(seeds), _exponents(dim))
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


def _refine(X, C, E, iters, tol):
    """Batch projected gradient descent with backtracking line search.

    Accepted steps never increase the objective; points stop once their
    tangential gradient norm drops below tol.
    """
    P = _powers(X)  # carried along with X, so each iteration builds one table
    f = _values(P, C, E)
    Ek, W = _grad_tables(C, E)
    step = np.full(len(X), 0.1)
    for _ in range(iters):
        G = _gradient(P, Ek, W)
        Gt = G - np.sum(G * X, axis=1, keepdims=True) * X
        gnorm = np.linalg.norm(Gt, axis=1)
        active = gnorm > tol
        if not active.any():
            break
        for _bt in range(60):
            cand = X - (step * active)[:, None] * Gt
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            Pc = _powers(cand)
            fc = _values(Pc, C, E)
            ok = active & (fc <= f - 1e-4 * step * gnorm**2)
            if ok.any() or not active.any():
                break
            step = np.where(active, step / 2, step)
            active = active & (step > 1e-18)
        X = np.where(ok[:, None], cand, X)
        P = np.where(ok[:, None, None], Pc, P)
        f = np.where(ok, fc, f)
        step = np.where(ok, step * 1.5, step / 2)
        step = np.clip(step, 1e-18, 1e3)
    return X, f


def min_on_sphere(T: Quartic, cfg: OracleConfig = OracleConfig()) -> OracleResult:
    """Approximate global minimum of the form on the unit sphere."""
    C, E = _float_terms(T)
    seeds, M = _seed_table(T.dim, cfg.grid_resolution)
    with np.errstate(over="ignore", invalid="ignore"):
        values = M @ C
    if not np.all(np.isfinite(values)):
        raise NonFiniteValue(_OVERFLOW)
    order = _lowest(values, cfg.starts)
    X, f = _refine(seeds[order], C, E, cfg.refine_iters, cfg.refine_tol)
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
        min_value, tuple(float(v) for v in argmin), verdict, confirmed, witness
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
    analytic_class: Classification
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
        return AgreementReport(cls, result, "n/a")
    if result.verdict is expected:
        agreement = "agree"
    elif abs(result.min_value) <= 10 * cfg.verdict_tol:
        agreement = "inconclusive"
    else:
        agreement = "conflict"
    return AgreementReport(cls, result, agreement)
