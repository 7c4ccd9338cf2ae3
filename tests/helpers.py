"""Exact reference routines the tests compare the package against.

``gradient`` is the term-by-term gradient of a quartic form, the reference
for the oracle's vectorized gradient and for the Euler identity.
``transform`` relabels a ternary tensor entry by entry, the reference for the
sign-bit relabelings of ``qpd.ternary``.
``rewrite_forms`` evaluates a sign-class form along four algebraic routes
other than ``qpd.tensors.evaluate``.
"""
from collections import Counter
from typing import Sequence

from qpd.tensors import MULTI_INDICES, Quartic, Scalar, TernaryQuartic, Vector, check_dim
from qpd.ternary import validate_class


def gradient(T: Quartic, x: Sequence[Scalar]) -> Vector:
    """Gradient of the quartic form at x; component k is
    4 * sum of t_{k,i2,i3,i4} x_{i2} x_{i3} x_{i4}."""
    check_dim(T, x)
    g: list[Scalar] = [0] * T.dim
    for midx, w, c in T.terms():
        if c == 0:
            continue
        counts = Counter(midx)
        for i, e in counts.items():
            mono: Scalar = e
            for j, ej in counts.items():
                mono = mono * x[j - 1] ** (ej - (1 if j == i else 0))
            g[i - 1] = g[i - 1] + w * c * mono
    return tuple(g)


def transform(T: TernaryQuartic, perm: tuple[int, int, int], signs: tuple[int, int, int]) -> TernaryQuartic:
    """The tensor of x -> T(y) with y_{perm[i]} = signs[i] * x_i.

    perm is a permutation of (1,2,3) given as the images of (1,2,3).
    """
    pm = {1: perm[0], 2: perm[1], 3: perm[2]}
    coeffs = []
    for midx in MULTI_INDICES[3]:
        sgn = 1
        for i in midx:
            sgn *= signs[i - 1]
        coeffs.append(sgn * T.coeff(pm[i] for i in midx))
    return TernaryQuartic(tuple(coeffs))


# The four expansion centers used by the rewriting identities.
_REWRITE_SIGNS = ((1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1))


def rewrite_forms(T: TernaryQuartic, x: Sequence[Scalar]) -> list[Scalar]:
    """Evaluate the four (sum-of-signed-variables)^4 rewritings of the form.

    Only valid for tensors in the unit-entry class with antisymmetric cubic
    pairing (see :func:`qpd.ternary.validate_class`); each returned value
    equals ``evaluate(T, x)``, computed along a different algebraic route.
    """
    validate_class(T)  # raises NotInClass otherwise
    check_dim(T, x)
    x1, x2, x3 = x
    values = []
    for s in _REWRITE_SIGNS:
        v = (s[0] * x1 + s[1] * x2 + s[2] * x3) ** 4
        for i, j in ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)):
            t = T.coeff((i, i, i, j))
            v = v + 4 * (t - s[i - 1] * s[j - 1]) * x[i - 1] ** 3 * x[j - 1]
        for i, j in ((1, 2), (1, 3), (2, 3)):
            t = T.coeff((i, i, j, j))
            v = v + 6 * (t - 1) * x[i - 1] ** 2 * x[j - 1] ** 2
        for i, j, k in ((1, 2, 3), (2, 1, 3), (3, 1, 2)):
            t = T.coeff((i, i, j, k))
            v = v + 12 * (t - s[j - 1] * s[k - 1]) * x[i - 1] ** 2 * x[j - 1] * x[k - 1]
        values.append(v)
    return values
