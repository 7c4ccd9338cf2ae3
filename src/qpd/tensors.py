"""Symmetric quartic tensors (degree-4 forms) in two and three variables.

Storage is by sorted multi-index; the multinomial multiplicity is applied at
evaluation time, so index symmetry is structural rather than enforced by
copying entries around.  The multi-indices, multiplicities and exponent
vectors of each dimension are tables built once at import.  Arithmetic is
exact: an int, a Fraction or any other real number is read at its exact value
(a float of any width or a Decimal through ``as_integer_ratio``), and
``evaluate`` always returns a :class:`fractions.Fraction`.

Exact evaluation clears denominators and sums in integers: each tensor keeps
its weighted coefficients scaled by the lcm D of their denominators, a point x
is scaled by the lcm L of its denominators to an integer vector n = L*x, and
since the form is homogeneous of degree 4, f(x) = f_D(n) / (D * L**4) with one
Fraction built at the end.
"""
from __future__ import annotations

import functools
import json
import math
import numbers
import operator
import re
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterator, Mapping, Sequence, Tuple, Union

Scalar = Union[int, Fraction, float]
MultiIndex = Tuple[int, int, int, int]
Vector = Tuple[Scalar, ...]

ORDER = 4


class TensorError(Exception):
    """Base class for tensor construction and evaluation errors."""


class BadArity(TensorError):
    """An entry key is not a 4-tuple."""


class BadIndex(TensorError):
    """An index lies outside {1..dim}."""


class ConflictingEntries(TensorError):
    """Two permutation-equivalent keys were given different values."""


class DimensionMismatch(TensorError):
    """A vector's dimension does not match the tensor's."""


class ParseError(TensorError):
    """A tensor file does not conform to the JSON tensor format."""


class TooManyDigits(TensorError):
    """A rational has more digits than the interpreter converts to a string."""


def parse_scalar(value: Union[str, int, float, Fraction]) -> Fraction:
    """Coerce a user-supplied value to an exact rational.

    Strings like ``"11/6"`` or ``"2.5"`` become exact rationals, and any
    other value is read by ``_exact``: a float at its exact binary value
    (``0.1`` is 3602879701896397/2**55), and a bool, inf or nan refused.
    """
    if isinstance(value, str):
        try:
            return _decimal(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise TensorError(f"cannot parse scalar {value!r}") from exc
    return Fraction(_exact(value))


def _exact(value):
    """A coefficient as a quartic stores it: an int or a Fraction as it is,
    any other integral value (numpy's ``int64``, say, which has no
    ``as_integer_ratio``) as an int, and anything else as the Fraction of its
    ``as_integer_ratio``, so a float of any width or a Decimal at its exact
    value.  A bool (numpy's, of dtype kind "b", too), inf, nan and a value
    that is not a number are refused."""
    if type(value) in (int, Fraction):  # nothing to check or convert
        return value
    if isinstance(value, bool) or getattr(getattr(value, "dtype", None), "kind", "") == "b":
        raise TensorError(f"boolean is not a valid coefficient: {value!r}")
    if isinstance(value, numbers.Integral):
        return operator.index(value)
    try:
        return Fraction(*value.as_integer_ratio())
    except (AttributeError, OverflowError, ValueError) as exc:
        raise TensorError(f"coefficient is not a finite number: {value!r}") from exc


def _digit_limit() -> int:
    """The most decimal digits the interpreter converts between an int and a
    string (``sys.get_int_max_str_digits()``); 0 means no limit, as on
    interpreters older than 3.10.7, which have no such function."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _too_many_digits(limit: int) -> TooManyDigits:
    return TooManyDigits(f"number has more than {limit} digits, "
                         "the interpreter's limit for printing an integer")


def _decimal(text: str) -> Fraction:
    """``Fraction(text)``, but a decimal exponent too large for the digit limit
    is refused before its power of ten is built.

    The value is M * 10**(e - k) for a mantissa M of at most len(mantissa)
    digits and k < len(mantissa) fraction digits, so once |e| exceeds
    limit + len(mantissa) a nonzero value has a numerator or a reduced
    denominator beyond the limit.
    """
    mantissa, e, exponent = text.strip().lower().rpartition("e")
    limit = _digit_limit()
    if (e and limit and re.fullmatch(r"[-+]?[0-9]+", exponent)
            and abs(int(exponent)) > limit + len(mantissa)):
        if Fraction(mantissa) != 0:
            raise _too_many_digits(limit)
        return Fraction(0)
    return Fraction(text)


def multiplicity(midx: MultiIndex) -> int:
    """Number of index permutations collapsing onto a sorted multi-index."""
    denom = 1
    for count in Counter(midx).values():
        denom *= math.factorial(count)
    return math.factorial(ORDER) // denom


# Term tables per dimension, in storage order: the sorted multi-indices, their
# multiplicities, and their exponent vectors (EXPONENTS[dim][m][j] is the power
# of x_{j+1} in the m-th monomial).
MULTI_INDICES = {
    dim: tuple(combinations_with_replacement(range(1, dim + 1), ORDER)) for dim in (2, 3)
}
MULTIPLICITIES = {dim: tuple(map(multiplicity, idx)) for dim, idx in MULTI_INDICES.items()}
EXPONENTS = {
    dim: tuple(tuple(m.count(j) for j in range(1, dim + 1)) for m in idx)
    for dim, idx in MULTI_INDICES.items()
}
# POSITIONS[dim][m] is the storage position of the sorted multi-index m.
POSITIONS = {dim: {m: p for p, m in enumerate(idx)} for dim, idx in MULTI_INDICES.items()}


def _canonical_key(key, dim: int) -> MultiIndex:
    if not isinstance(key, tuple) or len(key) != ORDER:
        raise BadArity(f"entry key must be a 4-tuple, got {key!r}")
    for i in key:
        if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= dim:
            raise BadIndex(f"index {i!r} outside 1..{dim} in key {key!r}")
    return tuple(sorted(key))


class _QuarticTerms:
    """Term iteration and the exact integer form, shared by both quartic
    classes; ``coeffs`` holds the coefficients in ``MULTI_INDICES[dim]`` order.
    A bool, inf or nan coefficient is refused at construction, a float (of
    any width) or a Decimal is stored as the Fraction of its exact value and
    an integral numpy scalar as an int (see ``_exact``), so that every
    decision on the coefficients is exact.
    The fields are rewritten through ``object.__setattr__``, since the
    dataclasses are frozen."""

    def __post_init__(self):
        exact = tuple(map(_exact, self.coeffs))
        # TernaryQuartic keeps one field, the tuple; BinaryQuartic one per coefficient.
        fields = (exact,) if self.dim == 3 else exact
        for name, value in zip(self.__dataclass_fields__, fields):
            object.__setattr__(self, name, value)

    def terms(self) -> Iterator[tuple[MultiIndex, int, Scalar]]:
        return zip(MULTI_INDICES[self.dim], MULTIPLICITIES[self.dim], self.coeffs)

    def coeff(self, midx) -> Scalar:
        """The coefficient of the multi-index midx, in any index order."""
        return self.coeffs[POSITIONS[self.dim][tuple(sorted(midx))]]

    @functools.cached_property
    def integer_coeffs(self) -> tuple[int, tuple[int, ...]]:
        """``(D, k)``: D is the lcm of the coefficient denominators and k the
        coefficients scaled to integers k_m = c_m * D, as ``integer_point``
        scales a point."""
        return integer_point(self.coeffs)

    @functools.cached_property
    def integer_form(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """``(D, rows)``: each nonzero scaled coefficient k_m of
        ``integer_coeffs`` gives a row ``(multiplicity * k_m, *exponents)``, so
        f(x) = sum_m multiplicity * k_m x^e_m / D."""
        D, scaled = self.integer_coeffs
        rows = tuple(
            (w * k, *e)
            for e, w, k in zip(EXPONENTS[self.dim], MULTIPLICITIES[self.dim], scaled)
            if k != 0
        )
        return D, rows


@dataclass(frozen=True)
class BinaryQuartic(_QuarticTerms):
    """The 5 independent coefficients of a symmetric quartic in two variables.

    The expanded form is
    t1111*x1^4 + 4*t1112*x1^3*x2 + 6*t1122*x1^2*x2^2 + 4*t1222*x1*x2^3 + t2222*x2^4.
    """

    t1111: Scalar
    t1112: Scalar
    t1122: Scalar
    t1222: Scalar
    t2222: Scalar

    dim = 2

    @property
    def coeffs(self) -> Tuple[Scalar, ...]:
        return (self.t1111, self.t1112, self.t1122, self.t1222, self.t2222)


@dataclass(frozen=True)
class TernaryQuartic(_QuarticTerms):
    """The 15 independent coefficients of a symmetric quartic in three
    variables, kept as a tuple (any sequence is accepted), so that the
    tensor is hashable."""

    coeffs: Tuple[Scalar, ...]

    dim = 3

    def __post_init__(self):
        if len(self.coeffs) != 15:
            raise TensorError(f"expected 15 coefficients, got {len(self.coeffs)}")
        super().__post_init__()


Quartic = Union[BinaryQuartic, TernaryQuartic]


def build_tensor(dim: int, entries: Mapping[Sequence[int], Scalar]) -> Quartic:
    """Build the canonical symmetric tensor from (possibly unsorted) entries.

    Permutation-equivalent keys must agree; missing multi-indices default to 0.
    """
    if dim not in (2, 3):
        raise TensorError(f"dimension must be 2 or 3, got {dim}")
    canonical: dict[MultiIndex, Scalar] = {}
    first_key: dict[MultiIndex, object] = {}
    for key, value in entries.items():
        ckey = _canonical_key(tuple(key), dim)
        value = parse_scalar(value)
        if ckey in canonical:
            if canonical[ckey] != value:
                raise ConflictingEntries(
                    f"keys {first_key[ckey]!r} and {tuple(key)!r} are permutations "
                    f"of each other but have values {canonical[ckey]} != {value}"
                )
        else:
            canonical[ckey] = value
            first_key[ckey] = tuple(key)
    coeffs = [Fraction(0)] * len(MULTI_INDICES[dim])
    for ckey, value in canonical.items():
        coeffs[POSITIONS[dim][ckey]] = value
    return BinaryQuartic(*coeffs) if dim == 2 else TernaryQuartic(tuple(coeffs))


def check_dim(T: Quartic, x: Sequence[Scalar]) -> None:
    if len(x) != T.dim:
        raise DimensionMismatch(f"vector of length {len(x)} against dim-{T.dim} tensor")


def evaluate(T: Quartic, x: Sequence[Scalar]) -> Fraction:
    """The quartic form at x as an exact Fraction, a float coefficient or
    coordinate counted at its exact binary value.  The one place that scales
    a rational point: f(x) = N / (D * L**4) for ``(L, n) = integer_point(x)``
    and N the numerator of ``exact_numerators`` at n."""
    check_dim(T, x)
    form = T.integer_form
    L, n = integer_point(x)
    (total,) = exact_numerators((form,), n)
    return Fraction(total, form[0] * L**4)


def integer_point(x: Sequence[Scalar]) -> tuple[int, tuple[int, ...]]:
    """``(L, n)`` for a point x, each coordinate read by ``as_integer_ratio``:
    L is the lcm of x's denominators and n is the integer vector L*x."""
    ratios = [v.as_integer_ratio() for v in x]
    L = math.lcm(*(d for _, d in ratios))
    return L, tuple(p * (L // d) for p, d in ratios)


def exact_numerators(forms, n: Sequence[int]) -> list[int]:
    """``[N_t]`` for integer forms ``(D_t, rows_t)`` (see ``integer_form``) at
    an integer vector n, f_t(n) = N_t / D_t: each form sums its rows k_m n^e_m
    over the same powers of n.  A rational point goes through ``evaluate``."""
    powers = []
    for v in n:
        v2 = v * v
        powers.append((1, v, v2, v2 * v, v2 * v2))
    totals = []
    if len(powers) == 2:
        p, q = powers
        for _, rows in forms:
            total = 0
            for k, a, b in rows:
                total += k * p[a] * q[b]
            totals.append(total)
    else:
        p, q, r = powers
        for _, rows in forms:
            total = 0
            for k, a, b, c in rows:
                total += k * p[a] * q[b] * r[c]
            totals.append(total)
    return totals


# ---------------------------------------------------------------------------
# JSON tensor file format:
#   {"dim": 2|3, "order": 4, "entries": {"1123": value, ...}}
# keys are 4-character digit strings with non-decreasing digits; values are
# JSON numbers or "p/q" strings.

_TOP_KEYS = {"dim", "order", "entries"}
# _KEY_POSITIONS[dim] maps each valid entry key, the digits of a sorted
# multi-index, to its storage position.
_KEY_POSITIONS = {
    dim: {"".join(map(str, m)): p for m, p in positions.items()}
    for dim, positions in POSITIONS.items()
}


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict; a key given twice, at any level, is an error
    rather than a silent choice of its last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ParseError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def tensor_from_json(text: str) -> Quartic:
    """Parse the JSON tensor format.  Raises ParseError on any deviation.

    Each entry is checked once, its key by one lookup in ``_KEY_POSITIONS``
    (``_unique_keys`` has refused a repeated key), and its value goes straight
    to its place in the coefficient tuple; ``build_tensor`` is the
    constructor for entries given in code."""
    try:
        doc = json.loads(text, parse_float=_decimal, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # also an integer literal beyond the digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    except TooManyDigits as exc:
        raise ParseError(str(exc)) from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ParseError(f"unknown top-level keys: {sorted(unknown)}")
    missing = _TOP_KEYS - set(doc)
    if missing:
        raise ParseError(f"missing keys: {sorted(missing)}")
    dim, order, entries = doc["dim"], doc["order"], doc["entries"]
    if dim not in (2, 3):
        raise _top_level_error("dim", "2 or 3", dim)
    if order != ORDER:
        raise _top_level_error("order", "4", order)
    if not isinstance(entries, dict):
        raise ParseError('"entries" must be an object')
    positions, limit = _KEY_POSITIONS[dim], _digit_limit()
    coeffs = [Fraction(0)] * len(positions)
    for key, value in entries.items():
        p = positions.get(key)
        if p is None:
            raise _key_error(key, dim)
        if not isinstance(value, (int, Fraction, str)) or isinstance(value, bool):
            raise ParseError(f"entry {key!r} has a non-numeric value {value!r}")
        try:
            coeffs[p] = _check_digits(parse_scalar(value), limit)
        except TensorError as exc:
            raise ParseError(f"entry {key!r}: {exc}") from exc
    return BinaryQuartic(*coeffs) if dim == 2 else TernaryQuartic(tuple(coeffs))


def _top_level_error(name: str, expected: str, value) -> ParseError:
    """The error for a "dim" or "order" that is not as expected.  A JSON
    decimal, read as a Fraction, is shown as ``format_scalar`` renders it,
    and any other value by its repr."""
    try:
        shown = str(format_scalar(value)) if isinstance(value, Fraction) else repr(value)
    except TooManyDigits as exc:
        return ParseError(f'"{name}": {exc}')
    return ParseError(f'"{name}" must be {expected}, got {shown}')


def _key_error(key: str, dim: int) -> ParseError:
    """Why ``key`` is not in ``_KEY_POSITIONS[dim]``: the first of its three
    rules (four ASCII digits, each in 1..dim, non-decreasing) that it breaks."""
    if not (len(key) == ORDER and key.isascii() and key.isdigit()):
        return ParseError(f"entry key {key!r} is not a 4-digit string")
    if any(not 1 <= int(ch) <= dim for ch in key):
        return ParseError(f"entry key {key!r} has an index outside 1..{dim}")
    return ParseError(f"entry key {key!r} must have non-decreasing digits")


def load_tensor(path) -> Quartic:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc}") from exc
    return tensor_from_json(text)


def _check_digits(value: Union[int, Fraction], limit: int) -> Union[int, Fraction]:
    """value, unless its numerator or denominator has more decimal digits than
    the interpreter converts to a string (``limit``, from ``_digit_limit()``)."""
    for n in value.as_integer_ratio():
        n = abs(n)
        # 2**(3*limit) < 10**limit settles most n without building 10**limit.
        if limit and n.bit_length() > 3 * limit and n >= 10**limit:
            raise _too_many_digits(limit)
    return value


def format_scalar(value: Union[int, Fraction]):
    """JSON-friendly rendering of an exact rational: a "p/q" string, or a
    plain int when the denominator is 1.  Raises TooManyDigits for a rational
    the interpreter cannot print."""
    _check_digits(value, _digit_limit())
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"
