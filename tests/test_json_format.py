import json
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpd.tensors import (MULTI_INDICES, ParseError, build_tensor, format_scalar, load_tensor,
                         tensor_from_json)


GOOD = {
    "dim": 2,
    "order": 4,
    "entries": {"1111": 1, "1112": "1/2", "1122": 0.25, "2222": 3},
}


def test_parse_good_document():
    T = tensor_from_json(json.dumps(GOOD))
    assert T.t1111 == 1
    assert T.t1112 == F(1, 2)
    assert T.t1122 == F(1, 4)  # floats parse as exact decimals
    assert T.t1222 == 0  # missing entries default to zero
    assert T.t2222 == 3


def test_load_from_file(tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(GOOD))
    assert load_tensor(path).t2222 == 3


@pytest.mark.parametrize(
    "doc",
    [
        "not json at all",
        "[1, 2]",
        json.dumps({"dim": 2, "order": 4}),
        json.dumps({"dim": 4, "order": 4, "entries": {}}),
        json.dumps({"dim": 2, "order": 3, "entries": {}}),
        json.dumps({"dim": 2, "order": 4, "entries": {}, "extra": 1}),
        json.dumps({"dim": 2, "order": 4, "entries": {"112": 1}}),
        json.dumps({"dim": 2, "order": 4, "entries": {"1121": 1}}),
        json.dumps({"dim": 2, "order": 4, "entries": {"1113": 1}}),
        json.dumps({"dim": 2, "order": 4, "entries": {"1112": "x/y"}}),
        json.dumps({"dim": 2, "order": 4, "entries": {"1112": True}}),
        json.dumps({"dim": 2, "order": 4, "entries": {"1112": [1]}}),
        # Unicode digits that str.isdigit accepts but are not ASCII
        json.dumps({"dim": 2, "order": 4, "entries": {"1111": 1, "\u0661\u0661\u0661\u0661": 2}}),
        json.dumps({"dim": 2, "order": 4, "entries": {"\u00b9\u00b9\u00b9\u00b9": 1}}),
        # A repeated key, in the entries or at the top level
        '{"dim": 2, "order": 4, "entries": {"1111": 1, "1111": 5, "2222": 1}}',
        '{"dim": 2, "dim": 3, "order": 4, "entries": {"1111": 1}}',
    ],
)
def test_parse_errors(doc):
    with pytest.raises(ParseError):
        tensor_from_json(doc)


@pytest.mark.parametrize("dim, order, message", [
    ("2.5", "4", '"dim" must be 2 or 3, got 5/2'),
    ("2", "4.5", '"order" must be 4, got 9/2'),
    ("true", "4", '"dim" must be 2 or 3, got True'),
    ('"2"', "4", "\"dim\" must be 2 or 3, got '2'"),
    ("2", "4e0", None),
    ("1e4300", "4", '"dim": number has more than'),
])
def test_top_level_values_are_shown_as_given(dim, order, message):
    """A JSON decimal in "dim" or "order" is shown as a rational, not as a
    Fraction repr, and one too long to print is refused like an entry."""
    doc = '{"dim": %s, "order": %s, "entries": {"1111": 1}}' % (dim, order)
    if message is None:
        assert tensor_from_json(doc).t1111 == 1
        return
    with pytest.raises(ParseError) as info:
        tensor_from_json(doc)
    assert str(info.value).startswith(message)


def test_format_scalar():
    assert format_scalar(F(-72, 625)) == "-72/625"
    assert format_scalar(F(4, 2)) == 2


LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize("literal, quoted", [
    (f"1e{LIMIT - 1}", False), (f"1e{LIMIT - 1}", True),
    (f"-2.5e{LIMIT - 2}", False), (f"1e-{LIMIT - 1}", True),
    ("0e10000000", False), ("0.0e10000000", False), ("-0e-10000000", True),
])
def test_decimal_exponents_within_the_digit_limit(literal, quoted):
    """The early exponent check refuses nothing that has at most LIMIT digits;
    a zero mantissa is zero whatever its exponent."""
    value = f'"{literal}"' if quoted else literal
    T = tensor_from_json('{"dim": 2, "order": 4, "entries": {"1111": %s}}' % value)
    assert T.t1111 == (0 if "0e" in literal else F(literal))


@pytest.mark.parametrize("literal", [f"1e{LIMIT}", f"1e-{LIMIT + 5}", f"-7.25e{LIMIT + 9}"])
def test_decimal_exponents_beyond_the_digit_limit(literal):
    for value in (literal, f'"{literal}"'):
        with pytest.raises(ParseError, match="digits"):
            tensor_from_json('{"dim": 2, "order": 4, "entries": {"1111": %s}}' % value)


# A decimal is written as a JSON number or as a string; build_tensor gets the
# string, which it reads as the same exact decimal.
decimals = st.builds(lambda d, e: f"{d}e{e}" if e else str(d),
                     st.decimals(-10**4, 10**4, places=3), st.integers(-6, 6))
values = st.one_of(
    st.integers(-10**30, 10**30).map(lambda n: (n, str(n))),
    st.tuples(st.integers(-10**9, 10**9), st.integers(1, 10**9)).map(
        lambda pq: (f"{pq[0]}/{pq[1]}", json.dumps(f"{pq[0]}/{pq[1]}"))),
    st.tuples(decimals, st.booleans()).map(
        lambda dq: (dq[0], json.dumps(dq[0]) if dq[1] else dq[0])),
)


@st.composite
def documents(draw):
    dim = draw(st.sampled_from((2, 3)))
    keys = draw(st.lists(st.sampled_from(MULTI_INDICES[dim]), unique=True))
    entries = {key: draw(values) for key in keys}
    body = ", ".join(f'"{"".join(map(str, key))}": {literal}'
                     for key, (_, literal) in entries.items())
    text = '{"dim": %d, "order": 4, "entries": {%s}}' % (dim, body)
    return text, dim, {key: value for key, (value, _) in entries.items()}


@given(documents())
@settings(max_examples=300, deadline=None)
def test_reader_equals_build_tensor(document):
    """The one-pass reader and the library constructor build the same tensor
    from the same entries, in any key order."""
    text, dim, entries = document
    assert tensor_from_json(text) == build_tensor(dim, entries)
