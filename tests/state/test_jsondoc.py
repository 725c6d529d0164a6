"""Documents assembled from encoded parts equal one-call encodings."""

from __future__ import annotations

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.state import jsondoc  # noqa: E402

#: JSON-able values, including the keys and floats that trip encoders:
#: non-ASCII and control characters, numeric-looking keys, -0.0, NaN
KEYS = st.one_of(
    st.text(max_size=6),
    st.integers(0, 5000).map(str),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**12, 10**12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(KEYS, inner, max_size=4),
    ),
    max_leaves=12,
)
OBJECTS = st.dictionaries(KEYS, VALUES, max_size=8)


def oracle(value, sort_keys=False):
    return json.dumps(value, sort_keys=sort_keys, separators=(",", ":"))


class TestDumps:
    def test_compact(self):
        assert jsondoc.dumps({"a": [1, 2.5]}) == '{"a":[1,2.5]}'

    def test_sort_keys(self):
        assert jsondoc.dumps({"b": 1, "a": 2}, sort_keys=True) == (
            '{"a":2,"b":1}'
        )


class TestAssemble:
    def test_empty_object(self):
        assert jsondoc.assemble({}) == "{}"
        assert jsondoc.assemble({}, sort_keys=True) == "{}"

    def test_keeps_insertion_order_unless_sorted(self):
        parts = {"b": "1", "a": "[2]"}
        assert jsondoc.assemble(parts) == '{"b":1,"a":[2]}'
        assert jsondoc.assemble(parts, sort_keys=True) == '{"a":[2],"b":1}'

    def test_sorts_numeric_keys_as_strings(self):
        # json.dumps(sort_keys=True) orders "1024" before "128"
        parts = {str(n): str(n) for n in (0, 64, 128, 1024)}
        assert jsondoc.assemble(parts, sort_keys=True) == oracle(
            {str(n): n for n in (0, 64, 128, 1024)}, sort_keys=True
        )

    def test_escapes_keys_like_json(self):
        assert jsondoc.assemble({'é"\n': "1"}) == oracle({'é"\n': 1})

    @settings(max_examples=200, deadline=None)
    @given(OBJECTS, st.booleans())
    def test_equals_one_call_encoding(self, value, sort_keys):
        parts = {
            key: jsondoc.dumps(member, sort_keys=sort_keys)
            for key, member in value.items()
        }
        assert jsondoc.assemble(parts, sort_keys=sort_keys) == oracle(
            value, sort_keys=sort_keys
        )

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(KEYS, OBJECTS, max_size=4), st.booleans())
    def test_nested_assembly(self, value, sort_keys):
        text = jsondoc.assemble({
            key: jsondoc.assemble({
                inner: jsondoc.dumps(member, sort_keys=sort_keys)
                for inner, member in members.items()
            }, sort_keys=sort_keys)
            for key, members in value.items()
        }, sort_keys=sort_keys)
        assert text == oracle(value, sort_keys=sort_keys)
