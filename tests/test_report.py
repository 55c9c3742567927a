"""The envelope writer against json's indented encoder, its oracle."""

import enum
import json

import pytest
from hypothesis import given, strategies as st

from spdecrit.report import serialize_envelope

# quote, backslash, control and non-ASCII characters; an astral one is a
# surrogate pair in JSON, and a lone surrogate is written as its escape
texts = st.text(st.sampled_from('ab "\\/\x00\x1f\x7f\n\t\xe9\u2028\ud800\U0001f600'), max_size=6)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.sampled_from(enum.IntEnum("Level", "ONE TWO")),  # an int whose repr is not its digits
    texts,
)
documents = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(texts, children, max_size=4),
    ),
    max_leaves=16,
)


@given(documents)
def test_writer_equals_json_indented(doc):
    assert serialize_envelope(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("doc", [{"a": {1, 2}}, [{"b": [set()]}], {1: "x"}, {"a": {"b": 2, 3: "c"}}])
def test_writer_rejects_what_json_cannot_write_and_non_str_keys(doc):
    with pytest.raises(TypeError):
        serialize_envelope(doc)
