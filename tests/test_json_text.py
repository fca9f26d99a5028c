"""The CLI's JSON writer against its oracle, json.dumps(doc, indent=2).

Every JSON file and stdout document the CLI writes goes through
cli._json_text. It takes what the commands build, dicts with str keys,
lists, tuples and scalars of exact type str, int, float, bool and None,
and must give the stdlib's indented text for them byte for byte: its
floats, its string escapes, bool before int and tuples as lists. Anything
else, such as an np.float64 or a key that is not a str, raises TypeError.
The writer memoizes each container's text by (id, depth), so the
documents here share subtrees at one depth and at two.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gmacsec import cli

FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=-10**40, max_value=10**40)
           | FLOATS | st.text(max_size=8))
KEYS = st.text(max_size=6)


def _containers(children):
    return (st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(KEYS, children, max_size=4))


DOCS = st.recursive(SCALARS, _containers, max_leaves=12)


@st.composite
def shared_docs(draw):
    """A document holding one non-empty subtree at two depths, twice at
    one of them, as a witness file repeats a scheme's document."""
    tree = draw(st.lists(DOCS, min_size=1, max_size=3)
                | st.dictionaries(st.text(max_size=4), DOCS, min_size=1, max_size=3))
    return {"top": tree, "deeper": [tree, {"again": tree}], "rest": draw(DOCS)}


def _same_as_stdlib(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2)


def _refused(value, type_name):
    with pytest.raises(TypeError, match=rf"\b{type_name}\b"):
        cli._json_text(value)


EDGE_VALUES = [
    float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324,
    2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1e16, 1e-7,
    10**40, -(10**40), 0, True, False, None,
    "", "é ü   \U0001F600", "\x00\x1f\x7f\"\\/\n\t", "\ud800",
    [], {}, (), [[]], [{}], {"": []}, {"é\"\n": 1}, (1, (2.5, "x")),
]

SHARED = [0.1, {"p": [True, None, 1e-300]}]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
def test_edge_values_match_the_stdlib(value):
    _same_as_stdlib(value)
    _same_as_stdlib({"k": [value, {"v": value}]})


def test_a_subtree_shared_at_two_depths_and_twice_at_one():
    _same_as_stdlib([SHARED, SHARED, {"deep": SHARED, "deeper": [[SHARED]]}])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.one_of(DOCS, shared_docs()))
@example([True, False, 1, 0])
@example([0.1, 1 / 3, 5e-324])
@example({"a": SHARED, "b": [SHARED, SHARED]})
def test_text_matches_the_stdlib(doc):
    _same_as_stdlib(doc)


REFUSED = [
    (np.int64(1), "int64"), (np.bool_(True), "bool"), ({1, 2}, "set"),
    (object(), "object"), (b"bytes", "bytes"), ([1, np.int32(2)], "int32"),
    ({(1, 2): 3}, "tuple"), ({b"k": 1}, "bytes"), ({frozenset(): 1}, "frozenset"),
]

# the stdlib writes these, but a command builds none of them: one would
# mean a command skipped its .tolist() or float()
COERCED = [
    (np.float64(0.1), "float64"), (np.float64("nan"), "float64"),
    (np.float64(-0.0), "float64"), ({1: "a"}, "int"), ({-2.5: "b"}, "float"),
    ({True: "e"}, "bool"), ({None: "f"}, "NoneType"),
    ({np.float64(0.25): "i"}, "float64"),
]


def _case_id(value):
    return "object()" if type(value) is object else repr(value)


@pytest.mark.parametrize("value, type_name", REFUSED,
                         ids=[_case_id(value) for value, _ in REFUSED])
def test_refuses_what_the_stdlib_refuses(value, type_name):
    _refused(value, type_name)


@pytest.mark.parametrize("value, type_name", COERCED,
                         ids=[_case_id(value) for value, _ in COERCED])
def test_refuses_what_the_stdlib_coerces(value, type_name):
    json.dumps(value, indent=2)
    _refused(value, type_name)


def test_files_and_stdout_carry_the_text_and_a_newline(tmp_path, capsys):
    doc = {"a": [SHARED, SHARED], "b": (float("inf"), "é")}
    cli._write_json(tmp_path / "doc.json", doc)
    cli._print_json(doc)
    expected = json.dumps(doc, indent=2) + "\n"
    assert (tmp_path / "doc.json").read_bytes() == expected.encode()
    assert capsys.readouterr().out == expected
