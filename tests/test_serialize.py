import enum
import json
import math
from collections import OrderedDict, namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from btzgeo.serialize import canonical_dumps


_Pair = namedtuple("_Pair", "x y")


class _Level(enum.IntEnum):
    HIGH = 3


class _Name(str):
    pass


def _oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308])
_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-10**400, 10**400)
            | _FLOATS | _FLOATS.map(np.float64) | st.text(max_size=8))
# float lists take the writer's one-join path when every item is a plain float
_FLOAT_LISTS = st.lists(_FLOATS, max_size=6) | st.lists(_FLOATS | _FLOATS.map(np.float64),
                                                        max_size=6)
_TREES = st.recursive(
    _SCALARS | _FLOAT_LISTS,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=12)


@settings(derandomize=True, max_examples=250, deadline=None)
@given(_TREES)
def test_canonical_dumps_matches_json(tree):
    # keys and strings include non-ASCII and control characters, floats -0.0,
    # subnormals and 1e308, ints beyond 64 bits, lists empty and mixed
    assert canonical_dumps(tree) == _oracle(tree)


@pytest.mark.parametrize("tree", [
    [], {}, (), [[]], {"": {}}, [1.0, "a"], [1.0, True, None], [1.0, 2], (0.5, np.float64(2.0)),
    [np.float64(-0.0), 1.5], {"é\n": ["\x00", "퟿"]}, {"b": 1, "a": [2.5, [3.5]]},
    # subclasses take json's dispatch order: a namedtuple is a list, an IntEnum an int
    _Pair(1.0, _Pair(2, "y")), [_Level.HIGH, 0.5], {_Name("k"): _Name("v")},
    OrderedDict([("b", 1.0), ("a", [True])]),
])
def test_canonical_dumps_matches_json_on_edge_cases(tree):
    assert canonical_dumps(tree) == _oracle(tree)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
@pytest.mark.parametrize("wrap", [
    lambda x: x, lambda x: [1.0, x], lambda x: [x, "a"], lambda x: {"a": [2.0], "b": x},
    lambda x: ([0.5], (x,)),
])
def test_canonical_dumps_refuses_non_finite_floats_like_json(bad, wrap):
    # the same ValueError json raises, such as the CLI prints for a NaN in a report
    with pytest.raises(ValueError) as want:
        _oracle(wrap(bad))
    with pytest.raises(ValueError) as got:
        canonical_dumps(wrap(bad))
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("Out of range float values are not JSON compliant: ")


@pytest.mark.parametrize("bad", [np.int64(1), {1, 2}, np.float32(0.5), object()])
def test_canonical_dumps_refuses_other_objects_like_json(bad):
    for tree in (bad, [bad], [1.0, bad], {"a": bad}):
        with pytest.raises(TypeError) as want:
            _oracle(tree)
        with pytest.raises(TypeError) as got:
            canonical_dumps(tree)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("tree", [{1: "a"}, {"a": {2.5: 1}}, [{None: 1}]])
def test_canonical_dumps_refuses_keys_that_are_not_strings(tree):
    with pytest.raises(TypeError):
        canonical_dumps(tree)


def test_canonical_dumps_keeps_the_int_digit_limit():
    with pytest.raises(ValueError) as want:
        _oracle([10**5000])
    with pytest.raises(ValueError) as got:
        canonical_dumps([10**5000])
    assert str(got.value) == str(want.value)
