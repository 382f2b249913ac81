from fractions import Fraction

import pytest

from isotower.errors import MalformedCertificate
from isotower.serialize import (
    canonical_dumps,
    canonical_loads,
    element_from_json,
    element_to_json,
    fraction_from_json,
    fraction_to_json,
    tower_from_json,
    tower_to_json,
)
from isotower.tower import KIND_SQRT, QQ, tower_extend


@pytest.fixture
def stacked():
    t = tower_extend(QQ, [-2, 0, 1], label="s2")
    return tower_extend(t, [t.rational(-3), t.rational(0), t.rational(1)], label="s3")


def test_fraction_round_trip():
    for q in (Fraction(3, 2), Fraction(-7), Fraction(0), Fraction(22, 7)):
        assert fraction_from_json(fraction_to_json(q)) == q
    assert fraction_to_json(Fraction(3)) == "3/1"


def test_fraction_rejects_noncanonical():
    with pytest.raises(MalformedCertificate):
        fraction_from_json("4/2")
    with pytest.raises(MalformedCertificate):
        fraction_from_json("1/-2")
    with pytest.raises(MalformedCertificate):
        fraction_from_json("7")
    with pytest.raises(MalformedCertificate):
        fraction_from_json("a/b")
    # int() accepts these spellings, but each re-serializes to other bytes
    for node in ("1_0/1", " 3/1", "+3/1", "-0/1", "3/ 1"):
        with pytest.raises(MalformedCertificate):
            fraction_from_json(node)


def test_element_round_trip_byte_identical(stacked):
    x = (1 + stacked.gen()) * stacked.gen(1).in_tower(stacked).embed(2) + Fraction(5, 3)
    node = element_to_json(x)
    text = canonical_dumps(node)
    back = element_from_json(stacked, canonical_loads(text))
    assert back == x
    assert canonical_dumps(element_to_json(back)) == text


def test_element_depth_is_level(stacked):
    low = QQ.rational(Fraction(1, 2)).in_tower(stacked)
    assert element_to_json(low) == "1/2"
    lifted = low.embed(2)
    node = element_to_json(lifted)
    assert isinstance(node, list) and isinstance(node[0], list)
    assert element_from_json(stacked, node).level == 2


def test_tower_round_trip_byte_identical(stacked):
    node = tower_to_json(stacked)
    text = canonical_dumps(node)
    back = tower_from_json(canonical_loads(text))
    assert back == stacked
    assert canonical_dumps(tower_to_json(back)) == text
    assert all(level.kind == KIND_SQRT for level in back.levels)


def test_tower_kind_rederived():
    cubic = tower_extend(QQ, [-1, -2, 1, 1], label="a")
    back = tower_from_json(tower_to_json(cubic))
    assert back.levels[0].kind == "base-root"


def test_tower_rejects_garbage():
    with pytest.raises(MalformedCertificate):
        tower_from_json([{"label": "x"}])
    with pytest.raises(MalformedCertificate):
        tower_from_json([{"label": "x", "minpoly": ["1/1", "1/1"]}])  # degree 1
    with pytest.raises(MalformedCertificate):
        tower_from_json([{"label": "x", "minpoly": ["1/1", "0/1", "2/1"]}])  # not monic


def test_element_shape_validation(stacked):
    with pytest.raises(MalformedCertificate):
        element_from_json(stacked, [["1/1"], ["0/1"]])  # wrong inner length
    with pytest.raises(MalformedCertificate):
        element_from_json(QQ, ["1/1", "0/1"])  # deeper than the tower


def test_canonical_dumps_deterministic():
    doc = {"b": 1, "a": [2, {"z": "x", "y": "w"}]}
    assert canonical_dumps(doc) == canonical_dumps({"a": [2, {"y": "w", "z": "x"}], "b": 1})
    assert canonical_dumps(doc).endswith("\n")
