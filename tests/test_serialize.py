import random
from fractions import Fraction

import pytest

from isotower.errors import MalformedCertificate
from isotower.generate import random_quaternion
from isotower.presets import field_septic
from isotower.serialize import (
    canonical_dumps,
    _zero_json,
    _zeros_of,
    canonical_loads,
    element_from_json,
    element_to_json,
    fraction_from_json,
    fraction_to_json,
    gram_to_json,
    tower_from_json,
    tower_to_json,
    vector_to_json,
)
from isotower.splitting import split_over_2ext
from isotower.tower import KIND_SQRT, QQ, Level, TowerElement, TowerField, tower_extend
from test_tower import _dot_towers, _random_element


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
    # leading zeros, a zero that is not "0/1", non-ASCII digits and a
    # trailing newline, checked on the strings
    for node in ("03/1", "3/01", "0/5", "\uff13/1", "\u00b2/1", "3/1\n"):
        with pytest.raises(MalformedCertificate):
            fraction_from_json(node)


# integers past CPython's default 4300-digit limit on int <-> str, with their
# digits spelled out by hand: 10^4400 + 1 has 4401 digits, (10^9000 - 1)/9 * 7
# is 9000 sevens, and both are prime to 10^4400
BIG = 10**4400 + 1
BIG_TEXT = "1" + "0" * 4399 + "1"
SEVENS = (10**9000 - 1) // 9 * 7
SEVENS_TEXT = "7" * 9000
POW = 10**4400
POW_TEXT = "1" + "0" * 4400


@pytest.mark.parametrize(
    "q, text",
    [
        (Fraction(BIG), BIG_TEXT + "/1"),
        (Fraction(-BIG, 3), "-" + BIG_TEXT + "/3"),
        (Fraction(SEVENS, POW), SEVENS_TEXT + "/" + POW_TEXT),
        (Fraction(-2, SEVENS), "-2/" + SEVENS_TEXT),
    ],
    ids=["integer", "numerator", "both", "denominator"],
)
def test_fraction_round_trip_past_digit_limit(q, text):
    assert fraction_to_json(q) == text
    assert fraction_from_json(text) == q


def test_element_round_trip_past_digit_limit(stacked):
    x = stacked.element(1, (Fraction(SEVENS, POW), Fraction(-BIG, 3)))
    node = element_to_json(x)
    assert node == [SEVENS_TEXT + "/" + POW_TEXT, "-" + BIG_TEXT + "/3"]
    text = canonical_dumps(node)
    back = element_from_json(stacked, canonical_loads(text))
    assert back == x
    assert canonical_dumps(element_to_json(back)) == text


@pytest.mark.parametrize(
    "node",
    [
        "0" + BIG_TEXT + "/1",  # a leading zero
        "2" + "0" * 4400 + "/4",  # not in lowest terms
        BIG_TEXT + "/-1",
        BIG_TEXT + "x/1",
        "1_" + BIG_TEXT + "/1",
        "--" + BIG_TEXT + "/1",
    ],
    ids=["leading-zero", "not-lowest", "negative-denominator", "junk", "underscore", "two-signs"],
)
def test_fraction_past_digit_limit_rejects_noncanonical(node):
    with pytest.raises(MalformedCertificate):
        fraction_from_json(node)


def test_loads_rejects_integer_past_digit_limit():
    with pytest.raises(MalformedCertificate):
        canonical_loads('{"dim": ' + BIG_TEXT + "}")


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_loads_rejects_non_json_constants(constant):
    with pytest.raises(MalformedCertificate, match=constant):
        canonical_loads('{"x": [1, %s]}' % constant)


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


@pytest.mark.parametrize("labels", [[[1], "t"], [2, "t"], ["s", None], ["s", "s"]])
def test_tower_rejects_labels_that_are_not_distinct_strings(labels):
    # a label read through str() would not round-trip; tower_extend refuses
    # the same labels, except None, with which it picks a fresh one
    node = [
        {"label": "s", "minpoly": ["-2/1", "0/1", "1/1"]},
        {"label": "t", "minpoly": [["-3/1", "0/1"], ["0/1", "0/1"], ["1/1", "0/1"]]},
    ]
    assert tower_from_json(node) == tower_extend(tower_extend(QQ, [-2, 0, 1], label="s"), [-3, 0, 1], label="t")
    for entry, label in zip(node, labels):
        entry["label"] = label
    with pytest.raises(MalformedCertificate, match="tower labels must be distinct strings"):
        tower_from_json(node)
    if labels[1] is not None:
        with pytest.raises(ValueError, match="is not a string distinct from those below"):
            tower_extend(tower_extend(QQ, [-2, 0, 1], label=labels[0]), [-3, 0, 1], label=labels[1])


def test_element_shape_validation(stacked):
    with pytest.raises(MalformedCertificate):
        element_from_json(stacked, [["1/1"], ["0/1"]])  # wrong inner length
    with pytest.raises(MalformedCertificate):
        element_from_json(QQ, ["1/1", "0/1"])  # deeper than the tower


def test_canonical_dumps_deterministic():
    doc = {"b": 1, "a": [2, {"z": "x", "y": "w"}]}
    assert canonical_dumps(doc) == canonical_dumps({"a": [2, {"y": "w", "z": "x"}], "b": 1})
    assert canonical_dumps(doc).endswith("\n")


# -- the writer's shared-zero fast path -------------------------------------


def fresh(data, lv):
    """``data`` rebuilt node by node: new tuples and new Fractions, so no
    node is a tower's shared zero.  (A pickle or deepcopy round trip keeps
    zero identity inside the copy, so it would not do.)"""
    if lv == 0:
        return Fraction(data.numerator, data.denominator)
    return tuple(fresh(c, lv - 1) for c in data)


def fresh_tower(tower):
    """The same tower from rebuilt minimal polynomials, with its own shared
    zeros, none of which occurs in those polynomials."""
    return TowerField(
        [Level(level.label, tuple(fresh(c, i) for c in level.minpoly), level.kind)
         for i, level in enumerate(tower.levels)]
    )


def fresh_element(x, tower=None):
    return TowerElement(tower or x.tower, x.level, fresh(x.data, x.level))


def _reference_json(data, lv):
    """The writer's output by a full recursive walk over every leaf."""
    if lv == 0:
        return f"{data.numerator}/{data.denominator}"
    return [_reference_json(c, lv - 1) for c in data]


def _reference_tower_json(tower):
    return [{"label": level.label, "minpoly": [_reference_json(c, i) for c in level.minpoly]}
            for i, level in enumerate(tower.levels)]


def _chain_elements(case):
    chain = _dot_towers()[case]
    rng = random.Random(case)
    tower = chain[-1]
    xs = [tower.zero(lv) for lv in range(tower.height + 1)]
    xs += [tower.one(tower.height), tower.gen()]
    for _ in range(12):
        t = rng.choice(chain)
        xs.append(_random_element(rng, t, rng.randint(0, t.height)))
    return chain, xs


@pytest.fixture(scope="module")
def septic_cert():
    # item 0 of split-septic at seed 1
    return split_over_2ext(random_quaternion(random.Random(1 * 1000003 + 0), field_septic()))


@pytest.mark.parametrize("case", sorted(_dot_towers()))
def test_writer_matches_full_walk(case):
    chain, xs = _chain_elements(case)
    for x in xs:
        expected = _reference_json(x.data, x.level)
        assert element_to_json(x) == expected
        assert element_to_json(fresh_element(x)) == expected
    for tower in chain:
        expected = _reference_tower_json(tower)
        assert tower_to_json(tower) == expected
        assert tower_to_json(fresh_tower(tower)) == expected
    assert vector_to_json(xs) == [_reference_json(x.data, x.level) for x in xs]
    gram = [xs[:3], xs[3:6]]
    assert gram_to_json(gram) == [[_reference_json(x.data, x.level) for x in r] for r in gram]


def test_writer_matches_full_walk_on_septic_certificate(septic_cert):
    cert = septic_cert
    expected = [_reference_json(x.data, x.level) for x in cert.witness]
    assert vector_to_json(cert.witness) == expected
    assert vector_to_json([fresh_element(x) for x in cert.witness]) == expected
    for tower in (cert.tower, cert.two_tower):
        expected = _reference_tower_json(tower)
        assert tower_to_json(tower) == expected
        assert tower_to_json(fresh_tower(tower)) == expected
    # the witness of a rebuilt tower, rebuilt too: nothing is shared anywhere
    rebuilt = fresh_tower(cert.tower)
    assert vector_to_json([fresh_element(x, rebuilt) for x in cert.witness]) == (
        vector_to_json(cert.witness)
    )


def _leaves(node, path=()):
    """(path, leaf) of every "num/den" string of a document."""
    if isinstance(node, str):
        yield path, node
        return
    for i, c in enumerate(node):
        yield from _leaves(c, path + (i,))


def _lowest_zero_lists(node, path=()):
    """Paths of the lists of "0/1" strings in a document.  Every nested zero
    list holds some, so a list written at two places shows up here as one
    of them reached by two paths."""
    if isinstance(node, str):
        return
    if all(isinstance(c, str) for c in node):
        if all(c == "0/1" for c in node):
            yield path
        return
    for i, c in enumerate(node):
        yield from _lowest_zero_lists(c, path + (i,))


def _at(node, path):
    for i in path:
        node = node[i]
    return node


def test_written_zero_lists_are_never_shared(septic_cert):
    chain, xs = _chain_elements("sqrt-chain")

    def minpolys(tower):
        return [level["minpoly"] for level in tower_to_json(tower)]

    docs = {
        chain[-1]: [vector_to_json(xs), minpolys(chain[-1])],
        septic_cert.tower: [vector_to_json(septic_cert.witness), minpolys(septic_cert.tower)],
    }
    for tower, written in docs.items():
        for doc in written:
            paths = list(_lowest_zero_lists(doc))
            assert paths
            before = dict(_leaves(doc))
            # edit each zero list in place, on the written document itself,
            # with its own mark: a list written at two places would end with
            # one of them holding another's mark
            marks = {path + (0,): f"{i + 2}/1" for i, path in enumerate(paths)}
            for leaf, mark in marks.items():
                _at(doc, leaf[:-1])[0] = mark
            after = dict(_leaves(doc))
            assert after == {p: marks.get(p, leaf) for p, leaf in before.items()}
        degrees = tuple(level.degree for level in tower.levels)
        assert _zeros_of(tower) == _zero_json.__wrapped__(degrees)
        for lv in range(tower.height + 1):
            zero = tower.zero(lv)
            assert element_to_json(zero) == _reference_json(zero.data, lv)
