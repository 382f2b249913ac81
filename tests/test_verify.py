"""The verifier's FAIL paths, one targeted forgery or mutation per reason.

Each case edits an honest certificate on a small rational or cubic input,
or an honest corestriction of M2 along a quadratic field, so that exactly
one check of ``verify_split``, ``verify_isotropy`` or ``verify_cor`` fails,
and asserts the reason that check names.  Two PASS cases reach the bracket
presentation and the two-tower check's general-quadratic branch.  The
malformed cases edit an honest certificate into one the parser or a shape
check refuses, and assert the MalformedCertificate reason.
"""

import copy
import functools

import pytest

from isotower.certjson import cor_result_doc, isotropy_certificate_doc, split_certificate_doc
from isotower.csa import (
    CyclicExtensionData,
    fixed_subalgebra,
    g_action_matrix,
    matrix_algebra,
    tensor_power_over_K,
)
from isotower.errors import MalformedCertificate
from isotower.presets import cyclic_sqrt, demo_thm21_r2, field_cubic
from isotower.quadforms import IsotropyCertificate, QFSystem, QuadraticForm, isotropy_2ext
from isotower.serialize import element_to_json, tower_to_json
from isotower.splitting import (
    SplitCertificate,
    bracket_quaternion,
    split_over_2ext,
    standard_quaternion,
)
from isotower.tower import QQ, tower_extend
from isotower import verify


def _level(label, *minpoly):
    """One rational tower level as JSON, coefficients lowest degree first."""
    return {"label": label, "minpoly": [f"{c}/1" for c in minpoly]}


SQRT2_SQRT3 = tower_to_json(tower_extend(tower_extend(QQ, [-2, 0, 1], label="s2"), [-3, 0, 1], label="s3"))


@functools.cache
def _split_doc(u, v):
    """Split certificate of the rational quaternion (u, v)."""
    return split_certificate_doc(split_over_2ext(standard_quaternion(QQ.rational(u), QQ.rational(v))))


@functools.cache
def _isotropy_doc():
    """x^2 - y^2 = 0 over Q: witness (1, 1), no added level."""
    system = QFSystem((QuadraticForm.diagonal(QQ, 0, [1, -1]),))
    return isotropy_certificate_doc(system, isotropy_2ext(system))


def _bump_first_leaf(node):
    if isinstance(node, list):
        return [_bump_first_leaf(node[0])] + node[1:]
    n, d = node.split("/")
    return f"{int(n) + 1}/{d}"


def _zero_like(node):
    return [_zero_like(c) for c in node] if isinstance(node, list) else "0/1"


def test_split_base_docs():
    # (-1, -1) is division over Q, so its witness lives over Q(i);
    # (1, -1) splits over Q with a rational witness and no F-side level
    div, split = _split_doc(-1, -1), _split_doc(1, -1)
    assert verify.verify_split(div)[0] and div["degree_over_F"] == 2 and len(div["tower"]) == 1
    assert verify.verify_split(split)[0] and split["two_tower"] == [] and split["tower"] == []


def _set(path, value):
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]]) if callable(value) else value

    return edit


SPLIT_FORGERIES = {
    "unknown-presentation": (
        (-1, -1), [_set(("quaternion", "presentation"), "hamilton")], "unknown presentation 'hamilton'"
    ),
    "degenerate-u": ((-1, -1), [_set(("quaternion", "u"), "0/1")], "degenerate quaternion entries"),
    "degenerate-v": ((-1, -1), [_set(("quaternion", "v"), "0/1")], "degenerate quaternion entries"),
    "witness-length": ((-1, -1), [_set(("witness",), lambda w: w[:3])], "witness must be a 4-vector"),
    "zero-witness": ((-1, -1), [_set(("witness",), _zero_like)], "witness = 0"),
    # K = Q(sqrt 2) while the certificate tower starts with Q(i)
    "tower-not-over-K": (
        (-1, -1),
        [_set(("quaternion", "field"), [_level("s2", -2, 0, 1)])],
        "certificate tower does not extend the quaternion's field",
    ),
    "cubic-compositum-level": (
        (1, -1), [_set(("tower",), [_level("c", -2, 0, 0, 1)])], "compositum level 1 is not quadratic"
    ),
    "norm-nonzero": ((-1, -1), [_set(("witness",), _bump_first_leaf)], "N_Q(witness) = "),
    "degree-mismatch": (
        (-1, -1), [_set(("degree_over_F",), 1)], "degree_over_F 1 != recomputed 2"
    ),
    # an F-side of degree 4 over Q, where 2^[K:F] = 2
    "degree-above-bound": (
        (1, -1),
        [_set(("two_tower",), SQRT2_SQRT3), _set(("degree_over_F",), 4)],
        "degree_over_F 4 > claimed_bound 2",
    ),
    "two-tower-sqrt0": (
        (-1, -1), [_set(("two_tower",), [_level("z", 0, 0, 1)])], "two-tower level 1 adjoins sqrt(0)"
    ),
    "two-tower-square-constant": (
        (-1, -1),
        [_set(("two_tower",), [_level("t", -4, 0, 1)])],
        "two-tower level 1 is reducible (square constant)",
    ),
    # X^2 + 3X + 2 = (X + 1)(X + 2): discriminant 1
    "two-tower-square-discriminant": (
        (-1, -1),
        [_set(("two_tower",), [_level("t", 2, 3, 1)])],
        "two-tower level 1 is reducible (square discriminant)",
    ),
}


@pytest.mark.parametrize("name", sorted(SPLIT_FORGERIES))
def test_split_forgery_fails(name):
    entries, edits, why = SPLIT_FORGERIES[name]
    doc = copy.deepcopy(_split_doc(*entries))
    for edit in edits:
        edit(doc)
    ok, reason = verify.verify_split(doc)
    assert not ok and reason.startswith(why), reason


def test_split_bracket_over_cubic_passes():
    cubic = field_cubic()
    doc = split_certificate_doc(split_over_2ext(bracket_quaternion(cubic.gen(), cubic.rational(-3))))
    assert doc["quaternion"]["presentation"] == "bracket"
    ok, reason = verify.verify_split(doc)
    assert ok, reason


def test_split_over_eisenstein_field_passes():
    # K = Q[x]/(x^2 + x + 1) declared as its own 2-part: the F-side level is
    # a general quadratic, re-tested through its discriminant -3
    k = tower_extend(QQ, [1, 1, 1], label="w")
    doc = split_certificate_doc(split_over_2ext(standard_quaternion(k.gen(), k.rational(3)), two_part_levels=1))
    assert doc["two_tower"] == [_level("w", 1, 1, 1)]
    ok, reason = verify.verify_split(doc)
    assert ok and doc["degree_over_F"] == 2, reason


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: verify_split never ties the certificate tower to two_tower",
)
def test_split_empty_two_tower_forgery_fails():
    # ROADMAP item 1's repro: drop the F-side and claim degree 1
    cubic = field_cubic()
    doc = split_certificate_doc(split_over_2ext(standard_quaternion(cubic.gen(), cubic.rational(2))))
    assert verify.verify_split(doc)[0] and doc["degree_over_F"] > 1
    doc.update(two_tower=[], degree_over_F=1)
    assert not verify.verify_split(doc)[0]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 17: verify_isotropy reads the base height off the first Gram entry",
)
def test_isotropy_renested_gram_forgery_fails():
    # two positive definite forms over Q, isotropic only over a quadratic
    # extension: every Gram entry re-nested to the tower's top depth with zero
    # padding makes the added level look like the base, and degree 1 then
    # claims isotropy over Q
    _lines, doc, ok = demo_thm21_r2()
    assert ok and doc["actual_degree"] == 2
    degrees = [len(level["minpoly"]) - 1 for level in doc["tower"]]

    def renest(leaf):
        for d in degrees:
            leaf = [leaf] + [_zero_like(leaf) for _ in range(d - 1)]
        return leaf

    doc["forms"] = [[[renest(e) for e in row] for row in gram] for gram in doc["forms"]]
    doc["actual_degree"] = 1
    assert not verify.verify_isotropy(doc)[0]


# K = Q[x]/(x^2 - 1) is Q x Q, not a field: each forgery below holds on the
# x = 1 factor only, where the idempotent (1 + x)/2 lives
SPLIT_K = tower_extend(QQ, [-1, 0, 1], label="x")
SPLIT_X = SPLIT_K.gen()


@pytest.mark.xfail(strict=True, reason="ROADMAP item 18")
def test_split_over_a_product_of_fields_forgery_fails():
    # (1 + 3x, -1) is (4, -1), split, at x = 1 and (-2, -1)_Q, ramified at
    # infinity, at x = -1; the witness vanishes on the first factor only
    one = SPLIT_K.one()
    w = (one + SPLIT_X, (one + SPLIT_X) / 2, SPLIT_K.zero(), SPLIT_K.zero())
    cert = SplitCertificate(standard_quaternion(1 + 3 * SPLIT_X, -one), SPLIT_K, QQ, w, 1, 4)
    assert not verify.verify_split(split_certificate_doc(cert))[0]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 18")
def test_isotropy_over_a_product_of_fields_forgery_fails():
    # <1, -(3 + 5x)/2> is <1, 1>, anisotropic over Q, at x = -1
    form = QuadraticForm.diagonal(SPLIT_K, 1, [1, -(3 + 5 * SPLIT_X) / 2])
    w = (1 + SPLIT_X, (1 + SPLIT_X) / 2)
    cert = IsotropyCertificate(SPLIT_K, w, claimed_bound=2, actual_degree=1, base_levels=1)
    assert not verify.verify_isotropy(isotropy_certificate_doc(QFSystem((form,)), cert))[0]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 18")
def test_cor_along_a_product_of_fields_forgery_fails():
    # the document that test_cli's precondition test starts from
    cyc = CyclicExtensionData.create(SPLIT_K, 1, [[1, 0], [0, -1]], 2)
    alg = matrix_algebra(SPLIT_K, 1)
    ta = tensor_power_over_K(alg, cyc)
    doc = cor_result_doc(fixed_subalgebra(ta, g_action_matrix(ta, cyc)), alg)
    assert not verify.verify_cor(doc)[0]


ISOTROPY_FORGERIES = {
    "no-forms": ([_set(("forms",), [])], "certificate has no forms or empty witness"),
    "added-level-not-sqrt": (
        [_set(("tower",), [_level("w", 1, 1, 1)]), _set(("actual_degree",), 2)],
        "added level 1 is not of shape X^2 - c",
    ),
    "added-level-sqrt0": (
        [_set(("tower",), [_level("z", 0, 0, 1)]), _set(("actual_degree",), 2)],
        "added level 1 adjoins sqrt(0)",
    ),
    "added-level-square": (
        [_set(("tower",), [_level("t", -4, 0, 1)]), _set(("actual_degree",), 2)],
        "added level 1 adjoins a root that already exists",
    ),
    "form-dimension": (
        [_set(("witness",), lambda w: w + ["0/1"])], "form 1 dimension does not match the witness"
    ),
    "degree-mismatch": (
        [_set(("actual_degree",), 2)], "actual_degree 2 != recomputed degree 1"
    ),
    # a genuine chain of two square roots, where 2^r = 2
    "degree-above-bound": (
        [_set(("tower",), SQRT2_SQRT3), _set(("actual_degree",), 4)],
        "actual_degree 4 > claimed_bound 2",
    ),
}


@pytest.mark.parametrize("name", sorted(ISOTROPY_FORGERIES))
def test_isotropy_forgery_fails(name):
    edits, why = ISOTROPY_FORGERIES[name]
    doc = copy.deepcopy(_isotropy_doc())
    assert verify.verify_isotropy(doc)[0]
    for edit in edits:
        edit(doc)
    ok, reason = verify.verify_isotropy(doc)
    assert not ok and reason.startswith(why), reason


# Q(s2) < Q(s2, s3): K = Q(s2) sits below the top, so an entry can lie above it
S2_S3 = tower_extend(cyclic_sqrt(2).tower, [-3, 0, 1], label="sqrt3")
X2_MINUS_1 = tower_to_json(tower_extend(QQ, [-1, 0, 1], label="x"))


@functools.cache
def _cor_doc(below_top):
    """The corestriction of M2 along Q(sqrt 2)/Q, with K the top of its
    tower or, when below_top, the first level of Q(sqrt 2, sqrt 3)."""
    cyc = CyclicExtensionData.create(S2_S3, 1, [[1, 0], [0, -1]], 2) if below_top else cyclic_sqrt(2)
    alg = matrix_algebra(cyc.tower, 1)
    ta = tensor_power_over_K(alg, cyc)
    return cor_result_doc(fixed_subalgebra(ta, g_action_matrix(ta, cyc)), alg)


def _truncate_cor(doc):
    """A consistent algebra of dimension 15: constants, unit and fixed basis
    cut to the first 15 basis vectors."""
    n = 15
    doc["dim"] = n
    doc["constants"] = [[row[:n] for row in plane[:n]] for plane in doc["constants"][:n]]
    doc["unit"] = doc["unit"][:n]
    doc["fixed_basis"] = doc["fixed_basis"][:n]


COR_FORGERIES = {
    "source-above-k": (
        True,
        [_set(("source", "algebra", "constants", 0, 0, 0), element_to_json(S2_S3.gen(2)))],
        "source algebra entries live above the K level",
    ),
    "sigma-at-k": (
        True,
        [_set(("source", "cyclic", "sigma", 1, 1), element_to_json(S2_S3.gen(1)))],
        "sigma has entries outside F",
    ),
    # x -> 1 on Q[x]/(x^2 - 1): a root of the minimal polynomial, of no
    # order below 2, yet sigma^2 sends x to 1
    "sigma-not-an-involution": (
        False,
        [
            _set(("field",), X2_MINUS_1),
            _set(("source", "algebra", "field"), X2_MINUS_1),
            _set(("source", "cyclic", "sigma"), [["1/1", "1/1"], ["0/1", "0/1"]]),
        ],
        "sigma^2 is not the identity",
    ),
    "fixed-basis-dropped": (
        False, [_set(("fixed_basis",), lambda fb: fb[:-1])], "fixed basis size 15 != cor dimension 16"
    ),
    "truncated-dimension": (False, [_truncate_cor], "cor dimension 15 != (dim_K A)^r = 16"),
    "fixed-basis-vector-length": (
        False,
        [_set(("fixed_basis", 0), lambda v: v[:-1])],
        "fixed basis vector 0 has wrong length",
    ),
}


@pytest.mark.parametrize("name", sorted(COR_FORGERIES))
def test_cor_forgery_fails(name):
    below_top, edits, why = COR_FORGERIES[name]
    doc = copy.deepcopy(_cor_doc(below_top))
    assert verify.verify_cor(doc)[0]
    for edit in edits:
        edit(doc)
    ok, reason = verify.verify_cor(doc)
    assert not ok and reason == why, reason


def _drop(*path):
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]

    return edit


# each document is malformed input rather than a false claim: the verifier
# raises MalformedCertificate (CLI exit 2) with the reason, and returns no
# verdict
MALFORMED = {
    "isotropy-no-tower": (
        "isotropy", [_drop("tower")], "isotropy certificate missing or mistyped field: 'tower'"
    ),
    "isotropy-forms-not-a-list": (
        "isotropy",
        [_set(("forms",), 5)],
        "isotropy certificate missing or mistyped field: 'int' object is not iterable",
    ),
    "split-no-u": ("split", [_drop("quaternion", "u")], "split certificate missing or mistyped field: 'u'"),
    "cor-no-source": ("cor", [_drop("source")], "cor result missing or mistyped field: 'source'"),
    "gram-not-square": (
        "isotropy", [_set(("forms", 0, 0), lambda row: row[:1])], "form 1: gram matrix must be square"
    ),
    "cor-unit-short": ("cor", [_set(("unit",), lambda u: u[:-1])], "unit length does not match dim"),
    "leaf-not-a-string": ("isotropy", [_set(("witness", 0), 5)], "expected 'num/den' string, got 5"),
    "leaf-zero-denominator": ("isotropy", [_set(("witness", 0), "1/0")], "zero denominator in '1/0'"),
    "empty-coefficient": ("split", [_set(("witness", 0), [])], "empty coefficient list"),
    # the first coefficient sets the depth 2; the second is a leaf, not a list
    "coefficient-shallower-than-level": (
        "isotropy",
        [_set(("tower",), SQRT2_SQRT3), _set(("witness", 0), [["1/1", "0/1"], "0/1"])],
        "element nesting shallower than its level",
    ),
    "tower-not-a-list": ("isotropy", [_set(("tower",), {})], "tower must be a list of levels"),
    "witness-not-a-list": ("isotropy", [_set(("witness",), {})], "vector must be a list"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_certificate_raises(name):
    kind, edits, why = MALFORMED[name]
    honest = {"isotropy": _isotropy_doc, "split": lambda: _split_doc(-1, -1), "cor": lambda: _cor_doc(False)}
    doc = copy.deepcopy(honest[kind]())
    for edit in edits:
        edit(doc)
    check = {"isotropy": verify.verify_isotropy, "split": verify.verify_split, "cor": verify.verify_cor}[kind]
    with pytest.raises(MalformedCertificate) as info:
        check(doc)
    assert str(info.value) == why
