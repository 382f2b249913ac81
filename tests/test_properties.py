"""Property-based checks of the kernel laws and module invariants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isotower import linalg
from isotower.errors import AllVanish, ReducibilityError
from isotower.quadforms import QFSystem, QuadraticForm, _line, _restrict, mix_forms, orthogonal_intersection
from isotower.serialize import canonical_dumps, element_from_json, element_to_json
from isotower.sqrt import sqrt_or_nonsquare
from isotower.tower import QQ, dot, tower_extend

TOWERS = {
    "gauss": tower_extend(QQ, [1, 0, 1], label="i"),
    "sqrt2": tower_extend(QQ, [-2, 0, 1], label="s2"),
    "cubic": tower_extend(QQ, [-1, -2, 1, 1], label="a"),
}
TOWERS["biquad"] = tower_extend(
    TOWERS["sqrt2"],
    [TOWERS["sqrt2"].rational(-3), TOWERS["sqrt2"].rational(0), TOWERS["sqrt2"].rational(1)],
    label="s3",
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


def build_element(tower, lv, draw_leaf):
    if lv == 0:
        return draw_leaf()
    return tuple(build_element(tower, lv - 1, draw_leaf) for _ in range(tower.levels[lv - 1].degree))


@st.composite
def tower_elements(draw, keys=tuple(TOWERS)):
    tower = TOWERS[draw(st.sampled_from(list(keys)))]
    data = build_element(tower, tower.height, lambda: draw(rationals))
    return tower.element(tower.height, data)


@st.composite
def element_triples(draw):
    tower = TOWERS[draw(st.sampled_from(list(TOWERS)))]

    def mk():
        return tower.element(
            tower.height, build_element(tower, tower.height, lambda: draw(rationals))
        )

    return mk(), mk(), mk()


@given(element_triples())
@settings(max_examples=150, deadline=None)
def test_ring_laws(triple):
    x, y, z = triple
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(tower_elements())
@settings(max_examples=100, deadline=None)
def test_inverse_round_trip(x):
    if x.is_zero():
        return
    assert x.inverse() * x == 1
    assert x.inverse().inverse() == x


@given(tower_elements(keys=("gauss", "sqrt2", "biquad")))
@settings(max_examples=60, deadline=None)
def test_sqrt_soundness_on_squares(x):
    if x.is_zero():
        return
    c = x * x
    root = sqrt_or_nonsquare(c)
    assert root is not None
    assert root * root == c
    assert root in (x, -x)


@given(tower_elements())
@settings(max_examples=100, deadline=None)
def test_serialization_round_trip(x):
    node = element_to_json(x)
    text = canonical_dumps(node)
    back = element_from_json(x.tower, node)
    assert back == x
    assert canonical_dumps(element_to_json(back)) == text


def _division_towers():
    s2 = tower_extend(QQ, [-2, 0, 1], label="s2")
    s3 = tower_extend(s2, [-3, 0, 1], label="s3")
    t = tower_extend(s3, [-(1 + s3.gen(1)), 0, 1], label="t")
    septic = tower_extend(QQ, [-2, 0, 0, 0, 0, 0, 0, 1], label="r")
    return {
        "sqrt-chain": tower_extend(t, [-(t.gen(3) + s3.gen(2)), 0, 1], label="u"),
        "sqrt-over-septic": tower_extend(septic, [-5, 0, 1], label="s"),
    }


DIVISION_TOWERS = _division_towers()


@st.composite
def division_pairs(draw):
    """(x, a) on one tower, each at a drawn level; a's upper half is zeroed
    about a quarter of the time, so constant divisors are drawn too."""
    tower = DIVISION_TOWERS[draw(st.sampled_from(sorted(DIVISION_TOWERS)))]
    leaves = st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4)

    def mk():
        lv = draw(st.integers(0, tower.height))
        x = tower.element(lv, build_element(tower, lv, lambda: draw(leaves)))
        if lv and draw(st.integers(0, 3)) == 0:
            x = tower.from_coeffs(lv, [x.coeffs()[0]])
        return x

    return mk(), mk()


@given(division_pairs())
@settings(max_examples=60, deadline=None)
def test_division_round_trip(pair):
    x, a = pair
    if a.is_zero():
        return
    q = x / a
    assert q * a == x
    assert q.level == max(x.level, a.level)


def test_reducibility_factor_divides():
    # deliberately reducible levels X^2 - a^2 expose a linear factor
    for a in (2, 3, 5, 7):
        bad = tower_extend(QQ, [-a * a, 0, 1], label="t")
        t = bad.gen()
        try:
            (t - a).inverse()
            raise AssertionError("expected a reducibility witness")
        except ReducibilityError as err:
            factor = err.witness.factor
            assert len(factor) - 1 == 1
            root = -factor[0]
            assert root * root == a * a  # the factor's root solves the minpoly


@given(st.integers(min_value=-30, max_value=30), st.integers(min_value=-30, max_value=30))
@settings(max_examples=80, deadline=None)
def test_mix_forms_preserves_zero_sets(c1, c2):
    from isotower.generate import random_qfsystem
    from isotower.quadforms import mix_forms

    rng = random.Random(c1 * 31 + c2)
    system = random_qfsystem(rng, 2, dim=4, lo=-4, hi=4)
    v = tuple(QQ.rational(rng.randint(-3, 3)) for _ in range(4))
    vals = [f.evaluate(v) for f in system.forms]
    if not any(vals):
        return
    mixed = mix_forms(system, v)
    for _ in range(5):
        x = tuple(QQ.rational(rng.randint(-4, 4)) for _ in range(4))
        orig_zero = all(f.evaluate(x).is_zero() for f in system.forms)
        mixed_zero = all(f.evaluate(x).is_zero() for f in mixed.forms)
        assert orig_zero == mixed_zero
    # and the mixed system vanishes at v except in the last slot
    assert all(f.evaluate(v).is_zero() for f in mixed.forms[:-1])


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_transfer_matches_coordinates(seed):
    from isotower.quadforms import LinearFunctionalBasis, QuadraticForm, transfer_system

    rng = random.Random(seed)
    tower = TOWERS["cubic"]
    a = tower.gen()
    form = QuadraticForm.diagonal(tower, 1, [1 + a * rng.randint(-2, 2), a])
    basis = LinearFunctionalBasis.standard(tower, 0, 1)
    system = transfer_system(form, basis)
    x = [Fraction(rng.randint(-5, 5)) for _ in range(6)]
    v_k = (tower.element(1, tuple(x[:3])), tower.element(1, tuple(x[3:])))
    value = form.evaluate(v_k)
    got = [f.evaluate(tuple(QQ.rational(c) for c in x)) for f in system.forms]
    assert [g.rational_value() for g in got] == list(value.data)


@st.composite
def rational_pairs(draw):
    """Pairs of rationals whose denominators are all 1, share factors, or
    are pairwise coprime, with numerators up to 40 digits."""
    dens = draw(st.sampled_from([(1,), (4, 6, 12, 18), (1, 7, 11, 13, 10**20 + 39)]))

    def leaf():
        return Fraction(draw(st.integers(-(10**40), 10**40)), draw(st.sampled_from(dens)))

    return [(leaf(), leaf()) for _ in range(draw(st.integers(0, 8)))]


@settings(max_examples=200, deadline=None)
@given(rational_pairs())
def test_rational_dot_is_the_exact_sum(pairs):
    got = dot([QQ.rational(a) for a, _ in pairs], [QQ.rational(b) for _, b in pairs])
    want = sum((a * b for a, b in pairs), Fraction(0))
    assert got.level == 0
    # an integral sum is the int leaf
    assert type(got.data) is (int if want.denominator == 1 else Fraction)
    assert got.data == want


@st.composite
def restrict_cases(draw):
    """A symmetric rational Gram matrix and basis vectors over Q, with the
    denominator classes of ``rational_pairs`` and frequent zero entries; the
    basis holds a zero vector and a unit vector among random ones."""
    dens = draw(st.sampled_from([(1,), (4, 6, 12, 18), (1, 7, 11, 13, 10**20 + 39)]))
    n = draw(st.integers(1, 5))

    def leaf():
        num = draw(st.one_of(st.just(0), st.integers(-(10**40), 10**40)))
        return Fraction(num, draw(st.sampled_from(dens)))

    gram = [[None] * n for _ in range(n)]
    for p in range(n):
        for q in range(p, n):
            gram[p][q] = gram[q][p] = leaf()
    unit = draw(st.integers(0, n - 1))
    basis = [[leaf() for _ in range(n)] for _ in range(draw(st.integers(0, 3)))]
    basis += [[Fraction(0)] * n, [Fraction(int(p == unit)) for p in range(n)]]
    return gram, draw(st.permutations(basis))


@settings(max_examples=200, deadline=None)
@given(restrict_cases())
def test_rational_restrict_is_the_exact_sum(case):
    gram, basis = case
    n = len(gram)
    form = QuadraticForm.from_gram(QQ, 0, gram)
    got = _restrict(form, [tuple(QQ.rational(x) for x in b) for b in basis])
    assert got.level == 0 and got.dim == len(basis)
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            want = sum((bi[p] * gram[p][q] * bj[q] for p in range(n) for q in range(n)), Fraction(0))
            entry = got.gram[i][j]
            assert entry.level == 0 and entry.data == want
            # an integral entry is the int leaf, any other a Fraction over > 1
            assert type(entry.data) is (int if want.denominator == 1 else Fraction)


# -- the rational rounds on integer rows against the Fraction reference --------


def _ref_value(g, v):
    n = len(g)
    return sum((v[p] * g[p][q] * v[q] for p in range(n) for q in range(n)), Fraction(0))


def _ref_mix(grams, v):
    """mix_forms on Fraction matrices, as the wrapped arithmetic did it:
    (mixed matrices, the index moved to the last slot)."""
    vals = [_ref_value(g, v) for g in grams]
    pick = max(i for i, a in enumerate(vals) if a)
    grams, vals = list(grams), list(vals)
    grams[pick], grams[-1] = grams[-1], grams[pick]
    vals[pick], vals[-1] = vals[-1], vals[pick]
    last, a_r = grams[-1], vals[-1]
    mixed = [[[a_r * x - a_i * y for x, y in zip(gr, hr)] for gr, hr in zip(g, last)] for g, a_i in zip(grams, vals)]
    return mixed[:-1] + [last], pick


def _ref_orthogonal(grams, v):
    """orthogonal_intersection's basis on the wrapped rows G_i v."""
    n = len(v)
    rows = tuple(tuple(QQ.rational(sum(g[p][q] * v[q] for q in range(n))) for p in range(n)) for g in grams[:-1])
    w = list(linalg.nullspace(rows, QQ, 0, n)) if rows else list(linalg.identity(QQ, 0, n))
    free = [max(k for k, x in enumerate(b) if x) for b in w]
    drop = max(i for i, f in enumerate(free) if v[f])
    return tuple([tuple(QQ.rational(x) for x in v)] + w[:drop] + w[drop + 1:])


def _assert_form_is(form, want):
    """form's materialised gram is the Fraction matrix want, leaf by leaf,
    each leaf canonical: an int when integral, else a Fraction over > 1."""
    assert form.level == 0 and form.dim == len(want)
    for row, want_row in zip(form.gram, want):
        for x, y in zip(row, want_row):
            assert x.level == 0 and x.data == y
            assert type(x.data) is (int if y.denominator == 1 else Fraction)


@st.composite
def integer_systems(draw):
    """r forms over Q held as integer rows over their own denominator D
    (1, shared factors, or coprime up to 10^20 + 39), some built from a
    wrapped gram and some only as (M, D), with frequent zero and negative
    entries, and a rational vector v with zeros."""
    r, n = draw(st.integers(2, 3)), draw(st.integers(2, 5))
    entry = st.one_of(st.just(0), st.integers(-(10**30), 10**30), st.integers(-3, 3))
    forms = []
    for _ in range(r):
        den = draw(st.sampled_from([1, 4, 6, 12, 18, 7, 11, 13, 10**20 + 39]))
        rows = [[0] * n for _ in range(n)]
        for p in range(n):
            for q in range(p, n):
                rows[p][q] = rows[q][p] = draw(entry)
        forms.append((tuple(map(tuple, rows)), den, draw(st.booleans())))
    dens = draw(st.sampled_from([(1,), (4, 6, 12), (1, 7, 10**20 + 39)]))
    v = [Fraction(draw(st.one_of(st.just(0), st.integers(-9, 9))), draw(st.sampled_from(dens))) for _ in range(n)]
    return forms, v


@settings(max_examples=150, deadline=None)
@given(integer_systems())
def test_integer_rounds_match_the_fraction_reference(case):
    specs, v = case
    grams = [[[Fraction(x, den) for x in row] for row in rows] for rows, den, _ in specs]
    forms = tuple(
        QuadraticForm.from_gram(QQ, 0, g) if wrapped else QuadraticForm(QQ, 0, rows, den)
        for g, (rows, den, wrapped) in zip(grams, specs)
    )
    vec = tuple(QQ.rational(x) for x in v)
    for f, g in zip(forms, grams):
        value = f.evaluate(vec)
        assert value.data == _ref_value(g, v)
        assert type(value.data) is (int if value.data.denominator == 1 else Fraction)
    if not any(_ref_value(g, v) for g in grams):
        with pytest.raises(AllVanish):
            mix_forms(QFSystem(forms), vec)
        return
    mixed = mix_forms(QFSystem(forms), vec)
    want, pick = _ref_mix(grams, v)
    assert mixed.forms[-1] is forms[pick]
    z = [Fraction(0)] + v[1:]
    for f, g in zip(mixed.forms, want):
        _assert_form_is(f, g)
        # the binary quadratic phi(x e_1 + z) that closes a level
        a, b, c = _line(f, tuple(QQ.rational(x) for x in z))
        assert [a.data, b.data, c.data] == [g[0][0], 2 * sum(x * y for x, y in zip(g[0], z)), _ref_value(g, z)]
    basis = orthogonal_intersection(mixed, vec)[0]
    assert basis == _ref_orthogonal(want, v)
    complement = basis[1:]
    n = len(v)
    for f, g in zip(mixed.forms, want):
        sub = _restrict(f, complement)
        b = [[x.data for x in c] for c in complement]
        _assert_form_is(sub, [[sum((bi[p] * g[p][q] * bj[q] for p in range(n) for q in range(n)), Fraction(0))
                               for bj in b] for bi in b])



# -- the same rounds above Q against wrapped TowerElement arithmetic ----------


@st.composite
def systems_above_q(draw):
    """r forms at level 1 of Q(sqrt 2) or of the cubic base-root level, some
    built from a wrapped gram and some directly as (D G, D), with Fraction
    coefficients (so D > 1), shared-zero entries and zero coefficients; a
    vector v at level 1 with zero entries."""
    name = draw(st.sampled_from(["sqrt2", "cubic"]))
    tower = TOWERS[name]
    coeff = st.one_of(st.just(0), st.fractions(min_value=-20, max_value=20, max_denominator=6))

    def element():
        if draw(st.integers(0, 3)) == 0:
            return tower.zero(1)
        return tower.from_coeffs(1, [draw(coeff) for _ in range(tower.degree_of_level(1))])

    r, n = draw(st.integers(2, 3)), draw(st.integers(2, 4))
    specs = []
    for _ in range(r):
        gram = [[None] * n for _ in range(n)]
        for p in range(n):
            for q in range(p, n):
                gram[p][q] = gram[q][p] = element()
        specs.append((gram, draw(st.sampled_from([None, 1, 6, 35]))))
    return name, specs, tuple(element() for _ in range(n))


def _wrapped_bilinear(tower, g, x, y):
    n = len(g)
    return sum((x[p] * g[p][q] * y[q] for p in range(n) for q in range(n)), tower.zero(1))


@settings(max_examples=60, deadline=None)
@given(systems_above_q())
def test_rounds_above_q_match_the_wrapped_reference(case):
    name, specs, v = case
    tower = TOWERS[name]
    forms = tuple(
        QuadraticForm.from_gram(tower, 1, g) if den is None
        else QuadraticForm(tower, 1, tuple(tuple((x * den).data for x in row) for row in g), den)
        for g, den in specs
    )
    grams = [g for g, _ in specs]
    for f, g in zip(forms, grams):
        assert f.gram == tuple(map(tuple, g))
    for f, (_, den) in zip(forms, specs):
        if den is None:
            # from_gram stores integral leaves over the lcm of the denominators
            assert all(type(c) is int for row in f.rows for x in row for c in x)
    n = len(v)
    z = (tower.zero(1),) + v[1:]
    for f, g in zip(forms, grams):
        assert f.evaluate(v) == _wrapped_bilinear(tower, g, v, v)
        a, b, c = _line(f, z)
        assert (a, b, c) == (g[0][0], 2 * sum((g[0][q] * z[q] for q in range(n)), tower.zero(1)),
                             _wrapped_bilinear(tower, g, z, z))
        sub = _restrict(f, [v, z])
        assert sub.gram == tuple(tuple(_wrapped_bilinear(tower, g, x, y) for y in (v, z)) for x in (v, z))
    if name == "sqrt2":
        # a vector one level up, in Q(sqrt 2, sqrt 3): the form's rows are
        # embedded to its level
        top = TOWERS["biquad"]
        w = tuple(top.from_coeffs(2, [x, y]) for x, y in zip(v, reversed(v)))
        wz = (top.zero(2),) + w[1:]
        for f, g in zip(forms, grams):
            assert f.evaluate(w) == _wrapped_bilinear(top, g, w, w)
            a, b, c = _line(f, wz)
            assert (b, c) == (2 * sum((g[0][q] * wz[q] for q in range(n)), top.zero(2)),
                              _wrapped_bilinear(top, g, wz, wz))
            assert b.level == c.level == 2
    vals = [_wrapped_bilinear(tower, g, v, v) for g in grams]
    if not any(vals):
        with pytest.raises(AllVanish):
            mix_forms(QFSystem(forms), v)
        return
    mixed = mix_forms(QFSystem(forms), v)
    pick = max(i for i, a in enumerate(vals) if a)
    grams[pick], grams[-1] = grams[-1], grams[pick]
    vals[pick], vals[-1] = vals[-1], vals[pick]
    assert mixed.forms[-1] is forms[pick]
    for f, g, a_i in zip(mixed.forms[:-1], grams, vals):
        assert f.gram == tuple(tuple(vals[-1] * x - a_i * y for x, y in zip(gr, hr)) for gr, hr in zip(g, grams[-1]))
