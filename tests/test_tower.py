from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isotower.errors import ReducibilityError, ZeroInverse
from isotower.serialize import element_to_json, tower_from_json, tower_to_json
from isotower.serialize import element_from_json, fraction_from_json, fraction_to_json
from isotower.tower import QQ, TowerElement, TowerField, _pdivmod, dot, dot_matrix, tower_extend
from isotower.tower import _add, _div, _dot, _embed_up, _inv, _is_zero, _mul, _neg, _raw_one, _scale, _sqr, _sub
from isotower.tower import _raw_zero, _times_c


@pytest.fixture
def q_i():
    return tower_extend(QQ, [1, 0, 1], label="i")


@pytest.fixture
def q_sqrt2():
    return tower_extend(QQ, [-2, 0, 1], label="s2")


@pytest.fixture
def cubic():
    # x^3 + x^2 - 2x - 1: no rational root (p(1) = -1, p(-1) = 1), so irreducible
    return tower_extend(QQ, [-1, -2, 1, 1], label="a")


def cubic_discriminant():
    # 18abcd - 4b^3 d + b^2 c^2 - 4ac^3 - 27a^2 d^2 for x^3 + x^2 - 2x - 1
    a, b, c, d = 1, 1, -2, -1
    return 18 * a * b * c * d - 4 * b**3 * d + b**2 * c**2 - 4 * a * c**3 - 27 * a**2 * d**2


def test_cubic_is_cyclic():
    assert cubic_discriminant() == 49  # square discriminant: Galois, cyclic


def test_extend_degrees(q_i, q_sqrt2):
    assert q_i.absolute_degree() == 2
    stacked = tower_extend(q_sqrt2, [q_sqrt2.rational(-3), q_sqrt2.rational(0), q_sqrt2.rational(1)])
    assert stacked.absolute_degree() == 4
    c = tower_extend(QQ, [-1, -2, 1, 1])
    assert c.absolute_degree() == 3


def test_level_queries_reject_levels_outside_the_tower(q_sqrt2):
    # Q(s2)(a) with a^3 + a^2 - 2a - 1: levels 1..2, prefixes 0..2
    top = tower_extend(q_sqrt2, [-1, -2, 1, 1], label="a")
    assert [top.degree_of_level(lv) for lv in (1, 2)] == [2, 3]
    assert [top.absolute_degree(lv) for lv in (0, 1, 2, None)] == [1, 2, 6, 6]
    assert [top.prefix(h).height for h in (0, 1, 2)] == [0, 1, 2]
    for lv in (-1, 0, 3):
        with pytest.raises(ValueError):
            top.degree_of_level(lv)
    for lv in (-1, 3, 7):
        with pytest.raises(ValueError):
            top.absolute_degree(lv)
        with pytest.raises(ValueError):
            top.prefix(lv)


def test_extend_and_prefix_reuse_level_contexts(cubic):
    # a level's context depends only on the levels below it: extending a
    # tower, cutting a prefix and parsing one reuse the contexts built
    top = tower_extend(tower_extend(cubic, [-2, 0, 1], label="s"), [-3, 0, 1], label="t")
    for height in range(top.height + 1):
        cut = top.prefix(height)
        fresh = TowerField(top.levels[:height])
        assert cut == fresh and hash(cut) == hash(fresh)
        assert len(cut._ctx) == height and all(c is d for c, d in zip(cut._ctx, top._ctx))
        assert [vars_of(c) for c in cut._ctx] == [vars_of(c) for c in fresh._ctx]
    below = top.prefix(2)
    again = tower_extend(below, [-3, 0, 1], label="t")
    assert again == top and all(c is d for c, d in zip(again._ctx, below._ctx))
    parsed = tower_from_json(tower_to_json(top))
    assert parsed == top and {parsed: 1}[top] == 1
    assert [vars_of(c) for c in parsed._ctx] == [vars_of(c) for c in top._ctx]


def vars_of(ctx):
    return tuple(getattr(ctx, name) for name in type(ctx).__slots__)


def test_extend_rejects_bad_minpolys():
    with pytest.raises(ValueError):
        tower_extend(QQ, [1, 1])  # degree 1
    with pytest.raises(ValueError):
        tower_extend(QQ, [1, 0, 2])  # not monic


def test_gaussian_arithmetic(q_i):
    i = q_i.gen()
    one = q_i.one()
    assert (one + i) * (one - i) == 2
    assert (one + i).inverse() == (one - i) * Fraction(1, 2)
    assert (one + i).inverse() * (one + i) == 1


def test_sqrt2_arithmetic(q_sqrt2):
    s = q_sqrt2.gen()
    assert (1 + s) ** 2 == 3 + 2 * s
    assert (3 + 2 * s).inverse() == 3 - 2 * s  # norm 1


def test_cubic_reduction(cubic):
    a = cubic.gen()
    assert a * (a * a) == -(a * a) + 2 * a + 1


def test_zero_inverse(q_i):
    with pytest.raises(ZeroInverse):
        q_i.zero().inverse()


def test_reducibility_witness():
    bad = tower_extend(QQ, [-4, 0, 1], label="t")  # X^2 - 4 = (X-2)(X+2)
    t = bad.gen()
    with pytest.raises(ReducibilityError) as err:
        (t - 2).inverse()
    witness = err.value.witness
    assert witness.level == 1
    assert 1 <= len(witness.factor) - 1 < 2
    # the factor divides the minimal polynomial exactly
    _, rem = _pdivmod(QQ._ctx, 0, [Fraction(-4), Fraction(0), Fraction(1)], list(witness.factor))
    assert rem == []


def test_embed_preserves_value(q_sqrt2):
    stacked = tower_extend(q_sqrt2, [q_sqrt2.rational(-3), q_sqrt2.rational(0), q_sqrt2.rational(1)])
    x = QQ.rational(Fraction(3, 2))
    lifted = x.in_tower(stacked).embed(2)
    assert lifted.rational_value() == Fraction(3, 2)
    s = q_sqrt2.gen().in_tower(stacked)
    assert s.embed(2) * s.embed(2) == 2


def test_auto_embedding_mixed_levels(q_sqrt2):
    s = q_sqrt2.gen()
    r = QQ.rational(5).in_tower(q_sqrt2)
    assert s + r == s + 5
    assert (r * s).level == 1


def test_element_equality_and_hash(q_i, q_sqrt2):
    i = q_i.gen()
    assert i + 1 == 1 + i
    assert hash(i + 1) == hash(1 + i)
    assert i != 1
    # equal values at different levels hash alike; a rational as its Fraction
    x = QQ.rational(3)
    y = x.in_tower(q_sqrt2).embed(1)
    assert x == y and y == 3
    assert hash(x) == hash(y) == hash(3) == hash(Fraction(3))
    assert len({x, y, 3}) == 1
    stacked = tower_extend(q_sqrt2, [-3, 0, 1], label="s3")
    s = q_sqrt2.gen()
    lifted = (s + 1).in_tower(stacked).embed(2)
    assert lifted == s + 1 and hash(lifted) == hash(s + 1)
    assert len({s + 1, lifted, stacked.gen() + s}) == 2


def test_str_past_digit_limit(q_sqrt2):
    # verify's FAIL reasons are built from str(); 10^4400 + 1 has 4401
    # digits, past CPython's default int -> str limit of 4300
    big = 10**4400 + 1
    text = "1" + "0" * 4399 + "1"
    assert str(QQ.rational(Fraction(-big, 7))) == f"-{text}/7"
    x = big + Fraction(3, big) * q_sqrt2.gen()
    assert str(x) == f"{text} + (3/{text})*s2"
    assert repr(x) == f"TowerElement(level=1, {x})"


def _assert_leaves(data, lv):
    """Every leaf of raw level-lv data is an int, or a Fraction with
    denominator > 1: never a float, a bool or an integral Fraction."""
    if lv == 0:
        assert type(data) is int or (type(data) is Fraction and data.denominator > 1), repr(data)
        return
    assert isinstance(data, tuple)
    for c in data:
        _assert_leaves(c, lv - 1)


def test_values_are_immutable_structures(q_i):
    # nested tuples of leaves all the way down: safe to share across threads
    x = q_i.gen() + 1
    _assert_leaves(x.data, x.level)
    assert x.data == (1, 1)
    y = x / 2
    _assert_leaves(y.data, y.level)
    assert y.data == (Fraction(1, 2), Fraction(1, 2))
    assert isinstance(q_i.levels, tuple)


def test_degree_multiplicativity_random():
    import random

    rng = random.Random(5)
    tower = QQ
    expected = 1
    for n in range(3):
        deg = rng.choice([2, 3])
        coeffs = [tower.rational(rng.randint(-5, 5)) for _ in range(deg)] + [tower.one()]
        tower = tower_extend(tower, coeffs)
        expected *= deg
        assert tower.absolute_degree() == expected


def _random_element(rng, tower, level):
    """A random element with about a third of its coefficients zero at each
    level, so dot meets zero halves as well as full pairs."""
    if level == 0:
        return tower.rational(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), 0)
    coeffs = [
        tower.zero(level - 1) if rng.random() < 0.3 else _random_element(rng, tower, level - 1)
        for _ in range(tower.degree_of_level(level))
    ]
    return tower.from_coeffs(level, coeffs)


def _dot_towers():
    """Each case is a chain of towers, every one a prefix of the next."""
    s2 = tower_extend(QQ, [-2, 0, 1], label="s2")
    s3 = tower_extend(s2, [-3, 0, 1], label="s3")
    t = tower_extend(s3, [-(1 + s3.gen(1)), 0, 1], label="t")   # X^2 - (1 + s2)
    u = tower_extend(t, [-(t.gen(3) + s3.gen(2)), 0, 1], label="u")
    # constants whose leaves have distinct denominators, so _times_c takes
    # its integral route: X^2 - (1/3 + s2/5), whose norm 7/225 is not a
    # square, and above it X^2 - (1/5 + s3/3 + v/2), whose norm to Q is not
    # a square either
    v = tower_extend(s3, [-(Fraction(1, 3) + s3.gen(1) / 5), 0, 1], label="v")
    w = tower_extend(v, [-(Fraction(1, 5) + v.gen(2) / 3 + v.gen(3) / 2), 0, 1], label="w")
    cubic = tower_extend(QQ, [-1, -2, 1, 1], label="a")
    over_cubic = tower_extend(cubic, [-(cubic.gen(1) + 1), 0, 1], label="b")
    septic = tower_extend(QQ, [-2, 0, 0, 0, 0, 0, 0, 1], label="r")
    over_septic = tower_extend(septic, [-5, 0, 1], label="s")
    # X^3 - (1 + s2): 1 + s2 is a unit of Q(s2) that is not a cube
    cubic_over_sqrt = tower_extend(s2, [-(1 + s2.gen(1)), 0, 0, 1], label="c")
    return {
        "sqrt-chain-rational": [s2, s3],
        "sqrt-chain": [s2, s3, t, u],
        "sqrt-chain-fractional": [s2, s3, v, w],
        "cubic": [cubic],
        "septic": [septic],
        "sqrt-over-cubic": [cubic, over_cubic],
        "sqrt-over-septic": [septic, over_septic],
        "cubic-over-sqrt": [s2, cubic_over_sqrt],
    }


@pytest.mark.parametrize("case", sorted(_dot_towers()))
def test_dot_matches_sum_of_products(case):
    import random

    chain = _dot_towers()[case]
    rng = random.Random(case)
    for _ in range(12):
        n = rng.randint(1, 6)
        xs, ys = [], []
        for _ in range(n):
            for out in (xs, ys):
                tower = rng.choice(chain)
                # mostly top-level factors, so full pairs reach every level
                level = tower.height if rng.random() < 0.6 else rng.randint(0, tower.height)
                zero = rng.random() < 0.15
                out.append(tower.zero(level) if zero else _random_element(rng, tower, level))
        expected = xs[0] * ys[0]
        for x, y in zip(xs[1:], ys[1:]):
            expected = expected + x * y
        got = dot(xs, ys)
        assert got == expected
        assert got.level == max(x.level for x in xs + ys)
        assert got.tower == max((x.tower for x in xs + ys), key=lambda t: t.height)
    zeros = [chain[-1].zero(1)] * 3
    assert dot(zeros, [_random_element(rng, chain[-1], 1)] * 3).is_zero()


def _ref_value(data, lv):
    """Raw kernel data as nested lists of Fractions, for the reference."""
    return Fraction(data) if lv == 0 else [_ref_value(c, lv - 1) for c in data]


def _ref_add(a, b, sign=1):
    if isinstance(a, Fraction):
        return a + sign * b
    return [_ref_add(x, y, sign) for x, y in zip(a, b)]


def _ref_zero(minpolys, lv):
    return Fraction(0) if lv == 0 else [_ref_zero(minpolys, lv - 1)] * (len(minpolys[lv - 1]) - 1)


def _ref_mul(minpolys, lv, a, b):
    """a*b by the schoolbook polynomial product, then reduction of each
    power X^i, i >= d, by the level's monic minimal polynomial m of degree
    d, on plain Fractions: it shares no code with the kernel."""
    if lv == 0:
        return a * b
    lo, m = lv - 1, minpolys[lv - 1]
    d = len(m) - 1
    prod = [_ref_zero(minpolys, lo)] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = _ref_add(prod[i + j], _ref_mul(minpolys, lo, x, y))
    for i in range(2 * d - 2, d - 1, -1):
        for j in range(d):
            prod[i - d + j] = _ref_add(prod[i - d + j], _ref_mul(minpolys, lo, prod[i], m[j]), -1)
    return prod[:d]


@pytest.mark.parametrize("case", sorted(_dot_towers()))
def test_products_match_a_schoolbook_reference(case):
    # the ring-law and dot = sum-of-products checks are consistency checks:
    # a kernel that multiplied consistently by a wrong c would pass them all
    import random

    rng = random.Random(case + "-ref")
    for tower in _dot_towers()[case]:
        ctx = tower._ctx
        minpolys = [[_ref_value(c, i) for c in level.minpoly] for i, level in enumerate(tower.levels)]
        for lv in range(1, tower.height + 1):
            for _ in range(6):
                # random values have zero coefficients at every level; some
                # have a zero upper half, the value of the level below
                pairs = []
                for _ in range(rng.randint(1, 4)):
                    x, y = (_random_element(rng, tower, lv) for _ in range(2))
                    if rng.random() < 0.3:
                        x = tower.from_coeffs(lv, [x.coeffs()[0]])
                    if rng.random() < 0.3:
                        y = tower.from_coeffs(lv, [y.coeffs()[0]])
                    pairs.append((x.data, y.data))
                refs = [[_ref_value(x, lv), _ref_value(y, lv)] for x, y in pairs]
                (a, b), (ra, rb) = pairs[0], refs[0]
                assert _ref_value(_mul(ctx, lv, a, b), lv) == _ref_mul(minpolys, lv, ra, rb)
                assert _ref_value(_sqr(ctx, lv, a), lv) == _ref_mul(minpolys, lv, ra, ra)
                want = _ref_zero(minpolys, lv)
                for rx, ry in refs:
                    want = _ref_add(want, _ref_mul(minpolys, lv, rx, ry))
                assert _ref_value(_dot(ctx, lv, pairs), lv) == want


@pytest.mark.parametrize("case", sorted(_dot_towers()))
def test_inverse_matches_product(case):
    import random

    chain = _dot_towers()[case]
    rng = random.Random(case)
    tower = chain[-1]
    for _ in range(12):
        level = rng.randint(1, tower.height)
        x = _random_element(rng, tower, level)
        if rng.random() < 0.3:
            # a zero upper half: the value of the level below
            x = tower.from_coeffs(level, [x.coeffs()[0]])
        if x.is_zero():
            continue
        assert x * x.inverse() == 1
        assert x.inverse().level == level


@pytest.mark.parametrize("case", sorted(_dot_towers()))
def test_negative_power_matches_inverse(case):
    import random

    tower = _dot_towers()[case][-1]
    rng = random.Random(case)
    for _ in range(6):
        level = rng.randint(1, tower.height)
        x = _random_element(rng, tower, level)
        if rng.random() < 0.3:
            x = tower.from_coeffs(level, [x.coeffs()[0]])
        if x.is_zero():
            continue
        for n in (1, 2, 3):
            got = x ** -n
            assert got == x.inverse() ** n
            assert got * x**n == 1
            assert got.level == level
    with pytest.raises(ZeroInverse):
        tower.zero() ** -2


@pytest.mark.parametrize("case", sorted(_dot_towers()))
def test_embed_up_pads_with_the_shared_zeros(case):
    import random

    rng = random.Random(case + "-embed")
    for tower in _dot_towers()[case]:
        ctx, h = tower._ctx, tower.height
        for lv_from in range(h + 1):
            x = _random_element(rng, tower, lv_from)
            while x.is_zero():
                x = _random_element(rng, tower, lv_from)
            for lv_to in range(lv_from + 1, h + 1):
                got = _embed_up(ctx, lv_from, x.data, lv_to)
                want = x.data
                for lv in range(lv_from + 1, lv_to + 1):
                    pad = _fresh(tower.zero(lv - 1).data, lv - 1)
                    want = (want,) + (pad,) * (tower.degree_of_level(lv) - 1)
                assert got == want
                inner = got
                for lv in range(lv_to, lv_from, -1):
                    assert all(p is tower.zero(lv - 1).data for p in inner[1:])
                    inner = inner[0]
                assert inner is x.data
                assert _embed_up(ctx, lv_from, tower.zero(lv_from).data, lv_to) is tower.zero(lv_to).data
            # a target level above the tower raises, for zero and nonzero values
            for data in (x.data, tower.zero(lv_from).data):
                with pytest.raises(IndexError):
                    _embed_up(ctx, lv_from, data, h + 1)
        with pytest.raises(ValueError):
            tower.rational(3, h + 1)


@pytest.mark.parametrize("case", sorted(_dot_towers()))
def test_raw_one_is_the_flat_unit(case):
    import random

    rng = random.Random(case + "-one")
    for tower in _dot_towers()[case]:
        ctx = tower._ctx
        for lv in range(tower.height + 1):
            one = _raw_one(ctx, lv)
            assert _leaves(one, lv) == [1] + [0] * (tower.absolute_degree(lv) - 1)
            for _ in range(4):
                a = _random_element(rng, tower, lv).data
                assert _mul(ctx, lv, a, one) == a


@pytest.mark.parametrize("case", sorted(_dot_towers()))
def test_constructors_reject_levels_outside_the_tower(case):
    for tower in _dot_towers()[case]:
        h = tower.height
        for lv in (-1, h + 1):
            for make in (
                tower.zero,
                tower.one,
                lambda lv: tower.rational(3, lv),
                lambda lv: tower.coerce(3, lv),
                tower.gen,
                lambda lv: tower.from_coeffs(lv, [1]),
                lambda lv: tower.element(lv, tower.one().data),
            ):
                with pytest.raises(ValueError, match="outside the tower"):
                    make(lv)


def test_coerce_embeds_elements_and_reads_the_rest_as_rationals(q_i, cubic):
    top = tower_extend(q_i, [-2, 0, 1], label="s2")
    assert top.coerce(Fraction(3, 4), 1) == top.rational(Fraction(3, 4), 1)
    assert top.coerce(3, 1).level == 1
    # an element of the prefix tower Q(i), retagged and lifted to the top
    x = q_i.gen() + 2
    got = top.coerce(x, 2)
    assert got.tower is top and got.level == 2 and got == top.gen(1) + 2
    with pytest.raises(ValueError, match="towers disagree"):
        top.coerce(cubic.gen(), 2)


def test_rational_accepts_only_ints_and_fractions(q_sqrt2):
    for bad in (0.1, 0.5, True, False, "1/3", None, 1j):
        with pytest.raises(TypeError):
            q_sqrt2.rational(bad, 1)
        with pytest.raises(TypeError):
            q_sqrt2.coerce(bad, 0)
        with pytest.raises(TypeError):
            q_sqrt2.from_coeffs(1, [1, bad])
        with pytest.raises(TypeError):
            q_sqrt2.gen() * bad
        with pytest.raises(TypeError):
            q_sqrt2.gen() + bad
    # an integral Fraction is stored, and read back, as an int
    x = q_sqrt2.rational(Fraction(6, 3), 1)
    assert type(x.data[0]) is int and type(x.rational_value()) is int
    assert x == 2 and hash(x) == hash(2) == hash(Fraction(2))
    third = QQ.rational(Fraction(1, 3))
    assert type(third.data) is Fraction and third.rational_value() == Fraction(1, 3)
    assert type((q_sqrt2.gen() * Fraction(4, 2)).data[1]) is int


def test_element_accepts_only_int_and_fraction_leaves(q_i):
    for bad in (True, 0.5):
        with pytest.raises(TypeError):
            QQ.element(0, bad)
        with pytest.raises(TypeError):
            q_i.element(1, (1, bad))
    # integral Fractions become ints
    x = q_i.element(1, (Fraction(4, 2), Fraction(1, 2)))
    assert x.data == (2, Fraction(1, 2)) and type(x.data[0]) is int
    assert type(QQ.element(0, Fraction(7)).data) is int


@pytest.mark.parametrize("case", sorted(_dot_towers()))
def test_division_matches_inverse_product(case):
    import random

    chain = _dot_towers()[case]
    rng = random.Random(case + "-div")
    tower = chain[-1]

    def divisor():
        # mostly top-level, often with a zero upper half, sometimes rational
        # or from a lower level or a shorter tower of the chain
        pick = rng.random()
        if pick < 0.15:
            return tower.rational(Fraction(rng.choice([-7, -2, 3, 5]), rng.randint(1, 4)), tower.height)
        t = rng.choice(chain)
        level = t.height if pick < 0.6 else rng.randint(0, t.height)
        a = _random_element(rng, t, level)
        if level and rng.random() < 0.3:
            a = t.from_coeffs(level, [a.coeffs()[0]])
        return a

    for _ in range(16):
        a = divisor()
        if a.is_zero():
            continue
        inv = a.inverse()
        t = rng.choice(chain)
        xs = [_random_element(rng, t, rng.randint(0, t.height)) for _ in range(3)]
        xs.append(t.zero(t.height))
        for x in xs:
            got, want = x / a, x * inv
            assert got == want
            assert got.data == want.data
            assert (got.level, got.tower) == (want.level, want.tower)
        n = rng.choice([-3, 1, 2])
        got, want = n / a, n * inv
        assert got == want and (got.level, got.tower) == (a.level, a.tower)
        # several numerators at the divisor's level: one call, one norm chain
        ctx, lv = a.tower._ctx, a.level
        nums = [x.in_tower(a.tower).embed(lv).data for x in xs if x.level <= lv]
        assert _div(ctx, lv, nums, a.data) == [_div(ctx, lv, [x], a.data)[0] for x in nums]
        for x, q in zip(nums, _div(ctx, lv, nums, a.data)):
            assert q == _mul(ctx, lv, x, inv.data)
            _assert_canonical(a.tower, lv, q)


@pytest.mark.parametrize("case", sorted(_dot_towers()))
def test_division_by_zero(case):
    tower = _dot_towers()[case][-1]
    x = tower.gen() + 1
    for level in range(tower.height + 1):
        zero = tower.zero(level)
        # a zero embedded from below, and one that is not the shared zero
        fresh = tower.element(level, _fresh(zero.data, level))
        for divisor in (zero, zero.embed(tower.height), fresh):
            with pytest.raises(ZeroInverse):
                x / divisor
            with pytest.raises(ZeroInverse):
                3 / divisor
            with pytest.raises(ZeroInverse):
                _div(tower._ctx, divisor.level, [], divisor.data)


def _reducible_over_sqrt2():
    s2 = tower_extend(QQ, [-2, 0, 1], label="s2")
    r = s2.gen()
    c = 3 + 2 * r  # (1 + s2)^2, so X^2 - c splits over Q(s2)
    bad = tower_extend(s2, [-c, 0, 1], label="g")
    return bad, bad.gen() - (1 + r)


def test_conjugate_inverse_exposes_factor():
    bad, zero_divisor = _reducible_over_sqrt2()
    with pytest.raises(ReducibilityError) as err:
        zero_divisor.inverse()
    witness = err.value.witness
    assert witness.level == 2
    assert len(witness.factor) == 2
    minpoly = list(bad.levels[1].minpoly)
    _, rem = _pdivmod(bad._ctx, 1, minpoly, list(witness.factor))
    assert rem == []


def test_conjugate_division_exposes_the_same_factor():
    bad, zero_divisor = _reducible_over_sqrt2()
    with pytest.raises(ReducibilityError) as by_inverse:
        zero_divisor.inverse()
    for dividend in (bad.one(), bad.gen(), bad.zero(), 5):
        with pytest.raises(ReducibilityError) as by_division:
            dividend / zero_divisor
        assert by_division.value.witness == by_inverse.value.witness


def test_generic_level_factor_is_made_monic():
    # Q[x]/(x^3 - 8) is reducible: Euclid on 2x - 4 against the minimal
    # polynomial ends at the last nonzero remainder 2x - 4 itself, and the
    # witness reports it monic, as the factor x - 2
    bad = tower_extend(QQ, [-8, 0, 0, 1], label="c8")
    zero_divisor = 2 * bad.gen() - 4
    for attempt in (zero_divisor.inverse, lambda: 1 / zero_divisor):
        with pytest.raises(ReducibilityError) as err:
            attempt()
        assert err.value.witness.level == 1
        assert err.value.witness.factor == (-2, 1)


def test_dot_rejects_incompatible_towers(q_i, q_sqrt2):
    with pytest.raises(ValueError):
        dot([q_i.gen()], [q_sqrt2.gen()])
    assert dot([], []) == 0


@pytest.mark.parametrize("case", sorted(_dot_towers()))
def test_dot_matrix_matches_dot(case):
    import random

    # QQ is a prefix of every chain, so rationals from it mix in as well
    chain = [QQ] + _dot_towers()[case]
    rng = random.Random(case + "-matrix")

    def vector(n, zero):
        out = []
        for _ in range(n):
            tower = rng.choice(chain)
            level = rng.randint(0, tower.height)
            if zero or rng.random() < 0.15:
                out.append(tower.zero(level))
            else:
                out.append(_random_element(rng, tower, level))
        return out

    for _ in range(6):
        n = rng.randint(1, 5)
        # row 1 and column 0 are all zero, at mixed levels
        rows = [vector(n, zero=i == 1) for i in range(rng.randint(2, 4))]
        cols = [vector(n, zero=j == 0) for j in range(rng.randint(2, 4))]
        m = dot_matrix(rows, cols)
        assert len(m) == len(rows)
        for row, out in zip(rows, m):
            assert len(out) == len(cols)
            for col, got in zip(cols, out):
                want = dot(row, col)
                assert got == want
                assert got.data == want.data
                assert got.level == want.level == max(x.level for x in row + col)
                assert got.tower == want.tower
                assert got.tower == max((x.tower for x in row + col), key=lambda t: t.height)
        assert all(e.is_zero() for e in m[1])
        assert all(out[0].is_zero() for out in m)
    assert dot_matrix([], cols) == ()
    assert dot_matrix(rows, []) == ((),) * len(rows)


def test_dot_matrix_rejects_incompatible_towers(q_i, q_sqrt2):
    with pytest.raises(ValueError):
        dot_matrix([[q_i.gen()]], [[q_sqrt2.gen()]])
    # a row mixing towers fails even against a rational column
    with pytest.raises(ValueError):
        dot_matrix([[q_i.gen(), q_sqrt2.gen()]], [[QQ.one(), QQ.one()]])
    # a rational row pairs with a column of either tower
    m = dot_matrix([[QQ.one()]], [[q_i.gen()], [q_sqrt2.gen()]])
    assert m[0][0] == q_i.gen() and m[0][1] == q_sqrt2.gen()


def test_dot_cancelling_to_zero_is_canonical():
    # 1/6 - 1/6 over the common denominator 30
    xs = [QQ.rational(Fraction(1, 2)), QQ.rational(Fraction(1, 5))]
    ys = [QQ.rational(Fraction(1, 3)), QQ.rational(Fraction(-5, 6))]
    z = dot(xs, ys)
    assert type(z.data) is int and z.data == 0
    assert element_to_json(z) == "0/1"
    assert hash(z) == hash(QQ.rational(0))
    # a cancelling rational leaf inside a level-1 sum: sqrt2 * sqrt2 - 2
    s2 = tower_extend(QQ, [-2, 0, 1], label="s2")
    w = dot([s2.gen(), s2.rational(Fraction(1, 3))], [s2.gen(), s2.rational(-6)])
    assert w.is_zero()
    assert element_to_json(w) == ["0/1", "0/1"]


# -- shared zeros ----------------------------------------------------------------
#
# Every level of a tower has one zero object, and a zero kernel result at
# level >= 1 is that object.  The kernel skips zeros by identity, but only as
# a fast path: a zero built outside it must give the same values.

_chains = lru_cache(maxsize=None)(_dot_towers)


@st.composite
def _elements(draw, tower, level):
    """An element built through the public constructors, so its zero
    subtrees are the tower's shared zeros; about a quarter of the
    coefficients at each level are zero."""
    if level == 0:
        return tower.rational(Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4))), 0)
    if draw(st.integers(0, 3)) == 0:
        return tower.zero(level)
    coeffs = [draw(_elements(tower, level - 1)) for _ in range(tower.degree_of_level(level))]
    return tower.from_coeffs(level, coeffs)


def _fresh(a, lv):
    """A copy of raw data that shares no tuple with it, zeros included.  Its
    leaves are spelled as the kernel's are: an int for an integral leaf (the
    kernel reads no int's identity) and a new Fraction otherwise."""
    if lv == 0:
        return a.numerator if a.denominator == 1 else Fraction(a.numerator, a.denominator)
    return tuple([_fresh(x, lv - 1) for x in a])


def _shared_zero(tower, lv):
    return tower._ctx[lv - 1].own_zero


def _assert_canonical(tower, lv, data):
    if lv and _is_zero(data, lv):
        assert data is _shared_zero(tower, lv)


@pytest.mark.parametrize("case", sorted(_dot_towers()))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_kernel_agrees_on_shared_and_fresh_zeros(case, data):
    tower = _chains()[case][-1]
    ctx = tower._ctx
    lv = data.draw(st.integers(1, tower.height), label="level")
    a, b, c, d = (data.draw(_elements(tower, lv)).data for _ in range(4))
    la = data.draw(st.integers(0, lv - 1), label="low level")
    e = data.draw(_elements(tower, la)).data
    q = Fraction(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 4)))
    fa, fb, fc, fd, fe = (_fresh(x, y) for x, y in ((a, lv), (b, lv), (c, lv), (d, lv), (e, la)))
    assert all(f is not x for f, x in ((fa, a), (fb, b), (fc, c), (fd, d)))
    ops = {
        "add": lambda a, b, c, d, e: _add(ctx, lv, a, b),
        "sub": lambda a, b, c, d, e: _sub(ctx, lv, a, b),
        "sub-self": lambda a, b, c, d, e: _sub(ctx, lv, a, a),
        "neg": lambda a, b, c, d, e: _neg(ctx, lv, a),
        "scale": lambda a, b, c, d, e: _scale(ctx, lv, a, q),
        "mul": lambda a, b, c, d, e: _mul(ctx, lv, a, b),
        "sqr": lambda a, b, c, d, e: _sqr(ctx, lv, a),
        "dot": lambda a, b, c, d, e: _dot(ctx, lv, [(a, b), (c, d), (_embed_up(ctx, la, e, lv), b)]),
        "dot-cancel": lambda a, b, c, d, e: _dot(ctx, lv, [(a, b), (_neg(ctx, lv, a), b)]),
    }
    for name, op in ops.items():
        shared = op(a, b, c, d, e)
        _assert_canonical(tower, lv, shared)
        assert op(fa, fb, fc, fd, fe) == shared, name
        assert op(a, fb, c, fd, fe) == shared, name
    if not _is_zero(a, lv):
        inv = _inv(ctx, lv, a)
        assert _inv(ctx, lv, fa) == inv
        assert _mul(ctx, lv, a, inv) == _raw_one(ctx, lv)


@pytest.mark.parametrize("case", sorted(_dot_towers()))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_kernel_results_hold_only_leaves(case, data):
    # int / int is a float, and a Fraction with denominator 1 is a second
    # spelling of an int: no kernel result and no parsed leaf holds either
    tower = _chains()[case][-1]
    ctx = tower._ctx
    lv = data.draw(st.integers(0, tower.height), label="level")
    a, b, c = (data.draw(_elements(tower, lv)).data for _ in range(3))
    n, d = data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 4))
    q = tower.rational(Fraction(n, d), 0).data
    results = [
        _add(ctx, lv, a, b),
        _add(ctx, lv, a, _neg(ctx, lv, a)),
        _sub(ctx, lv, a, b),
        _sub(ctx, lv, a, a),
        _mul(ctx, lv, a, b),
        _sqr(ctx, lv, a),
        _scale(ctx, lv, a, q),
        _dot(ctx, lv, [(a, b), (c, b)]),
        _dot(ctx, lv, [(a, b), (_neg(ctx, lv, a), b)]),
    ]
    if not _is_zero(b, lv):
        results += _div(ctx, lv, [a, c, _raw_one(ctx, lv)], b)
    for r in results:
        _assert_leaves(r, lv)
        parsed = element_from_json(tower, element_to_json(TowerElement(tower, lv, r)))
        assert parsed.data == r
        _assert_leaves(parsed.data, lv)
    leaf = fraction_from_json(fraction_to_json(Fraction(n, d)))
    assert leaf == Fraction(n, d)
    _assert_leaves(leaf, 0)


def _leaves(data, lv):
    """The leaves of raw level-lv data, in order."""
    if lv == 0:
        return [data]
    return [leaf for x in data for leaf in _leaves(x, lv - 1)]


def _dense_element(rng, tower, level):
    """An element with every leaf nonzero, most of them not integers."""
    if level == 0:
        return tower.rational(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4)), 0)
    coeffs = [_dense_element(rng, tower, level - 1) for _ in range(tower.degree_of_level(level))]
    return tower.from_coeffs(level, coeffs)


def _monomial(rng, tower, level):
    """An element with one nonzero leaf: a rational times one power of the
    generator of each level up to ``level``."""
    x = tower.rational(Fraction(rng.randint(1, 9), rng.randint(1, 6)), level)
    for lv in range(1, level + 1):
        x = x * tower.gen(lv) ** rng.randrange(tower.degree_of_level(lv))
    return x


@pytest.mark.parametrize("case", sorted(_dot_towers()))
def test_times_c_matches_the_product_by_c(case):
    # _times_c is the one product by an X^2 - c level constant; a c with
    # denominators goes through D*c with integer leaves on values with two
    # or more nonzero leaves, and through c itself on the rest
    import random

    rng = random.Random(case + "-times-c")
    tower = _chains()[case][-1]
    ctx = tower._ctx
    for lv in range(1, tower.height + 1):
        lc = ctx[lv - 1]
        if lc.sqrt_const is None:
            continue
        lo = lv - 1
        zero = _raw_zero(ctx, lo)
        got = _times_c(ctx, lo, lc, zero)
        assert got is zero if lo else got == 0
        for make in (_dense_element, _monomial) * 3:
            x = make(rng, tower, lo).data
            got = _times_c(ctx, lo, lc, x)
            assert got == _mul(ctx, lo, x, lc.sqrt_const)
            _assert_leaves(got, lo)
            _assert_canonical(tower, lo, got)
        if lc.sqrt_const_rat is not None:
            continue
        # the cleared constant D*c has integer leaves over the least D
        d = lcm(*[q.denominator for q in _leaves(lc.sqrt_const, lo)])
        big_c, inv_d = lc.sqrt_const_int
        if d == 1:
            assert (big_c, inv_d) == (lc.sqrt_const, None)
            continue
        assert inv_d == Fraction(1, d)
        assert big_c == _scale(ctx, lo, lc.sqrt_const, d)
        assert all(type(q) is int for q in _leaves(big_c, lo))


def test_a_chain_clears_distinct_denominators():
    # the fractional chain's constants are neither rational nor integral,
    # so the integral route of _times_c runs on every kernel test above
    tower = _chains()["sqrt-chain-fractional"][-1]
    for lo in (2, 3):
        lc = tower._ctx[lo]
        assert lc.sqrt_const_rat is None
        assert len({q.denominator for q in _leaves(lc.sqrt_const, lo)} - {1}) >= 2


def test_rational_quotients_are_leaves():
    ctx = QQ._ctx
    assert _div(ctx, 0, [3, 4, 0, Fraction(1, 2)], 2) == [Fraction(3, 2), 2, 0, Fraction(1, 4)]
    for got in _div(ctx, 0, [3, 4, 0, Fraction(1, 2)], 2) + _div(ctx, 0, [Fraction(3, 2)], Fraction(3, 4)):
        _assert_leaves(got, 0)
    assert type(fraction_from_json("-12/1")) is int


@pytest.mark.parametrize("case", sorted(_dot_towers()))
def test_zero_results_are_the_shared_zero(case):
    import random

    tower = _chains()[case][-1]
    rng = random.Random(case + "-zero")
    for lv in range(1, tower.height + 1):
        zero = _shared_zero(tower, lv)
        assert tower.zero(lv).data is zero
        assert tower.rational(0, lv).data is zero
        assert tower.zero(lv - 1).embed(lv).data is zero
        assert tower.from_coeffs(lv, []).data is zero
        x = _random_element(rng, tower, lv)
        while x.is_zero():
            x = _random_element(rng, tower, lv)
        for value in (x - x, x + (-x), x * tower.zero(lv), x * 0, tower.zero(lv).square()):
            assert value.data is zero
        assert dot([x, -x], [x, x]).data is zero
        # the coefficients of a shared zero are the shared zero below
        if lv > 1:
            assert all(c is _shared_zero(tower, lv - 1) for c in zero)


def test_parsed_zeros_are_the_shared_zero():
    for chain in _chains().values():
        tower = tower_from_json(tower_to_json(chain[-1]))
        for lv in range(1, tower.height + 1):
            zero = _shared_zero(tower, lv)
            node = element_to_json(chain[-1].zero(lv))
            assert element_from_json(tower, node).data is zero
            # a zero subtree inside a nonzero element is shared as well
            one = element_to_json(tower.one(lv))
            assert all(c is tower._ctx[lv - 1].zero for c in element_from_json(tower, one).data[1:])
        # so are the zero coefficients of the parsed minimal polynomials
        for lv, level in enumerate(tower.levels):
            for c in level.minpoly:
                _assert_canonical(tower, lv, c)


def test_extend_and_prefix_keep_the_shared_zero(cubic):
    top = tower_extend(tower_extend(cubic, [-2, 0, 1], label="s"), [-3, 0, 1], label="t")
    for height in range(1, top.height + 1):
        cut = top.prefix(height)
        for lv in range(1, height + 1):
            assert cut.zero(lv).data is top.zero(lv).data
    again = tower_extend(top.prefix(2), [-5, 0, 1], label="u")
    assert again.zero(2).data is top.zero(2).data
    # the new level's coefficient zero is the shared zero of the level below
    assert again._ctx[2].zero is top.zero(2).data
    assert again.zero(3).data == top.zero(3).data
