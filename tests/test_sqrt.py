import random
import sys
import threading
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest

from isotower.certjson import split_certificate_doc
from isotower.generate import random_quaternion
from isotower.presets import field_septic
from isotower.splitting import split_over_2ext
from isotower import sqrt as sqrt_module
from isotower.sqrt import (
    _WITNESS_PRIMES,
    _horner_mod,
    _nonsquare_witness,
    _points_mod,
    _roots_mod_p,
    _small_primes,
    _sqrt_roots_mod,
    _trial_factor,
    adjoin_sqrt,
    rational_sqrt,
    sqrt_or_nonsquare,
    squarefree_reduce,
)
from isotower.tower import KIND_SQRT, QQ, TowerField, tower_extend
from isotower.verify import verify_split
from norm_oracle import _factor, _is_prime
from test_serialize import fresh, fresh_tower
from test_tower import _dot_towers, _random_element as _sparse_element


def test_rational_sqrt():
    assert rational_sqrt(Fraction(4)) == 2
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(-4)) is None
    assert rational_sqrt(Fraction(0)) == 0


def test_squarefree_reduce():
    assert squarefree_reduce(-4) == (-1, 2)
    assert squarefree_reduce(18) == (2, 3)
    assert squarefree_reduce(1) == (1, 1)
    assert squarefree_reduce(49) == (1, 7)
    d, m = squarefree_reduce(2 * 10007**2)
    assert d == 2 and m == 10007
    with pytest.raises(ValueError):
        squarefree_reduce(0)


def _trial_factor_loop(n):
    """The trial division _trial_factor replaced: every prime below 10^4 in
    turn, until p^2 exceeds what is left."""
    exps = {}
    for p in _small_primes():
        if p * p > n:
            break
        if n % p:
            continue
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        exps[p] = e
    return exps, n


def _squarefree_from(exps, rest):
    d, m = 1, 1
    for p, e in exps.items():
        m *= p ** (e // 2)
        d *= p ** (e % 2)
    r = isqrt(rest)
    return (d, m * r) if r * r == rest else (d * rest, m)


def test_trial_factor_matches_the_division_loop():
    rng = random.Random(37)
    primes = _small_primes()
    cases = [2 * 9973, 9973**2 * 5, 2 * 10007**2, 1, 2**64, 3**40, 9973**5, 10007**3, 9973, 10007 * 10009]
    for _ in range(40):
        n = rng.getrandbits(1600) | 1
        for _ in range(rng.randint(0, 8)):
            n *= rng.choice(primes) ** rng.randint(1, 4)
        cases.append(n)
    for n in cases:
        exps, rest = _trial_factor(n)
        old_exps, old_rest = _trial_factor_loop(n)
        # the loop could stop with one prime below 10^4 left as the cofactor
        if old_rest < 10**4 and old_rest > 1:
            old_exps, old_rest = {**old_exps, old_rest: 1}, 1
        assert (exps, rest) == (old_exps, old_rest)
        assert prod(p**e for p, e in exps.items()) * rest == n
        assert gcd(rest, prod(primes)) == 1
        assert squarefree_reduce(n) == _squarefree_from(*_trial_factor_loop(n))
        assert squarefree_reduce(-n) == (-squarefree_reduce(n)[0], squarefree_reduce(n)[1])
    # the test oracle's factorisation still completes from the split
    for n in cases[:10] + [rng.getrandbits(48) * rng.choice(primes) ** 3 for _ in range(20)]:
        factors = _factor(n)
        assert prod(p**e for p, e in factors.items()) == n and all(_is_prime(p) for p in factors)


def test_tier1_through_elements():
    assert sqrt_or_nonsquare(QQ.rational(4)) == 2
    assert sqrt_or_nonsquare(QQ.rational(2)) is None
    with pytest.raises(ValueError):
        sqrt_or_nonsquare(QQ.zero())


@pytest.fixture
def q_sqrt2():
    return tower_extend(QQ, [-2, 0, 1], label="s2")


def test_tier2_denesting(q_sqrt2):
    s = q_sqrt2.gen()
    root = sqrt_or_nonsquare(3 + 2 * s)
    assert root is not None and root * root == 3 + 2 * s
    assert root in (1 + s, -(1 + s))
    # a^2 - b^2 d = 1 - 2 = -1 is not a square in Q, so 1 + sqrt2 is not one here
    assert sqrt_or_nonsquare(1 + s) is None


def test_tier2_constant_cases(q_sqrt2):
    s = q_sqrt2.gen()
    assert sqrt_or_nonsquare(q_sqrt2.rational(4)) == 2
    root = sqrt_or_nonsquare(q_sqrt2.rational(2))
    assert root in (s, -s)  # 2 = (sqrt2)^2: the b = 0, a*d branch
    assert sqrt_or_nonsquare(q_sqrt2.rational(3)) is None


def test_tier2_nested_chain(q_sqrt2):
    stacked = tower_extend(
        q_sqrt2, [q_sqrt2.rational(-3), q_sqrt2.rational(0), q_sqrt2.rational(1)], label="s3"
    )
    s2 = q_sqrt2.gen().in_tower(stacked).embed(2)
    s3 = stacked.gen()
    c = (1 + s2 + s3) ** 2
    root = sqrt_or_nonsquare(c)
    assert root is not None and root * root == c
    assert sqrt_or_nonsquare(5 + s2 * s3) is None


@pytest.fixture
def cubic():
    return tower_extend(QQ, [-1, -2, 1, 1], label="a")


def test_tier3_recovers_roots(cubic):
    a = cubic.gen()
    for x in (1 + a + a * a, 2 - a, a * a * Fraction(3, 7)):
        c = x * x
        root = sqrt_or_nonsquare(c)
        assert root is not None and root * root == c


def test_tier3_certifies_nonsquares(cubic):
    a = cubic.gen()
    assert sqrt_or_nonsquare(1 + a) is None
    assert sqrt_or_nonsquare(cubic.rational(2)) is None
    assert sqrt_or_nonsquare(cubic.rational(-1)) is None


def test_tier3_on_even_degree_base_root_level():
    # 3 = (t^2)^2 in Q[t]/(t^4 - 3): the root lives above the rationals
    quartic = tower_extend(QQ, [-3, 0, 0, 0, 1], label="t")
    root = sqrt_or_nonsquare(quartic.rational(3))
    assert root is not None and root * root == 3
    assert sqrt_or_nonsquare(quartic.rational(5)) is None


def test_tier3_above_sqrt_levels(q_sqrt2):
    # cubic on top of Q(sqrt2): recovery must walk the mixed chain
    mixed = tower_extend(
        q_sqrt2,
        [q_sqrt2.rational(-1), q_sqrt2.rational(-2), q_sqrt2.rational(1), q_sqrt2.rational(1)],
        label="c",
    )
    s2 = q_sqrt2.gen().in_tower(mixed).embed(2)
    a = mixed.gen()
    c = (s2 + a) ** 2
    root = sqrt_or_nonsquare(c)
    assert root is not None and root * root == c
    assert sqrt_or_nonsquare(s2 + a) is None


def test_sqrt_deterministic(cubic):
    a = cubic.gen()
    c = (1 + a) ** 2
    assert sqrt_or_nonsquare(c) == sqrt_or_nonsquare(c)


def test_adjoin_sqrt_rational_reduction():
    tower, root, added = adjoin_sqrt(QQ, QQ.rational(-4))
    assert added
    # the level adjoins X^2 + 1 and the root is 2i
    assert tower.levels[0].minpoly == (Fraction(1), Fraction(0), Fraction(1))
    assert tower.levels[0].kind == KIND_SQRT
    assert root * root == -4
    tower2, root2, added2 = adjoin_sqrt(QQ, QQ.rational(Fraction(9, 4)))
    assert not added2 and root2 == Fraction(3, 2)


def test_adjoin_sqrt_skips_squares(q_sqrt2):
    s = q_sqrt2.gen()
    tower, root, added = adjoin_sqrt(q_sqrt2, 3 + 2 * s)
    assert not added and root * root == 3 + 2 * s
    tower, root, added = adjoin_sqrt(q_sqrt2, 1 + s)
    assert added and tower.absolute_degree() == 4
    assert root * root == (1 + s).in_tower(tower).embed(2)


def test_adjoin_sqrt_rejects_zero():
    with pytest.raises(ValueError):
        adjoin_sqrt(QQ, QQ.zero())


def test_sqrt_soundness_random():
    rng = random.Random(11)
    q_s = tower_extend(QQ, [-2, 0, 1], label="s2")
    for _ in range(50):
        x = q_s.element(
            1, (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
        )
        if x.is_zero():
            continue
        c = x * x
        root = sqrt_or_nonsquare(c)
        assert root is not None and root * root == c
        assert root in (x, -x)


# -- Legendre witnesses -------------------------------------------------------


def _reduce(raw, lv, point, p):
    """Raw tower data at a point mod p, evaluated without the sqrt module."""
    if lv == 0:
        assert raw.denominator % p, "p divides a denominator"
        return raw.numerator * pow(raw.denominator, -1, p) % p
    return sum(_reduce(c, lv - 1, point, p) * pow(point[lv - 1], i, p)
               for i, c in enumerate(raw)) % p


def _recheck_witness(tower, lv, data, witness):
    p, point, residue = witness
    assert p > 2 and all(p % q for q in range(2, isqrt(p) + 1))
    assert len(point) == lv
    for i in range(lv):
        f = [_reduce(c, i, point, p) for c in tower.levels[i].minpoly]
        r = point[i]
        assert sum(c * pow(r, k, p) for k, c in enumerate(f)) % p == 0
        assert sum(k * c * pow(r, k - 1, p) for k, c in enumerate(f) if k) % p != 0
    assert residue != 0 and _reduce(data, lv, point, p) == residue
    assert pow(residue, (p - 1) // 2, p) == p - 1


def _witness_towers():
    chain = QQ
    for d in (2, 3, 5):
        chain = tower_extend(chain, [-d, 0, 1])
    cubic = tower_extend(QQ, [-1, -2, 1, 1], label="a")
    septic = field_septic()
    a7 = septic.gen()
    septic_sqrt = tower_extend(septic, [-(1 + a7), 0, 1], label="s")
    return [chain, cubic, septic_sqrt]


def _random_element(rng, tower):
    def build(lv):
        if lv == 0:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return tuple(build(lv - 1) for _ in range(tower.levels[lv - 1].degree))

    return tower.element(tower.height, build(tower.height))


def test_witness_never_for_squares():
    rng = random.Random(5)
    for tower in _witness_towers():
        for _ in range(12):
            x = _random_element(rng, tower)
            if x.is_zero():
                continue
            assert _nonsquare_witness(tower, tower.height, (x * x).data) is None


def test_witnesses_pass_independent_recheck():
    rng = random.Random(6)
    for tower in _witness_towers():
        found = 0
        for _ in range(12):
            x = _random_element(rng, tower)
            if x.is_zero():
                continue
            w = _nonsquare_witness(tower, tower.height, x.data)
            if w is not None:
                _recheck_witness(tower, tower.height, x.data, w)
                assert sqrt_or_nonsquare(x) is None
                found += 1
        assert found >= 6


def test_witness_skips_primes_dividing_denominators():
    # mod 3, X^2 - 7 has the simple roots 1, 2 and 2 is a nonresidue there
    s7 = tower_extend(QQ, [-7, 0, 1], label="s7")
    two = s7.rational(2).data
    assert _nonsquare_witness(s7, 1, two)[0] == 3
    # the same square class with a 3 in a denominator: of the data, then of a minpoly
    for tower, data in (
        (s7, s7.rational(Fraction(2, 9)).data),
        (tower_extend(QQ, [Fraction(-7, 9), 0, 1]), two),
    ):
        w = _nonsquare_witness(tower, 1, data)
        assert w is not None and w[0] != 3
        _recheck_witness(tower, 1, data, w)


def test_sqrt_level_roots_match_generic_root_finder():
    for p in (3, 5, 13, 17, 41):
        for c in range(p):
            assert _sqrt_roots_mod(c, p) == _roots_mod_p([-c, 0, 1], p)


def test_tier3_square_over_huge_constant():
    # a cubic over Q(sqrt(huge)), with a 4401-digit minpoly constant
    huge = 10**4400 + 3
    big = tower_extend(QQ, [-huge, 0, 1], label="s")
    cubic = tower_extend(big, [-1, -2, 1, 1], label="a")
    x = 1 + cubic.gen()
    root = sqrt_or_nonsquare(x * x)
    assert root in (x, -x)


def _simple_points(tower, p):
    """Every tower point mod p with simple-root coordinates, by trying each
    residue at each level, in lexicographic order."""
    points = [()]
    for i, level in enumerate(tower.levels):
        longer = []
        for point in points:
            f = [_reduce(c, i, point, p) for c in level.minpoly]
            for r in range(p):
                value = sum(c * pow(r, k, p) for k, c in enumerate(f)) % p
                slope = sum(k * c * pow(r, k - 1, p) for k, c in enumerate(f) if k) % p
                if value == 0 and slope:
                    longer.append(point + (r,))
        points = longer
    return points


def _table_points(tower, lv, p):
    """The coordinates of the points mod p that the level-lv table holds, each
    checked against its monomial row; a prime at which a minpoly is not
    p-integral has none."""
    entry = _points_mod(tower._ctx, lv, p) or []
    for point, row in entry:
        assert list(row) == _reference_row(tower, point, p)
    return [point for point, _row in entry]


def _reference_row(tower, point, p):
    """The values mod p of the basis monomials at a point, the top level's
    exponent most significant."""
    row = [1]
    for i, r in enumerate(point):
        row = [pow(r, k, p) * v % p for k in range(tower.levels[i].degree) for v in row]
    return row


def test_points_are_the_simple_points():
    s2 = tower_extend(QQ, [-2, 0, 1], label="s2")
    towers = [
        tower_extend(s2, [s2.rational(-3), s2.rational(0), s2.rational(1)], label="s3"),
        tower_extend(QQ, [-1, -2, 1, 1], label="a"),
        tower_extend(s2, [s2.rational(-1), s2.rational(-2), s2.rational(1), s2.rational(1)]),
        tower_extend(QQ, [-3, 0, 0, 0, 1], label="t"),
    ]
    for tower in towers:
        dim = tower.absolute_degree()
        split = 0
        for p in (3, 5, 7, 11, 13, 17, 23, 29, 41, 43, 47, 71, 73, 97, 113):
            points = _table_points(tower, tower.height, p)
            assert points == _simple_points(tower, p)
            # the complete split set: every level has all its roots, all simple
            split += len(points) == dim
        assert split


def test_points_on_cubic_levels_follow_splitting_laws():
    # counts from the splitting laws of two cubic fields, not from a search.
    # x^3 + x^2 - 2x - 1 generates Q(zeta7)^+: p splits completely when
    # p = +-1 (mod 7) and is inert otherwise; at 7 it has a triple root.
    # x^3 - 2: a triple root at 3, one root when p = 2 (mod 3), and three
    # when p = 1 (mod 3) exactly if 2 is a cube mod p
    cyclic = tower_extend(QQ, [-1, -2, 1, 1], label="a")
    pure = tower_extend(QQ, [-2, 0, 0, 1], label="c")

    def count(tower, p):
        return len(_table_points(tower, 1, p))

    for p in range(3, 314, 2):
        if any(p % q == 0 for q in range(3, isqrt(p) + 1, 2)):
            continue
        assert count(cyclic, p) == (3 if p % 7 in (1, 6) else 0), p
        if p == 3:
            want = 0
        elif p % 3 == 2:
            want = 1
        else:
            want = 3 if pow(2, (p - 1) // 3, p) == 1 else 0
        assert count(pure, p) == want, p


def test_witness_found_on_former_misses():
    # level 6 of these split-septic two-towers found no witness while only
    # the first point of each prime was tried
    for seed, index in ((1, 0), (1, 3), (7, 5)):
        q = random_quaternion(random.Random(seed * 1000003 + index), field_septic())
        cert = split_over_2ext(q)
        ok, reason = verify_split(split_certificate_doc(cert))
        assert ok, reason
        two_tower = cert.two_tower
        below = TowerField(two_tower.levels[:6])
        c = (-below.element(6, two_tower.levels[6].minpoly[0])).data
        w = _nonsquare_witness(below, 6, c)
        assert w is not None
        _recheck_witness(below, 6, c, w)


# -- the shared-zero fast path of the witness search ----------------------


def _zero_heavy_values(rng, tower, count):
    """Values at levels >= 1 built the kernel's way, many coefficients the
    tower's shared zeros: nonzero elements and their squares."""
    out = []
    while len(out) < 2 * count:
        x = _sparse_element(rng, tower, rng.randint(1, tower.height))
        if not x.is_zero():
            out += [x, x * x]
    return out


def _witness_search_cases():
    rng = random.Random(20)
    septic = field_septic()
    a7 = septic.gen()
    s = tower_extend(septic, [-(1 + a7), 0, 1], label="s")
    over_septic = tower_extend(s, [-(s.gen() + 3), 0, 1], label="t")
    cases = []
    for tower in (_dot_towers()["sqrt-chain"][-1], over_septic):
        cases += [(tower, x.level, x.data) for x in _zero_heavy_values(rng, tower, 4)]
    # the adjoined constants of the first seed-1 split-septic two-tower, each
    # at the level below its square root, and values over the whole chain
    q = random_quaternion(random.Random(1 * 1000003 + 0), septic)
    two_tower = split_over_2ext(q).two_tower
    for lv in range(1, two_tower.height):
        c = -two_tower.element(lv, two_tower.levels[lv].minpoly[0])
        cases += [(two_tower, lv, c.data), (two_tower, lv, (c * c).data)]
    cases += [(two_tower, x.level, x.data) for x in _zero_heavy_values(rng, two_tower, 2)]
    return cases


def test_witness_search_ignores_zero_identity():
    found = squares = 0
    for tower, lv, data in _witness_search_cases():
        w = _nonsquare_witness(tower, lv, data)
        assert _nonsquare_witness(tower, lv, fresh(data, lv)) == w
        assert _nonsquare_witness(fresh_tower(tower), lv, fresh(data, lv)) == w
        found += w is not None
        squares += w is None
    assert found and squares


# -- the witness search before the point tables, kept as a reference ---------


class _BadPrime(Exception):
    pass


def _eval_mod(data, lv, point, m, zeros):
    if lv == 0:
        num, den = data.numerator, data.denominator
        if not num:
            return 0
        if den % m == 0 or gcd(den, m) != 1:
            raise _BadPrime
        return num % m * pow(den, -1, m) % m
    acc, lo = 0, lv - 1
    r, z = point[lo], zeros[lo]
    for c in reversed(data):
        acc = (acc * r + (0 if c is z else _eval_mod(c, lo, point, m, zeros))) % m
    return acc


def _points(levels, p, zeros):
    def rec(depth, point):
        if depth == len(levels):
            yield point
            return
        minpoly, deg = levels[depth]
        f = [_eval_mod(c, depth, point, p, zeros) for c in minpoly]
        if deg == 2 and f[1] == 0:
            roots = _sqrt_roots_mod(-f[0], p)
        else:
            roots = _roots_mod_p(f, p)
        fprime = [c * i % p for i, c in enumerate(f)][1:]
        for r in roots:
            if _horner_mod(fprime, r, p):
                yield from rec(depth + 1, point + (r,))

    return rec(0, ())


def _reference_witness(tower, lv, data):
    """The witness search that walked every point of every prime afresh,
    evaluating the minpolys and data leaf by leaf at each point."""
    levels = [(tower.levels[i].minpoly, tower.levels[i].degree) for i in range(lv)]
    zeros = tuple(lc.zero for lc in tower._ctx[:lv])
    for p in _small_primes()[1 : _WITNESS_PRIMES + 1]:
        try:
            for point in _points(levels, p, zeros):
                residue = _eval_mod(data, lv, point, p, zeros)
                if residue and pow(residue, (p - 1) // 2, p) == p - 1:
                    return p, point, residue
        except _BadPrime:
            continue
    return None


def test_witness_search_matches_the_reference():
    for tower, lv, data in _witness_search_cases():
        want = _reference_witness(tower, lv, data)
        cold = fresh_tower(tower)
        assert _nonsquare_witness(cold, lv, data) == want  # tables filled here
        assert _nonsquare_witness(cold, lv, data) == want  # and read here
        assert _nonsquare_witness(cold.prefix(lv), lv, data) == want  # shared contexts
        shared = fresh_tower(tower)
        assert _nonsquare_witness(shared.prefix(lv), lv, data) == want
        assert _nonsquare_witness(shared, lv, data) == want


def test_second_search_reduces_no_minpoly_leaf(monkeypatch):
    tower, lv, data = _witness_search_cases()[-1]
    tower = fresh_tower(tower)
    reduced = []
    real = sqrt_module._reduce

    def recording(leaves, m):
        reduced.append(leaves)
        return real(leaves, m)

    monkeypatch.setattr(sqrt_module, "_reduce", recording)
    first = _nonsquare_witness(tower, lv, data)
    minpoly_leaves = {
        id(leaves) for lc in tower._ctx[:lv] for _pos, leaves in lc.points_mod[0]
    }
    assert any(id(leaves) in minpoly_leaves for leaves in reduced)
    reduced.clear()
    assert _nonsquare_witness(tower, lv, data) == first
    assert reduced and not any(id(leaves) in minpoly_leaves for leaves in reduced)


def test_threads_sharing_a_tower_find_the_reference_witnesses():
    # every thread fills the shared tables; a lost or torn entry would show
    # as a witness that differs from the single-threaded reference
    chain = fresh_tower(_witness_towers()[0])
    rng = random.Random(7)
    cases = [(chain, x.data) for x in (_random_element(rng, chain) for _ in range(6))]
    want = [_reference_witness(tower, tower.height, data) for tower, data in cases]
    got = [[] for _ in range(4)]

    def search(out):
        out += [_nonsquare_witness(tower, tower.height, data) for tower, data in cases]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=search, args=(out,)) for out in got]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 4
