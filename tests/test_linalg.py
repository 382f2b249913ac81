"""Dense linear algebra over a tower level: products against naive sums,
and the elimination results against their defining equations."""

import random
from fractions import Fraction

import pytest

from isotower import linalg
from isotower.errors import SingularMatrix
from isotower.presets import field_septic
from isotower.tower import QQ, tower_extend


def _towers():
    s2 = tower_extend(QQ, [-2, 0, 1], label="s2")
    s3 = tower_extend(s2, [-3, 0, 1], label="s3")
    return {"rational": QQ, "sqrt-chain": s3, "septic": field_septic()}


@pytest.fixture(params=sorted(_towers()))
def field(request):
    return request.param, _towers()[request.param]


def _element(rng, tower, level):
    """A random element of the level, zero about a fifth of the time."""
    if rng.random() < 0.2:
        return tower.zero(level)
    if level == 0:
        return tower.rational(Fraction(rng.randint(-9, 9), rng.randint(1, 3)), 0)
    coeffs = [_element(rng, tower, level - 1) for _ in range(tower.degree_of_level(level))]
    return tower.from_coeffs(level, coeffs)


def _matrix(rng, tower, nrows, ncols):
    top = tower.height
    return tuple(tuple(_element(rng, tower, top) for _ in range(ncols)) for _ in range(nrows))


def _naive_dot(tower, xs, ys):
    acc = tower.zero()
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def _naive_matvec(tower, m, v):
    return tuple(_naive_dot(tower, row, v) for row in m)


def _invertible(rng, tower, n):
    """A random matrix, redrawn until its rank is n."""
    while True:
        m = _matrix(rng, tower, n, n)
        if linalg.rank(m) == n:
            return m


def test_matvec_and_matmul_match_naive_sums(field):
    name, tower = field
    rng = random.Random(name)
    for n, k, p in [(1, 1, 1), (3, 4, 2), (4, 3, 5)]:
        a = _matrix(rng, tower, n, k)
        b = _matrix(rng, tower, k, p)
        v = _matrix(rng, tower, 1, k)[0]
        assert linalg.matvec(a, v) == _naive_matvec(tower, a, v)
        cols = tuple(zip(*b))
        want = tuple(tuple(_naive_dot(tower, row, col) for col in cols) for row in a)
        got = linalg.matmul(a, b)
        assert got == want
        assert all(e.level == tower.height and e.tower == tower for row in got for e in row)
    # a rational matrix against a top-level vector lands at the top level
    ints = tuple(tuple(tower.rational(i - j, 0) for j in range(3)) for i in range(2))
    v = _matrix(rng, tower, 1, 3)[0]
    got = linalg.matvec(ints, v)
    assert got == _naive_matvec(tower, ints, v)
    assert all(e.level == tower.height for e in got)


def test_nullspace_is_the_kernel(field):
    name, tower = field
    rng = random.Random(name + "-null")
    top = tower.height
    for nrows, ncols in [(2, 4), (3, 3), (3, 5)]:
        rows = list(_matrix(rng, tower, nrows, ncols))
        # a dependent row, so the rank falls below nrows
        c = _element(rng, tower, top)
        rows.append(tuple(x + c * y for x, y in zip(rows[0], rows[1])))
        rows = tuple(rows)
        basis = linalg.nullspace(rows, tower, top, ncols)
        # the reduced form: v_i is 1 at its free column f_i, f_i is its last
        # nonzero entry, and v_i is 0 at every other f_j
        _, pivots = linalg.rref(rows)
        free = [c for c in range(ncols) if c not in pivots]
        assert len(free) == len(basis)
        for i, v in enumerate(basis):
            assert v[free[i]] == 1
            assert not any(v[free[i] + 1 :])
            assert all(v[f].is_zero() for j, f in enumerate(free) if j != i)
        for v in basis:
            assert any(v)
            assert all(e.is_zero() for e in linalg.matvec(rows, v))
        assert linalg.rank(rows) + len(basis) == ncols
        # the basis is independent: its rank is its length
        assert linalg.rank(basis) == len(basis)


def test_solve_and_invert_round_trip(field):
    name, tower = field
    rng = random.Random(name + "-solve")
    top = tower.height
    for n in (1, 2, 4):
        a = _invertible(rng, tower, n)
        x0 = _matrix(rng, tower, 1, n)[0]
        b = linalg.matvec(a, x0)
        assert linalg.solve(a, b, tower, top) == x0
        inv = linalg.invert(a, tower, top)
        eye = linalg.identity(tower, top, n)
        assert linalg.matmul(a, inv) == eye
        assert linalg.matmul(inv, a) == eye
        # rref([A | I]) = [I | A^-1]: its right block is the inverse
        red, _ = linalg.rref(tuple(row + e for row, e in zip(a, eye)))
        assert tuple(row[n:] for row in red) == inv
    # [P | I] with P of rank 3, 7 x 10: the rref is E [P | I], its pivot
    # columns B are a basis, and the right block E is B's inverse
    while True:
        p = _matrix(rng, tower, 7, 3)
        if linalg.rank(tuple(zip(*p))) == 3:
            break
    aug = tuple(row + e for row, e in zip(p, linalg.identity(tower, top, 7)))
    red, pivots = linalg.rref(aug)
    assert pivots[:3] == (0, 1, 2) and len(pivots) == 7
    b = tuple(tuple(row[c] for c in pivots) for row in aug)
    assert linalg.matmul(tuple(row[3:] for row in red), b) == linalg.identity(tower, top, 7)
    # an inconsistent system: two equal rows with different right sides
    row = _matrix(rng, tower, 1, 3)[0]
    one = tower.one(top)
    assert linalg.solve((row, row), (tower.zero(top), one), tower, top) is None


def test_invert_rejects_singular(field):
    name, tower = field
    rng = random.Random(name + "-singular")
    top = tower.height
    a = list(_invertible(rng, tower, 3))
    c = _element(rng, tower, top)
    a[2] = tuple(c * x for x in a[0])
    with pytest.raises(SingularMatrix):
        linalg.invert(tuple(a), tower, top)


def test_rref_levels(field):
    name, tower = field
    rng = random.Random(name + "-rref")
    top = tower.height
    # one level and one tower in, the same level and tower out
    red, pivots = linalg.rref(_matrix(rng, tower, 3, 4))
    assert all(e.level == top and e.tower is tower for row in red for e in row)
    # mixed levels: every entry comes out at the highest level among the
    # inputs, with the values of an elimination at that level
    ints = tuple(tuple(tower.rational(i * j + 1, 0) for j in range(4)) for i in range(2))
    mixed = ints + _matrix(rng, tower, 1, 4)
    lifted = tuple(tuple(e.embed(top) for e in row) for row in mixed)
    red, pivots = linalg.rref(mixed)
    assert all(e.level == top and e.tower is tower for row in red for e in row)
    assert (red, pivots) == linalg.rref(lifted)
    # an all-rational input stays rational
    red, _ = linalg.rref(ints)
    assert all(e.level == 0 for row in red for e in row)
