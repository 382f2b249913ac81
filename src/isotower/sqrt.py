"""Square testing and square-root adjunction over tower fields.

:func:`sqrt_or_nonsquare` dispatches on the level where the element lives.
On the rationals (tier 1) it detects integer squares in numerator and
denominator.  Above them, every level the test reaches, including each
level the tier-2 descent recurses into, first looks for a Legendre witness
among the first _WITNESS_PRIMES odd primes (see :mod:`isotower.witness`,
which also holds the points mod p that tier 3 lifts).  Without a witness,
a root of a constant from the level below embeds upward; otherwise the
level's tier decides:

2. quadratic-sqrt levels K0(sqrt(d)): the complete denesting recursion,
   so the test is a decision procedure on chains of sqrt adjunctions;
3. general levels: modular square-root lifting at the completely split
   odd primes below 10^4, in increasing order (square roots at every
   point, Hensel lift to a modulus of at least 2^80, then 2^320, rational
   reconstruction, exact verification).  When reconstruction fails at
   three such primes, NonSquare is returned unproved; the only failure
   mode is a false NonSquare.  It at worst adds a reducible tower level,
   which surfaces lazily as the ReducibilityError precondition (CLI exit
   3) when an inversion hits a zero divisor; nothing refines the tower and
   retries.

Every returned root is verified exactly (s*s == c) before it leaves this
module, so Sqrt answers are unconditionally sound.  Primes are always
scanned in increasing order, so every answer is deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, isqrt, prod

from .tower import (
    KIND_SQRT,
    RationalLike,
    TowerElement,
    TowerField,
    _div,
    _embed_up,
    _is_zero,
    _neg,
    _scale,
    _sqr,
    _sub,
    _add,
    _times_c,
    tower_extend,
)
from .witness import (
    _at, _flatten, _horner_mod, _nonsquare_witness, _points_mod, _reduce, _small_primes,
    _times_powers, _tonelli, rational_sqrt,
)

# odd primes scanned for a witness before the exact tiers: 3..311
_WITNESS_PRIMES = 64

# -- tier 1: rationals -------------------------------------------------------

_small_prime_product = cache(lambda: prod(_small_primes()))


def _trial_factor(n: int) -> tuple[dict[int, int], int]:
    """Split n >= 1 into the exponents of its primes below 10^4, which one
    gcd with their product picks out, and the cofactor, which has none of
    them: a cofactor below 10^8 is 1 or a prime."""
    exps: dict[int, int] = {}
    g = gcd(n, _small_prime_product())
    for p in _small_primes():
        if g == 1:
            break
        if g % p == 0:
            g, exps[p] = g // p, 0
            while n % p == 0:
                n, exps[p] = n // p, exps[p] + 1
    return exps, n


def squarefree_reduce(n: int) -> tuple[int, int]:
    """Write n = d * m^2, m the square part over the primes below 10^4
    (:func:`_trial_factor`) times the root of a square cofactor.

    d keeps the sign of n.  Other square factors above the trial bound stay
    inside d; that only costs minpoly minimality, never correctness."""
    if n == 0:
        raise ValueError("zero has no squarefree decomposition")
    exps, rest = _trial_factor(abs(n))
    d, m = 1, 1
    for p, e in exps.items():
        m *= p ** (e // 2)
        if e % 2:
            d *= p
    r = isqrt(rest)
    if r * r == rest:
        m *= r
    else:
        d *= rest
    return (-d if n < 0 else d), m


# -- tier 3 --------------------------------------------------------------------


def _lift_points(ctx, points, p, modulus):
    """Hensel-lift the points of a _points_mod entry to mod ``modulus``, a
    power of p, as (coordinates, monomial row mod modulus); coordinates
    stay simple roots."""
    lifted = [list(point) for point, _row in points]
    rows = [row for _point, row in points]
    m = p
    while m < modulus:
        m = min(m * m, modulus)
        rows = [(1,)] * len(lifted)
        for depth, lc in enumerate(ctx[: len(lifted[0])]):
            coeffs = [(pos, _reduce(leaves, m)) for pos, leaves in lc.points_mod[0]]
            for i, cur in enumerate(lifted):
                f = [_at(pos, res, rows[i], m) for pos, res in coeffs]
                fp = [c * k % m for k, c in enumerate(f)][1:]
                r = cur[depth]
                r = cur[depth] = (r - _horner_mod(f, r, m) * pow(_horner_mod(fp, r, m), -1, m)) % m
                rows[i] = _times_powers(rows[i], r, lc.degree, m)
    return [(tuple(cur), row) for cur, row in zip(lifted, rows)]


def _rat_reconstruct(a: int, m: int) -> RationalLike | None:
    """The rational congruent to a mod m whose numerator and denominator
    are at most sqrt(m/2) in size, as a kernel leaf, or None."""
    a %= m
    bound = isqrt(m // 2)
    r0, r1 = m, a
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or gcd(r1, abs(t1)) != 1:
        return None
    num, den = r1, t1
    if den < 0:
        num, den = -num, -den
    return num if den == 1 else Fraction(num, den)


_MAX_PATTERN_DIM = 13
_PRECISION_BITS = (80, 320)  # reconstruct mod p^k >= 2^80, then >= 2^320


def _unflatten(ctx, coords, lv):
    if lv == 0:
        return coords[0]
    d = ctx[lv - 1].degree
    block = len(coords) // d
    return tuple(_unflatten(ctx, coords[i * block : (i + 1) * block], lv - 1) for i in range(d))


def _mat_inv_mod(rows, p, m):
    """Inverse of a matrix invertible mod p, computed mod m (p | m)."""
    n = len(rows)
    a = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % p != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], -1, m)
        a[col] = [x * inv % m for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % m for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _sqrt_tier3(tower: TowerField, lv: int, data):
    """Recovery: completely split prime, lift, reconstruct, verify."""
    ctx = tower._ctx
    dim = tower.absolute_degree(lv)
    if dim > _MAX_PATTERN_DIM:
        return None
    positions, leaves = _flatten(ctx, lv, data)
    split_found = 0
    for p in _small_primes()[1:]:
        points = _points_mod(ctx, lv, p)
        residues = _reduce(leaves, p) if points and len(points) == dim else None
        if residues is None:
            continue
        vals_p = [_at(positions, residues, row, p) for _point, row in points]
        if not all(vals_p):
            continue
        if any(pow(v, (p - 1) // 2, p) == p - 1 for v in vals_p):
            return None  # certified nonsquare after all
        roots_p = [_tonelli(v, p) for v in vals_p]
        for bits in _PRECISION_BITS:
            m = p
            while m.bit_length() <= bits:
                m *= p
            lifted = _lift_points(ctx, points, p, m)
            residues_m = _reduce(leaves, m)
            vals = [_at(positions, residues_m, row, m) for _point, row in lifted]
            sqrts = []
            for t0, v in zip(roots_p, vals):
                t = t0
                mm = p
                while mm < m:
                    mm = min(mm * mm, m)
                    t = (t + v * pow(t, -1, mm)) * pow(2, -1, mm) % mm
                sqrts.append(t)
            vinv = _mat_inv_mod([row for _point, row in lifted], p, m)
            if vinv is None:
                break
            found = _pattern_search(ctx, lv, data, sqrts, vinv, m, dim)
            if found is not None:
                return found
        split_found += 1
        if split_found == 3:
            break
    return None


def _pattern_search(ctx, lv, data, sqrts, vinv, m, dim):
    for pattern in range(1 << (dim - 1)):
        svec = [sqrts[0]]
        for e in range(1, dim):
            t = sqrts[e]
            if (pattern >> (e - 1)) & 1:
                t = (-t) % m
            svec.append(t)
        coords = []
        ok = True
        for row in vinv:
            x = 0
            for a, b in zip(row, svec):
                x += a * b
            q = _rat_reconstruct(x % m, m)
            if q is None:
                ok = False
                break
            coords.append(q)
        if not ok:
            continue
        cand = _unflatten(ctx, coords, lv)
        if _sqr(ctx, lv, cand) == data:
            return cand
    return None


# -- tier 2 --------------------------------------------------------------------

_HALF = Fraction(1, 2)


def _sqrt_tier2(tower: TowerField, lv: int, data):
    ctx = tower._ctx
    lo = lv - 1
    lc = ctx[lo]
    d = lc.sqrt_const
    a, b = data
    if _is_zero(b, lo):
        # a has no root below (see _sqrt_raw); try y sqrt(d), y = sqrt(a d) / d
        ad = _times_c(ctx, lo, lc, a)
        r2 = _sqrt_raw(tower, lo, ad)
        if r2 is not None:
            y = _div(ctx, lo, [r2], d)[0]
            cand = (lc.zero, y)
            if _sqr(ctx, lv, cand) == data:
                return cand
        return None
    n = _sub(ctx, lo, _sqr(ctx, lo, a), _times_c(ctx, lo, lc, _sqr(ctx, lo, b)))
    s = _sqrt_raw(tower, lo, n)
    if s is None:
        return None
    for signed in (s, _neg(ctx, lo, s)):
        half = _scale(ctx, lo, _add(ctx, lo, a, signed), _HALF)
        r = _sqrt_raw(tower, lo, half)
        if r is None or _is_zero(r, lo):
            continue
        y = _div(ctx, lo, [_scale(ctx, lo, b, _HALF)], r)[0]
        cand = (r, y)
        if _sqr(ctx, lv, cand) == data:
            return cand
    return None


# -- dispatch -------------------------------------------------------------------


def _sqrt_raw(tower: TowerField, lv: int, data):
    if lv == 0:
        return rational_sqrt(data)
    # a Legendre witness settles nonsquares before any exact descent
    if _nonsquare_witness(tower, lv, data, _WITNESS_PRIMES) is not None:
        return None
    # a root of a constant below embeds upward (the converse fails, e.g. at
    # even-degree base-root levels, so no early NonSquare here)
    if all(_is_zero(c, lv - 1) for c in data[1:]):
        r = _sqrt_raw(tower, lv - 1, data[0])
        if r is not None:
            return _embed_up(tower._ctx, lv - 1, r, lv)
    if tower.levels[lv - 1].kind == KIND_SQRT:
        return _sqrt_tier2(tower, lv, data)
    return _sqrt_tier3(tower, lv, data)


def sqrt_or_nonsquare(c: TowerElement) -> TowerElement | None:
    """An exact square root of c, or None when X^2 - c is treated as
    irreducible at c's level.

    Rejects c = 0; callers handle zero separately.  Returned roots always
    satisfy root * root == c (verified on every call path).
    """
    if c.is_zero():
        raise ValueError("sqrt_or_nonsquare requires c != 0")
    data = _sqrt_raw(c.tower, c.level, c.data)
    if data is None:
        return None
    root = TowerElement(c.tower, c.level, data)
    assert root * root == c
    return root


def adjoin_sqrt(tower: TowerField, c: TowerElement) -> tuple[TowerField, TowerElement, bool]:
    """Return (tower', sqrt(c), level_added).

    When c is already a square the tower is unchanged and the existing root
    is returned (the level is "saved").  Rational constants are reduced by
    their square part first, so e.g. sqrt(-4) adjoins X^2 + 1 and returns
    2*gen.
    """
    if c.is_zero():
        raise ValueError("cannot adjoin a square root of zero")
    c = c.in_tower(tower)
    top = tower.height
    q = c.rational_value()
    if q is not None:
        r = rational_sqrt(q)
        if r is not None:
            return tower, tower.rational(r, top), False
    # full tower-level test: a rational nonsquare can still be a square
    # higher up the chain, and stacking it would collapse
    s = sqrt_or_nonsquare(c.embed(top))
    if s is not None:
        return tower, s, False
    if q is not None:
        d, mfac = squarefree_reduce(q.numerator * q.denominator)
        new = tower_extend(tower, [tower.rational(-d), tower.rational(0), tower.rational(1)])
        root = new.gen() * Fraction(mfac, q.denominator)
        return new, root, True
    ce = c.embed(top)
    new = tower_extend(tower, [-ce, tower.zero(top), tower.one(top)])
    return new, new.gen(), True


__all__ = [
    "squarefree_reduce",
    "sqrt_or_nonsquare",
    "adjoin_sqrt",
]
