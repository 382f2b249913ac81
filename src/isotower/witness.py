"""Legendre witnesses: the certifying half of square testing.

:func:`rational_sqrt` decides squares on the rationals exactly.  Above
them :func:`_nonsquare_witness` proves a nonsquare by its nonresidue value
at a tower point mod an odd prime, read from each level's table of points
mod p (:func:`_points_mod`), so a search reduces only c's leaves, once per
prime, and takes c at a point as a dot product with the point's row.  The
caller says how many odd primes a search scans: the constructors' square
test a few before its exact tiers, the verifier every one below 2^12.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import isqrt, prod
from operator import mul

from .tower import RationalLike, TowerField


@cache
def _small_primes() -> list[int]:
    limit = 10000
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [i for i in range(limit + 1) if sieve[i]]


def rational_sqrt(q: RationalLike) -> RationalLike | None:
    """Exact square root of a rational, or None; a kernel leaf, so an int
    when the root is integral."""
    if q < 0:
        return None
    rn = isqrt(q.numerator)
    if rn * rn != q.numerator:
        return None
    rd = isqrt(q.denominator)
    if rd * rd != q.denominator:
        return None
    return rn if rd == 1 else Fraction(rn, rd)


# -- polynomial roots mod p ---------------------------------------------------


def _horner_mod(coeffs, x, m):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def _roots_mod_p(coeffs: list[int], p: int) -> list[int]:
    """Distinct roots mod p of a monic integer polynomial, sorted: every
    residue is tried."""
    return [r for r in range(p) if not _horner_mod(coeffs, r, p)]


def _tonelli(a: int, p: int) -> int | None:
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m_, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m_ - i - 1), p)
        m_, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _sqrt_roots_mod(c: int, p: int) -> list[int]:
    """Distinct roots of X^2 - c mod an odd prime p, sorted as
    _roots_mod_p sorts them."""
    t = _tonelli(c, p)
    if t is None:
        return []
    return sorted({t, -t % p})


# -- tower points mod p ---------------------------------------------------------


def _flatten(ctx, lv, data):
    """(positions, leaves) of the nonzero leaves of raw level-lv data, a
    position being that of the leaf's monomial in a monomial row (the order
    of _unflatten and _times_powers); a coefficient that is its level's
    shared zero is skipped unread (any other zero is read)."""
    positions, leaves = [], []

    def walk(x, lv, base, size):
        if lv == 0:
            if x:
                positions.append(base)
                leaves.append(x)
            return
        lo = lv - 1
        z, block = ctx[lo].zero, size // ctx[lo].degree
        for i, c in enumerate(x):
            if c is not z:
                walk(c, lo, base + i * block, block)

    walk(data, lv, 0, prod(lc.degree for lc in ctx[:lv]))
    return positions, leaves


def _reduce(leaves, m):
    """The leaves mod m, or None when m is a prime dividing a denominator
    (a prime power m must be prime to every denominator)."""
    out = []
    for q in leaves:
        d = q.denominator
        if d == 1:
            out.append(q.numerator % m)
            continue
        d %= m
        if not d:
            return None
        out.append(q.numerator % m * pow(d, -1, m) % m)
    return out


def _at(positions, residues, row, m):
    """The value mod m of flattened data, its leaves mod m ``residues``, at
    the point whose monomial row mod m is ``row``."""
    return sum(map(mul, residues, map(row.__getitem__, positions))) % m


def _times_powers(row, r, deg, m):
    """The monomial row of a point extended by the coordinate r on a level
    of degree deg: the row times 1, r, ..., r^(deg-1) in turn, mod m."""
    powers = [1] * deg
    for i in range(1, deg):
        powers[i] = powers[i - 1] * r % m
    return [pw * v % m for pw in powers for v in row]


_ORIGIN = (((), (1,)),)  # the one point of Q, with its monomial row


def _points_mod(ctx, lv, p):
    """The points mod p of the tower up to level lv, each as (coordinates,
    monomial row mod p), or None when a reached minpoly is not p-integral.

    A coordinate is a simple root of its level's minpoly reduced at the
    point below, found depth first in increasing root order: on an X^2 - c
    level by Euler's criterion and Tonelli, on any other level by trying
    every residue.  A level keeps its entries in its context's
    ``points_mod`` slot, each built from the level below's entry with the
    minpoly's leaves reduced once per prime, so every tower sharing the
    context (a prefix, an extension) reads them instead of searching again.
    """
    if lv == 0:
        return _ORIGIN
    lc = ctx[lv - 1]
    table = lc.points_mod
    if table is None:
        table = lc.points_mod = ([_flatten(ctx, lv - 1, c) for c in lc.minpoly], {})
    coeffs, entries = table
    if p in entries:
        return entries[p]
    below = _points_mod(ctx, lv - 1, p)
    residues = [_reduce(leaves, p) for _pos, leaves in coeffs] if below else []
    if below is None or None in residues:
        entries[p] = None
        return None
    points = []
    for point, row in below:
        f = [_at(pos, res, row, p) for (pos, _leaves), res in zip(coeffs, residues)]
        if len(f) == 3 and not f[1]:
            roots = _sqrt_roots_mod(-f[0], p)  # X^2 - c: Euler and Tonelli
        else:
            roots = _roots_mod_p(f, p)
        fprime = [c * i % p for i, c in enumerate(f)][1:]
        for r in roots:
            if _horner_mod(fprime, r, p):
                points.append((point + (r,), _times_powers(row, r, lc.degree, p)))
    entries[p] = points
    return points


# -- Legendre witnesses ---------------------------------------------------------


def _nonsquare_witness(tower: TowerField, lv: int, data, primes: int):
    """A proof that data (raw, at level lv >= 1) is not a square, or None.

    The proof is (p, point, residue): p an odd prime at which the minpolys
    and data are p-integral, point a tower point mod p whose coordinates are
    simple roots of the reduced minpolys, and residue = data(point), a
    quadratic nonresidue mod p.  The point lifts to an embedding of the
    tower into the p-adic integers (an unramified prime of degree 1), which
    maps data to a unit with nonresidue reduction; so data has no square
    root, and a square never gets a witness.  The first ``primes`` odd
    primes are scanned in increasing order, each through all its points
    (read from the levels' tables, see :func:`_points_mod`); data's leaves
    are reduced once per prime that has points.  None means none was found,
    not that data is a square.
    """
    ctx = tower._ctx
    positions, leaves = _flatten(ctx, lv, data)
    for p in _small_primes()[1 : primes + 1]:
        points = _points_mod(ctx, lv, p)
        residues = _reduce(leaves, p) if points else None
        if residues is None:
            continue
        half = (p - 1) // 2
        for point, row in points:
            residue = _at(positions, residues, row, p)
            if residue and pow(residue, half, p) == p - 1:
                return p, point, residue
    return None

