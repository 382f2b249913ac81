"""Exact arithmetic in towers of field extensions of the rationals.

A tower is a chain Q = L_0 < L_1 < ... < L_k where each L_i is the quotient
of L_{i-1}[X] by a monic polynomial of degree >= 2.  Elements are nested
dense coefficient tuples bottoming out at rational leaves, always reduced
modulo every level's minimal polynomial and zero-padded to the full level
degree, so equality is plain structural comparison.  A leaf is an ``int``
when it is integral and a ``fractions.Fraction`` with denominator > 1
otherwise, never a float, a bool or a Fraction with denominator 1.  Most
leaves are integers, and ``int`` arithmetic on them skips the gcd and the
object that every Fraction operation builds.  An ``int`` and a Fraction of
equal value compare and hash alike, so a leaf built outside the kernel in
either spelling is still an ordinary value.  Products by the constant c of
an X^2 - c level, whose denominators can run to hundreds of digits, sum
integers over one denominator instead (see ``_times_c``).

Each level has one shared zero object, and every kernel result at level
>= 1 that is zero is that object, so the arithmetic skips zero operands
and coefficients by identity instead of walking them.  Identity is only a
fast path: a zero built elsewhere is an ordinary value to the kernel, and
``_is_zero`` stays the structural test (see the raw arithmetic section).

Division has one path, ``_div``, and 1/a is ``_div`` of one.  It never
forms 1/a on an X^2 - c level: it multiplies by a's conjugate and divides by
the norm one level down, so a chain of such levels inverts only its full
norm at the bottom, or divides leaves by it on Q.  Generic levels run
extended Euclid against the minimal polynomial inside it.

Irreducibility of adjoined polynomials is *not* decided eagerly.  A
reducible level surfaces lazily: when an inversion or a division exposes a
proper factor of some level's minimal polynomial, a
:class:`~isotower.errors.ReducibilityError` carrying the factor is raised.
It is a precondition error (CLI exit 3); there is no API that refines the
tower by the factor and retries.

All values are immutable after construction and all operations are pure, so
towers and elements can be shared freely across threads and processes.  The
two slots filled after construction, a level's D·c and its table of points
mod small primes, are written with the same value by whichever thread
computes them first.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm, prod
from typing import Sequence, Union

from .errors import ReducibilityError, ReducibilityWitness, ZeroInverse

KIND_SQRT = "quadratic-sqrt"
KIND_BASE = "base-root"

RationalLike = Union[int, Fraction]

# ---------------------------------------------------------------------------
# raw nested-data arithmetic
#
# A raw value at level 0 is a rational leaf: an int when it is integral,
# else a Fraction with denominator > 1 (``_leaf`` makes one from any int or
# Fraction).  Every kernel result at level 0 is a leaf, so ``int / int``,
# which gives a float, never runs: level-0 quotients build a Fraction.  At
# level k >= 1 a raw value is a tuple of exactly deg_k raw values at level
# k-1.  The per-level context carries the zero/one constants and the
# reduction data for the level's minimal polynomial, precomputed once per
# tower; an X^2 - c level's integral D·c is added when _times_c first needs
# it, since most contexts built never do.
#
# Shared zeros.  Each level k >= 1 of a tower has one zero object,
# ``ctx[k-1].own_zero``, built from the shared zero below it; a level-0 zero
# is any leaf equal to 0.  Every kernel result at level >= 1 that is zero is
# that object, and the pads of ``_embed_up``, ``_raw_zero`` and
# ``TowerField.zero`` are too.  The kernel therefore tests a coefficient at
# level lo with ``x is zero or not x``: ``not x`` is the leaf test, and is
# never true of a tuple.  Identity is only a fast path.  A zero built
# outside the kernel (a parsed, pickled or hand-built tuple, or one from a
# separately built tower) is an ordinary value to these tests: it costs time,
# never correctness.  ``_is_zero`` stays the structural test wherever a zero
# decides an answer.
# ---------------------------------------------------------------------------


class _LevelCtx:
    __slots__ = (
        "degree",
        "zero",
        "one",
        "own_zero",
        "pad",
        "minpoly",
        "red_tail",
        "sqrt_const",
        "sqrt_const_rat",
        "sqrt_const_int",
        "points_mod",
    )

    def __init__(self, degree, zero, one, minpoly, red_tail, sqrt_const, sqrt_const_rat):
        self.degree = degree
        self.zero = zero          # the shared zero of the level *below*
        self.one = one            # one of the level below
        self.own_zero = (zero,) * degree  # the shared zero of this level
        self.pad = (zero,) * (degree - 1)  # the zeros after a value embedded from below
        self.minpoly = minpoly    # raw coeffs over level below, monic, len degree+1
        self.red_tail = red_tail  # nonzero (index, coeff) pairs of minpoly below X^deg
        self.sqrt_const = sqrt_const        # c for minpoly X^2 - c, else None
        self.sqrt_const_rat = sqrt_const_rat  # the leaf c if c is rational-valued
        # (D·c, 1/D) for the lcm D > 1 of c's denominators, or (c, None) for
        # D = 1; None until _times_c needs it.  Any thread filling it writes
        # an equal value, so towers stay safe to share across threads.
        self.sqrt_const_int = None
        # witness._points_mod's table: (the minpoly's flattened leaves, {odd
        # prime p: None if a reached minpoly is not p-integral, else the
        # points mod p up to this level with their monomial rows}).  Filled
        # lazily; any thread writes an equal value, as for sqrt_const_int.
        self.points_mod = None


def _leaf(q):
    """The level-0 raw value of a rational q, an int or a Fraction: an int
    when q is integral, else q."""
    return q.numerator if q.denominator == 1 else q


def _raw_zero(ctx, lv):
    return ctx[lv - 1].own_zero if lv else 0


def _raw_one(ctx, lv):
    return (ctx[lv - 1].one,) + ctx[lv - 1].pad if lv else 1


def _is_zero(a, lv):
    if lv == 0:
        return not a
    lo = lv - 1
    for x in a:
        if not _is_zero(x, lo):
            return False
    return True


def _canon(lc, out):
    """``out``, a tuple of coefficients over the level below, or the shared
    zero of ``lc``'s level when every coefficient is zero."""
    z = lc.zero
    for x in out:
        if x is not z and x:
            return out
    return lc.own_zero


def _add(ctx, lv, a, b):
    if lv == 0:
        return _leaf(a + b) if a and b else a or b
    lc = ctx[lv - 1]
    if a is lc.own_zero:
        return b
    if b is lc.own_zero:
        return a
    lo = lv - 1
    return _canon(lc, tuple([_add(ctx, lo, x, y) for x, y in zip(a, b)]))


def _sub(ctx, lv, a, b):
    if lv == 0:
        if not b:
            return a
        return _leaf(a - b) if a else -b
    lc = ctx[lv - 1]
    if b is lc.own_zero:
        return a
    if a is lc.own_zero:
        return _neg(ctx, lv, b)
    lo = lv - 1
    return _canon(lc, tuple([_sub(ctx, lo, x, y) for x, y in zip(a, b)]))


def _neg(ctx, lv, a):
    if lv == 0:
        return -a if a else a
    if a is ctx[lv - 1].own_zero:
        return a
    lo = lv - 1
    return tuple([_neg(ctx, lo, x) for x in a])


def _scale(ctx, lv, a, q):
    """Multiply by a leaf q, cheaply."""
    if lv == 0:
        return _leaf(a * q) if a else a
    z = ctx[lv - 1].own_zero
    if a is z or not q:
        return z
    lo = lv - 1
    return tuple([_scale(ctx, lo, x, q) for x in a])


def _mul(ctx, lv, a, b):
    """a*b.  An X^2 - c level multiplies schoolbook, a0 b0 + c a1 b1 +
    (a0 b1 + a1 b0) X: Karatsuba's half-sums densify sparse halves and were
    measured slower.  A zero upper half skips its products (without that,
    corestriction construction ran 6% slower).  Generic levels fold X^d."""
    if lv == 0:
        return _leaf(a * b)
    lc = ctx[lv - 1]
    if a is lc.own_zero or b is lc.own_zero:
        return lc.own_zero
    lo = lv - 1
    z = lc.zero
    if lc.sqrt_const is not None:
        a0, a1 = a
        b0, b1 = b
        a1z = a1 is z or not a1
        b1z = b1 is z or not b1
        if a1z and b1z:
            return _canon(lc, (_mul(ctx, lo, a0, b0), z))
        if a1z:
            return _canon(lc, (_mul(ctx, lo, a0, b0), _mul(ctx, lo, a0, b1)))
        if b1z:
            return _canon(lc, (_mul(ctx, lo, a0, b0), _mul(ctx, lo, a1, b0)))
        hi = _add(ctx, lo, _mul(ctx, lo, a0, b0), _times_c(ctx, lo, lc, _mul(ctx, lo, a1, b1)))
        cross = _add(ctx, lo, _mul(ctx, lo, a0, b1), _mul(ctx, lo, a1, b0))
        return _canon(lc, (hi, cross))
    # generic level: schoolbook product then fold X^d = -tail
    d = lc.degree
    prod = [z] * (2 * d - 1)
    nzb = [(j, y) for j, y in enumerate(b) if y is not z and y]
    for i, x in enumerate(a):
        if x is z or not x:
            continue
        for j, y in nzb:
            prod[i + j] = _add(ctx, lo, prod[i + j], _mul(ctx, lo, x, y))
    return _fold(ctx, lo, lc, prod)


def _times_c(ctx, lo, lc, x):
    """c * x for x at level lo, below the X^2 - c level whose context is lc:
    the kernel's one product by a level constant.

    A rational-valued c scales x.  Otherwise, when the lcm D of c's
    denominators is > 1 and x has at least two nonzero leaves, x is
    multiplied by the integral D·c and each leaf of the product divided by
    D once, so the sums inside the product are integer sums instead of
    Fraction sums over D-sized denominators.  An x with one nonzero leaf has
    no sums to share a denominator, and goes through _mul(x, c) as before.
    Timed on the calls that verifying the perfbench seed-1 items makes, the
    394 one-leaf calls of isotropy-r4 take 9.6 ms through c and 22.1 ms
    through D·c, and the 138 calls with two or more leaves of split-septic
    take 123.4 ms through c and 39.5 ms through D·c (x86_64, CPython 3.11)."""
    if lc.sqrt_const_rat is not None:
        return _scale(ctx, lo, x, lc.sqrt_const_rat)
    if _nonzero_leaves(ctx, lo, x, 2) < 2:
        return _mul(ctx, lo, x, lc.sqrt_const)
    if lc.sqrt_const_int is None:
        c, d = lc.sqrt_const, _denominator(ctx, lc.sqrt_const, lo)
        lc.sqrt_const_int = (c, None) if d == 1 else (_scale(ctx, lo, c, d), Fraction(1, d))
    big_c, inv_d = lc.sqrt_const_int
    if inv_d is None:
        return _mul(ctx, lo, x, big_c)
    return _scale(ctx, lo, _mul(ctx, lo, x, big_c), inv_d)


def _denominator(ctx, a, lv):
    """The lcm of the denominators of the leaves of raw level-lv data;
    shared zeros are skipped by identity."""
    if lv == 0:
        return a.denominator
    z = ctx[lv - 1].zero
    return lcm(*[_denominator(ctx, x, lv - 1) for x in a if x is not z])


def _nonzero_leaves(ctx, lv, a, cap):
    """The number of nonzero leaves of raw level-lv data, counted up to cap;
    shared zeros are skipped by identity."""
    if lv == 0:
        return 1 if a else 0
    z = ctx[lv - 1].zero
    n = 0
    for x in a:
        if x is not z:
            n += _nonzero_leaves(ctx, lv - 1, x, cap - n)
            if n >= cap:
                break
    return n


def _fold(ctx, lo, lc, prod):
    """The 2d - 1 coefficients prod of a product on a generic level, reduced
    in place by X^d = -tail and returned as a canonical value."""
    d, z = lc.degree, lc.zero
    for i in range(2 * d - 2, d - 1, -1):
        top = prod[i]
        if top is z or not top:
            continue
        for j, mc in lc.red_tail:
            prod[i - d + j] = _sub(ctx, lo, prod[i - d + j], _mul(ctx, lo, top, mc))
    return _canon(lc, tuple(prod[:d]))


def _sqr(ctx, lv, a):
    """a*a; an X^2 - c level takes three products where _mul takes four
    (squaring through _mul ran split-septic verification 1% slower)."""
    if lv == 0:
        # already a leaf: p/q in lowest terms with q > 1 squares to p^2/q^2
        return a * a
    lc = ctx[lv - 1]
    if a is lc.own_zero:
        return a
    if lc.sqrt_const is not None:
        a0, a1 = a
        lo = lv - 1
        if a1 is lc.zero or not a1:
            return _canon(lc, (_sqr(ctx, lo, a0), lc.zero))
        p0 = _sqr(ctx, lo, a0)
        p1 = _sqr(ctx, lo, a1)
        cr = _mul(ctx, lo, a0, a1)
        return _canon(lc, (_add(ctx, lo, p0, _times_c(ctx, lo, lc, p1)), _add(ctx, lo, cr, cr)))
    return _mul(ctx, lv, a, a)


def _dot(ctx, lv, pairs):
    """Sum of a*b over raw (a, b) pairs, both factors at level lv, reduced
    once per level.  An X^2 - c level sums a0 b0, a1 b1 and a0 b1 + a1 b0
    over the pairs, leaving out zero upper halves, and multiplies by c once
    (through the generic path it ran isotropy-r4 verification 67% slower);
    a generic level folds X^d once.  A caller with a factor below lv embeds
    it first with _embed_up; its zero upper coefficients are then skipped,
    so a rational times a level-k value still costs one product per leaf.
    Every level ends in rational sums, and each of those is normalised
    once: the integer products of the numerators accumulate over a running
    common denominator (the lcm of the pair denominators), and the sum is
    that integer when the denominator stays 1, as it does when every leaf
    is an int; otherwise one Fraction is built at the end, and made a leaf
    (the int 0 when the sum cancels).
    Pairs and coefficients that are the shared zero are skipped by
    identity, and a zero result above level 0 is the shared zero.
    _mul stays the one-pair product; routed through here it pays more in
    call overhead on small elements than the shared reduction saves."""
    if lv == 0:
        num, den = 0, 1
        for a, b in pairs:
            n = a.numerator * b.numerator
            d = a.denominator * b.denominator
            if d == den:
                num += n
            else:
                g = gcd(den, d)
                num = num * (d // g) + n * (den // g)
                den = den // g * d
        return num if den == 1 else _leaf(Fraction(num, den))
    lo = lv - 1
    lc = ctx[lo]
    own, z = lc.own_zero, lc.zero
    if lc.sqrt_const is not None:
        p00, p11, cross = [], [], []
        for a, b in pairs:
            if a is own or b is own:
                continue
            (a0, a1), (b0, b1) = a, b
            p00.append((a0, b0))
            if b1 is not z and b1:
                cross.append((a0, b1))
                if a1 is not z and a1:
                    p11.append((a1, b1))
            if a1 is not z and a1:
                cross.append((a1, b0))
        hi = _dot(ctx, lo, p00) if p00 else z
        if p11:
            hi = _add(ctx, lo, hi, _times_c(ctx, lo, lc, _dot(ctx, lo, p11)))
        return _canon(lc, (hi, _dot(ctx, lo, cross) if cross else z))
    # generic level: bucket the coefficient products by degree, then fold
    # X^d = -tail once
    buckets = [[] for _ in range(2 * lc.degree - 1)]
    for a, b in pairs:
        if a is own or b is own:
            continue
        nzb = [(j, y) for j, y in enumerate(b) if y is not z and y]
        for i, x in enumerate(a):
            if x is not z and x:
                for j, y in nzb:
                    buckets[i + j].append((x, y))
    return _fold(ctx, lo, lc, [_dot(ctx, lo, bk) if bk else z for bk in buckets])


def _embed_up(ctx, lv_from, a, lv_to):
    """View a level lv_from value at level lv_to >= lv_from: each level
    appends its shared pad, and a zero becomes the shared zero of lv_to.
    A level above the tower raises IndexError."""
    if lv_from < lv_to and (a is ctx[lv_from - 1].own_zero if lv_from else not a):
        return ctx[lv_to - 1].own_zero
    for lv in range(lv_from, lv_to):
        a = (a,) + ctx[lv].pad
    return a


# -- dense polynomial helpers over a fixed level (raw coefficient lists) -----


def _ptrim(coeffs, lv):
    n = len(coeffs)
    while n and _is_zero(coeffs[n - 1], lv):
        n -= 1
    return list(coeffs[:n])


def _pdivmod(ctx, lv, num, den):
    """Exact division with remainder over the level-lv field (den nonzero)."""
    num = _ptrim(num, lv)
    den = _ptrim(den, lv)
    if not den:
        raise ZeroInverse("polynomial division by zero")
    inv_lead = _inv(ctx, lv, den[-1])
    quot = [_raw_zero(ctx, lv)] * max(0, len(num) - len(den) + 1)
    rem = list(num)
    dd = len(den) - 1
    while len(rem) >= len(den) and rem:
        c = _mul(ctx, lv, rem[-1], inv_lead)
        k = len(rem) - len(den)
        quot[k] = c
        for j in range(dd):
            rem[k + j] = _sub(ctx, lv, rem[k + j], _mul(ctx, lv, c, den[j]))
        rem.pop()
        rem = _ptrim(rem, lv)
    return quot, rem


def _pmul(ctx, lv, a, b):
    if not a or not b:
        return []
    zero = _raw_zero(ctx, lv)
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if _is_zero(x, lv):
            continue
        for j, y in enumerate(b):
            out[i + j] = _add(ctx, lv, out[i + j], _mul(ctx, lv, x, y))
    return _ptrim(out, lv)


def _psub(ctx, lv, a, b):
    zero = _raw_zero(ctx, lv)
    return _ptrim([_sub(ctx, lv, x, y) for x, y in zip_longest(a, b, fillvalue=zero)], lv)


def _norm(ctx, lv, a):
    """a0^2 - c a1^2 for a = a0 + a1 X, a1 != 0, on an X^2 - c level; a zero
    norm means a0/a1 squares to c, and raises the factor X + a0/a1."""
    lo = lv - 1
    lc = ctx[lo]
    a0, a1 = a
    norm = _sub(ctx, lo, _sqr(ctx, lo, a0), _times_c(ctx, lo, lc, _sqr(ctx, lo, a1)))
    if _is_zero(norm, lo):
        factor = (_div(ctx, lo, [a0], a1)[0], lc.one)
        raise ReducibilityError(ReducibilityWitness(level=lv, factor=factor))
    return norm


def _div(ctx, lv, xs, a):
    """The quotients x / a of the numerators xs: the kernel's one quotient
    (1/a is _div of one).  Raises ZeroInverse on 0 and ReducibilityError on
    a zero divisor exposing a proper minpoly factor.  A divisor constant
    over the level below divides coefficient-wise; on an X^2 - c level the
    halves of every x times the conjugate a0 - a1 X are divided at once by
    the norm; generic levels run extended Euclid for 1/a and multiply."""
    if lv == 0:
        if not a:
            raise ZeroInverse("division by zero")
        # Fraction(x, a), not x / a: int / int is a float
        return [_leaf(Fraction(x, a)) for x in xs]
    lo = lv - 1
    lc = ctx[lo]
    if all(_is_zero(y, lo) for y in a[1:]):
        parts = _div(ctx, lo, [y for x in xs for y in x], a[0])
    elif lc.sqrt_const is not None:
        conj = (a[0], _neg(ctx, lo, a[1]))
        parts = _div(ctx, lo, [y for x in xs for y in _mul(ctx, lv, x, conj)], _norm(ctx, lv, a))
    else:
        # extended Euclid, tracking only the cofactor of a: s*a = r (mod minpoly)
        r0 = list(lc.minpoly)
        r1 = _ptrim(a, lo)
        s0: list = []
        s1 = [_raw_one(ctx, lo)]
        while len(r1) > 1:
            q, r = _pdivmod(ctx, lo, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _psub(ctx, lo, s0, _pmul(ctx, lo, q, s1))
        if not r1:
            factor = _div(ctx, lo, r0, r0[-1])
            raise ReducibilityError(ReducibilityWitness(level=lv, factor=tuple(factor)))
        inv = _div(ctx, lo, s1, r1[0])
        inv = tuple(inv + [lc.zero] * (lc.degree - len(inv)))
        return [_mul(ctx, lv, x, inv) for x in xs]
    return [_canon(lc, q) for q in zip(*[iter(parts)] * lc.degree)]


def _inv(ctx, lv, a):
    """1 / a, as _div of one."""
    return _div(ctx, lv, [_raw_one(ctx, lv)], a)[0]


def _pow(ctx, lv, a, n):
    if n < 0:
        return _pow(ctx, lv, _inv(ctx, lv, a), -n)
    result = _raw_one(ctx, lv)
    base = a
    while n:
        if n & 1:
            result = _mul(ctx, lv, result, base)
        base = _sqr(ctx, lv, base)
        n >>= 1
    return result


# ---------------------------------------------------------------------------
# public wrappers
# ---------------------------------------------------------------------------


def _level_ctx(ctx, level) -> _LevelCtx:
    """The context of ``level`` on top of levels whose contexts are ``ctx``."""
    lo = len(ctx)  # element level of the coefficients
    d, zero = level.degree, _raw_zero(ctx, lo)
    red = tuple((j, c) for j, c in enumerate(level.minpoly[:d]) if not (c is zero or _is_zero(c, lo)))
    sqrt_const = None
    sqrt_rat = None
    if level.kind == KIND_SQRT:
        sqrt_const = _neg(ctx, lo, level.minpoly[0])
        sqrt_rat = _rational_value_raw(sqrt_const, lo)
    return _LevelCtx(
        d,
        zero,
        _raw_one(ctx, lo),
        level.minpoly,
        red,
        sqrt_const,
        sqrt_rat,
    )


class Level:
    """One tower level: a monic minimal polynomial over the level below."""

    __slots__ = ("label", "minpoly", "kind", "degree")

    def __init__(self, label: str, minpoly: tuple, kind: str):
        self.label = label
        self.minpoly = minpoly
        self.kind = kind
        self.degree = len(minpoly) - 1

    def __eq__(self, other):
        return (
            isinstance(other, Level)
            and self.label == other.label
            and self.minpoly == other.minpoly
            and self.kind == other.kind
        )

    def __hash__(self):
        return hash((self.label, self.minpoly, self.kind))

    def __repr__(self):
        return f"Level({self.label!r}, deg={self.degree}, kind={self.kind})"


class TowerField:
    """A chain of extensions of Q, each a quotient by a monic polynomial.

    Immutable; :func:`tower_extend` returns a new tower sharing this one as a
    prefix, so elements of the old tower remain valid in the new one.  A
    level's context depends only on the levels below it, so extending a
    tower or cutting a prefix reuses the contexts already built.
    """

    __slots__ = ("levels", "_ctx", "_hash")

    def __init__(self, levels: Sequence[Level] = ()):
        self.levels = tuple(levels)
        ctx: list = []
        for level in self.levels:
            ctx.append(_level_ctx(ctx, level))
        self._ctx = tuple(ctx)
        self._hash = None

    @classmethod
    def _from_ctx(cls, levels: tuple, ctx: tuple) -> "TowerField":
        tower = cls.__new__(cls)
        tower.levels, tower._ctx, tower._hash = levels, ctx, None
        return tower

    def _extended(self, level: Level) -> "TowerField":
        """This tower with ``level`` on top, its contexts reused."""
        ctx = self._ctx + (_level_ctx(self._ctx, level),)
        return TowerField._from_ctx(self.levels + (level,), ctx)

    def prefix(self, height: int) -> "TowerField":
        """The tower of the first ``height`` (0..height) levels, sharing their contexts."""
        h = self._level(height)
        return TowerField._from_ctx(self.levels[:h], self._ctx[:h])

    # -- structure ----------------------------------------------------------

    @property
    def height(self) -> int:
        return len(self.levels)

    def degree_of_level(self, lv: int) -> int:
        """The degree of level ``lv`` (1..height) over the level below."""
        if not 1 <= lv <= self.height:
            raise ValueError(f"level {lv} is outside the tower's levels 1..{self.height}")
        return self.levels[lv - 1].degree

    def absolute_degree(self, level: int | None = None) -> int:
        """[level : Q] for ``level`` in 0..height (default: the top), the one
        product of level degrees."""
        return prod(lev.degree for lev in self.levels[: self._level(level)])

    def is_prefix_of(self, other: "TowerField") -> bool:
        return self.levels == other.levels[: len(self.levels)]

    def __eq__(self, other):
        return isinstance(other, TowerField) and self.levels == other.levels

    def __hash__(self):
        # hashing hashes every minpoly's leaves: done on first use only
        h = self._hash
        if h is None:
            h = self._hash = hash(self.levels)
        return h

    def __repr__(self):
        chain = " < ".join(["Q"] + [f"{lev.label}(deg {lev.degree})" for lev in self.levels])
        return f"TowerField[{chain}]"

    # -- element constructors -------------------------------------------------

    def _level(self, level: int | None) -> int:
        """``level``, or the top for None; a level outside the tower raises
        ValueError, as :meth:`TowerElement.embed` does."""
        if level is None:
            return self.height
        if not 0 <= level <= self.height:
            raise ValueError(f"level {level} is outside the tower's levels 0..{self.height}")
        return level

    def zero(self, level: int | None = None) -> "TowerElement":
        lv = self._level(level)
        return TowerElement(self, lv, _raw_zero(self._ctx, lv))

    def one(self, level: int | None = None) -> "TowerElement":
        lv = self._level(level)
        return TowerElement(self, lv, _raw_one(self._ctx, lv))

    def rational(self, q: RationalLike, level: int | None = None) -> "TowerElement":
        """The rational ``q`` at ``level``; ``q`` is an int or a Fraction, and
        anything else (a bool, a float, a string) raises TypeError."""
        lv = self._level(level)
        if not _is_rational(q):
            raise TypeError(f"a rational must be an int or a Fraction, not {type(q).__name__}")
        return TowerElement(self, lv, _embed_up(self._ctx, 0, _leaf(q), lv))

    def coerce(self, x, level: int) -> "TowerElement":
        """``x`` at ``level``: an element of a tower agreeing with this one up
        to its level is retagged and embedded, anything else is a rational
        as for :meth:`rational`."""
        if isinstance(x, TowerElement):
            return x.in_tower(self).embed(self._level(level))
        return self.rational(x, level)

    def gen(self, level: int | None = None) -> "TowerElement":
        """The generator (root of the minimal polynomial) of a level."""
        lv = self._level(level)
        if lv < 1:
            raise ValueError("the rational base has no generator")
        lc = self._ctx[lv - 1]
        pad = lc.zero
        data = (pad, lc.one) + (pad,) * (lc.degree - 2)
        return TowerElement(self, lv, data)

    def element(self, level: int, data) -> "TowerElement":
        """Raw nested data, validated for shape, as an element; its leaves
        are ints or Fractions, and an integral Fraction is stored as an
        int."""
        lv = self._level(level)
        return TowerElement(self, lv, _check_shape(self._ctx, lv, data))

    def from_coeffs(self, level: int, coeffs: Sequence) -> "TowerElement":
        """Element of ``level`` from coefficients over the level below,
        each coerced as by :meth:`coerce`."""
        lv = self._level(level)
        if lv < 1:
            raise ValueError("from_coeffs needs level >= 1")
        d = self.degree_of_level(lv)
        if len(coeffs) > d:
            raise ValueError("too many coefficients")
        data = [self.coerce(c, lv - 1).data for c in coeffs]
        data += [_raw_zero(self._ctx, lv - 1)] * (d - len(data))
        return TowerElement(self, lv, _canon(self._ctx[lv - 1], tuple(data)))


def _is_rational(q) -> bool:
    """Whether q is an int or a Fraction; a bool is neither."""
    return isinstance(q, Fraction) or (isinstance(q, int) and not isinstance(q, bool))


def _check_shape(ctx, lv, data):
    """A copy of ``data`` with every leaf made a leaf by ``_leaf``;
    TypeError on a bad shape."""
    if lv == 0:
        if not _is_rational(data):
            raise TypeError("level-0 data must be an int or a Fraction")
        return _leaf(data)
    if not isinstance(data, tuple) or len(data) != ctx[lv - 1].degree:
        raise TypeError(f"level-{lv} data must be a tuple of length {ctx[lv - 1].degree}")
    return tuple([_check_shape(ctx, lv - 1, x) for x in data])


def _lowest(data, lv):
    """(level, data) of a raw value at the lowest level that holds it."""
    while lv:
        lo = lv - 1
        for x in data[1:]:
            if not _is_zero(x, lo):
                return lv, data
        lv, data = lo, data[0]
    return 0, data


def _rational_value_raw(data, lv):
    """The leaf (an int or a Fraction) a raw value equals, or None if it is
    not constant."""
    lv, data = _lowest(data, lv)
    return None if lv else data


class TowerElement:
    """An element of a tower level; immutable, exact, hashable."""

    __slots__ = ("tower", "level", "data")

    def __init__(self, tower: TowerField, level: int, data):
        self.tower = tower
        self.level = level
        self.data = data

    # -- structural helpers ---------------------------------------------------

    def is_zero(self) -> bool:
        lv, data = self.level, self.data
        if lv and data is self.tower._ctx[lv - 1].own_zero:
            return True
        return _is_zero(data, lv)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def rational_value(self) -> RationalLike | None:
        """The rational this element equals, or None if non-constant: an
        int when it is integral, else a Fraction."""
        return _rational_value_raw(self.data, self.level)

    def embed(self, level: int) -> "TowerElement":
        """The same value viewed at a higher level of the same tower."""
        if level < self.level:
            raise ValueError("cannot embed downward")
        if level > self.tower.height:
            raise ValueError("embedding level exceeds the tower height")
        if level == self.level:
            return self
        return TowerElement(
            self.tower, level, _embed_up(self.tower._ctx, self.level, self.data, level)
        )

    def in_tower(self, tower: TowerField) -> "TowerElement":
        """Retag into any tower agreeing with this one up to the element's level."""
        if tower is self.tower:
            return self
        if self.tower.levels[: self.level] != tower.levels[: self.level]:
            raise ValueError("towers disagree below the element's level")
        return TowerElement(tower, self.level, self.data)

    def coeffs(self) -> tuple["TowerElement", ...]:
        """Coefficients over the level below (level >= 1)."""
        if self.level < 1:
            raise ValueError("a rational has no coefficient vector")
        return tuple(TowerElement(self.tower, self.level - 1, c) for c in self.data)

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, TowerElement):
            a, b = self, other
            if b.tower is not a.tower:
                tower = _join(a.tower, b.tower)
                a, b = a.in_tower(tower), b.in_tower(tower)
            lv = max(a.level, b.level)
            return a.embed(lv), b.embed(lv)
        if _is_rational(other):
            return self, self.tower.rational(other, self.level)
        return self, NotImplemented

    def __add__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return TowerElement(a.tower, a.level, _add(a.tower._ctx, a.level, a.data, b.data))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return TowerElement(a.tower, a.level, _sub(a.tower._ctx, a.level, a.data, b.data))

    def __rsub__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return TowerElement(a.tower, a.level, _sub(a.tower._ctx, a.level, b.data, a.data))

    def __neg__(self):
        return TowerElement(self.tower, self.level, _neg(self.tower._ctx, self.level, self.data))

    def __mul__(self, other):
        if _is_rational(other):
            return TowerElement(
                self.tower, self.level, _scale(self.tower._ctx, self.level, self.data, _leaf(other))
            )
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return TowerElement(a.tower, a.level, _mul(a.tower._ctx, a.level, a.data, b.data))

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return TowerElement(a.tower, a.level, _div(a.tower._ctx, a.level, [a.data], b.data)[0])

    def __rtruediv__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return TowerElement(a.tower, a.level, _div(a.tower._ctx, a.level, [b.data], a.data)[0])

    def __pow__(self, n: int):
        return TowerElement(self.tower, self.level, _pow(self.tower._ctx, self.level, self.data, n))

    def inverse(self) -> "TowerElement":
        return TowerElement(self.tower, self.level, _inv(self.tower._ctx, self.level, self.data))

    def square(self) -> "TowerElement":
        return TowerElement(self.tower, self.level, _sqr(self.tower._ctx, self.level, self.data))

    # -- comparisons ----------------------------------------------------------

    def __eq__(self, other):
        try:
            a, b = self._coerce(other)
        except ValueError:
            return False
        if b is NotImplemented:
            return NotImplemented
        return a.level == b.level and a.data == b.data

    def __hash__(self):
        # equal values embedded at different levels must hash alike: hash at
        # the lowest level that holds the value, so a rational hashes as its
        # leaf
        lv, data = _lowest(self.data, self.level)
        return hash((lv, data)) if lv else hash(data)

    def __repr__(self):
        return f"TowerElement(level={self.level}, {self})"

    def __str__(self):
        return _render(self.tower, self.level, self.data)


def dot(xs: Sequence[TowerElement], ys: Sequence[TowerElement]) -> TowerElement:
    """Sum of x*y over paired elements, reduced once per level.

    The towers must be prefixes of one another, as for ``x * y``; the result
    lies in the longest one, at the highest level among the inputs (the
    rational zero when there are no pairs).  Pairs with a zero factor are
    skipped.  Mixed levels are this function's to embed: a factor below
    the result's level is lifted with the kernel's ``_embed_up`` before the
    pairs go to ``_dot``, and its zero upper coefficients are skipped, so a
    rational entry times a top-level vector entry still costs one leaf
    product per leaf.  Each rational sum at the bottom is normalised once.
    This is the one-row, one-column case of :func:`dot_matrix`.
    """
    return dot_matrix((xs,), (ys,))[0][0]


def _scan(xs):
    """(tower, level, entries) of one row or column: the longest tower and
    the highest level among its elements, and (level, data) per element
    with None for a zero."""
    tower, lv, entries = QQ, 0, []
    for x in xs:
        t, la, a = x.tower, x.level, x.data
        if t is not tower:
            tower = _join(tower, t)
        if la > lv:
            lv = la
        entries.append(None if x.is_zero() else (la, a))
    return tower, lv, entries


def _join(s, t):
    """The longer of two towers that are prefixes of one another."""
    if s.is_prefix_of(t):
        return t
    if t.is_prefix_of(s):
        return s
    raise ValueError("elements of incompatible towers")


def dot_matrix(rows, cols) -> tuple:
    """The matrix of ``dot(row, col)`` for every row against every column.

    Entry (i, j) has the value, level and tower that ``dot(rows[i],
    cols[j])`` gives: the highest level and longest tower in that row and
    that column.  Towers are checked, levels found and zero entries
    dropped once per row and once per column rather than once per entry.
    ``_dot`` takes same-level pairs only, so each factor below the entry's
    level is embedded with ``_embed_up`` first, and the pairs of each entry
    go to one ``_dot``.
    """
    row_scans = [_scan(r) for r in rows]
    col_scans = [_scan(c) for c in cols]
    out = []
    for rt, rl, rs in row_scans:
        out_row = []
        for ct, cl, cs in col_scans:
            tower = rt if rt is ct else _join(rt, ct)
            lv = rl if rl >= cl else cl
            ctx = tower._ctx
            pairs = []
            for x, y in zip(rs, cs):
                if x is None or y is None:
                    continue
                la, a = x
                lb, b = y
                if la < lv:
                    a = _embed_up(ctx, la, a, lv)
                if lb < lv:
                    b = _embed_up(ctx, lb, b, lv)
                pairs.append((a, b))
            data = _dot(ctx, lv, pairs) if pairs else _raw_zero(ctx, lv)
            out_row.append(TowerElement(tower, lv, data))
        out.append(tuple(out_row))
    return tuple(out)


def _decimal(n: int) -> str:
    """str(n), also past the interpreter's int -> str digit limit: such an
    n is cut at a power of ten into halves converted the same way."""
    try:
        return str(n)
    except ValueError:
        if n < 0:
            return "-" + _decimal(-n)
        k = n.bit_length() * 3 // 20  # about half of n's digits
        hi, lo = divmod(n, 10**k)
        return _decimal(hi) + _decimal(lo).zfill(k)


def _from_decimal(s: str) -> int:
    """int(s) of ASCII digits after an optional "-", also past the
    interpreter's str -> int digit limit: halves are converted the same way."""
    try:
        return int(s)
    except ValueError:
        if s[0] == "-":
            return -_from_decimal(s[1:])
        k = len(s) // 2
        return _from_decimal(s[:-k]) * 10**k + _from_decimal(s[-k:])


def _render(tower, lv, data):
    if lv == 0:
        num = _decimal(data.numerator)
        return num if data.denominator == 1 else f"{num}/{_decimal(data.denominator)}"
    label = tower.levels[lv - 1].label
    parts = []
    for i, c in enumerate(data):
        if _is_zero(c, lv - 1):
            continue
        cs = _render(tower, lv - 1, c)
        if i == 0:
            parts.append(cs)
        else:
            mono = label if i == 1 else f"{label}^{i}"
            parts.append(mono if cs == "1" else f"({cs})*{mono}")
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# tower construction operations
# ---------------------------------------------------------------------------


def _level_kind(ctx, minpoly) -> str:
    """KIND_SQRT for a raw minpoly X^2 - c over a top with contexts ctx, else KIND_BASE."""
    b, lv = minpoly[1], len(ctx)
    return KIND_SQRT if len(minpoly) == 3 and (b is _raw_zero(ctx, lv) or _is_zero(b, lv)) else KIND_BASE


def tower_extend(
    tower: TowerField,
    minpoly: Sequence,
    label: str | None = None,
) -> TowerField:
    """Adjoin a root of a monic polynomial of degree >= 2 over the current top.

    The coefficients are rationals or elements of the tower, lowest degree
    first.  Irreducibility is not verified eagerly; a reducible minpoly
    surfaces later as the :class:`ReducibilityError` precondition during
    some inversion.
    """
    top = tower.height
    coeffs = [tower.coerce(c, top) for c in minpoly]
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    deg = len(coeffs) - 1
    if deg < 2:
        raise ValueError("minimal polynomial must have degree >= 2")
    if coeffs[-1] != 1:
        raise ValueError("minimal polynomial must be monic")
    taken = {level.label for level in tower.levels}
    if label is None:
        n = top + 1
        while f"g{n}" in taken:
            n += 1
        label = f"g{n}"
    if not isinstance(label, str) or label in taken:
        raise ValueError(f"level label {label!r} is not a string distinct from those below")
    raw = tuple(c.data for c in coeffs)
    return tower._extended(Level(label, raw, _level_kind(tower._ctx, raw)))


QQ = TowerField(())

__all__ = [
    "KIND_SQRT",
    "KIND_BASE",
    "Level",
    "TowerField",
    "TowerElement",
    "QQ",
    "tower_extend",
    "dot",
    "dot_matrix",
]
