"""Quadratic form systems over tower fields and their isotropy over
2-extension towers.

The central operation is :func:`isotropy_2ext`: given r quadratic forms in
more than r(r+1)/2 variables, it builds a chain of at most r square-root
adjunctions over the base field together with an exact nonzero common zero,
packaged as a self-contained certificate.  The recursion mixes forms to
vanish at a chosen vector, intersects orthogonal complements, solves the
smaller system, and finishes with one binary quadratic per recursion level,
so the constructed extension degree is at most 2^r.

At every level a form is symmetric rows M of the kernel's raw data at
``form.level`` in ``form.tower`` over one positive integer D, G = M / D.
Where a form is first built (:meth:`QuadraticForm.from_gram`,
:meth:`QuadraticForm.diagonal`, :func:`transfer_system`) M is made
integral over the lcm of its leaves' denominators, and the recursion runs
on the pair: with v' = d v integral, G v = M v' / (D d) and
phi(v) = v'^T M v' / (D d^2); mixing gives m_r M_i - m_i M_r over
D_i D_r d^2 (m = v'^T M v'); the orthogonality rows are the M_i v',
positive multiples of the G_i v with the same null space; and restriction
gives B'^T M B' over D L^2 for the basis scaled by the lcm L of its
denominators.  Every sum of products is one :func:`_sum`, a plain ``int``
sum over Q and one kernel :func:`~isotower.tower._dot` above it, and every
scaling to integral leaves one :func:`_integral`; these two helpers are
the only code that tells Q from the levels above it.  A symmetric matrix
is built on its upper triangle, and each entry is mirrored to (q, p).
``gram``, the wrapped G, is built when something reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Sequence

from . import linalg
from .errors import AllVanish, DimensionTooSmall, PreconditionError
from .sqrt import adjoin_sqrt
from .tower import TowerElement, TowerField, _dot, _embed_up, _is_zero, _join, _mul
from .tower import _denominator, _neg, _raw_zero, _scale


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """A quadratic form via its symmetric Gram matrix: phi(x) = x^T G x.

    Off-diagonal entries are half the polar form, so
    phi(x+y) - phi(x) - phi(y) = 2 x^T G y exactly (characteristic 0).
    G = ``rows`` / ``den``: ``rows`` are symmetric raw level-``level``
    data in ``tower`` and ``den`` is a positive integer.  Over Q the rows
    are integers.  Forms are equal, and hash alike, when their G are.
    """

    tower: TowerField
    level: int
    rows: tuple[tuple, ...]
    den: int = 1

    @staticmethod
    def from_gram(tower: TowerField, level: int, rows) -> "QuadraticForm":
        gram = tuple(tuple(tower.coerce(x, level) for x in row) for row in rows)
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise ValueError("gram matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if gram[i][j] != gram[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        return _form(tower, level, n, lambda p, q: gram[p][q].data)

    @staticmethod
    def diagonal(tower: TowerField, level: int, entries) -> "QuadraticForm":
        entries = [tower.coerce(e, level).data for e in entries]
        zero = _raw_zero(tower._ctx, level)
        return _form(tower, level, len(entries), lambda p, q: entries[p] if p == q else zero)

    @cached_property
    def gram(self) -> tuple[tuple[TowerElement, ...], ...]:
        """G as wrapped elements: entry (p, q), p <= q, is wrapped once and
        that same object is mirrored to (q, p)."""
        tower, lv, m, den = self.tower, self.level, self.rows, self.den
        ctx = tower._ctx
        return _mirrored(len(m), lambda p, q: TowerElement(tower, lv, _over(ctx, lv, m[p][q], den)))

    def __eq__(self, other):
        if not isinstance(other, QuadraticForm):
            return NotImplemented
        return (self.tower, self.level, self.gram) == (other.tower, other.level, other.gram)

    def __hash__(self):
        return hash((self.tower, self.level, self.gram))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _gy(self, v):
        """(tower, level, raw v', raw y, D, d) in the longer tower and at the
        higher level of v and the form: v' = d v as for :func:`_lifted` and
        y = M v', so G v = y / (D d) and phi(v) = v'^T y / (D d^2).  Each
        entry of y is one :func:`_sum`."""
        tower, lv, v, d = _lifted(self, v)
        ctx, fl = tower._ctx, self.level
        return tower, lv, v, [_sum(ctx, lv, row, v, fl) for row in self.rows], self.den, d

    def evaluate(self, v) -> TowerElement:
        tower, lv, v, y, den, d = self._gy(v)
        ctx = tower._ctx
        return TowerElement(tower, lv, _over(ctx, lv, _sum(ctx, lv, v, y), den * d * d))


def _over(ctx, lv: int, x, den: int):
    """Raw level-lv data x divided by a positive integer den."""
    return x if den == 1 else _scale(ctx, lv, x, Fraction(1, den))


def _sum(ctx, lv: int, xs, ys, xl: int | None = None):
    """The sum of x * y over raw level-lv xs and ys, as raw level-lv data;
    xs at a level xl below lv are embedded up to it first.  Over Q, where
    the forms' values are integers, it is a plain ``int`` sum; above Q it
    is one kernel ``_dot``, which skips the shared zeros."""
    if not lv:
        return sum(map(mul, xs, ys))
    if xl is not None and xl < lv:
        xs = [_embed_up(ctx, xl, x, lv) for x in xs]
    return _dot(ctx, lv, list(zip(xs, ys)))


def _integral(ctx, lv: int, xs: list) -> tuple[list, int]:
    """(d xs, d) for raw level-lv values xs and the lcm d of their leaves'
    denominators: every leaf of d xs is an integer."""
    if lv:
        d = lcm(*[_denominator(ctx, x, lv) for x in xs])
        return (xs, 1) if d == 1 else ([_scale(ctx, lv, x, d) for x in xs], d)
    d = lcm(*[x.denominator for x in xs])
    return (xs, 1) if d == 1 else ([x.numerator * (d // x.denominator) for x in xs], d)


def _lifted(form: QuadraticForm, v) -> tuple:
    """(tower, level, raw v', d) for a vector v of the form's dimension, in
    the longer tower and at the higher level of v and the form, with
    v' = d v integral as by :func:`_integral`; plain numbers are
    rationals."""
    if len(v) != form.dim:
        raise ValueError(f"vector length {len(v)} != form dimension {form.dim}")
    tower, lv = form.tower, form.level
    for x in v:
        if isinstance(x, TowerElement):
            tower = tower if x.tower is tower else _join(tower, x.tower)
            lv = max(lv, x.level)
    return (tower, lv) + _integral(tower._ctx, lv, [tower.coerce(x, lv).data for x in v])


def _mirrored(n: int, entry) -> tuple[tuple, ...]:
    """The symmetric rows whose entry (p, q), p <= q, is ``entry(p, q)``,
    and that same object at (q, p); entries are made row by row."""
    rows = [[None] * n for _ in range(n)]
    for p in range(n):
        for q in range(p, n):
            rows[p][q] = rows[q][p] = entry(p, q)
    return tuple(map(tuple, rows))


def _form(tower: TowerField, level: int, n: int, entry, den: int = 1) -> QuadraticForm:
    """The form G = E / den for the raw symmetric E with upper-triangle entry
    (p, q) = ``entry(p, q)``, stored over den times the lcm of E's leaves'
    denominators so that its rows are integral."""
    upper, d = _integral(tower._ctx, level, [entry(p, q) for p in range(n) for q in range(p, n)])
    it = iter(upper)
    return QuadraticForm(tower, level, _mirrored(n, lambda p, q: next(it)), den * d)


@dataclass(frozen=True)
class QFSystem:
    """r quadratic forms of one dimension over one tower level."""

    forms: tuple[QuadraticForm, ...]

    def __post_init__(self):
        if not self.forms:
            raise ValueError("a system needs at least one form")
        f0 = self.forms[0]
        if any(f.dim != f0.dim or f.level != f0.level or f.tower != f0.tower for f in self.forms):
            raise ValueError("all forms must share dimension, tower, and level")

    @property
    def r(self) -> int:
        return len(self.forms)

    @property
    def dim(self) -> int:
        return self.forms[0].dim

    @property
    def tower(self) -> TowerField:
        return self.forms[0].tower

    @property
    def level(self) -> int:
        return self.forms[0].level


@dataclass(frozen=True)
class IsotropyCertificate:
    """Tower recipe + exact witness + degree bookkeeping for one system."""

    tower: TowerField
    witness: tuple[TowerElement, ...]
    claimed_bound: int
    actual_degree: int
    base_levels: int


# ---------------------------------------------------------------------------
# diagonalization
# ---------------------------------------------------------------------------


def diagonalize(form: QuadraticForm):
    """Congruence diagonalization: returns (diag entries, basechange P) with
    P^T G P diagonal.  Zero diagonal entries are kept (they expose isotropy).
    """
    tower, level, n = form.tower, form.level, form.dim
    g = [list(row) for row in form.gram]
    p = [list(row) for row in linalg.identity(tower, level, n)]

    def add_col(dst, src, c):
        # basis change e_dst += c * e_src, applied symmetrically to G
        for i in range(n):
            g[i][dst] = g[i][dst] + c * g[i][src]
        for j in range(n):
            g[dst][j] = g[dst][j] + c * g[src][j]
        for i in range(n):
            p[i][dst] = p[i][dst] + c * p[i][src]

    def swap_cols(i, j):
        for row in g:
            row[i], row[j] = row[j], row[i]
        g[i], g[j] = g[j], g[i]
        for row in p:
            row[i], row[j] = row[j], row[i]

    for k in range(n):
        if not g[k][k]:
            pivot = next((i for i in range(k + 1, n) if g[i][i]), None)
            if pivot is not None:
                swap_cols(k, pivot)
            else:
                offdiag = next(
                    (
                        (i, j)
                        for i in range(k, n)
                        for j in range(i + 1, n)
                        if g[i][j]
                    ),
                    None,
                )
                if offdiag is None:
                    break  # remaining block identically zero
                i, j = offdiag
                if i != k:
                    swap_cols(k, i)  # j > i >= k stays put
                add_col(k, j, tower.one(level))  # phi(e_k + e_j) = 2 g_kj != 0
        if not g[k][k]:
            continue
        inv = g[k][k].inverse()
        for j in range(k + 1, n):
            if g[k][j]:
                add_col(j, k, -(inv * g[k][j]))

    diag = [g[i][i] for i in range(n)]
    return tuple(diag), tuple(tuple(row) for row in p)


# ---------------------------------------------------------------------------
# the inductive machinery
# ---------------------------------------------------------------------------


def _scan_vector(system: QFSystem):
    """Deterministic choice of v with some phi_i(v) != 0.

    Scans standard basis vectors, then e_i + e_j; returns None when every
    Gram entry of every form is zero (then e_1 is already a common zero).
    phi_i(e_i) = g_ii, and once every diagonal entry is zero
    phi_i(e_i + e_j) = 2 g_ij, so the returned v is never a common zero.
    M has the zero pattern of G, so the scan reads M.
    """
    tower, level, n = system.tower, system.level, system.dim
    one, zero = tower.one(level), tower.zero(level)
    rows = [f.rows for f in system.forms]
    for i in range(n):
        if any(not _is_zero(m[i][i], level) for m in rows):
            return tuple(one if k == i else zero for k in range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if any(not _is_zero(m[i][j], level) for m in rows):
                return tuple(one if k in (i, j) else zero for k in range(n))
    return None


def mix_forms(system: QFSystem, v: Sequence[TowerElement]) -> QFSystem:
    """Replace phi_i by a_r phi_i - a_i phi_r (i < r), after swapping the
    largest index with nonzero value into the last position.

    The mixed system has exactly the same isotropic vectors as the original
    over every extension, and the first r-1 mixed forms vanish at v, which
    lies at the system's level.  v' = d v is made integral once, and
    m = v'^T M v' per form, so a = m / (D d^2) and the mixed form is
    (m_r M_i - m_i M_r) / (D_i D_r d^2): each upper-triangle entry is one
    sum of two products.
    """
    tower, level, n = system.tower, system.level, system.dim
    forms = list(system.forms)
    t, lv, v, d = _lifted(forms[0], v)
    if lv != level:
        raise ValueError(f"v must lie at the system's level {level}")
    ctx = t._ctx
    vals = [_sum(ctx, lv, v, [_sum(ctx, lv, row, v) for row in f.rows]) for f in forms]
    nz = [i for i, a in enumerate(vals) if not _is_zero(a, lv)]
    if not nz:
        raise AllVanish("every form vanishes at v; v is already a witness")
    pick = max(nz)
    forms[pick], forms[-1] = forms[-1], forms[pick]
    vals[pick], vals[-1] = vals[-1], vals[pick]
    last, m_r = forms[-1], vals[-1]
    h = last.rows

    def mixed(form, m_i):
        # a zero m_i stays the shared zero under _neg, and _dot skips it
        g, coeffs = form.rows, (m_r, _neg(ctx, lv, m_i))
        rows = _mirrored(n, lambda p, q: _sum(ctx, lv, coeffs, (g[p][q], h[p][q])))
        return QuadraticForm(tower, lv, rows, form.den * last.den * d * d)

    return QFSystem(tuple(mixed(f, a) for f, a in zip(forms, vals[:-1])) + (last,))


def orthogonal_intersection(system: QFSystem, v: Sequence[TowerElement]):
    """Basis of W = {x : b_i(x, v) = 0 for i < r} plus a direct complement of
    the line through v inside W.  Requires phi_i(v) = 0 for i < r, which
    is checked on the same row M_i v' = D d G_i v that gives
    x . (G_i v) = b_i(x,v)/2 up to that positive factor.
    """
    tower, level, n = system.tower, system.level, system.dim
    if not any(v):
        raise PreconditionError("orthogonal_intersection requires v != 0")
    rows = []
    for f in system.forms[:-1]:
        # a row scaled by D d > 0 has the same null space and the same
        # reduced basis
        t, lv, vr, gv, _, _ = f._gy(v)
        if not _is_zero(_sum(t._ctx, lv, vr, gv), lv):
            raise PreconditionError("orthogonal_intersection requires phi_i(v) = 0 for i < r")
        rows.append(tuple(TowerElement(t, lv, x) for x in gv))
    if rows:
        w_basis = list(linalg.nullspace(tuple(rows), tower, level, n))
    else:
        w_basis = list(linalg.identity(tower, level, n))
    # w_i is 1 at its free column f_i, its last nonzero entry, and 0 at the
    # other free columns, so v = sum v[f_i] w_i: every w_i but the last with
    # v[f_i] != 0 raises the rank of [v | w_1 | ...], and they complete v
    free = [max(k for k, x in enumerate(w) if x) for w in w_basis]
    drop = max(i for i, f in enumerate(free) if v[f])
    complement = w_basis[:drop] + w_basis[drop + 1 :]
    return tuple([tuple(v)] + complement), tuple(complement)


def _raw_vector(form: QuadraticForm, b) -> list:
    """The raw data of a basis vector, whose entries must all lie at the
    form's level in a tower that agrees with the form's up to it."""
    tower, lv = form.tower, form.level
    if len(b) != form.dim:
        raise ValueError(f"basis vector length {len(b)} != form dimension {form.dim}")
    for x in b:
        if x.level != lv or (x.tower is not tower and x.tower.levels[:lv] != tower.levels[:lv]):
            raise ValueError(f"basis entries must lie at the form's level {lv}")
    return [x.data for x in b]


def _restrict(form: QuadraticForm, basis) -> QuadraticForm:
    """B^T G B, the form on the span of ``basis`` (vectors at the form's
    level): with every b_i scaled by the lcm L of all the basis
    denominators, B^T G B = B'^T M B' / (D L^2).  Each entry of M b'_j,
    and then each entry b'_i . (M b'_j), is one :func:`_sum`."""
    tower, lv, n = form.tower, form.level, form.dim
    ctx, k = tower._ctx, len(basis)
    flat, ell = _integral(ctx, lv, [x for b in basis for x in _raw_vector(form, b)])
    scaled = [flat[i * n : (i + 1) * n] for i in range(k)]
    mb = [[_sum(ctx, lv, row, b) for row in form.rows] for b in scaled]
    rows = _mirrored(k, lambda i, j: _sum(ctx, lv, scaled[i], mb[j]))
    return QuadraticForm(tower, lv, rows, form.den * ell * ell)


def _binary_root(tower: TowerField, a, b, c):
    """(tower', x) with a x^2 + b x + c = 0 exactly, adjoining sqrt of the
    discriminant only when needed; a != 0."""
    if not a:
        raise PreconditionError("binary quadratic degenerated: leading value is zero")
    disc = b * b - 4 * (a * c)
    top = tower.height
    if disc.is_zero():
        return tower, (-b) / (2 * a)
    t2, s, _added = adjoin_sqrt(tower, disc.embed(top))
    x = (s - b.in_tower(t2).embed(t2.height)) / (2 * a.in_tower(t2).embed(t2.height))
    return t2, x


def _line(form: QuadraticForm, z):
    """(a, b, c) with phi(x e_1 + z) = a x^2 + b x + c, for z with z_1 = 0:
    a = g_11, and one M z' gives b = 2 (G z)_1 = b(e_1, z) and
    c = z^T G z."""
    t, lv, z, mz, den, d = form._gy(z)
    ctx = t._ctx
    a = TowerElement(form.tower, form.level, _over(ctx, form.level, form.rows[0][0], den))
    b = _scale(ctx, lv, mz[0], Fraction(2, den * d))
    return a, TowerElement(t, lv, b), TowerElement(t, lv, _over(ctx, lv, _sum(ctx, lv, z, mz), den * d * d))


def _solve_system(system: QFSystem):
    """(tower', witness) for the inductive construction; vectors stay exact."""
    tower, level, n = system.tower, system.level, system.dim
    r = system.r
    one, zero = tower.one(level), tower.zero(level)

    if r == 1:
        form = system.forms[0]
        for i in range(n):
            if _is_zero(form.rows[i][i], level):
                return tower, tuple(one if k == i else zero for k in range(n))
        # phi(x e_1 + e_2) = g_11 x^2 + b(e_1, e_2) x + g_22, b(e_1, e_2) = 2 g_12
        t2, x = _binary_root(tower, *_line(form, tuple(one if k == 1 else zero for k in range(n))))
        top = t2.height
        return t2, (x, t2.one(top)) + (t2.zero(top),) * (n - 2)

    v = _scan_vector(system)
    if v is None:
        return tower, tuple(one if k == 0 else zero for k in range(n))

    mixed = mix_forms(system, v)
    w_basis, complement = orthogonal_intersection(mixed, v)
    sub_forms = tuple(_restrict(f, complement) for f in mixed.forms[:-1])
    t2, w_small = _solve_system(QFSystem(sub_forms))

    # on W's basis (v, C), phi_r(x v + C w) = a x^2 + b x + c with a = phi_r(v),
    # nonzero by the choice of v
    last = _restrict(mixed.forms[-1], w_basis)
    t3, x = _binary_root(t2, *_line(last, (t2.zero(t2.height),) + w_small))
    return t3, linalg.matvec(tuple(zip(*w_basis)), (x,) + w_small)


def clear_denominators(witness):
    """Scale a witness to integral nested coordinates (forms are homogeneous)."""
    m = lcm(*[_denominator(x.tower._ctx, x.data, x.level) for x in witness])
    if m == 1:
        return tuple(witness)
    return tuple(x * m for x in witness)


def isotropy_2ext(system: QFSystem) -> IsotropyCertificate:
    """Common-zero certificate over a chain of at most r quadratic levels.

    Requires dim >= r(r+1)/2 + 1.  The returned tower extends the system's
    tower; actual_degree is the exact degree of the added chain and is at
    most the claimed bound 2^r.  The witness is exact by construction (each
    recursion level solves a x^2 + b x + c = 0 exactly) and is not evaluated
    here again: :func:`isotower.verify.verify_isotropy` checks every form at
    it.
    """
    r, n = system.r, system.dim
    if n < r * (r + 1) // 2 + 1:
        raise DimensionTooSmall(
            f"need dim >= r(r+1)/2 + 1 = {r * (r + 1) // 2 + 1}, got {n}"
        )
    base = system.tower
    t2, witness = _solve_system(system)
    witness = clear_denominators(witness)
    assert any(witness), "constructed witness is zero"
    actual = t2.absolute_degree() // base.absolute_degree()
    assert actual <= 2**r
    return IsotropyCertificate(
        tower=t2,
        witness=witness,
        claimed_bound=2**r,
        actual_degree=actual,
        base_levels=base.height,
    )


# ---------------------------------------------------------------------------
# transfer of forms along a basis of K over F
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearFunctionalBasis:
    """An F-basis of K inside one tower, with its dual coordinate maps.

    ``elements`` live at k_level; coordinates are taken over f_level.  The
    inverse coordinate matrix realizes the functionals s_i (s_i of the j-th
    basis element is the Kronecker delta).
    """

    tower: TowerField
    f_level: int
    k_level: int
    elements: tuple[TowerElement, ...]
    inv_matrix: tuple[tuple[TowerElement, ...], ...]

    def __post_init__(self):
        if self.f_level > self.k_level:
            raise ValueError(f"f_level {self.f_level} is above k_level {self.k_level}")

    @staticmethod
    def standard(tower: TowerField, f_level: int, k_level: int):
        """The tower power-product basis: its coordinate matrix is the
        identity, so the functionals are the coordinates themselves."""
        m = tower.absolute_degree(k_level) // tower.absolute_degree(f_level)
        elements = tuple(_basis_element(tower, f_level, k_level, idx) for idx in range(m))
        return LinearFunctionalBasis(tower, f_level, k_level, elements, linalg.identity(tower, f_level, m))

    @property
    def size(self) -> int:
        return len(self.elements)

    @cached_property
    def _inv_raw(self):
        return [[x.data for x in row] for row in self.inv_matrix]

    def _raw_coordinates(self, data, rows=None):
        """Coordinates of raw level-k_level data, raw at f_level: one sum of
        products per raw row of ``rows`` (the inverse coordinate matrix by
        default), over the nonzero flattened coefficients."""
        f, inv = self.f_level, rows or self._inv_raw
        flat = [(j, c) for j, c in enumerate(_flatten_raw(data, self.k_level, f)) if not _is_zero(c, f)]
        return [_dot(self.tower._ctx, f, [(row[j], c) for j, c in flat]) for row in inv]


def _flatten_raw(data, lv: int, f_level: int) -> list:
    """Raw coordinates over f_level of raw level-lv data, in power-product order."""
    if lv == f_level:
        return [data]
    return [c for part in data for c in _flatten_raw(part, lv - 1, f_level)]


def flatten_between(x: TowerElement, f_level: int) -> tuple[TowerElement, ...]:
    """Coordinates of x over f_level in the tower power-product basis."""
    if not 0 <= f_level <= x.level:
        raise ValueError(f"f_level {f_level} is outside the element's levels 0..{x.level}")
    return tuple(TowerElement(x.tower, f_level, c) for c in _flatten_raw(x.data, x.level, f_level))


def _basis_element(tower: TowerField, f_level: int, k_level: int, idx: int) -> TowerElement:
    """idx-th power-product basis element, matching flatten_between's order
    (the exponent of the top generator is the most significant digit)."""
    acc = tower.one(k_level)
    for lv in range(k_level, f_level, -1):
        e, idx = divmod(idx, tower.absolute_degree(lv - 1) // tower.absolute_degree(f_level))
        if e:
            acc = acc * tower.gen(lv).embed(k_level) ** e
    return acc


def transfer_system(form: QuadraticForm, basis: LinearFunctionalBasis) -> QFSystem:
    """Transfer a K-form through the dual functionals of an F-basis of K.

    The output system has dimension dim_K(V) * [K:F] over F, in the tower of
    F (the basis tower's first f_level levels); for every F-vector x the i-th
    output value is the i-th coordinate of phi(x) in the given basis.
    """
    tower = basis.tower
    f_level, k_level = basis.f_level, basis.k_level
    if form.level != k_level or form.tower != tower:
        raise ValueError("form must live at the basis's K level")
    m, big = basis.size, form.dim * basis.size
    # the upper-triangle gram entries of all transferred forms at once, on raw
    # data: s_t(g B_j B_l), g = M_ip, is the F-linear row (s_t(g e_c))_c over
    # the power-product monomials e_c times the coordinates of B_j B_l
    ctx, elems = tower._ctx, [x.data for x in basis.elements]
    monos = [_basis_element(tower, f_level, k_level, c).data for c in range(m)]
    rows = {(i, p): list(zip(*(basis._raw_coordinates(_mul(ctx, k_level, g, e)) for e in monos)))
            for i, row in enumerate(form.rows) for p, g in enumerate(row) if p >= i and not _is_zero(g, k_level)}
    prods = {(j, l): _mul(ctx, k_level, elems[j], elems[l]) for j in range(m) for l in range(j, m)}
    zeros = [_raw_zero(ctx, f_level)] * m
    coords = {}
    for a in range(big):
        i, j = divmod(a, m)
        for b in range(a, big):
            p, l = divmod(b, m)
            if (i, p) in rows:
                coords[a, b] = basis._raw_coordinates(prods[min(j, l), max(j, l)], rows[i, p])
    # the functionals are F-linear, so they carry M and the form's D along
    f_tower = tower.prefix(f_level)
    return QFSystem(tuple(
        _form(f_tower, f_level, big, lambda a, b, k=k: coords.get((a, b), zeros)[k], form.den)
        for k in range(m)
    ))


__all__ = [
    "QuadraticForm",
    "QFSystem",
    "IsotropyCertificate",
    "LinearFunctionalBasis",
    "diagonalize",
    "mix_forms",
    "orthogonal_intersection",
    "isotropy_2ext",
    "transfer_system",
    "flatten_between",
    "clear_denominators",
]
