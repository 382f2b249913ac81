"""Quadratic form systems over tower fields and their isotropy over
2-extension towers.

The central operation is :func:`isotropy_2ext`: given r quadratic forms in
more than r(r+1)/2 variables, it builds a chain of at most r square-root
adjunctions over the base field together with an exact nonzero common zero,
packaged as a self-contained certificate.  The recursion mixes forms to
vanish at a chosen vector, intersects orthogonal complements, solves the
smaller system, and finishes with one binary quadratic per recursion level,
so the constructed extension degree is at most 2^r.

The forms compute on the kernel's raw level data.  Every Gram entry of a
form lies at ``form.level`` in ``form.tower``, so its ``.data`` is raw data
at that one level.  A symmetric Gram matrix is built on its upper triangle:
entry (p, q), p <= q, is one sum of products (:func:`~isotower.tower._dot`),
wrapped once, and that same object is mirrored to (q, p).  ``gram`` stays
the public, wrapped, symmetric matrix.  Restriction to a subspace, B^T G B,
sums over the nonzero coordinates of B only.

Over Q a form is also integer rows M over one positive denominator D,
G = M / D, and the recursion's rational rounds run on that pair: mixing
gives m_r M_i - m_i M_r over D_i D_r (m = v^T M v for an integral v), the
orthogonality rows are the M_i v, positive multiples of the G_i v with the
same null space, and restriction gives B'^T M B' over D L^2 for the basis
scaled by the lcm L of its denominators.  No Fraction is built per entry:
the wrapped ``gram`` of such a form is built from (M, D) only when
something reads it, and the binary quadratic that closes each level reads
its coefficients off one M z.  Forms above Q keep the raw-data path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Sequence

from . import linalg
from .errors import AllVanish, DimensionTooSmall, PreconditionError, SingularMatrix
from .sqrt import adjoin_sqrt
from .tower import TowerElement, TowerField, _dot, _embed_up, _is_zero, _join, _mul
from .tower import _denominator, _neg, _raw_zero, _scale


@dataclass(frozen=True)
class QuadraticForm:
    """A quadratic form via its symmetric Gram matrix: phi(x) = x^T G x.

    Off-diagonal entries are half the polar form, so
    phi(x+y) - phi(x) - phi(y) = 2 x^T G y exactly (characteristic 0).
    Every Gram entry lies at ``level`` in ``tower``; the raw code reads an
    entry's ``.data`` as level-``level`` data.  At level 0 the form also
    reads G as integer rows M over one positive denominator D, G = M / D
    (``_ints``); a form that :func:`_from_ints` builds holds only that pair,
    and its wrapped ``gram`` is built on first read.
    """

    tower: TowerField
    level: int
    gram: tuple[tuple[TowerElement, ...], ...]

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
        return QuadraticForm(tower, level, gram)

    @staticmethod
    def diagonal(tower: TowerField, level: int, entries) -> "QuadraticForm":
        entries = [tower.coerce(e, level) for e in entries]
        zero = tower.zero(level)
        n = len(entries)
        rows = tuple(
            tuple(entries[i] if i == j else zero for j in range(n)) for i in range(n)
        )
        return QuadraticForm(tower, level, rows)

    @cached_property
    def _ints(self):
        """(M, D) with G = M / D for a level-0 form: integer rows over the
        lcm D of the entries' denominators."""
        den = lcm(*[x.data.denominator for row in self.gram for x in row])
        return tuple(tuple(x.data.numerator * (den // x.data.denominator) for x in row) for row in self.gram), den

    def __getattr__(self, name):
        # only a form built by _from_ints reaches here for its gram
        if name != "gram" or "_ints" not in self.__dict__:
            raise AttributeError(name)
        tower, (rows, den) = self.tower, self._ints
        gram = _mirrored(len(rows), lambda p, q: TowerElement(tower, 0, _over(tower._ctx, 0, rows[p][q], den)))
        object.__setattr__(self, "gram", gram)
        return gram

    @property
    def dim(self) -> int:
        gram = self.__dict__.get("gram")
        return len(self._ints[0] if gram is None else gram)

    def _gy(self, v):
        """(tower, level, raw v', raw y, D, d) in the longer tower and at the
        higher level of v and the form, with v' = d v, G v = y / (D d) and so
        phi(v) = v'^T y / (D d^2); plain numbers are rationals.  Each row of
        y is one sum of products.  Over Q, v' is integral for the lcm d of
        v's denominators and y = M v'; a form over Q read above Q has y = M v
        and d = 1; a form above Q has y = G v and D = d = 1."""
        if len(v) != self.dim:
            raise ValueError(f"vector length {len(v)} != form dimension {self.dim}")
        tower, lv = self.tower, self.level
        for x in v:
            if isinstance(x, TowerElement):
                tower = tower if x.tower is tower else _join(tower, x.tower)
                lv = max(lv, x.level)
        ctx, fl = tower._ctx, self.level
        v = [tower.coerce(x, lv).data for x in v]
        if not lv:
            v, d = _integral(v)
            rows, den = self._ints
            return tower, 0, v, _times(rows, v), den, d
        nz = [(j, y) for j, y in enumerate(v) if not _is_zero(y, lv)]
        if fl == lv:
            gy = [_dot(ctx, lv, [(row[j].data, y) for j, y in nz]) for row in self.gram]
            return tower, lv, v, gy, 1, 1
        rows, den = ([[x.data for x in row] for row in self.gram], 1) if fl else self._ints
        gy = [_dot(ctx, lv, [(_embed_up(ctx, fl, row[j], lv), y) for j, y in nz]) for row in rows]
        return tower, lv, v, gy, den, 1

    def evaluate(self, v) -> TowerElement:
        tower, lv, v, gv, den, d = self._gy(v)
        ctx = tower._ctx
        return TowerElement(tower, lv, _over(ctx, lv, _dot(ctx, lv, list(zip(v, gv))), den * d * d))


def _over(ctx, lv: int, x, den: int):
    """Raw level-lv data x divided by a positive integer den."""
    return x if den == 1 else _scale(ctx, lv, x, Fraction(1, den))


def _from_ints(tower: TowerField, rows, den: int) -> QuadraticForm:
    """The level-0 form G = rows / den, for symmetric integer rows and a
    positive integer den, without its wrapped gram."""
    form = object.__new__(QuadraticForm)
    object.__setattr__(form, "tower", tower)
    object.__setattr__(form, "level", 0)
    form.__dict__["_ints"] = (rows, den)
    return form


def _integral(v) -> tuple[list[int], int]:
    """Rational raw values as (d v, d), integers over the lcm d of their
    denominators."""
    d = lcm(*[x.denominator for x in v])
    return [x.numerator * (d // x.denominator) for x in v], d


def _times(rows, v) -> list[int]:
    """The integer matrix ``rows`` times the integer vector v, over v's
    nonzero entries."""
    nz = [(j, y) for j, y in enumerate(v) if y]
    return [sum([row[j] * y for j, y in nz]) for row in rows]


def _mirrored(n: int, entry) -> tuple[tuple, ...]:
    """The symmetric rows whose entry (p, q), p <= q, is ``entry(p, q)``,
    and that same object at (q, p)."""
    rows = [[None] * n for _ in range(n)]
    for p in range(n):
        for q in range(p, n):
            rows[p][q] = rows[q][p] = entry(p, q)
    return tuple(map(tuple, rows))


def _symmetric(tower: TowerField, level: int, n: int, entry) -> QuadraticForm:
    """The form whose Gram entry (p, q), p <= q, is the raw ``entry(p, q)``,
    wrapped once and mirrored to (q, p)."""
    return QuadraticForm(tower, level, _mirrored(n, lambda p, q: TowerElement(tower, level, entry(p, q))))


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
    """
    tower, level, n = system.tower, system.level, system.dim
    one, zero = tower.one(level), tower.zero(level)
    grams = [f.gram if level else f._ints[0] for f in system.forms]
    for i in range(n):
        if any(g[i][i] for g in grams):
            return tuple(one if k == i else zero for k in range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if any(g[i][j] for g in grams):
                return tuple(one if k in (i, j) else zero for k in range(n))
    return None


def mix_forms(system: QFSystem, v: Sequence[TowerElement]) -> QFSystem:
    """Replace phi_i by a_r phi_i - a_i phi_r (i < r), after swapping the
    largest index with nonzero value into the last position.

    The mixed system has exactly the same isotropic vectors as the original
    over every extension, and the first r-1 mixed forms vanish at v, which
    lies at the system's level.  Each upper-triangle entry of a mixed form
    is one sum of two products, a_r g - a_i h.  Over Q it is an integer:
    with v' = d v integral and m = v'^T M v', a = m / (D d^2), so the mixed
    form is (m_r M_i - m_i M_r) / (D_i D_r d^2).
    """
    tower, lv, n = system.tower, system.level, system.dim
    ctx, forms = tower._ctx, list(system.forms)
    if lv:
        vals = [f.evaluate(v).data for f in forms]
    else:
        vi, d = _integral([tower.coerce(x, 0).data for x in v])
        vals = [sum(map(mul, vi, _times(f._ints[0], vi))) for f in forms]
    nz = [i for i, a in enumerate(vals) if not _is_zero(a, lv)]
    if not nz:
        raise AllVanish("every form vanishes at v; v is already a witness")
    pick = max(nz)
    forms[pick], forms[-1] = forms[-1], forms[pick]
    vals[pick], vals[-1] = vals[-1], vals[pick]
    last, a_r = forms[-1], vals[-1]

    def mixed(form, a_i):
        if not lv:
            (g, den), (h, den_r) = form._ints, last._ints
            return _from_ints(tower, _mirrored(n, lambda p, q: a_r * g[p][q] - a_i * h[p][q]), den * den_r * d * d)
        # a zero a_i stays the shared zero under _neg, and _dot skips it
        terms = ((a_r, form.gram), (_neg(ctx, lv, a_i), last.gram))
        return _symmetric(tower, lv, n, lambda p, q: _dot(ctx, lv, [(a, g[p][q].data) for a, g in terms]))

    return QFSystem(tuple(mixed(f, a) for f, a in zip(forms, vals[:-1])) + (last,))


def orthogonal_intersection(system: QFSystem, v: Sequence[TowerElement]):
    """Basis of W = {x : b_i(x, v) = 0 for i < r} plus a direct complement of
    the line through v inside W.  Requires phi_i(v) = 0 for i < r, which
    is checked on the same G_i v that gives the row x . (G_i v) = b_i(x,v)/2.
    """
    tower, level, n = system.tower, system.level, system.dim
    if not any(v):
        raise PreconditionError("orthogonal_intersection requires v != 0")
    rows = []
    for f in system.forms[:-1]:
        # over Q, gv = M v' is G v times D d > 0: the same null space and
        # the same reduced basis
        t, lv, vr, gv, _, _ = f._gy(v)
        if not _is_zero(_dot(t._ctx, lv, list(zip(vr, gv))), lv):
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


def _support(form: QuadraticForm, b) -> list:
    """The nonzero (index, raw data) pairs of a basis vector, whose entries
    must all lie at the form's level in a tower that agrees with the form's
    up to it."""
    tower, lv = form.tower, form.level
    if len(b) != form.dim:
        raise ValueError(f"basis vector length {len(b)} != form dimension {form.dim}")
    out = []
    for p, x in enumerate(b):
        if x.level != lv or (x.tower is not tower and x.tower.levels[:lv] != tower.levels[:lv]):
            raise ValueError(f"basis entries must lie at the form's level {lv}")
        if not _is_zero(x.data, lv):
            out.append((p, x.data))
    return out


def _restrict(form: QuadraticForm, basis) -> QuadraticForm:
    """B^T G B, the form on the span of ``basis`` (vectors at the form's
    level), over the nonzero coordinates of B only: (G b_j)[p] is one sum
    over supp(b_j), needed only at the p in some supp(b_i), and entry (i, j)
    one sum over supp(b_i) against it.

    Over Q the sums are of integers: with G = M / D and every b_i scaled
    by the lcm L of all the basis denominators, B^T G B = B'^T M B' / (D L^2),
    returned as that pair and no Fraction.  Above Q each sum is one kernel
    ``_dot``."""
    tower, lv = form.tower, form.level
    supports = [_support(form, b) for b in basis]
    rows = {p for s in supports for p, _ in s}
    k = len(basis)
    if lv:
        ctx, gram = tower._ctx, form.gram
        gb = [{p: _dot(ctx, lv, [(gram[p][q].data, y) for q, y in s]) for p in rows} for s in supports]
        return _symmetric(tower, lv, k, lambda i, j: _dot(ctx, lv, [(x, gb[j][p]) for p, x in supports[i]]))
    m, den = form._ints
    ell = lcm(*[x.denominator for s in supports for _, x in s])
    scaled = [[(p, x.numerator * (ell // x.denominator)) for p, x in s] for s in supports]
    gb = [{p: sum([m[p][q] * y for q, y in s]) for p in rows} for s in scaled]
    return _from_ints(tower, _mirrored(k, lambda i, j: sum([x * gb[j][p] for p, x in scaled[i]])), den * ell * ell)


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
    a = phi(e_1), and one G z gives b = 2 (G z)_1 = b(e_1, z) and
    c = z^T G z."""
    tower, level = form.tower, form.level
    a = form.evaluate(tuple(tower.one(level) if k == 0 else tower.zero(level) for k in range(form.dim)))
    t, lv, z, gz, den, d = form._gy(z)
    ctx = t._ctx
    b = _scale(ctx, lv, gz[0], Fraction(2, den * d))
    return a, TowerElement(t, lv, b), TowerElement(t, lv, _over(ctx, lv, _dot(ctx, lv, list(zip(z, gz))), den * d * d))


def _solve_system(system: QFSystem):
    """(tower', witness) for the inductive construction; vectors stay exact."""
    tower, level, n = system.tower, system.level, system.dim
    r = system.r
    one, zero = tower.one(level), tower.zero(level)

    if r == 1:
        form = system.forms[0]
        g = form.gram if level else form._ints[0]
        for i in range(n):
            if not g[i][i]:
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
    def from_elements(tower: TowerField, f_level: int, k_level: int, elements):
        elements = tuple(x.in_tower(tower).embed(k_level) for x in elements)
        m = tower.absolute_degree(k_level) // tower.absolute_degree(f_level)
        if len(elements) != m:
            raise ValueError(f"basis needs exactly {m} elements")
        cols = [flatten_between(x, f_level) for x in elements]
        mat = tuple(zip(*cols))
        try:
            inv = linalg.invert(mat, tower, f_level)
        except SingularMatrix as exc:
            raise PreconditionError(f"basis is not F-linearly independent: {exc}") from exc
        return LinearFunctionalBasis(tower, f_level, k_level, elements, inv)

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
    # data: s_t(g B_j B_l), g = G_ip, is the F-linear row (s_t(g e_c))_c over
    # the power-product monomials e_c times the coordinates of B_j B_l
    ctx, elems = tower._ctx, [x.data for x in basis.elements]
    monos = [_basis_element(tower, f_level, k_level, c).data for c in range(m)]
    rows = {(i, p): list(zip(*(basis._raw_coordinates(_mul(ctx, k_level, g.data, e)) for e in monos)))
            for i, row in enumerate(form.gram) for p, g in enumerate(row) if p >= i and g}
    prods = {(j, l): _mul(ctx, k_level, elems[j], elems[l]) for j in range(m) for l in range(j, m)}
    zeros = [_raw_zero(ctx, f_level)] * m
    coords = {}
    for a in range(big):
        i, j = divmod(a, m)
        for b in range(a, big):
            p, l = divmod(b, m)
            if (i, p) in rows:
                coords[a, b] = basis._raw_coordinates(prods[min(j, l), max(j, l)], rows[i, p])
    f_tower = tower.prefix(f_level)
    return QFSystem(tuple(
        _symmetric(f_tower, f_level, big, lambda a, b, k=k: coords.get((a, b), zeros)[k])
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
