"""Quadratic form systems over tower fields and their isotropy over
2-extension towers.

The central operation is :func:`isotropy_2ext`: given r quadratic forms in
more than r(r+1)/2 variables, it builds a chain of at most r square-root
adjunctions over the base field together with an exact nonzero common zero,
packaged as a self-contained certificate.  The recursion mixes forms to
vanish at a chosen vector, intersects orthogonal complements, solves the
smaller system, and finishes with one binary quadratic per recursion level,
so the constructed extension degree is at most 2^r.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import linalg
from .errors import AllVanish, DimensionTooSmall, PreconditionError, SingularMatrix
from .sqrt import adjoin_sqrt
from .tower import TowerElement, TowerField, dot


def _as_elem(tower: TowerField, level: int, x) -> TowerElement:
    if isinstance(x, TowerElement):
        return x.in_tower(tower).embed(level)
    return tower.rational(x, level)


@dataclass(frozen=True)
class QuadraticForm:
    """A quadratic form via its symmetric Gram matrix: phi(x) = x^T G x.

    Off-diagonal entries are half the polar form, so
    phi(x+y) - phi(x) - phi(y) = 2 x^T G y exactly (characteristic 0).
    """

    tower: TowerField
    level: int
    gram: tuple[tuple[TowerElement, ...], ...]

    @staticmethod
    def from_gram(tower: TowerField, level: int, rows) -> "QuadraticForm":
        gram = tuple(tuple(_as_elem(tower, level, x) for x in row) for row in rows)
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
        entries = [_as_elem(tower, level, e) for e in entries]
        zero = tower.zero(level)
        n = len(entries)
        rows = tuple(
            tuple(entries[i] if i == j else zero for j in range(n)) for i in range(n)
        )
        return QuadraticForm(tower, level, rows)

    @property
    def dim(self) -> int:
        return len(self.gram)

    def evaluate(self, v: Sequence[TowerElement]) -> TowerElement:
        if len(v) != self.dim:
            raise ValueError(f"vector length {len(v)} != form dimension {self.dim}")
        vv = [x if isinstance(x, TowerElement) else self.tower.rational(x, self.level) for x in v]
        return dot(vv, linalg.matvec(self.gram, vv))

    def bilinear(self, x, y) -> TowerElement:
        """b(x, y) = phi(x+y) - phi(x) - phi(y) = 2 x^T G y."""
        return 2 * dot(x, linalg.matvec(self.gram, tuple(y)))

    def scaled(self, c: TowerElement) -> "QuadraticForm":
        return QuadraticForm(
            self.tower, self.level, tuple(tuple(c * g for g in row) for row in self.gram)
        )

    def minus(self, other: "QuadraticForm") -> "QuadraticForm":
        rows = tuple(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.gram, other.gram)
        )
        return QuadraticForm(self.tower, self.level, rows)


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
    for i in range(n):
        if any(f.gram[i][i] for f in system.forms):
            return tuple(one if k == i else zero for k in range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if any(f.gram[i][j] for f in system.forms):
                return tuple(one if k in (i, j) else zero for k in range(n))
    return None


def mix_forms(system: QFSystem, v: Sequence[TowerElement]) -> QFSystem:
    """Replace phi_i by a_r phi_i - a_i phi_r (i < r), after swapping the
    largest index with nonzero value into the last position.

    The mixed system has exactly the same isotropic vectors as the original
    over every extension, and the first r-1 mixed forms vanish at v.
    """
    vals = [f.evaluate(v) for f in system.forms]
    nz = [i for i, a in enumerate(vals) if a]
    if not nz:
        raise AllVanish("every form vanishes at v; v is already a witness")
    pick = max(nz)
    forms = list(system.forms)
    forms[pick], forms[-1] = forms[-1], forms[pick]
    vals[pick], vals[-1] = vals[-1], vals[pick]
    a_r = vals[-1]
    last = forms[-1]
    mixed = [forms[i].scaled(a_r).minus(last.scaled(vals[i])) for i in range(len(forms) - 1)]
    return QFSystem(tuple(mixed + [last]))


def orthogonal_intersection(system: QFSystem, v: Sequence[TowerElement]):
    """Basis of W = {x : b_i(x, v) = 0 for i < r} plus a direct complement of
    the line through v inside W.  Requires phi_i(v) = 0 for i < r.
    """
    tower, level, n = system.tower, system.level, system.dim
    for f in system.forms[:-1]:
        if f.evaluate(v):
            raise PreconditionError("orthogonal_intersection requires phi_i(v) = 0 for i < r")
    rows = []
    for f in system.forms[:-1]:
        rows.append(tuple(linalg.matvec(f.gram, tuple(v))))  # x . (G v) = b(x,v)/2
    if rows:
        w_basis = list(linalg.nullspace(tuple(rows), tower, level, n))
    else:
        w_basis = [tuple(tower.one(level) if k == i else tower.zero(level) for k in range(n))
                   for i in range(n)]
    # extend v != 0 to a basis of W: the pivot columns of [v | w_1 | ...]
    # past the first are the candidates that raise the rank, in order
    _, pivots = linalg.rref(tuple(zip(v, *w_basis)))
    complement = [w_basis[c - 1] for c in pivots[1:]]
    return tuple([tuple(v)] + complement), tuple(complement)


def _restrict(form: QuadraticForm, basis) -> QuadraticForm:
    cols = tuple(zip(*basis))  # basis vectors as columns
    gb = linalg.matmul(form.gram, cols)
    small = linalg.matmul(tuple(zip(*cols)), gb)
    return QuadraticForm(form.tower, form.level, small)


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


def _solve_system(system: QFSystem):
    """(tower', witness) for the inductive construction; vectors stay exact."""
    tower, level, n = system.tower, system.level, system.dim
    r = system.r
    one, zero = tower.one(level), tower.zero(level)

    if r == 1:
        form = system.forms[0]
        for i in range(n):
            if not form.gram[i][i]:
                return tower, tuple(one if k == i else zero for k in range(n))
        v1 = tuple(one if k == 0 else zero for k in range(n))
        v2 = tuple(one if k == 1 else zero for k in range(n))
        a = form.gram[0][0]
        b = form.bilinear(v1, v2)
        c = form.gram[1][1]
        t2, x = _binary_root(tower, a, b, c)
        top = t2.height
        wit = tuple(
            (x if k == 0 else (t2.one(top) if k == 1 else t2.zero(top))) for k in range(n)
        )
        return t2, wit

    v = _scan_vector(system)
    if v is None:
        return tower, tuple(one if k == 0 else zero for k in range(n))

    mixed = mix_forms(system, v)
    _, complement = orthogonal_intersection(mixed, v)
    sub_forms = tuple(_restrict(f, complement) for f in mixed.forms[:-1])
    t2, w_small = _solve_system(QFSystem(sub_forms))

    # lift the recursive witness back to V-coordinates
    cols = tuple(zip(*complement))
    w_v = linalg.matvec(cols, w_small)
    last = mixed.forms[-1]
    a = last.evaluate(v)                      # nonzero by the choice of v
    top = t2.height
    v_t2 = tuple(x.in_tower(t2).embed(top) for x in v)
    b = last.bilinear(v_t2, w_v)
    c = last.evaluate(w_v)
    t3, x = _binary_root(t2, a.in_tower(t2).embed(top), b, c)
    top3 = t3.height
    wit = tuple(
        x * vi.in_tower(t3).embed(top3) + wi.in_tower(t3).embed(top3)
        for vi, wi in zip(v, w_v)
    )
    return t3, wit


def clear_denominators(witness):
    """Scale a witness to integral nested coordinates (forms are homogeneous)."""
    from math import lcm

    dens: list[int] = []

    def walk(data, lv):
        if lv == 0:
            dens.append(data.denominator)
            return
        for c in data:
            walk(c, lv - 1)

    for x in witness:
        walk(x.data, x.level)
    m = lcm(*dens) if dens else 1
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

    @staticmethod
    def from_elements(tower: TowerField, f_level: int, k_level: int, elements):
        elements = tuple(x.in_tower(tower).embed(k_level) for x in elements)
        m = _block_dim(tower, f_level, k_level)
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
        """The tower power-product basis; coordinates are read off directly."""
        elems = []
        m = _block_dim(tower, f_level, k_level)
        for idx in range(m):
            elems.append(_basis_element(tower, f_level, k_level, idx))
        return LinearFunctionalBasis.from_elements(tower, f_level, k_level, elems)

    @property
    def size(self) -> int:
        return len(self.elements)

    def coordinates(self, x: TowerElement) -> tuple[TowerElement, ...]:
        flat = flatten_between(x.embed(self.k_level), self.f_level)
        return linalg.matvec(self.inv_matrix, flat)


def _block_dim(tower: TowerField, f_level: int, k_level: int) -> int:
    d = 1
    for i in range(f_level, k_level):
        d *= tower.levels[i].degree
    return d


def flatten_between(x: TowerElement, f_level: int) -> tuple[TowerElement, ...]:
    """Coordinates of x over f_level in the tower power-product basis."""
    tower = x.tower

    def rec(data, lv):
        if lv == f_level:
            return [TowerElement(tower, lv, data)]
        out = []
        for c in data:
            out.extend(rec(c, lv - 1))
        return out

    return tuple(rec(x.data, x.level))


def _basis_element(tower: TowerField, f_level: int, k_level: int, idx: int) -> TowerElement:
    """idx-th power-product basis element, matching flatten_between's order
    (the exponent of the top generator is the most significant digit)."""
    acc = tower.one(k_level)
    rem = idx
    block = _block_dim(tower, f_level, k_level)
    for lv in range(k_level, f_level, -1):
        d = tower.levels[lv - 1].degree
        block //= d
        e, rem = divmod(rem, block)
        if e:
            acc = acc * tower.gen(lv).embed(k_level) ** e
    return acc


def transfer_system(
    form: QuadraticForm,
    basis: LinearFunctionalBasis,
    indices: Sequence[int] | None = None,
) -> QFSystem:
    """Transfer a K-form through the dual functionals of an F-basis of K.

    The output system has dimension dim_K(V) * [K:F] over F; for every
    F-vector x the i-th output value is the i-th coordinate of phi(x) in the
    given basis.
    """
    tower = basis.tower
    f_level, k_level = basis.f_level, basis.k_level
    if form.level != k_level or form.tower != tower:
        raise ValueError("form must live at the basis's K level")
    m = basis.size
    n = form.dim
    big = n * m
    if indices is None:
        indices = range(m)
    indices = list(indices)
    # gram entries of the transferred forms: s_t(B_j * B_l * G_ip)
    prods = {}
    for j in range(m):
        for l in range(j, m):
            prods[(j, l)] = basis.elements[j] * basis.elements[l]
    zero = tower.zero(f_level)
    grams = {t: [[zero] * big for _ in range(big)] for t in indices}
    for a in range(big):
        i, j = divmod(a, m)
        for b in range(a, big):
            p, l = divmod(b, m)
            g = form.gram[i][p]
            if not g:
                continue
            prod = prods[(j, l)] if j <= l else prods[(l, j)]
            coords = basis.coordinates(g * prod)
            for t in indices:
                c = coords[t]
                grams[t][a][b] = c
                grams[t][b][a] = c
    forms = tuple(QuadraticForm(tower, f_level, tuple(tuple(r) for r in grams[t])) for t in indices)
    return QFSystem(forms)


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
