"""Central simple algebras by structure constants over a cyclic extension
K/F inside a tower: conjugate algebras, tensor powers, the Galois-fixed
corestriction subalgebra, and its structural checks.

The fixed subalgebra of the semilinear shift action is computed orbitwise:
the action permutes tensor basis indices and twists coordinates by the
field automorphism, so the fixed space is spanned, orbit by orbit, by
vectors whose representative coordinate runs over a basis of the subfield
fixed by the orbit-length power of the generator.  Every basis vector is
fixed by construction and is not re-checked here; ``verify_cor`` checks
each one against the action.  That subfield basis is in reduced form
(:meth:`CyclicExtensionData.fixed_subfield_basis`), so the coordinates of a
fixed vector are read off its representative values at the basis's free
coordinates, with no arithmetic.  The same read-off gives the structure
constants, the unit, the split idempotent's coordinates and the columns of
the base-change embedding.  A product of fixed vectors is fixed, so the
structure constants are read unchecked, and a product is formed only at the
orbit representatives: one sum of products per representative coordinate,
over a per-call table of products of the subfield bases' conjugates and the
tensor rows of each orbit pair, fetched once.  ``CorResult.coordinates``
also checks that each representative value x is fixed by sigma^(orbit
length) and that the rest of the orbit holds its conjugates.

The center test inserts the sparse rows of the stacked commutator maps
x -> e_i x - x e_i one at a time into an echelon form and stops once the
rank reaches dim - 1 (the scalars are always central); the trace test
inserts the trace form's rows the same way and stops at a dependent one,
and ``fixed_basis_spans`` ranks the fixed basis in the same echelon.

Products, the coordinate read-off and the center test compute on the
kernel's raw nested data at one level, and wrap results as ``TowerElement``
only where they leave the module.  A ``StructureConstantAlgebra``'s rows
are that raw data: every producer writes each nonzero constant at the
algebra's level, and ``row(i, j)`` wraps one row on demand;
``CyclicExtensionData`` keeps sigma's rows once and applies sigma^j as j
passes.  The tensor power's unit and rows are sparse Kronecker products of
the legs' raw data.  It does not build its (dim A)^(2r) product rows: each
row is computed when it is read and not kept, since the fixed subalgebra
reads each of the n^2 rows of the n-dimensional tensor power once (the
orbits partition the positions); the dimension guard bounds that n.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

from . import linalg
from .errors import (
    MemoryGuardExceeded,
    PreconditionError,
    ReducibilityError,
    SingularMatrix,
)
from .sqrt import sqrt_or_nonsquare
from .tower import (
    KIND_SQRT,
    TowerElement,
    TowerField,
    _add,
    _dot,
    _embed_up,
    _inv,
    _is_zero,
    _mul,
    _neg,
    _raw_one,
    _raw_zero,
    _sub,
    tower_extend,
)

_TENSOR_DIM_GUARD = 4096


# ---------------------------------------------------------------------------
# cyclic extension data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CyclicExtensionData:
    """A cyclic extension K/F realized as one tower level, with the matrix of
    a generator of the Galois group on the power basis of K over F."""

    tower: TowerField
    k_level: int
    sigma: tuple[tuple[TowerElement, ...], ...]
    order: int

    @property
    def f_level(self) -> int:
        return self.k_level - 1

    @staticmethod
    def create(tower: TowerField, k_level: int, sigma_rows, order: int) -> "CyclicExtensionData":
        if not 1 <= k_level <= tower.height:
            raise PreconditionError("K must be a tower level above its base field")
        f = k_level - 1
        deg = tower.levels[k_level - 1].degree
        if order != deg:
            raise PreconditionError("order must equal [K:F]")
        rows = tuple(tuple(tower.coerce(x, f) for x in row) for row in sigma_rows)
        if len(rows) != deg or any(len(r) != deg for r in rows):
            raise PreconditionError("sigma matrix must be [K:F] x [K:F]")
        data = CyclicExtensionData(tower, k_level, rows, order)
        data.validate()
        return data

    @cached_property
    def _sigma_raw(self):
        """The rows of sigma as raw (column, entry) pairs, zeros left out."""
        return tuple(tuple((j, x.data) for j, x in enumerate(row) if x) for row in self.sigma)

    def apply(self, x: TowerElement, power: int = 1) -> TowerElement:
        """sigma^power applied to an element of K."""
        x = x.in_tower(self.tower).embed(self.k_level)
        for _ in range(power % self.order):
            x = self.tower.from_coeffs(self.k_level, linalg.matvec(self.sigma, x.coeffs()))
        return x

    def _apply_raw(self, data, power: int):
        """:meth:`apply` on the raw data of an element of K."""
        ctx, f = self.tower._ctx, self.f_level
        for _ in range(power % self.order):
            data = tuple(
                _dot(ctx, f, [(m, data[j]) for j, m in row]) if row else _raw_zero(ctx, f)
                for row in self._sigma_raw
            )
        return data

    def validate(self) -> None:
        """sigma is an F-algebra automorphism of order exactly [K:F].

        sigma is F-linear, so sigma(gen^j) = sigma(gen)^j for j < [K:F] makes
        it the evaluation map p(gen) -> p(sigma(gen)) on the power basis;
        once sigma(gen) is a root of the minimal polynomial m of gen, that
        map is a ring homomorphism K -> K, so a field automorphism."""
        tower, k = self.tower, self.k_level
        gen = tower.gen(k)
        sg = self.apply(gen)
        power = image = tower.one(k)
        for j in range(self.order):
            if self.apply(power) != image:
                raise PreconditionError(f"sigma(gen^{j}) != sigma(gen)^{j}")
            power, image = power * gen, image * sg
        x = gen
        for j in range(1, self.order):
            x = self.apply(x)
            if x == gen:
                raise PreconditionError(f"sigma has order {j}, expected {self.order}")
        if self.apply(x) != gen:
            raise PreconditionError("sigma^r is not the identity")
        acc = tower.zero(k)
        for c in reversed(tower.levels[k - 1].minpoly):
            acc = acc * sg + TowerElement(tower, k - 1, c).embed(k)
        if not acc.is_zero():
            raise PreconditionError("sigma(gen) is not a root of the minimal polynomial")

    def fixed_subfield_basis(self, power: int):
        """F-basis omega_1, ..., omega_m of the subfield of K fixed by
        sigma^power, in the reduced form ``linalg.nullspace`` returns: omega_t
        is 1 at its own free coordinate f_t (over the power basis of K/F),
        which is its last nonzero coordinate, and 0 at every other f_s.  So
        an element x of the subfield is x[f_1] omega_1 + ... + x[f_m] omega_m,
        and its coordinates in this basis are read off, not solved for."""
        tower, k, f = self.tower, self.k_level, self.f_level
        m = self.sigma
        acc = linalg.identity(tower, f, self.order)
        for _ in range(power % self.order):
            acc = linalg.matmul(m, acc)
        delta = tuple(
            tuple(acc[i][j] - (1 if i == j else 0) for j in range(self.order))
            for i in range(self.order)
        )
        vecs = linalg.nullspace(delta, tower, f, self.order)
        return tuple(tower.from_coeffs(k, v) for v in vecs)


# ---------------------------------------------------------------------------
# structure constant algebras
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureConstantAlgebra:
    """Finite-dimensional associative algebra with basis products stored as
    sparse rows: rows[i*dim + j] lists (k, c) with e_i e_j = sum c e_k, where
    c is the nonzero raw data of the constant at the algebra's level.

    ``rows`` is a tuple, or for a tensor power a lazy sequence of the same
    rows; :meth:`row` wraps one row as elements.  The unit is a tuple of
    elements at the level."""

    tower: TowerField
    level: int
    dim: int
    rows: tuple[tuple[tuple[int, object], ...], ...]
    unit: tuple[TowerElement, ...]
    matrix_units: bool = False

    @staticmethod
    def from_dense(tower: TowerField, level: int, constants, unit, matrix_units=False):
        """From a dense constants[i][j][k] table of elements or rationals; a
        constant above ``level`` is an error."""
        n = len(constants)
        rows = tuple(
            tuple(
                (k, c)
                for k, c in enumerate(tower.coerce(x, level).data for x in constants[i][j])
                if not _is_zero(c, level)
            )
            for i in range(n)
            for j in range(n)
        )
        u = tuple(tower.coerce(x, level) for x in unit)
        return StructureConstantAlgebra(tower, level, n, rows, u, matrix_units)

    def row(self, i: int, j: int) -> tuple[tuple[int, TowerElement], ...]:
        """Row (i, j) as (k, element) pairs."""
        tower, lv = self.tower, self.level
        return tuple((k, TowerElement(tower, lv, c)) for k, c in self.rows[i * self.dim + j])

    @cached_property
    def _raw_unit(self) -> dict:
        raw = (self.tower.coerce(c, self.level).data for c in self.unit)
        return {k: c for k, c in enumerate(raw) if not _is_zero(c, self.level)}

    def _raw_vector(self, x: dict) -> dict:
        return {i: self.tower.coerce(c, self.level).data for i, c in x.items()}

    def mul_sparse(self, x: dict, y: dict) -> dict:
        """Product of sparse coordinate vectors ({basis index: coefficient});
        zero coordinates are left out of the result, which lies at the
        algebra's level."""
        out = self._mul_raw(self._raw_vector(x), self._raw_vector(y))
        return {k: TowerElement(self.tower, self.level, v) for k, v in out.items()}

    def _mul_raw(self, x: dict, y: dict) -> dict:
        """:meth:`mul_sparse` on raw coordinates at the level: each output
        coordinate is one sum of products, reduced once."""
        ctx, lv, dim, rows = self.tower._ctx, self.level, self.dim, self.rows
        terms: dict[int, list] = {}
        for i, xi in x.items():
            base = i * dim
            for j, yj in y.items():
                row = rows[base + j]
                if row:
                    f = _mul(ctx, lv, xi, yj)
                    for k, c in row:
                        t = terms.get(k)
                        if t is None:
                            terms[k] = [(f, c)]
                        else:
                            t.append((f, c))
        out = {}
        for k, pairs in terms.items():
            v = _mul(ctx, lv, *pairs[0]) if len(pairs) == 1 else _dot(ctx, lv, pairs)
            if not _is_zero(v, lv):
                out[k] = v
        return out

    def check_unit(self) -> bool:
        one = _raw_one(self.tower._ctx, self.level)
        unit = self._raw_unit
        for i in range(self.dim):
            e = {i: one}
            if self._mul_raw(unit, e) != e or self._mul_raw(e, unit) != e:
                return False
        return True


def matrix_algebra(tower: TowerField, level: int, n: int = 2) -> StructureConstantAlgebra:
    """M_n in the matrix-unit basis E_11, E_12, ..., E_nn."""
    dim = n * n
    rows = []
    one = tower.one(level)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if b == c:
                        rows.append((((a * n + d), one.data),))
                    else:
                        rows.append(())
    unit = tuple(one if (i // n) == (i % n) else tower.zero(level) for i in range(dim))
    return StructureConstantAlgebra(tower, level, dim, tuple(rows), unit, matrix_units=True)


def quaternion_structure_algebra(q) -> StructureConstantAlgebra:
    """Structure constants of a quaternion algebra on (1, i, j, ij) for the
    bracket presentation or (1, I, J, IJ) for the standard one."""
    tower, level = q.field, q.level
    zero = tower.zero(level)
    one = tower.one(level)
    x, y = q.x, q.y
    tab = {}
    if q.presentation == "standard":
        u, v = x, y
        tab[(1, 1)] = ((0, u),)
        tab[(1, 2)] = ((3, one),)
        tab[(1, 3)] = ((2, u),)
        tab[(2, 1)] = ((3, -one),)
        tab[(2, 2)] = ((0, v),)
        tab[(2, 3)] = ((1, -v),)
        tab[(3, 1)] = ((2, -u),)
        tab[(3, 2)] = ((1, v),)
        tab[(3, 3)] = ((0, -(u * v)),)
    else:
        a, b = x, y
        tab[(1, 1)] = ((0, a), (1, one))
        tab[(1, 2)] = ((3, one),)
        tab[(1, 3)] = ((2, a), (3, one))
        tab[(2, 1)] = ((2, one), (3, -one))
        tab[(2, 2)] = ((0, b),)
        tab[(2, 3)] = ((0, b), (1, -b))
        tab[(3, 1)] = ((2, -a),)
        tab[(3, 2)] = ((1, b),)
        tab[(3, 3)] = ((0, -(a * b)),)
    rows = []
    for i in range(4):
        for j in range(4):
            if i == 0:
                rows.append(((j, one.data),))
            elif j == 0:
                rows.append(((i, one.data),))
            else:
                rows.append(tuple((k, c.data) for k, c in tab[(i, j)] if c))
    unit = (one, zero, zero, zero)
    return StructureConstantAlgebra(tower, level, 4, tuple(rows), unit)


# ---------------------------------------------------------------------------
# conjugates and tensor powers
# ---------------------------------------------------------------------------


def conjugate_algebra(
    a: StructureConstantAlgebra, cyclic: CyclicExtensionData, sigma_power: int
) -> StructureConstantAlgebra:
    """Same ring with K-scalars twisted through sigma^power: the structure
    constants get sigma^(-power) entrywise.  The result lies at K's level,
    also when A lies below it; A above it is a ValueError."""
    j = (-sigma_power) % cyclic.order
    ctx, lv, k_level = cyclic.tower._ctx, a.level, cyclic.k_level
    # the unit first: cyclic.apply checks A's tower and level against K's
    unit = tuple(cyclic.apply(c, j) for c in a.unit)
    rows = tuple(
        tuple((k, cyclic._apply_raw(_embed_up(ctx, lv, c, k_level), j)) for k, c in row)
        for row in a.rows
    )
    return StructureConstantAlgebra(cyclic.tower, k_level, a.dim, rows, unit, a.matrix_units)


@dataclass(frozen=True)
class TensorPowerAlgebra:
    """A (x) sigma(A) (x) ... (x) sigma^(r-1)(A) over K, legs tagged by their
    conjugation index; the flat index of leg exponents has leg 0 most
    significant."""

    algebra: StructureConstantAlgebra
    base_dim: int
    r: int


class _TensorRows(Sequence):
    """The product rows of a tensor power, each computed from the legs' rows
    when it is read, and not kept: entry i*n + j lists (k, c) with
    e_i e_j = sum c e_k, c raw at the tensor power's level."""

    def __init__(self, tower: TowerField, level: int, legs, d: int):
        self._tower, self._level, self._d = tower, level, d
        self._n = d ** len(legs)
        self._legs = [leg.rows for leg in legs]

    def __len__(self) -> int:
        return self._n * self._n

    def __getitem__(self, idx: int) -> tuple:
        if not 0 <= idx < len(self):
            raise IndexError("tensor row index out of range")
        d = self._d
        i, j = divmod(idx, self._n)
        leg_rows = []
        for leg in reversed(self._legs):  # the last leg is least significant
            i, a = divmod(i, d)
            j, b = divmod(j, d)
            leg_rows.append(leg[a * d + b])
        if not all(leg_rows):
            return ()
        leg_rows.reverse()
        return _kron(self._tower._ctx, self._level, d, leg_rows)


def _kron(ctx, lv, d, factors) -> tuple:
    """Sparse Kronecker product on raw data at level lv: each factor lists
    (index < d, value) pairs, the first factor most significant; returns the
    (flat index, product) pairs whose product is nonzero."""
    stack = list(factors[0])
    for factor in factors[1:]:
        stack = [(flat * d + k, _mul(ctx, lv, coeff, c)) for flat, coeff in stack for k, c in factor]
    return tuple((flat, c) for flat, c in stack if not _is_zero(c, lv))


def tensor_power_over_K(
    a: StructureConstantAlgebra, cyclic: CyclicExtensionData
) -> TensorPowerAlgebra:
    """A (x) sigma(A) (x) ... over K at K's level, each product row computed
    when it is read; raises MemoryGuardExceeded past the dimension guard."""
    r = cyclic.order
    n = a.dim**r
    if n > _TENSOR_DIM_GUARD:
        raise MemoryGuardExceeded(f"tensor dimension {n} exceeds the {_TENSOR_DIM_GUARD} guard")
    tower, k = cyclic.tower, cyclic.k_level
    legs = [conjugate_algebra(a, cyclic, t) for t in range(r)]
    rows = _TensorRows(tower, k, legs, a.dim)
    unit = [tower.zero(k)] * n
    for flat, c in _kron(tower._ctx, k, a.dim, [tuple(leg._raw_unit.items()) for leg in legs]):
        unit[flat] = TowerElement(tower, k, c)
    alg = StructureConstantAlgebra(tower, k, n, rows, tuple(unit), matrix_units=a.matrix_units)
    return TensorPowerAlgebra(algebra=alg, base_dim=a.dim, r=r)


# ---------------------------------------------------------------------------
# the semilinear action and its fixed subalgebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GAction:
    """The generator of the group action on the tensor power: a cyclic shift
    of the tensor legs composed with the field automorphism on coordinates.

    T(x)[q] = sigma^(-1)(x[perm[q]]), where perm rotates the leg exponents of
    q left by one: with leg 0's place value top = d^(r-1), perm[q] is
    (q mod top) d + q div top.  T has order exactly r."""

    cyclic: CyclicExtensionData
    perm: tuple[int, ...]


def g_action_matrix(ta: TensorPowerAlgebra, cyclic: CyclicExtensionData) -> GAction:
    d, top = ta.base_dim, ta.base_dim ** (ta.r - 1)
    perm = tuple(q % top * d + q // top for q in range(top * d))
    return GAction(cyclic=cyclic, perm=perm)


@dataclass(frozen=True)
class CorResult:
    """The corestriction: an F-algebra with its basis embedded in the tensor
    power (dense K-coordinate vectors, every one fixed by the action).

    ``tensor`` and ``cyclic`` describe the source: the tensor power over K
    and the extension K/F it descends along.  ``_orbit_data`` holds, for
    each orbit of the action in basis order, its positions from the
    representative on, the free coordinates of its subfield basis and that
    basis's conjugates."""

    algebra: StructureConstantAlgebra
    fixed_basis: tuple[tuple[TowerElement, ...], ...]
    tensor: StructureConstantAlgebra
    cyclic: CyclicExtensionData
    _orbit_data: tuple = field(repr=False, compare=False)

    def coordinates(self, z: dict) -> tuple[TowerElement, ...]:
        """F-coordinates in the fixed basis of a sparse tensor vector
        ({flat index: K-element}); raises PreconditionError when the vector
        is not action-fixed.  On an orbit of length ell with representative
        value x, the vector is in the fixed-basis span there exactly when
        sigma^ell(x) = x, and fixed exactly when every other position holds
        its conjugate sigma^j(x)."""
        cyclic = self.cyclic
        tower, ctx, k, f = cyclic.tower, cyclic.tower._ctx, cyclic.k_level, cyclic.f_level
        raw = {pos: tower.coerce(x, k).data for pos, x in z.items()}
        coords = _read_off(self._orbit_data, raw, _raw_zero(ctx, f))
        for positions, _free, _conj in self._orbit_data:
            val = raw.pop(positions[0], None)
            if val is None:
                continue
            if cyclic._apply_raw(val, len(positions)) != val:
                raise PreconditionError("vector is not in the fixed-basis span")
            for j, pos in enumerate(positions[1:], start=1):
                if raw.pop(pos, _raw_zero(ctx, k)) != cyclic._apply_raw(val, j):
                    raise PreconditionError("vector is not action-fixed")
        if any(not _is_zero(x, k) for x in raw.values()):
            raise PreconditionError("vector is not action-fixed")
        return tuple(TowerElement(tower, f, c) for c in coords)


def _orbits(perm):
    """The cycles of perm by ascending least position p, each from p on:
    (p, perm[p], perm^2[p], ...)."""
    seen = [False] * len(perm)
    orbits = []
    for p in range(len(perm)):
        if seen[p]:
            continue
        orbit = [p]
        seen[p] = True
        q = perm[p]
        while q != p:
            orbit.append(q)
            seen[q] = True
            q = perm[q]
        orbits.append(tuple(orbit))
    return orbits


def _fixed_basis_sparse(action: GAction):
    """Sparse fixed vectors and the orbit data that reads coordinates in
    them, orbit by orbit: the representative coordinate runs over an F-basis
    of the subfield fixed by sigma^(orbit length).  Each vector is fixed by
    construction: x[perm^j(p)] = sigma^j(omega) around the orbit, closed by
    sigma^ell(omega) = omega.  The orbit data pairs the orbit's positions
    with the free coordinates f_t of its subfield basis (see
    :meth:`CyclicExtensionData.fixed_subfield_basis`) and the conjugates
    sigma^j(omega_t) of that basis, indexed [t][j]; every orbit of one length
    shares the last two."""
    cyclic = action.cyclic
    out = []
    orbit_data = []
    sub_bases = {}
    for orbit in _orbits(action.perm):
        ell = len(orbit)
        if ell not in sub_bases:
            sub_basis = cyclic.fixed_subfield_basis(ell)
            if len(sub_basis) != ell:
                raise PreconditionError(
                    f"fixed subfield of sigma^{ell} has dimension {len(sub_basis)}, expected {ell}"
                )
            # the free coordinate of omega_t is its last nonzero coordinate
            free = tuple(max(i for i, c in enumerate(w.coeffs()) if c) for w in sub_basis)
            conj = tuple(tuple(cyclic.apply(w, j) for j in range(ell)) for w in sub_basis)
            sub_bases[ell] = free, conj
        free, conj = sub_bases[ell]
        out.extend(dict(zip(orbit, values)) for values in conj)
        orbit_data.append((orbit, free, conj))
    return out, tuple(orbit_data)


def _read_off(orbit_data, z: dict, zero_f) -> list:
    """F-coordinates of an action-fixed raw vector z in the fixed basis,
    unchecked: on each orbit, the representative value's coordinates at the
    free coordinates of the orbit's subfield basis.  A fixed vector is
    determined by its representative values."""
    out = []
    for positions, free, _conj in orbit_data:
        val = z.get(positions[0])
        out.extend([zero_f] * len(free) if val is None else [val[t] for t in free])
    return out


def fixed_subalgebra(ta: TensorPowerAlgebra, action: GAction) -> CorResult:
    """Solve T(x) = x over the F-structure of the tensor power and compute
    the structure constants of the fixed algebra in the resulting basis.

    The returned F-dimension equals dim_K of the tensor power, which for a
    central simple A is (deg A)^(2r).

    Basis vector (o, t) holds sigma^j(omega_t) at the j-th position of orbit
    o, so the product of (o, t) and (o', t') is the sum over j, j' of
    sigma^j(omega_t) sigma^j'(omega'_t') e_(o[j]) e_(o'[j']).  A product of
    fixed vectors is fixed (the action is an algebra automorphism), and so is
    the tensor unit: both are read off unchecked, so a product is formed
    only at the orbit representatives.  The K-products of conjugates are one
    table for the call, and the tensor rows of an orbit pair are fetched and
    filtered once for all its (t, t')."""
    alg = ta.algebra
    cyclic = action.cyclic
    tower, ctx, n_k = alg.tower, alg.tower._ctx, alg.dim
    k_level, f_level = cyclic.k_level, cyclic.f_level
    sparse_basis, orbit_data = _fixed_basis_sparse(action)
    zero_k, zero_f = tower.zero(k_level), _raw_zero(ctx, f_level)
    dense_basis = tuple(tuple(vec.get(q, zero_k) for q in range(n_k)) for vec in sparse_basis)

    # sigma^j(omega_t) sigma^j'(omega'_t') for the subfield bases of every
    # orbit length, as products[ell, t, ell', t'][j][j']
    conj = {len(positions): c for positions, _free, c in orbit_data}
    raw_conj = {
        ell: [[tower.coerce(x, k_level).data for x in xs] for xs in c] for ell, c in conj.items()
    }
    products = {
        (la, t, lb, tb): [[_mul(ctx, k_level, x, y) for y in ys] for x in xs]
        for la, ca in raw_conj.items()
        for t, xs in enumerate(ca)
        for lb, cb in raw_conj.items()
        for tb, ys in enumerate(cb)
    }
    # representative position -> (index of its orbit's first basis vector,
    # free coordinates); representatives ascend with the basis index
    target, start = {}, 0
    for positions, free, _conj in orbit_data:
        target[positions[0]] = start, free
        start += len(free)

    tensor_rows = alg.rows
    table = [[()] * n_k for _ in range(n_k)]
    for pos_a, free_a, _conj in orbit_data:
        la, ia = len(pos_a), target[pos_a[0]][0]
        for pos_b, free_b, _conj in orbit_data:
            lb, ib = len(pos_b), target[pos_b[0]][0]
            # representative k -> (j, j', c) over the rows e_(o[j]) e_(o'[j'])
            terms: dict[int, list] = {}
            for j, p in enumerate(pos_a):
                base = p * n_k
                for jb, q in enumerate(pos_b):
                    for k, c in tensor_rows[base + q]:
                        if k in target:
                            terms.setdefault(k, []).append((j, jb, c))
            order = sorted(terms)
            for t in range(len(free_a)):
                for tb in range(len(free_b)):
                    prod = products[la, t, lb, tb]
                    row = []
                    for k in order:
                        val = _dot(ctx, k_level, [(prod[j][jb], c) for j, jb, c in terms[k]])
                        begin, free = target[k]
                        for m, fc in enumerate(free):
                            if not _is_zero(val[fc], f_level):
                                row.append((begin + m, val[fc]))
                    table[ia + t][ib + tb] = tuple(row)
    rows = tuple(row for block in table for row in block)
    unit = tuple(
        TowerElement(tower, f_level, c) for c in _read_off(orbit_data, alg._raw_unit, zero_f)
    )
    cor = StructureConstantAlgebra(tower, f_level, n_k, rows, unit, alg.matrix_units)
    return CorResult(cor, dense_basis, alg, cyclic, orbit_data)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


def _sub_at(ctx, lv: int, row: dict, k, c) -> None:
    """row[k] -= c on a sparse raw row, dropping the entry if it becomes 0."""
    v = _sub(ctx, lv, row[k], c) if k in row else _neg(ctx, lv, c)
    if _is_zero(v, lv):
        row.pop(k, None)
    else:
        row[k] = v


def _echelon_insert(ctx, lv: int, echelon: list, row: dict) -> bool:
    """Reduce ``row`` ({column: nonzero raw value}; consumed) by the rows of
    ``echelon`` in order and append what is left, or return False when
    nothing is.  A kept row is (pivot, its other (column, value) pairs): 1 at
    its pivot, its first column left nonzero, and 0 at earlier pivots."""
    for p, kept in echelon:
        f = row.pop(p, None)
        if f is None:
            continue
        for k, y in kept:
            _sub_at(ctx, lv, row, k, _mul(ctx, lv, f, y))
    if not row:
        return False
    p = min(row)
    inv = _inv(ctx, lv, row.pop(p))
    echelon.append((p, [(k, _mul(ctx, lv, v, inv)) for k, v in row.items()]))
    return True


def _commutator_rows(a: StructureConstantAlgebra, i: int) -> list:
    """Rows of the map x -> e_i x - x e_i: row k is {j: coefficient of e_k
    in e_i e_j - e_j e_i}, nonzero entries only, in increasing k."""
    n, ctx, lv, rows = a.dim, a.tower._ctx, a.level, a.rows
    comm: dict = {}
    for j in range(n):
        for k, c in rows[i * n + j]:
            if not _is_zero(c, lv):
                comm.setdefault(k, {})[j] = c
        for k, c in rows[j * n + i]:
            _sub_at(ctx, lv, comm.setdefault(k, {}), j, c)
    return [comm[k] for k in sorted(comm)]


def central_simple_check(a: StructureConstantAlgebra) -> bool:
    """Center dimension 1 plus nondegenerate trace form: in characteristic 0
    this is exactly central simplicity."""
    if not a.check_unit():
        return False
    n, ctx, lv, rows = a.dim, a.tower._ctx, a.level, a.rows

    # center: the kernel of the stacked commutator maps x -> e_i x - x e_i,
    # whose rows enter one echelon one generator at a time; check_unit put
    # the scalars in the center, so rank n - 1 settles it
    center: list = []
    comm = (row for i in range(n) for row in _commutator_rows(a, i))
    while len(center) < n - 1:
        row = next(comm, None)
        if row is None:
            return False
        _echelon_insert(ctx, lv, center, row)

    # trace form nondegeneracy (semisimplicity in characteristic 0): its
    # rows enter an echelon until one is dependent
    tr = {}
    for k in range(n):
        acc = _raw_zero(ctx, lv)
        for m in range(n):
            for idx, c in rows[k * n + m]:
                if idx == m:
                    acc = _add(ctx, lv, acc, c)
        if not _is_zero(acc, lv):
            tr[k] = acc
    trace: list = []
    for i in range(n):
        row = {}
        for j in range(n):
            pairs = [(c, tr[k]) for k, c in rows[i * n + j] if k in tr]
            if pairs:
                v = _dot(ctx, lv, pairs)
                if not _is_zero(v, lv):
                    row[j] = v
        if not _echelon_insert(ctx, lv, trace, row):
            return False
    return True


def split_idempotent_witness(cor: CorResult):
    """For the corestriction of M_2(K) in the matrix-unit basis: the fixed
    element E_11 (x) ... (x) E_11, a nonzero non-identity idempotent
    certifying that the corestriction is not a division algebra."""
    if not cor.tensor.matrix_units:
        raise PreconditionError("input algebra is not in the matrix-unit basis")
    alg = cor.tensor
    one, zero = alg.tower.one(cor.cyclic.k_level), alg.tower.zero(cor.cyclic.k_level)
    e = {0: one}
    if alg.mul_sparse(e, e) != e:
        raise PreconditionError("E11 tensor power is not idempotent (bad basis)")
    dense = (one,) + (zero,) * (alg.dim - 1)
    if dense == alg.unit:
        raise PreconditionError("idempotent equals the identity")
    # exact coordinates in the fixed basis certify membership in the corestriction
    return dense, cor.coordinates(e)


def fixed_basis_spans(cor: CorResult) -> bool:
    """Galois-descent sanity: the K-span of the fixed F-basis is the whole
    tensor power (rank over K equals dim_K).  Each row enters, as raw data
    at the tensor power's level, the one sparse echelon that
    :func:`central_simple_check` also uses, and the rank is its length."""
    tower, lv = cor.tensor.tower, cor.tensor.level
    echelon: list = []
    for row in cor.fixed_basis:
        sparse = {q: tower.coerce(x, lv).data for q, x in enumerate(row) if x}
        _echelon_insert(tower._ctx, lv, echelon, sparse)
    return len(echelon) == cor.tensor.dim


# ---------------------------------------------------------------------------
# base change along a linearly disjoint extension
# ---------------------------------------------------------------------------


def base_change_embedding_check(
    a: StructureConstantAlgebra, cyclic: CyclicExtensionData, l_minpoly
) -> bool:
    """Check that corestriction commutes with base change to L: build the
    natural embedding cor(A) (x) L -> cor_{KL/L}(A_KL) on basis elements and
    verify it is a bijective algebra homomorphism.

    K must be a single level over the rational base; L is given by a monic
    minimal polynomial over the rationals (degree 1 means L = Q and the
    check is trivially true).  A non-disjoint L surfaces as an early square
    detection, a rank failure, or a zero divisor; all three report False.
    """
    if cyclic.k_level != 1:
        raise PreconditionError("base change check needs K directly over the rationals")
    from .tower import QQ

    l_coeffs = [QQ.coerce(c, 0) for c in l_minpoly]
    if len(l_coeffs) - 1 < 1:
        raise PreconditionError("L needs a monic minimal polynomial of degree >= 1")
    if len(l_coeffs) == 2:
        return True  # L = Q: the embedding is the identity
    k_level_old = cyclic.k_level
    k_tower = cyclic.tower
    k_minpoly = k_tower.levels[0].minpoly  # rational coefficients

    try:
        t_l = tower_extend(QQ, l_coeffs, label="L")
        if t_l.levels[0].kind == KIND_SQRT:
            probe = k_tower.coerce(-l_coeffs[0], k_level_old)
            if sqrt_or_nonsquare(probe) is not None:
                return False  # L embeds into K: not linearly disjoint
        t2 = tower_extend(t_l, k_minpoly, label="KL")
        cyclic2 = CyclicExtensionData.create(t2, 2, cyclic.sigma, cyclic.order)

        # A over K -> A over KL (constant data reinterpreted over L)
        def embed_elem(x: TowerElement) -> TowerElement:
            return t2.from_coeffs(2, x.coeffs())

        rows2 = tuple(
            tuple((k, embed_elem(c).data) for k, c in a.row(i, j))
            for i in range(a.dim)
            for j in range(a.dim)
        )
        unit2 = tuple(embed_elem(c) for c in a.unit)
        a2 = StructureConstantAlgebra(t2, 2, a.dim, rows2, unit2, a.matrix_units)

        ta1 = tensor_power_over_K(a, cyclic)
        cor1 = fixed_subalgebra(ta1, g_action_matrix(ta1, cyclic))
        ta2 = tensor_power_over_K(a2, cyclic2)
        cor2 = fixed_subalgebra(ta2, g_action_matrix(ta2, cyclic2))

        n = cor1.algebra.dim
        if cor2.algebra.dim != n:
            return False
        try:
            phi_cols = [
                cor2.coordinates({q: embed_elem(x) for q, x in enumerate(vec) if x})
                for vec in cor1.fixed_basis
            ]
        except PreconditionError:
            return False  # an image outside the fixed space of the KL tensor power
        if linalg.rank(tuple(phi_cols)) != n:
            return False
        phi = [{q: x for q, x in enumerate(col) if x} for col in phi_cols]

        def image(sparse):
            """phi of the cor(A) element with sparse coordinates (k, c)."""
            out: dict[int, TowerElement] = {}
            for k, c in sparse:
                scalar = t2.coerce(c, 1)
                for q, x in phi[k].items():
                    t = scalar * x
                    out[q] = out[q] + t if q in out else t
            return {q: v for q, v in out.items() if v}

        # unit and multiplicativity on all basis pairs
        unit1 = ((k, c) for k, c in enumerate(cor1.algebra.unit) if c)
        if image(unit1) != {q: c for q, c in enumerate(cor2.algebra.unit) if c}:
            return False
        return all(
            image(cor1.algebra.row(i, j)) == cor2.algebra.mul_sparse(phi[i], phi[j])
            for i in range(n)
            for j in range(n)
        )
    except (ReducibilityError, SingularMatrix):
        return False


__all__ = [
    "CyclicExtensionData",
    "StructureConstantAlgebra",
    "TensorPowerAlgebra",
    "GAction",
    "CorResult",
    "matrix_algebra",
    "quaternion_structure_algebra",
    "conjugate_algebra",
    "tensor_power_over_K",
    "g_action_matrix",
    "fixed_subalgebra",
    "central_simple_check",
    "split_idempotent_witness",
    "fixed_basis_spans",
    "base_change_embedding_check",
]
