"""Central simple algebras by structure constants over a cyclic extension
K/F inside a tower: conjugate algebras, tensor powers, the Galois-fixed
corestriction subalgebra, and its structural checks.

The fixed subalgebra of the semilinear shift action is computed orbitwise:
the action permutes tensor basis indices and twists coordinates by the
field automorphism, so the fixed space is spanned, orbit by orbit, by
vectors whose representative coordinate runs over the subfield fixed by
the orbit-length power of the generator.  Every basis vector is re-checked
against the action and the resulting dimension against the degree formula.
The same orbit solver is the one way into the fixed basis
(``CorResult.coordinates``): it gives the structure constants, the split
idempotent's coordinates and the columns of the base-change embedding, and
rejects any vector the action does not fix.

The center test keeps the rows of the stacked commutator maps
x -> e_i x - x e_i in reduced echelon form, adding one generator's rows per
elimination, and stops once the rank reaches dim - 1 (the scalars are
always central).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct

from . import linalg
from .errors import (
    MemoryGuardExceeded,
    PreconditionError,
    ReducibilityError,
    SingularMatrix,
)
from .sqrt import sqrt_or_nonsquare
from .tower import KIND_SQRT, TowerElement, TowerField, tower_extend

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
        if k_level < 1:
            raise PreconditionError("K must be a tower level above its base field")
        f = k_level - 1
        deg = tower.levels[k_level - 1].degree
        if order != deg:
            raise PreconditionError("order must equal [K:F]")
        rows = tuple(
            tuple(
                x.in_tower(tower).embed(f) if isinstance(x, TowerElement) else tower.rational(x, f)
                for x in row
            )
            for row in sigma_rows
        )
        if len(rows) != deg or any(len(r) != deg for r in rows):
            raise PreconditionError("sigma matrix must be [K:F] x [K:F]")
        data = CyclicExtensionData(tower, k_level, rows, order)
        data.validate()
        return data

    def apply(self, x: TowerElement, power: int = 1) -> TowerElement:
        """sigma^power applied to an element of K."""
        power %= self.order
        x = x.in_tower(self.tower).embed(self.k_level)
        coords = x.coeffs()
        for _ in range(power):
            coords = linalg.matvec(self.sigma, coords)
        return self.tower.from_coeffs(self.k_level, coords)

    def validate(self) -> None:
        """sigma is an F-algebra automorphism of order exactly [K:F] and
        preserves the minimal polynomial of the generator."""
        tower, k = self.tower, self.k_level
        one = tower.one(k)
        if self.apply(one) != one:
            raise PreconditionError("sigma does not fix 1")
        gen = tower.gen(k)
        basis = [one]
        for _ in range(self.order - 1):
            basis.append(basis[-1] * gen)
        for i in range(self.order):
            for j in range(i, self.order):
                if self.apply(basis[i] * basis[j]) != self.apply(basis[i]) * self.apply(basis[j]):
                    raise PreconditionError("sigma is not multiplicative on the power basis")
        x = gen
        for j in range(1, self.order):
            x = self.apply(x)
            if x == gen:
                raise PreconditionError(f"sigma has order {j}, expected {self.order}")
        if self.apply(x) != gen:
            raise PreconditionError("sigma^r is not the identity")
        # minimal polynomial preservation: m(sigma(gen)) = 0
        minpoly = tower.levels[k - 1].minpoly
        sg = self.apply(gen)
        acc = tower.zero(k)
        for c in reversed(minpoly):
            acc = acc * sg + TowerElement(tower, k - 1, c).embed(k)
        if not acc.is_zero():
            raise PreconditionError("sigma(gen) is not a root of the minimal polynomial")

    def fixed_subfield_basis(self, power: int):
        """F-basis of the subfield of K fixed by sigma^power."""
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
    sparse rows: rows[i*dim + j] lists (k, c) with e_i e_j = sum c e_k."""

    tower: TowerField
    level: int
    dim: int
    rows: tuple[tuple[tuple[int, TowerElement], ...], ...]
    unit: tuple[TowerElement, ...]
    matrix_units: bool = False

    @staticmethod
    def from_dense(tower: TowerField, level: int, constants, unit, matrix_units=False):
        n = len(constants)
        rows = []
        for i in range(n):
            for j in range(n):
                entry = []
                for k in range(n):
                    c = constants[i][j][k]
                    if not isinstance(c, TowerElement):
                        c = tower.rational(c, level)
                    else:
                        c = c.in_tower(tower).embed(level)
                    if c:
                        entry.append((k, c))
                rows.append(tuple(entry))
        u = tuple(
            x.in_tower(tower).embed(level) if isinstance(x, TowerElement) else tower.rational(x, level)
            for x in unit
        )
        return StructureConstantAlgebra(tower, level, n, tuple(rows), u, matrix_units)

    def row(self, i: int, j: int):
        return self.rows[i * self.dim + j]

    def dense_constants(self):
        zero = self.tower.zero(self.level)
        out = [[[zero] * self.dim for _ in range(self.dim)] for _ in range(self.dim)]
        for i in range(self.dim):
            for j in range(self.dim):
                for k, c in self.row(i, j):
                    out[i][j][k] = c
        return out

    def mul_sparse(self, x: dict, y: dict) -> dict:
        """Product of sparse coordinate vectors ({basis index: coefficient});
        zero coordinates are left out of the result."""
        out: dict[int, TowerElement] = {}
        for i, xi in x.items():
            base = i * self.dim
            for j, yj in y.items():
                f = xi * yj
                for k, c in self.rows[base + j]:
                    cur = out.get(k)
                    t = f * c
                    out[k] = t if cur is None else cur + t
        return {k: v for k, v in out.items() if v}

    def check_unit(self) -> bool:
        one = self.tower.one(self.level)
        unit = {k: c for k, c in enumerate(self.unit) if c}
        for i in range(self.dim):
            e = {i: one}
            if self.mul_sparse(unit, e) != e or self.mul_sparse(e, unit) != e:
                return False
        return True

    def associative_on(self, i: int, j: int, k: int) -> bool:
        one = self.tower.one(self.level)
        return self.mul_sparse(dict(self.row(i, j)), {k: one}) == self.mul_sparse(
            {i: one}, dict(self.row(j, k))
        )


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
                        rows.append((((a * n + d), one),))
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
                rows.append(((j, one),))
            elif j == 0:
                rows.append(((i, one),))
            else:
                rows.append(tuple((k, c) for k, c in tab[(i, j)] if c))
    unit = (one, zero, zero, zero)
    return StructureConstantAlgebra(tower, level, 4, tuple(rows), unit)


# ---------------------------------------------------------------------------
# conjugates and tensor powers
# ---------------------------------------------------------------------------


def conjugate_algebra(
    a: StructureConstantAlgebra, cyclic: CyclicExtensionData, sigma_power: int
) -> StructureConstantAlgebra:
    """Same ring with K-scalars twisted through sigma^power: the structure
    constants get sigma^(-power) entrywise."""
    j = (-sigma_power) % cyclic.order
    rows = tuple(
        tuple((k, cyclic.apply(c, j)) for k, c in row) for row in a.rows
    )
    unit = tuple(cyclic.apply(c, j) for c in a.unit)
    return StructureConstantAlgebra(a.tower, a.level, a.dim, rows, unit, a.matrix_units)


@dataclass(frozen=True)
class TensorPowerAlgebra:
    """A (x) sigma(A) (x) ... (x) sigma^(r-1)(A) over K, legs tagged by their
    conjugation index; the flat index of leg exponents has leg 0 most
    significant."""

    algebra: StructureConstantAlgebra
    base_dim: int
    r: int


def tensor_power_over_K(
    a: StructureConstantAlgebra, cyclic: CyclicExtensionData
) -> TensorPowerAlgebra:
    r = cyclic.order
    n = a.dim**r
    if n > _TENSOR_DIM_GUARD:
        raise MemoryGuardExceeded(f"tensor dimension {n} exceeds the {_TENSOR_DIM_GUARD} guard")
    legs = [conjugate_algebra(a, cyclic, t) for t in range(r)]
    d = a.dim
    rows: list[tuple] = []
    for i_multi in iproduct(range(d), repeat=r):
        for j_multi in iproduct(range(d), repeat=r):
            leg_rows = [legs[t].row(i_multi[t], j_multi[t]) for t in range(r)]
            if any(not lr for lr in leg_rows):
                rows.append(())
                continue
            entry = []
            for combo in iproduct(*leg_rows):
                flat = 0
                coeff = None
                for k_t, c_t in combo:
                    flat = flat * d + k_t
                    coeff = c_t if coeff is None else coeff * c_t
                if coeff:
                    entry.append((flat, coeff))
            rows.append(tuple(entry))
    unit = _tensor_unit(a, legs, r)
    alg = StructureConstantAlgebra(
        a.tower, a.level, n, tuple(rows), unit, matrix_units=a.matrix_units
    )
    return TensorPowerAlgebra(algebra=alg, base_dim=a.dim, r=r)


def _tensor_unit(a, legs, r):
    d = a.dim
    n = d**r
    zero = a.tower.zero(a.level)
    out = [zero] * n
    for multi in iproduct(range(d), repeat=r):
        coeff = None
        flat = 0
        for t, idx in enumerate(multi):
            c = legs[t].unit[idx]
            if not c:
                coeff = None
                break
            flat = flat * d + idx
            coeff = c if coeff is None else coeff * c
        if coeff is not None:
            out[flat] = coeff
    return tuple(out)


# ---------------------------------------------------------------------------
# the semilinear action and its fixed subalgebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GAction:
    """The generator of the group action on the tensor power: a cyclic shift
    of the tensor legs composed with the field automorphism on coordinates.

    T(x)[q] = sigma^(-1)(x[perm[q]]), where perm rotates the leg exponents of
    q left by one; T has order exactly r."""

    cyclic: CyclicExtensionData
    base_dim: int
    r: int
    perm: tuple[int, ...]

    def apply(self, vec, power: int = 1):
        power %= self.r
        out = list(vec)
        for _ in range(power):
            out = [self.cyclic.apply(out[self.perm[q]], self.r - 1) for q in range(len(out))]
        return tuple(out)


def g_action_matrix(ta: TensorPowerAlgebra, cyclic: CyclicExtensionData) -> GAction:
    d, r = ta.base_dim, ta.r
    n = d**r
    perm = []
    for q in range(n):
        digits = []
        rem = q
        for _ in range(r):
            rem, dig = divmod(rem, d)
            digits.append(dig)
        digits.reverse()  # digits[t] = leg-t exponent, leg 0 most significant
        rot = digits[1:] + digits[:1]
        flat = 0
        for dig in rot:
            flat = flat * d + dig
        perm.append(flat)
    return GAction(cyclic=cyclic, base_dim=d, r=r, perm=tuple(perm))


@dataclass(frozen=True)
class CorResult:
    """The corestriction: an F-algebra with its basis embedded in the tensor
    power (dense K-coordinate vectors, every one fixed by the action).

    ``tensor`` and ``cyclic`` describe the source: the tensor power over K
    and the extension K/F it descends along."""

    algebra: StructureConstantAlgebra
    fixed_basis: tuple[tuple[TowerElement, ...], ...]
    tensor: StructureConstantAlgebra
    cyclic: CyclicExtensionData
    _solver: "_OrbitSolver" = field(repr=False, compare=False)

    def coordinates(self, z: dict) -> tuple[TowerElement, ...]:
        """F-coordinates in the fixed basis of a sparse tensor vector
        ({flat index: K-element}); raises PreconditionError when the vector
        is not action-fixed."""
        return self._solver.coordinates(z)


def _orbits(perm):
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
    """Sparse fixed vectors, orbit by orbit: the representative coordinate
    runs over an F-basis of the subfield fixed by sigma^(orbit length)."""
    cyclic = action.cyclic
    out = []
    orbit_meta = []
    sub_bases = {}
    for orbit in sorted(_orbits(action.perm)):
        ell = len(orbit)
        sub_basis = sub_bases.get(ell)
        if sub_basis is None:
            sub_basis = sub_bases[ell] = cyclic.fixed_subfield_basis(ell)
        if len(sub_basis) != ell:
            raise PreconditionError(
                f"fixed subfield of sigma^{ell} has dimension {len(sub_basis)}, expected {ell}"
            )
        # fixedness forces x[perm^j(p)] = sigma^j(x[p]) around the orbit
        positions = [orbit[0]]
        q = orbit[0]
        for _ in range(ell - 1):
            q = action.perm[q]
            positions.append(q)
        for omega in sub_basis:
            vec = {}
            for j, pos in enumerate(positions):
                vec[pos] = cyclic.apply(omega, j)
            out.append(vec)
        orbit_meta.append((tuple(positions), sub_basis))
    return out, orbit_meta


def _fixed_dimension(action: GAction) -> int:
    return sum(len(o) for o in _orbits(action.perm))


def fixed_subalgebra(ta: TensorPowerAlgebra, action: GAction) -> CorResult:
    """Solve T(x) = x over the F-structure of the tensor power and compute
    the structure constants of the fixed algebra in the resulting basis.

    The returned F-dimension equals dim_K of the tensor power, which for a
    central simple A is (deg A)^(2r)."""
    alg = ta.algebra
    cyclic = action.cyclic
    tower = alg.tower
    f_level = cyclic.f_level
    n_k = alg.dim
    sparse_basis, orbit_meta = _fixed_basis_sparse(action)
    if len(sparse_basis) != n_k:
        raise PreconditionError(
            f"fixed space has F-dimension {len(sparse_basis)}, expected {n_k}"
        )
    zero_k = tower.zero(cyclic.k_level)
    dense_basis = []
    for vec in sparse_basis:
        dense = [zero_k] * n_k
        for pos, val in vec.items():
            dense[pos] = val
        dense_basis.append(tuple(dense))
        if action.apply(dense) != tuple(dense):
            raise PreconditionError("constructed basis vector is not action-fixed")
    solver = _OrbitSolver(cyclic, orbit_meta)

    rows = []
    for x in sparse_basis:
        for y in sparse_basis:
            z = alg.mul_sparse(x, y)
            coeffs = solver.coordinates(z)
            rows.append(tuple((k, c) for k, c in enumerate(coeffs) if c))
    unit_sparse = {i: c for i, c in enumerate(alg.unit) if c}
    unit_coeffs = solver.coordinates(unit_sparse)
    cor = StructureConstantAlgebra(
        tower, f_level, n_k, tuple(rows), tuple(unit_coeffs), alg.matrix_units
    )
    return CorResult(
        algebra=cor, fixed_basis=tuple(dense_basis), tensor=alg, cyclic=cyclic, _solver=solver
    )


class _OrbitSolver:
    """Expresses action-fixed vectors in the orbit basis and verifies the
    expansion exactly (a failed residual means the vector left the span).

    The sub-basis of an orbit depends only on the orbit length ell, so the
    order x ell system is eliminated once per distinct ell: the rref of
    [mat | I] is [I_ell * ; 0 *] with an invertible right block E, and
    mat x = b exactly when E b is zero past ell, with x its first ell
    entries."""

    def __init__(self, cyclic: CyclicExtensionData, orbit_meta):
        self.cyclic = cyclic
        self.meta = []
        tower, f = cyclic.tower, cyclic.f_level
        transforms = {}
        offset = 0
        for positions, sub_basis in orbit_meta:
            ell = len(sub_basis)
            if ell not in transforms:
                cols = [x.coeffs() for x in sub_basis]
                mat = tuple(zip(*cols))  # order x ell over F
                ident = linalg.identity(tower, f, len(mat))
                red, _ = linalg.rref([row + e for row, e in zip(mat, ident)])
                transforms[ell] = tuple(row[ell:] for row in red)
            self.meta.append((positions, transforms[ell], offset))
            offset += ell
        self.total = offset
        self.tower = tower
        self.f_level = f

    def coordinates(self, z: dict):
        tower, f = self.tower, self.f_level
        zero = tower.zero(f)
        out = [zero] * self.total
        touched = dict(z)
        for positions, transform, offset in self.meta:
            rep = positions[0]
            val = touched.pop(rep, None)
            if val is None:
                # representative zero forces the whole orbit block to zero
                continue
            ell = len(positions)
            sol = linalg.matvec(transform, val.coeffs())
            if any(sol[ell:]):
                raise PreconditionError("vector is not in the fixed-basis span")
            out[offset : offset + ell] = sol[:ell]
            # consume and verify the non-representative positions
            for j, pos in enumerate(positions[1:], start=1):
                expect = self.cyclic.apply(val, j)
                got = touched.pop(pos, None)
                if got is None:
                    got = tower.zero(self.cyclic.k_level)
                if got != expect:
                    raise PreconditionError("vector is not action-fixed")
        for leftover in touched.values():
            if leftover:
                raise PreconditionError("vector is not action-fixed")
        return tuple(out)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


def central_simple_check(a: StructureConstantAlgebra) -> bool:
    """Center dimension 1 plus nondegenerate trace form: in characteristic 0
    this is exactly central simplicity."""
    if not a.check_unit():
        return False
    n = a.dim
    zero = a.tower.zero(a.level)

    # center: the kernel of the stacked commutator maps x -> e_i x - x e_i,
    # whose rows are kept in reduced echelon form one generator at a time;
    # check_unit put the scalars in the center, so rank n - 1 settles it
    echelon = ()
    for i in range(n):
        comm = [[zero] * n for _ in range(n)]
        for j in range(n):
            for k, c in a.row(i, j):
                comm[k][j] = c
            for k, c in a.row(j, i):
                comm[k][j] = comm[k][j] - c
        red, pivots = linalg.rref(echelon + tuple(tuple(r) for r in comm if any(r)))
        echelon = red[: len(pivots)]
        if len(echelon) == n - 1:
            break
    if len(echelon) != n - 1:
        return False

    # trace form nondegeneracy (semisimplicity in characteristic 0)
    tr = [zero] * n
    for k in range(n):
        acc = zero
        for m in range(n):
            for idx, c in a.row(k, m):
                if idx == m:
                    acc = acc + c
        tr[k] = acc
    tmat = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero
            for k, c in a.row(i, j):
                if tr[k]:
                    acc = acc + c * tr[k]
            row.append(acc)
        tmat.append(tuple(row))
    return linalg.rank(tuple(tmat)) == n


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
    tensor power (rank over K equals dim_K)."""
    rows = tuple(cor.fixed_basis)
    return linalg.rank(rows) == cor.tensor.dim


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

    l_coeffs = [QQ.rational(c) if not isinstance(c, TowerElement) else c for c in l_minpoly]
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
            c_val = -l_coeffs[0]
            probe = k_tower.rational(c_val.rational_value(), k_level_old)
            if sqrt_or_nonsquare(probe) is not None:
                return False  # L embeds into K: not linearly disjoint
        kl_coeffs = [t_l.rational(c, 1) for c in k_minpoly]
        t2 = tower_extend(t_l, kl_coeffs, label="KL")
        sigma2 = tuple(
            tuple(x.rational_value() for x in row) for row in cyclic.sigma
        )
        cyclic2 = CyclicExtensionData.create(t2, 2, sigma2, cyclic.order)

        # A over K -> A over KL (constant data reinterpreted over L)
        def embed_elem(x: TowerElement) -> TowerElement:
            coeffs = [t2.rational(c, 1) for c in (cv.rational_value() for cv in x.coeffs())]
            return t2.from_coeffs(2, coeffs)

        rows2 = tuple(
            tuple((k, embed_elem(c)) for k, c in row) for row in a.rows
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
                scalar = t2.rational(c.rational_value(), 1)
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
