"""Independent certificate verification.

Everything here re-checks claims from the raw document form by exact
arithmetic, importing only the kernel (towers, serialization) and the
Legendre-witness search (``witness``).  No other code path is shared with
the constructors: form evaluation, norm evaluation, tensor reconstruction,
and degree accounting are reimplemented on parsed data.

From the JSON on, the corestriction checks run on the kernel's raw nested
data, not on ``TowerElement`` wrappers: the constants and the fixed basis
are parsed straight to it.  ``tower._mul`` forms one product, ``tower._dot``
each output coordinate as one sum of products (at F = Q one integer sum),
``tower._sub`` each echelon update, and ``tower._is_zero`` and
``tower._raw_one`` test zeros and give units.  ``_dot`` takes pairs at one
level, so a coefficient over F that multiplies a vector over K is lifted
with ``tower._embed_up`` first.  Raw data is always reduced and
zero-padded, so ``==`` on it is value equality.  ``_is_zero`` is
structural: the kernel's shared zero per level only lets ``_mul`` and
``_dot`` skip zeros faster, so no check here depends on object identity.

Each verifier returns ``(ok, reason)`` where ``reason`` names the first
failing equation when ok is False.
"""

from __future__ import annotations

from functools import cache

from .errors import MalformedCertificate
from .serialize import (
    _raw_from_json,
    _raw_vector_from_json,
    _zeros_of,
    element_from_json,
    gram_from_json,
    int_from_json,
    tower_from_json,
    vector_from_json,
)
from .tower import (
    KIND_SQRT,
    TowerElement,
    TowerField,
    _dot,
    _embed_up,
    _is_zero,
    _mul,
    _raw_one,
    _raw_zero,
    _sub,
    dot,
    dot_matrix,
)
from .witness import _nonsquare_witness, rational_sqrt

_WITNESS_PRIMES = 563  # the odd primes below 2^12


def sqrt_or_nonsquare(c: TowerElement, square: str) -> str | None:
    """None when c is proved a nonsquare at its own level, else why not:
    ``square`` for zero or a rational square; above level 0, where even a
    rational needs one (8 = (2 sqrt 2)^2), no witness below 2^12.  It keeps
    the constructors' name because perfbench's tracer patches that."""
    if c.is_zero() or (c.level == 0 and rational_sqrt(c.data) is not None):
        return square
    if c.level and _nonsquare_witness(c.tower, c.level, c.data, _WITNESS_PRIMES) is None:
        return "has no nonsquare witness below 2^12"
    return None


def _recheck_added_levels(tower: TowerField, base_levels: int):
    """Exact degree of the chain above ``base_levels``: every added level
    must be a quadratic X^2 - c with c proved a nonsquare below.

    Returns (degree, reason_or_None)."""
    degree = 1
    for idx in range(base_levels, tower.height):
        level = tower.levels[idx]
        if level.degree != 2 or level.kind != KIND_SQRT:
            return degree, f"added level {idx + 1} is not of shape X^2 - c"
        c = -TowerElement(tower, idx, level.minpoly[0])
        if c.is_zero():
            return degree, f"added level {idx + 1} adjoins sqrt(0)"
        reason = sqrt_or_nonsquare(c, "adjoins a root that already exists")
        if reason is not None:
            return degree, f"added level {idx + 1} {reason}"
        degree *= 2
    return degree, None


def verify_isotropy(doc: dict) -> tuple[bool, str]:
    """witness != 0, every form vanishes exactly at the witness over the
    certificate tower, the added chain is genuinely quadratic, and the
    recomputed degree matches actual_degree <= claimed_bound, where
    claimed_bound is the theorem's 2^r for r forms in dim >= r(r+1)/2 + 1."""
    try:
        tower = tower_from_json(doc["tower"])
        witness = vector_from_json(tower, doc["witness"])
        grams = [gram_from_json(tower, g) for g in doc["forms"]]
        claimed = int_from_json(doc["claimed_bound"])
        actual = int_from_json(doc["actual_degree"])
    except (KeyError, TypeError) as exc:
        raise MalformedCertificate(f"isotropy certificate missing or mistyped field: {exc}") from exc
    for idx, gram in enumerate(grams):
        _check_symmetric(gram, idx)
    if not grams or not witness:
        return False, "certificate has no forms or empty witness"
    if not any(witness):
        return False, "witness = 0"
    r, dim = len(grams), len(witness)
    if claimed != 2**r:
        return False, f"claimed_bound {claimed} != 2^r = {2**r} for {r} forms"
    if dim < r * (r + 1) // 2 + 1:
        return False, f"dim {dim} < r(r+1)/2 + 1 = {r * (r + 1) // 2 + 1} for {r} forms"
    for idx, gram in enumerate(grams):
        if len(gram) != len(witness):
            return False, f"form {idx + 1} dimension does not match the witness"
        gw = [e for (e,) in dot_matrix(gram, (witness,))]
        val = dot(witness, gw)  # w^T G w
        if not val.is_zero():
            return False, f"form {idx + 1} at witness = {val} != 0"
    base_levels = grams[0][0][0].level
    recomputed, reason = _recheck_added_levels(tower, base_levels)
    if reason is not None:
        return False, reason
    if recomputed != actual:
        return False, f"actual_degree {actual} != recomputed degree {recomputed}"
    if actual > claimed:
        return False, f"actual_degree {actual} > claimed_bound {claimed}"
    return True, f"degree {actual} <= {claimed}, all {len(grams)} forms vanish exactly"


def _check_symmetric(gram, idx: int) -> None:
    """A Gram matrix that is not square and symmetric is malformed, as
    ``isotower isotropy --input`` reads it.  Entries are compared as raw
    (level, data) first and as values only when those differ."""
    n = len(gram)
    if any(len(row) != n for row in gram):
        raise MalformedCertificate(f"form {idx + 1}: gram matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            a, b = gram[i][j], gram[j][i]
            if (a.level, a.data) != (b.level, b.data) and a != b:
                raise MalformedCertificate(f"form {idx + 1}: gram matrix must be symmetric")


def _two_tower_degree(two_tower: TowerField):
    """Exact degree of an F-side recipe over the rationals.

    Quadratic levels are re-tested for irreducibility by
    :func:`sqrt_or_nonsquare` (X^2 - c on c, others on the discriminant).
    A 2-extension has no level of odd degree > 1, so a level whose degree is
    not a power of 2 fails; the others count nominally, their collapse being
    detectable only dynamically."""
    degree = 1
    for idx, level in enumerate(two_tower.levels):
        if level.degree & (level.degree - 1):
            return None, f"two-tower level {idx + 1} has degree {level.degree}, not a power of 2"
        if level.degree == 2:
            below = two_tower.prefix(idx)
            if level.kind == KIND_SQRT:
                c = -TowerElement(below, idx, level.minpoly[0])
                if c.is_zero():
                    return None, f"two-tower level {idx + 1} adjoins sqrt(0)"
                reason = sqrt_or_nonsquare(c, "is reducible (square constant)")
            else:
                b = TowerElement(below, idx, level.minpoly[1])
                c = TowerElement(below, idx, level.minpoly[0])
                reason = sqrt_or_nonsquare(b * b - 4 * c, "is reducible (square discriminant)")
            if reason is not None:
                return None, f"two-tower level {idx + 1} {reason}"
        degree *= level.degree
    return degree, None


def verify_split(doc: dict) -> tuple[bool, str]:
    """witness != 0, N_Q(witness) = 0 exactly over the certificate tower, the
    tower extends K's by quadratic levels, and the re-derived two-tower
    degree equals degree_over_F <= 2^[K:F]."""
    try:
        qdoc = doc["quaternion"]
        k_tower = tower_from_json(qdoc["field"])
        tower = tower_from_json(doc["tower"])
        two_tower = tower_from_json(doc["two_tower"])
        witness = vector_from_json(tower, doc["witness"])
        claimed = int_from_json(doc["claimed_bound"])
        degree_f = int_from_json(doc["degree_over_F"])
        pres = qdoc["presentation"]
        if pres == "standard":
            u = element_from_json(k_tower, qdoc["u"])
            v = element_from_json(k_tower, qdoc["v"])
        elif pres == "bracket":
            a = element_from_json(k_tower, qdoc["a"])
            u = 1 + 4 * a
            v = element_from_json(k_tower, qdoc["b"])
        else:
            return False, f"unknown presentation {pres!r}"
    except (KeyError, TypeError) as exc:
        raise MalformedCertificate(f"split certificate missing or mistyped field: {exc}") from exc
    if u.is_zero() or v.is_zero():
        return False, "degenerate quaternion entries"
    if len(witness) != 4:
        return False, "witness must be a 4-vector"
    if not any(witness):
        return False, "witness = 0"
    if tower.levels[: k_tower.height] != k_tower.levels:
        return False, "certificate tower does not extend the quaternion's field"
    for idx in range(k_tower.height, tower.height):
        if tower.levels[idx].degree != 2:
            return False, f"compositum level {idx + 1} is not quadratic"
    # u, v and uv stay at K's level: one sum of products over the squares
    ue, ve = u.in_tower(tower), v.in_tower(tower)
    val = dot((tower.one(0), -ue, -ve, ue * ve), [x.square() for x in witness])
    if not val.is_zero():
        return False, f"N_Q(witness) = {val} != 0"
    recomputed, reason = _two_tower_degree(two_tower)
    if reason is not None:
        return False, reason
    if recomputed != degree_f:
        return False, f"degree_over_F {degree_f} != recomputed {recomputed}"
    dk = k_tower.absolute_degree()
    if claimed != 2**dk:
        return False, f"claimed_bound {claimed} != 2^[K:F] = {2 ** dk}"
    if degree_f > claimed:
        return False, f"degree_over_F {degree_f} > claimed_bound {claimed}"
    return True, f"degree_over_F {degree_f} <= {claimed}, norm vanishes exactly"


# -- corestriction results -------------------------------------------------------


def _parse_algebra(doc: dict):
    """(tower, highest level of a constant, dim, sparse constant rows, unit),
    where row i*dim + j holds the triples (k, level, raw c_ijk) with
    c_ijk != 0 and the unit is a vector of elements."""
    tower = tower_from_json(doc["field"])
    n = int_from_json(doc["dim"])
    constants = doc["constants"]
    if len(constants) != n or any(len(p) != n or any(len(r) != n for r in p) for p in constants):
        raise MalformedCertificate("constants shape does not match dim")
    zeros, level, rows = _zeros_of(tower), 0, []
    for plane in constants:
        for row in plane:
            entry = []
            for k, node in enumerate(row):
                if node == "0/1":  # a zero whose level, 0, raises nothing
                    continue
                lv, c = _raw_from_json(tower, node, zeros)
                level = max(level, lv)
                if not _is_zero(c, lv):
                    entry.append((k, lv, c))
            rows.append(entry)
    # the small units are read as elements (perfbench counts this call)
    unit = vector_from_json(tower, doc["unit"])
    if len(unit) != n:
        raise MalformedCertificate("unit length does not match dim")
    return tower, level, n, rows, unit


def _sums(ctx, level, terms: dict) -> dict:
    """Position -> one sum of products over the position's raw pairs at
    ``level``, zero sums dropped."""
    out = {}
    for pos, pairs in terms.items():
        v = _dot(ctx, level, pairs)
        if not _is_zero(v, level):
            out[pos] = v
    return out


def _echelon_reduce(ctx, level, pivots, vec) -> dict:
    """The sparse raw vector ``vec`` (a dict or pairs of position and
    nonzero value at ``level``) reduced by the pivot rows in the order they
    were stored, zeros dropped; empty exactly when vec lies in their span."""
    row, zero = dict(vec), _raw_zero(ctx, level)
    for pos, prow in pivots:
        if pos in row:
            f = row.pop(pos)
            for q, v in prow:
                x = row[q] = _sub(ctx, level, row.get(q, zero), _mul(ctx, level, f, v))
                if _is_zero(x, level):
                    del row[q]
    return row


def _echelon_add(tower, level, pivots, vec) -> bool:
    """Store vec's remainder scaled to 1 at its first position and return
    True, or return False when vec lies in the span of the pivot rows.  A
    pivot row is (its position, its other (position, raw value) pairs)."""
    row = _echelon_reduce(tower._ctx, level, pivots, vec)
    if not row:
        return False
    pos = min(row)
    # the one wrapped element of the corestriction checks: perfbench's
    # tower.inv binding on corestrict-quadratic is reached only here
    inv = TowerElement(tower, level, row.pop(pos)).inverse().data
    pivots.append((pos, tuple([(q, _mul(tower._ctx, level, v, inv)) for q, v in row.items()])))
    return True


def _independent(tower, level, vectors) -> bool:
    """True when the sparse raw vectors, all at ``level`` of ``tower``, are
    linearly independent: one running echelon form takes each in turn."""
    pivots: list = []
    return all(_echelon_add(tower, level, pivots, vec) for vec in vectors)


def _rotation(d: int, r: int):
    """(perm, reps) on r tensor legs of dimension d, the first most significant:
    perm rotates the legs left by one, reps holds each cycle's least position."""
    top, n = d ** (r - 1), d**r  # leg 0's place value, the positions
    perm = [q % top * d + q // top for q in range(n)]
    # q's cycle holds its rotations by k legs, k < r
    rots = [(d ** (r - k), d**k) for k in range(1, r)]
    return perm, {q for q in range(n) if all(q <= q % lo * hi + q // lo for lo, hi in rots)}


def verify_cor(doc: dict) -> tuple[bool, str]:
    """Re-check a corestriction result from its source data: it lives over
    the source algebra's field with constants and unit in F, sigma generates
    Gal(K/F), the fixed basis really is action-fixed and independent over K,
    multiplies according to the claimed structure constants inside the
    rebuilt tensor power, combines to the tensor unit, and satisfies the
    degree formula.

    Products are rebuilt in the tensor power only for f_s with s in a set S
    of generators (meat-axe spinning).  Write phi(y) = sum_k y_k (fixed
    basis vector k) for y in F^n, L_x for left multiplication by x on the
    claimed constants, L_s = L_{f_s} and b_s = phi(f_s).  Checked:
    (a) L_u f_k = f_k for the claimed unit u and every k; (b) vectors
    z_0 = u, z_m = L_{s_m} z_{p(m)} with s_m in S and p(m) < m span F^n;
    (c) L_{z_m} f_k = L_{s_m}(L_{z_p(m)} f_k) for m >= 1 and every k;
    (d) phi(f_s) phi(f_j) = phi(L_s f_j) for s in S and every j; and
    phi(u) = 1.  By (d) and linearity, phi(L_s y) = b_s phi(y) for every y.
    Let b_w be the product of the b_s along the word that built z_m and P_w
    the matching composition of the L_s.  Induction on m gives
    phi(z_m) = b_w phi(u) = b_w and phi(P_w y) = b_w phi(y); (a) and (c)
    give L_{z_m} = P_w.  So phi(z_m) phi(y) = phi(L_{z_m} y) for every y.
    Both sides are F-bilinear and the z_m span F^n, so
    phi(f_i) phi(f_j) = phi(f_i f_j) for all i, j.

    (e) (d) and phi(u) = 1 are compared only at the least position of each
    cycle of perm.  T(x)[q] = sigma^-1(x[perm q]) is a sigma^-1-semilinear
    ring automorphism of the rebuilt tensor power: leg t's constants are
    sigma^-t(A), sigma is an F-automorphism and sigma^r = 1, all checked
    before (d).  Every phi(f_k) is checked T-fixed, so phi(f_i) phi(f_j),
    each sum c_k phi(f_k) with c_k in F and the tensor unit are T-fixed.  A
    T-fixed x has x[perm q] = sigma(x[q]), so it is determined by its
    values there, and the first failing (i, j) is the same.

    Only sigma, its sanity checks, the small units and each pivot inverted
    by the echelon form keep the wrapper form (see the module docstring)."""
    try:
        adoc, cdoc = doc["source"]["algebra"], doc["source"]["cyclic"]
        k_tower, a_level, a_dim, a_rows, a_unit = _parse_algebra(adoc)
        cor_tower, cor_level, cor_dim, c_rows, cor_unit = _parse_algebra(doc)
        fixed_basis = [_raw_vector_from_json(k_tower, v) for v in doc["fixed_basis"]]
        order = int_from_json(cdoc["order"])
        k_level = int_from_json(cdoc["k_level"])
        sigma = [[element_from_json(k_tower, x) for x in row] for row in cdoc["sigma"]]
    except (KeyError, TypeError) as exc:
        raise MalformedCertificate(f"cor result missing or mistyped field: {exc}") from exc
    if not 1 <= k_level <= k_tower.height:
        raise MalformedCertificate(f"k_level {k_level} is not a level above the base field")
    if len(sigma) != order or any(len(row) != order for row in sigma):
        raise MalformedCertificate(f"sigma is not a {order} x {order} matrix")
    if cor_tower != k_tower:
        return False, "cor field is not the source algebra's field"
    levels = [lv for v in fixed_basis for lv, _x in v] + [x.level for x in cor_unit]
    if max([cor_level, *levels]) > k_level:
        raise MalformedCertificate("cor constants, unit or fixed basis entries lie above the K level")
    if a_level > k_level or any(c.level > k_level for c in a_unit):
        return False, "source algebra entries live above the K level"
    k_degree = k_tower.levels[k_level - 1].degree
    if order != k_degree:
        return False, f"order {order} != [K:F] = {k_degree}"

    f_level = k_level - 1
    if any(x.level > f_level for row in sigma for x in row):
        return False, "sigma has entries outside F"
    if cor_level > f_level or any(c.level > f_level for c in cor_unit):
        return False, "cor constants or unit have entries outside F"
    ctx = k_tower._ctx
    gen = k_tower.gen(k_level)
    sigma_rows = [[(j, x.embed(f_level).data) for j, x in enumerate(row) if x] for row in sigma]

    def sigma_raw(x, power: int):
        """sigma^power of the raw value x of K: each coordinate over F is
        one sum of products with a row of sigma."""
        for _ in range(power % order):
            x = tuple(_dot(ctx, f_level, [(m, x[j]) for j, m in row]) for row in sigma_rows)
        return x

    def sigma_apply(x: TowerElement, power: int) -> TowerElement:
        return TowerElement(k_tower, k_level, sigma_raw(x.embed(k_level).data, power))

    # sigma is the F-automorphism gen -> sigma(gen) of K, of order exactly [K:F]
    sg = sigma_apply(gen, 1)
    power, image = k_tower.one(k_level), k_tower.one(k_level)
    for j in range(order):
        if sigma_apply(power, 1) != image:
            return False, f"sigma(gen^{j}) != sigma(gen)^{j}"
        power, image = power * gen, image * sg
    root = k_tower.zero(k_level)
    for c in reversed(k_tower.levels[k_level - 1].minpoly):
        root = root * sg + TowerElement(k_tower, f_level, c).embed(k_level)
    if not root.is_zero():
        return False, "sigma(gen) is not a root of the minimal polynomial of K"
    x = gen
    for j in range(1, order):
        x = sigma_apply(x, 1)
        if x == gen:
            return False, f"sigma has order {j} < [K:F] = {order}"
    if sigma_apply(x, 1) != gen:
        return False, f"sigma^{order} is not the identity"

    # from here on every value is raw data, at K's level or at F's; raw data
    # is reduced and zero-padded, so == compares values
    a_rows = [tuple([(k, _embed_up(ctx, lv, c, k_level)) for k, lv, c in row]) for row in a_rows]
    d, n = a_dim, a_dim**order
    if len(fixed_basis) != cor_dim:
        return False, f"fixed basis size {len(fixed_basis)} != cor dimension {cor_dim}"
    if n != cor_dim:
        return False, f"cor dimension {cor_dim} != (dim_K A)^r = {n}"
    conj_rows = [[tuple((k, sigma_raw(c, -t)) for k, c in row) for row in a_rows] for t in range(order)]
    perm, reps = _rotation(d, order)

    def kron(legs):
        """Sparse Kronecker product over K of the legs' (index < d, raw value)
        pairs, the first leg most significant: the nonzero (flat index,
        product) pairs, each flat index once, at the representatives only
        (step (e)); the last leg forms no product elsewhere."""
        stack = [(0, _raw_one(ctx, k_level))]
        for t, leg in enumerate(legs, 1 - len(legs)):  # t = 0 at the last leg
            stack = [
                (flat * d + k_t, _mul(ctx, k_level, coeff, c_t))
                for flat, coeff in stack
                for k_t, c_t in leg
                if t or flat * d + k_t in reps
            ]
        return tuple((flat, coeff) for flat, coeff in stack if not _is_zero(coeff, k_level))

    @cache
    def tensor_row(i: int, j: int):
        legs = []
        for rows in reversed(conj_rows):  # the last leg is least significant
            i, a = divmod(i, d)
            j, b = divmod(j, d)
            legs.append(rows[a * d + b])
        return kron(legs[::-1])

    sparse_fb = []
    for bi, vec in enumerate(fixed_basis):
        if len(vec) != n:
            return False, f"fixed basis vector {bi} has wrong length"
        emb = [_embed_up(ctx, lv, x, k_level) for lv, x in vec]
        for q, p in enumerate(perm):
            src = emb[p]  # sigma is F-linear, so it fixes a zero
            if (src if _is_zero(src, k_level) else sigma_raw(src, -1)) != emb[q]:
                return False, f"fixed basis vector {bi} is not fixed by the action"
        sparse_fb.append(tuple((pos, x) for pos, x in enumerate(emb) if not _is_zero(x, k_level)))
    if not _independent(k_tower, k_level, sparse_fb):
        return False, "fixed basis is not linearly independent over K"
    fb_reps = [tuple((pos, x) for pos, x in vec if pos in reps) for vec in sparse_fb]

    def combine(pairs) -> dict:
        """sum of c * (fixed basis vector k) at the representatives, over
        the pairs (k, c) with c over F: one sum of products per position,
        zero entries dropped."""
        terms: dict[int, list] = {}
        for kk, c in pairs:
            if not _is_zero(c, f_level):
                c = _embed_up(ctx, f_level, c, k_level)
                for pos, val in fb_reps[kk]:
                    terms.setdefault(pos, []).append((c, val))
        return _sums(ctx, k_level, terms)

    # claimed unit coordinates must combine to the tensor unit 1 x ... x 1,
    # compared at the representatives (step (e))
    unit_sparse = [(idx, c.embed(k_level).data) for idx, c in enumerate(a_unit) if c]
    unit_target = dict(kron([[(i, sigma_raw(c, -t)) for i, c in unit_sparse] for t in range(order)]))
    cor_unit = [c.embed(f_level).data for c in cor_unit]
    if combine(enumerate(cor_unit)) != unit_target:
        return False, "claimed unit does not combine to the tensor identity"

    c_rows = [tuple([(k, _embed_up(ctx, lv, c, f_level)) for k, lv, c in row]) for row in c_rows]

    def lin(terms) -> dict:
        """sum of f * (constants row ij) over the terms (f, ij), zeros
        dropped: one sum of products per coordinate."""
        out: dict[int, list] = {}
        for f, ij in terms:
            for kk, c in c_rows[ij]:
                out.setdefault(kk, []).append((f, c))
        return _sums(ctx, f_level, out)

    def times_basis(x: dict, k: int) -> dict:  # L_x f_k, x over F
        return lin((xi, i * n + k) for i, xi in x.items())

    def basis_times(s: int, y: dict) -> dict:  # L_s y, y over F
        return lin((yj, s * n + j) for j, yj in y.items())

    # (a) the claimed unit is a left identity
    one_f = _raw_one(ctx, f_level)
    basis = [{kk: one_f} for kk in range(n)]
    unit = {i: c for i, c in enumerate(cor_unit) if not _is_zero(c, f_level)}
    if any(times_basis(unit, k) != basis[k] for k in range(n)):
        return False, "claimed unit is not a left identity for the claimed constants"

    # (b) spin the unit to a basis z_m = L_{s_m} z_{p(m)} under generators S
    zs, steps, gens, pivots = [unit], [None], [], []
    _echelon_add(k_tower, f_level, pivots, unit)
    for s in range(n):
        if not _echelon_reduce(ctx, f_level, pivots, basis[s]):
            continue
        gens.append(s)
        todo = [(s, p) for p in range(len(zs))]
        for g, p in todo:  # grows while it is walked: each new z meets all of S
            z = basis_times(g, zs[p])
            if _echelon_add(k_tower, f_level, pivots, z):
                todo += [(h, len(zs)) for h in gens]
                zs.append(z)
                steps.append((g, p))
                if len(zs) == n:
                    break
    if len(zs) < n:
        return False, f"the unit spins to only {len(zs)} of {n} dimensions"

    # (c) L_{z_m} = L_{s_m} L_{z_p(m)} on every basis vector
    left_z = [basis]
    for m in range(1, n):
        g, p = steps[m]
        row = [times_basis(zs[m], kk) for kk in range(n)]
        if any(row[kk] != basis_times(g, left_z[p][kk]) for kk in range(n)):
            return False, f"claimed constants are not associative at spin step {m}"
        left_z.append(row)

    # (d) claimed structure constants hold inside the tensor power on S x
    # basis, compared at the representatives (step (e))
    for i in gens:
        for j in range(cor_dim):
            terms: dict[int, list] = {}
            for pi, xi in sparse_fb[i]:
                for pj, yj in sparse_fb[j]:
                    row = tensor_row(pi, pj)
                    if not row:
                        continue
                    f = _mul(ctx, k_level, xi, yj)
                    for kk, c in row:
                        terms.setdefault(kk, []).append((f, c))
            if _sums(ctx, k_level, terms) != combine(c_rows[i * n + j]):
                return False, f"product f_{i} f_{j} does not match the claimed constants"
    return True, (
        f"cor dimension {cor_dim} = (dim_K A)^r, sigma of order [K:F], "
        f"basis fixed and independent, products exact on {len(gens)} generators"
    )


def classify_document(doc: dict) -> str:
    if not isinstance(doc, dict):
        raise MalformedCertificate("a certificate must be a JSON object")
    if "quaternion" in doc:
        return "split"
    if "fixed_basis" in doc:
        return "cor"
    if "forms" in doc and "witness" in doc:
        return "isotropy"
    raise MalformedCertificate("unrecognized certificate document")


def verify_any(doc: dict) -> tuple[str, bool, str]:
    kind = classify_document(doc)
    if kind == "split":
        ok, reason = verify_split(doc)
    elif kind == "cor":
        ok, reason = verify_cor(doc)
    else:
        ok, reason = verify_isotropy(doc)
    return kind, ok, reason


__all__ = [
    "verify_isotropy",
    "verify_split",
    "verify_cor",
    "verify_any",
    "classify_document",
]
