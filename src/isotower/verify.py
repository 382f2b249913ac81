"""Independent certificate verification.

Everything here re-checks claims from the raw document form by exact
arithmetic, importing only the kernel (towers, square testing,
serialization).  No constructor code path is shared: form evaluation, norm
evaluation, tensor reconstruction, and degree accounting are reimplemented
on parsed data.

After parsing, the corestriction checks run on the kernel's raw nested
data, not on ``TowerElement`` wrappers: ``tower._mul`` for one product,
``tower._dot`` for each output coordinate as one sum of products (at F = Q
one integer sum, an ``int`` when every leaf is one), ``tower._is_zero`` and
``tower._raw_one`` for zero tests and units.  ``_dot`` takes pairs at one
level, so the checks embed mixed levels themselves: a coefficient over F
that multiplies a vector over K is lifted with ``tower._embed_up`` first.
Raw data is always reduced and zero-padded, so ``==`` on it is value
equality.  These primitives are the whole ring interface the checks use.
``_is_zero`` is structural: the kernel's shared zero per level only lets
``_mul`` and ``_dot`` skip zeros faster, so no check here depends on
object identity, and a parsed or hand-built zero that is not the shared
one is judged the same way.

Each verifier returns ``(ok, reason)`` where ``reason`` names the first
failing equation when ok is False.
"""

from __future__ import annotations

from .errors import MalformedCertificate
from .serialize import (
    _element_from_json,
    _zeros_of,
    element_from_json,
    gram_from_json,
    int_from_json,
    tower_from_json,
    vector_from_json,
)
from .sqrt import sqrt_or_nonsquare
from .tower import (
    KIND_SQRT,
    TowerElement,
    TowerField,
    _dot,
    _embed_up,
    _is_zero,
    _mul,
    _raw_one,
    dot,
    dot_matrix,
)


def _recheck_added_levels(tower: TowerField, base_levels: int):
    """Exact degree of the chain above ``base_levels``: every added level
    must be a quadratic X^2 - c with c a genuine nonsquare below.

    Returns (degree, reason_or_None)."""
    degree = 1
    for idx in range(base_levels, tower.height):
        level = tower.levels[idx]
        if level.degree != 2 or level.kind != KIND_SQRT:
            return degree, f"added level {idx + 1} is not of shape X^2 - c"
        c = -TowerElement(tower, idx, level.minpoly[0])
        if c.is_zero():
            return degree, f"added level {idx + 1} adjoins sqrt(0)"
        if sqrt_or_nonsquare(c) is not None:
            return degree, f"added level {idx + 1} adjoins a root that already exists"
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

    Quadratic levels are re-tested for irreducibility (X^2 - c via the square
    tiers, general quadratics via their discriminant).  A 2-extension has no
    level of odd degree > 1, so a level whose degree is not a power of 2
    fails; the others count nominally, their collapse being detectable only
    dynamically."""
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
                if sqrt_or_nonsquare(c) is not None:
                    return None, f"two-tower level {idx + 1} is reducible (square constant)"
            else:
                b = TowerElement(below, idx, level.minpoly[1])
                c = TowerElement(below, idx, level.minpoly[0])
                disc = b * b - 4 * c
                if disc.is_zero() or sqrt_or_nonsquare(disc) is not None:
                    return None, f"two-tower level {idx + 1} is reducible (square discriminant)"
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
    where row i*dim + j holds the pairs (k, c_ijk) with c_ijk != 0."""
    tower = tower_from_json(doc["field"])
    n = int_from_json(doc["dim"])
    constants = doc["constants"]
    if len(constants) != n or any(len(p) != n or any(len(r) != n for r in p) for p in constants):
        raise MalformedCertificate("constants shape does not match dim")
    # the canonical zero of a level needs no parse: only its level counts
    zeros = _zeros_of(tower)
    level = 0
    rows = []
    for plane in constants:
        for row in plane:
            entry = []
            for k, node in enumerate(row):
                if node == "0/1":
                    continue
                if node in zeros:
                    level = max(level, zeros.index(node))
                    continue
                c = _element_from_json(tower, node, zeros)
                level = max(level, c.level)
                if c:
                    entry.append((k, c))
            rows.append(tuple(entry))
    unit = vector_from_json(tower, doc["unit"])
    if len(unit) != n:
        raise MalformedCertificate("unit length does not match dim")
    return tower, level, n, rows, unit


def _unwrap_rows(rows, level):
    """Sparse rows of elements as rows of (k, raw data at ``level``)."""
    return [tuple((k, c.embed(level).data) for k, c in row) for row in rows]


def _wrap(tower, level, pairs) -> dict:
    """Pairs of position and raw data at ``level`` as a sparse vector of
    elements, for the echelon form."""
    return {pos: TowerElement(tower, level, x) for pos, x in pairs}


def _sums(ctx, level, terms: dict) -> dict:
    """Position -> one sum of products over the position's raw pairs at
    ``level``, zero sums dropped."""
    out = {}
    for pos, pairs in terms.items():
        v = _dot(ctx, level, pairs)
        if not _is_zero(v, level):
            out[pos] = v
    return out


def _echelon_reduce(pivots, vec) -> dict:
    """The sparse vector ``vec`` (a dict or pairs of position and nonzero
    value) reduced by the pivot rows in the order they were stored, with
    zero entries dropped; empty exactly when vec lies in their span."""
    row = dict(vec)
    for pos, prow in pivots:
        f = row.get(pos)
        if f:
            for q, v in prow.items():
                cur = row.get(q)
                row[q] = -(f * v) if cur is None else cur - f * v
    return {q: v for q, v in row.items() if v}


def _echelon_add(pivots, vec) -> bool:
    """Store vec's remainder scaled to 1 at its first position and return
    True, or return False when vec lies in the span of the pivot rows."""
    row = _echelon_reduce(pivots, vec)
    if not row:
        return False
    pos = min(row)
    inv = row[pos].inverse()
    pivots.append((pos, {q: v * inv for q, v in row.items()}))
    return True


def _independent(vectors) -> bool:
    """True when the sparse vectors, all over one field, are linearly
    independent: one running echelon form takes each in turn."""
    pivots: list = []
    return all(_echelon_add(pivots, vec) for vec in vectors)


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

    After parsing, every check runs on raw data: over F (the constants,
    unit, basis vectors and the z_m as {index: raw} dicts) and over K
    (sigma applied by rows of ``_dot``, the conjugate and tensor rows, the
    fixed basis, the unit target, ``combine`` and step (d)) through
    ``_mul``/``_dot``, compared structurally.  Only the sanity checks on
    sigma keep the wrapper form, and the echelon form for independence
    (fixed basis over K, spun vectors over F) takes each vector wrapped
    once."""
    try:
        source = doc["source"]
        adoc = source["algebra"]
        cdoc = source["cyclic"]
        k_tower, a_level, a_dim, a_rows, a_unit = _parse_algebra(adoc)
        cor_tower, cor_level, cor_dim, c_rows, cor_unit = _parse_algebra(doc)
        fixed_basis = [vector_from_json(k_tower, v) for v in doc["fixed_basis"]]
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
    if cor_level > k_level or any(x.level > k_level for v in [cor_unit, *fixed_basis] for x in v):
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
    a_rows = _unwrap_rows(a_rows, k_level)
    d = a_dim
    n = d**order
    if len(fixed_basis) != cor_dim:
        return False, f"fixed basis size {len(fixed_basis)} != cor dimension {cor_dim}"
    if n != cor_dim:
        return False, f"cor dimension {cor_dim} != (dim_K A)^r = {n}"
    conj_rows = [a_rows]
    for t in range(1, order):
        conj_rows.append(
            [tuple((k, sigma_raw(c, order - t)) for k, c in row) for row in a_rows]
        )

    def kron(legs):
        """Sparse Kronecker product over K of the legs' (index < d, raw value)
        pairs, the first leg most significant: the nonzero (flat index,
        product) pairs, each flat index once."""
        stack = [(0, _raw_one(ctx, k_level))]
        for leg in legs:
            stack = [
                (flat * d + k_t, _mul(ctx, k_level, coeff, c_t))
                for flat, coeff in stack
                for k_t, c_t in leg
            ]
        return tuple((flat, coeff) for flat, coeff in stack if not _is_zero(coeff, k_level))

    def tensor_row(i: int, j: int):
        legs = []
        for rows in reversed(conj_rows):  # the last leg is least significant
            i, a = divmod(i, d)
            j, b = divmod(j, d)
            legs.append(rows[a * d + b])
        return kron(legs[::-1])

    top = d ** (order - 1)  # leg 0's place value; perm rotates the legs left by one
    perm = [q % top * d + q // top for q in range(n)]

    sparse_fb = []
    for bi, vec in enumerate(fixed_basis):
        if len(vec) != n:
            return False, f"fixed basis vector {bi} has wrong length"
        emb = [x.embed(k_level).data for x in vec]
        for q in range(n):
            src = emb[perm[q]]
            if _is_zero(src, k_level):  # sigma is F-linear
                image = src
            else:
                image = sigma_raw(src, order - 1)
            if image != emb[q]:
                return False, f"fixed basis vector {bi} is not fixed by the action"
        sparse_fb.append(tuple((pos, x) for pos, x in enumerate(emb) if not _is_zero(x, k_level)))
    if not _independent(_wrap(k_tower, k_level, vec) for vec in sparse_fb):
        return False, "fixed basis is not linearly independent over K"

    def combine(pairs) -> dict:
        """sum of c * (fixed basis vector k) over the pairs (k, c) with c
        over F: one sum of products per position, zero entries dropped."""
        terms: dict[int, list] = {}
        for kk, c in pairs:
            if not _is_zero(c, f_level):
                c = _embed_up(ctx, f_level, c, k_level)
                for pos, val in sparse_fb[kk]:
                    terms.setdefault(pos, []).append((c, val))
        return _sums(ctx, k_level, terms)

    # claimed unit coordinates must combine to the tensor unit 1 x ... x 1
    unit_sparse = [(idx, c.embed(k_level).data) for idx, c in enumerate(a_unit) if c]
    unit_target = dict(
        kron([[(idx, sigma_raw(c, order - t)) for idx, c in unit_sparse] for t in range(order)])
    )
    cor_unit = [c.embed(f_level).data for c in cor_unit]
    if combine(enumerate(cor_unit)) != unit_target:
        return False, "claimed unit does not combine to the tensor identity"

    c_rows = _unwrap_rows(c_rows, f_level)

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

    # (b) spin the unit to a basis z_m = L_{s_m} z_{p(m)} under generators S;
    # the echelon form takes each vector wrapped once
    zs, steps, gens, pivots = [unit], [None], [], []
    _echelon_add(pivots, _wrap(k_tower, f_level, unit.items()))
    for s in range(n):
        if not _echelon_reduce(pivots, _wrap(k_tower, f_level, basis[s].items())):
            continue
        gens.append(s)
        todo = [(s, p) for p in range(len(zs))]
        for g, p in todo:  # grows while it is walked: each new z meets all of S
            z = basis_times(g, zs[p])
            if _echelon_add(pivots, _wrap(k_tower, f_level, z.items())):
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

    # (d) claimed structure constants hold inside the tensor power on S x basis
    row_cache: dict[tuple[int, int], tuple] = {}
    for i in gens:
        for j in range(cor_dim):
            terms: dict[int, list] = {}
            for pi, xi in sparse_fb[i]:
                for pj, yj in sparse_fb[j]:
                    key = (pi, pj)
                    row = row_cache.get(key)
                    if row is None:
                        row = tensor_row(pi, pj)
                        row_cache[key] = row
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
