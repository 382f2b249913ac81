"""Independent certificate verification.

Everything here re-checks claims from the raw document form by exact
arithmetic, importing only the kernel (towers, square testing,
serialization).  No constructor code path is shared: form evaluation, norm
evaluation, tensor reconstruction, and degree accounting are reimplemented
on parsed data.

Each verifier returns ``(ok, reason)`` where ``reason`` names the first
failing equation when ok is False.
"""

from __future__ import annotations

from .errors import MalformedCertificate
from .serialize import (
    element_from_json,
    gram_from_json,
    int_from_json,
    tower_from_json,
    vector_from_json,
)
from .sqrt import sqrt_or_nonsquare
from .tower import KIND_SQRT, TowerElement, TowerField, dot


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
        raise MalformedCertificate(f"isotropy certificate missing field: {exc}") from exc
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
        if len(gram) != len(witness) or any(len(r) != len(witness) for r in gram):
            return False, f"form {idx + 1} dimension does not match the witness"
        val = dot(witness, [dot(row, witness) for row in gram])  # w^T G w
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


def _two_tower_degree(two_tower: TowerField):
    """Exact degree of an F-side recipe over the rationals.

    Quadratic levels are re-tested for irreducibility (X^2 - c via the square
    tiers, general quadratics via their discriminant); levels of degree >= 3
    count nominally, their collapse being detectable only dynamically."""
    degree = 1
    for idx, level in enumerate(two_tower.levels):
        if level.degree == 2:
            below = TowerField(two_tower.levels[:idx])
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
        raise MalformedCertificate(f"split certificate missing field: {exc}") from exc
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
    top = tower.height
    ue = u.in_tower(tower).embed(top)
    ve = v.in_tower(tower).embed(top)
    w = [x.embed(top) for x in witness]
    val = (
        w[0].square()
        - ue * w[1].square()
        - ve * w[2].square()
        + (ue * ve) * w[3].square()
    )
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
    tower = tower_from_json(doc["field"])
    n = int_from_json(doc["dim"])
    constants = doc["constants"]
    level = 0
    parsed = []
    for plane in constants:
        prow = []
        for row in plane:
            entries = [element_from_json(tower, c) for c in row]
            for e in entries:
                level = max(level, e.level)
            prow.append(entries)
        parsed.append(prow)
    unit = vector_from_json(tower, doc["unit"])
    if len(parsed) != n or any(len(p) != n or any(len(r) != n for r in p) for p in parsed):
        raise MalformedCertificate("constants shape does not match dim")
    if len(unit) != n:
        raise MalformedCertificate("unit length does not match dim")
    return tower, level, n, parsed, unit


def _sparse_rows(tower, level, n, parsed):
    rows = []
    for i in range(n):
        for j in range(n):
            entry = []
            for k in range(n):
                c = parsed[i][j][k].in_tower(tower).embed(level)
                if c:
                    entry.append((k, c))
            rows.append(tuple(entry))
    return rows


def _independent(vectors) -> bool:
    """True when the sparse vectors (tuples of (position, nonzero value), all
    over one field) are linearly independent.  Each vector is reduced by the
    stored pivot vectors in the order they were stored, then stored scaled
    to 1 at its first remaining position; a vector that reduces to 0 is
    dependent."""
    pivots = []
    for vec in vectors:
        row = dict(vec)
        for pos, prow in pivots:
            f = row.get(pos)
            if f:
                for q, v in prow.items():
                    cur = row.get(q)
                    row[q] = -(f * v) if cur is None else cur - f * v
        row = {q: v for q, v in row.items() if v}
        if not row:
            return False
        pos = min(row)
        inv = row[pos].inverse()
        pivots.append((pos, {q: v * inv for q, v in row.items()}))
    return True


def verify_cor(doc: dict) -> tuple[bool, str]:
    """Re-check a corestriction result from its source data: it lives over
    the source algebra's field with constants and unit in F, sigma generates
    Gal(K/F), the fixed basis really is action-fixed and independent over K,
    multiplies according to the claimed structure constants inside the
    rebuilt tensor power, combines to the tensor unit, and satisfies the
    degree formula."""
    try:
        source = doc["source"]
        adoc = source["algebra"]
        cdoc = source["cyclic"]
        k_tower, a_level, a_dim, a_parsed, a_unit = _parse_algebra(adoc)
        cor_tower, cor_level, cor_dim, cor_parsed, cor_unit = _parse_algebra(doc)
        fixed_basis = [vector_from_json(k_tower, v) for v in doc["fixed_basis"]]
        order = int_from_json(cdoc["order"])
        k_level = int_from_json(cdoc["k_level"])
        sigma = [[element_from_json(k_tower, x) for x in row] for row in cdoc["sigma"]]
    except (KeyError, TypeError) as exc:
        raise MalformedCertificate(f"cor result missing field: {exc}") from exc
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
    zero_f = k_tower.zero(f_level)
    gen = k_tower.gen(k_level)

    def sigma_apply(x: TowerElement, power: int) -> TowerElement:
        coords = list(x.embed(k_level).coeffs())
        for _ in range(power % order):
            nxt = []
            for i in range(order):
                acc = zero_f
                for j in range(order):
                    if coords[j]:
                        acc = acc + sigma[i][j] * coords[j]
                nxt.append(acc)
            coords = nxt
        out = k_tower.zero(k_level)
        for c in reversed(coords):
            out = out * gen + c.embed(k_level)
        return out

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

    a_rows = _sparse_rows(k_tower, k_level, a_dim, a_parsed)
    d = a_dim
    n = d**order
    if len(fixed_basis) != cor_dim:
        return False, f"fixed basis size {len(fixed_basis)} != cor dimension {cor_dim}"
    if n != cor_dim:
        return False, f"cor dimension {cor_dim} != (dim_K A)^r = {n}"
    conj_rows = [a_rows]
    for t in range(1, order):
        conj_rows.append(
            [tuple((k, sigma_apply(c, order - t)) for k, c in row) for row in a_rows]
        )

    def tensor_row(i: int, j: int):
        idig = _digits(i, d, order)
        jdig = _digits(j, d, order)
        legs = [conj_rows[t][idig[t] * d + jdig[t]] for t in range(order)]
        if any(not leg for leg in legs):
            return ()
        stack = [(0, k_tower.one(k_level))]
        for leg in legs:
            stack = [(flat * d + k_t, coeff * c_t) for flat, coeff in stack for k_t, c_t in leg]
        return tuple((flat, coeff) for flat, coeff in stack if coeff)

    perm = []
    for q in range(n):
        dig = _digits(q, d, order)
        rot = dig[1:] + dig[:1]
        flat = 0
        for dd in rot:
            flat = flat * d + dd
        perm.append(flat)

    sparse_fb = []
    for bi, vec in enumerate(fixed_basis):
        if len(vec) != n:
            return False, f"fixed basis vector {bi} has wrong length"
        emb = [x.embed(k_level) for x in vec]
        for q in range(n):
            if sigma_apply(emb[perm[q]], order - 1) != emb[q]:
                return False, f"fixed basis vector {bi} is not fixed by the action"
        sparse_fb.append(tuple((pos, x) for pos, x in enumerate(emb) if x))
    if not _independent(sparse_fb):
        return False, "fixed basis is not linearly independent over K"

    def combine(coeffs) -> dict:
        """sum_k coeffs[k] * (fixed basis vector k), zero entries dropped."""
        out: dict[int, TowerElement] = {}
        for kk, c in enumerate(coeffs):
            if c:
                ck = c.in_tower(k_tower).embed(k_level)
                for pos, val in sparse_fb[kk]:
                    t = ck * val
                    out[pos] = out[pos] + t if pos in out else t
        return {p: v for p, v in out.items() if v}

    # claimed unit coordinates must combine to the tensor unit 1 x ... x 1
    unit_target: dict[int, TowerElement] = {}
    unit_sparse = [(idx, c.embed(k_level)) for idx, c in enumerate(a_unit) if c]
    stack = [(0, k_tower.one(k_level))]
    for t in range(order):
        stack = [
            (flat * d + idx, coeff * sigma_apply(c, order - t if t else 0))
            for flat, coeff in stack
            for idx, c in unit_sparse
        ]
    for flat, coeff in stack:
        if coeff:
            unit_target[flat] = unit_target.get(flat, k_tower.zero(k_level)) + coeff
    unit_target = {p: v for p, v in unit_target.items() if v}
    if combine(cor_unit) != unit_target:
        return False, "claimed unit does not combine to the tensor identity"

    # claimed structure constants hold inside the tensor power
    row_cache: dict[tuple[int, int], tuple] = {}
    for i in range(cor_dim):
        for j in range(cor_dim):
            prod: dict[int, TowerElement] = {}
            for pi, xi in sparse_fb[i]:
                for pj, yj in sparse_fb[j]:
                    key = (pi, pj)
                    row = row_cache.get(key)
                    if row is None:
                        row = tensor_row(pi, pj)
                        row_cache[key] = row
                    if not row:
                        continue
                    f = xi * yj
                    for kk, c in row:
                        cur = prod.get(kk)
                        t = f * c
                        prod[kk] = t if cur is None else cur + t
            prod = {p: v for p, v in prod.items() if v}
            if prod != combine(cor_parsed[i][j]):
                return False, f"product f_{i} f_{j} does not match the claimed constants"
    return True, (
        f"cor dimension {cor_dim} = (dim_K A)^r, sigma of order [K:F], "
        "basis fixed and independent, products exact"
    )


def _digits(q: int, d: int, r: int):
    out = []
    for _ in range(r):
        q, dig = divmod(q, d)
        out.append(dig)
    out.reverse()
    return out


def classify_document(doc: dict) -> str:
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
