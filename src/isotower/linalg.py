"""Exact dense linear algebra over a tower level.

Matrices are tuples of row tuples of TowerElement, all at one level.
``matvec`` and ``matmul`` are one call to the kernel's
:func:`~isotower.tower.dot_matrix`, which scans each row and each column
once and reduces each entry's sum of products once per level.  ``rref``,
and through it ``rank``, ``nullspace`` and ``solve``, lifts its rows once
to their highest level and longest tower, eliminates on the kernel's raw
data at that one level (:func:`_rref_raw`), and wraps the result once.
Pivoting is always the first nonzero entry, so eliminations are
deterministic and certificates are reproducible.  Pivot inversions go through the kernel, so
a reducible tower level surfaces here as the ReducibilityError
precondition.
"""

from __future__ import annotations

from .tower import (
    QQ,
    TowerElement,
    TowerField,
    _embed_up,
    _inv,
    _is_zero,
    _join,
    _mul,
    _raw_zero,
    _scan,
    _sub,
    dot_matrix,
)


def matvec(m, v):
    return tuple(row[0] for row in dot_matrix(m, (v,)))


def matmul(a, b):
    return dot_matrix(a, tuple(zip(*b)))


def identity(tower: TowerField, level: int, n: int):
    one, zero = tower.one(level), tower.zero(level)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def rref(rows):
    """Reduced row echelon form; returns (rref_rows, pivot_columns).

    Every entry of the result lies in the longest tower and at the highest
    level among the input's entries, also when the input mixes levels."""
    if not rows:
        return (), ()
    tower, lv, scans = QQ, 0, []
    for row in rows:
        t, la, entries = _scan(row)
        tower = tower if t is tower else _join(tower, t)
        lv = max(lv, la)
        scans.append(entries)
    ctx = tower._ctx
    zero = _raw_zero(ctx, lv)
    red, pivots = _rref_raw(
        ctx, lv, [[zero if e is None else _embed_up(ctx, e[0], e[1], lv) for e in s] for s in scans]
    )
    return tuple(tuple(TowerElement(tower, lv, x) for x in row) for row in red), pivots


def _rref_raw(ctx, lv, rows):
    """:func:`rref` on rows of raw level-lv data: returns (rows as lists,
    pivot_columns).  Zero tests, products, differences and the pivot
    inverses run in the kernel at that one level."""
    m = [list(r) for r in rows]
    if not m:
        return m, ()
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if not _is_zero(m[i][c], lv)), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = _inv(ctx, lv, m[r][c])
        m[r] = [x if _is_zero(x, lv) else _mul(ctx, lv, x, inv) for x in m[r]]
        nonzero = [(k, y) for k, y in enumerate(m[r]) if not _is_zero(y, lv)]
        for i, row in enumerate(m):
            f = row[c]
            if i != r and not _is_zero(f, lv):
                for k, y in nonzero:
                    row[k] = _sub(ctx, lv, row[k], _mul(ctx, lv, f, y))
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, tuple(pivots)


def rank(rows) -> int:
    _, pivots = rref(rows)
    return len(pivots)


def nullspace(rows, tower: TowerField, level: int, ncols: int):
    """Basis of {x : rows . x = 0}, one vector per free column, in reduced
    form: the vector of free column f is 1 at f, which is its last nonzero
    entry, and 0 at every other free column.  So x in the kernel is the sum
    of x[f] times f's vector, read off without solving."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    one, zero = tower.one(level), tower.zero(level)
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return tuple(basis)


def solve(a_rows, b, tower: TowerField, level: int):
    """One exact solution of A x = b, or None when inconsistent."""
    n = len(a_rows)
    ncols = len(a_rows[0]) if n else 0
    aug = [list(r) + [bv] for r, bv in zip(a_rows, b)]
    red, pivots = rref(aug)
    zero = tower.zero(level)
    x = [zero] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = red[r][ncols]
    # rows beyond the pivots must be zero, which rref guarantees
    return tuple(x)


__all__ = [
    "matvec",
    "matmul",
    "identity",
    "rref",
    "rank",
    "nullspace",
    "solve",
]
