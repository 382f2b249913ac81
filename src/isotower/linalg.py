"""Exact dense linear algebra over a tower level.

Matrices are tuples of row tuples of TowerElement, all at one level.
``matvec`` and ``matmul`` are one call to the kernel's
:func:`~isotower.tower.dot_matrix`, which scans each row and each column
once and reduces each entry's sum of products once per level.  Pivoting is
always the first nonzero entry, so eliminations are deterministic and
certificates are reproducible.  Pivot inversions go through the kernel, so
a reducible tower level surfaces here as the ReducibilityError
precondition.
"""

from __future__ import annotations

from .errors import SingularMatrix
from .tower import TowerField, dot_matrix


def matvec(m, v):
    return tuple(row[0] for row in dot_matrix(m, (v,)))


def matmul(a, b):
    return dot_matrix(a, tuple(zip(*b)))


def identity(tower: TowerField, level: int, n: int):
    one, zero = tower.one(level), tower.zero(level)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def rref(rows):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return (), ()
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y if y else x for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m), tuple(pivots)


def rank(rows) -> int:
    _, pivots = rref(rows)
    return len(pivots)


def nullspace(rows, tower: TowerField, level: int, ncols: int):
    """Basis of {x : rows . x = 0}, one vector per free column."""
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


def invert(rows, tower: TowerField, level: int):
    n = len(rows)
    aug = [list(r) + list(idr) for r, idr in zip(rows, identity(tower, level, n))]
    red, pivots = rref(aug)
    if list(pivots) != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    return tuple(tuple(row[n:]) for row in red)


__all__ = [
    "matvec",
    "matmul",
    "identity",
    "rref",
    "rank",
    "nullspace",
    "solve",
    "invert",
]
