"""Seeded random instance generators (reproducible batches)."""

from __future__ import annotations

import random

from .quadforms import QFSystem, QuadraticForm
from .splitting import QuaternionAlgebra, standard_quaternion
from .tower import QQ, TowerElement, TowerField


def random_qfsystem(
    rng: random.Random, r: int, dim: int | None = None, lo: int = -9, hi: int = 9
) -> QFSystem:
    """r random integral forms in r(r+1)/2 + 1 variables (unless dim given)."""
    n = dim if dim is not None else r * (r + 1) // 2 + 1
    forms = []
    for _ in range(r):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                c = rng.randint(lo, hi)
                rows[i][j] = c
                rows[j][i] = c
        forms.append(QuadraticForm.from_gram(QQ, 0, rows))
    return QFSystem(tuple(forms))


def random_element(rng: random.Random, tower: TowerField) -> TowerElement:
    """Random nonzero element of the tower top with integral nested
    coordinates in -9..9."""

    def build(lv: int):
        if lv == 0:
            return rng.randint(-9, 9)
        d = tower.levels[lv - 1].degree
        return tuple(build(lv - 1) for _ in range(d))

    while True:
        x = tower.element(tower.height, build(tower.height))
        if x:
            return x


def random_quaternion(rng: random.Random, tower: TowerField) -> QuaternionAlgebra:
    return standard_quaternion(random_element(rng, tower), random_element(rng, tower))


__all__ = [
    "random_qfsystem",
    "random_element",
    "random_quaternion",
]
