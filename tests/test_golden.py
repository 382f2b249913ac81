"""Certificate bytes pinned by sha256 for fixed inputs.

A speed-up of the constructors or of the square tests must leave these
certificates byte-identical; a change that alters them on purpose changes
the certificate format and says so.
"""

import hashlib
import random

import pytest

from isotower.certjson import cor_result_doc, isotropy_certificate_doc, split_certificate_doc
from isotower.csa import (
    fixed_subalgebra,
    g_action_matrix,
    matrix_algebra,
    quaternion_structure_algebra,
    tensor_power_over_K,
)
from isotower.generate import random_qfsystem, random_quaternion
from isotower.presets import cyclic_cubic, cyclic_sqrt, field_cubic, field_quintic, field_septic
from isotower.quadforms import isotropy_2ext
from isotower.serialize import canonical_dumps
from isotower.splitting import split_over_2ext, standard_quaternion
from isotower.tower import QQ, tower_extend
from test_csa import zeta5_k_times_k
from test_quadforms import random_system_over

SEED = 20260808  # the acceptance suite's seed


def _isotropy(r, field=None):
    # with a field: Gram entries c + d*gen over it, the recursion on level-1 data
    rng = random.Random(SEED + r)
    docs = []
    for _ in range(2):
        system = random_qfsystem(rng, r) if field is None else random_system_over(rng, field, r)
        docs.append(isotropy_certificate_doc(system, isotropy_2ext(system)))
    return docs


def _split(field, two_part_levels=None):
    # the quaternion stream of acceptance criterion 3
    rng = random.Random(SEED + field.absolute_degree())
    return [split_certificate_doc(split_over_2ext(random_quaternion(rng, field), two_part_levels))
            for _ in range(2)]


def _split_sextic_two_part():
    # Q(sqrt2)(3^(1/3)) with its 2-part Q(sqrt2) declared: r = 3, and the
    # transfer runs over F = Q(sqrt2), level 1, not over Q
    field = tower_extend(tower_extend(QQ, [-2, 0, 1], label="s2"), [-3, 0, 0, 1], label="c3")
    return _split(field, 1)


def _split_octic():
    # Q(2^(1/8)) with an empty 2-part declared: the r = 8 large branch, whose
    # success is not guaranteed, with integers past 4300 digits
    field = tower_extend(QQ, [-2, 0, 0, 0, 0, 0, 0, 0, 1], label="a8")
    rng = random.Random(SEED + 8)
    return [split_certificate_doc(split_over_2ext(random_quaternion(rng, field), 0))]


def _cor(cyc, alg):
    ta = tensor_power_over_K(alg, cyc)
    return [cor_result_doc(fixed_subalgebra(ta, g_action_matrix(ta, cyc)), alg)]


def _cor_quaternion_sqrt2():
    cyc = cyclic_sqrt(2)
    alg = quaternion_structure_algebra(
        standard_quaternion(cyc.tower.rational(-1, 1), cyc.tower.rational(-1, 1))
    )
    return _cor(cyc, alg)


def _cor_m2_cubic():
    # n = 64 over a generic (non X^2 - c) level, orbits of lengths 1 and 3
    cyc = cyclic_cubic()
    return _cor(cyc, matrix_algebra(cyc.tower, 1))


CASES = {
    "isotropy-r2": lambda: _isotropy(2),
    "isotropy-r3": lambda: _isotropy(3),
    "isotropy-r4": lambda: _isotropy(4),
    "isotropy-r3-cubic": lambda: _isotropy(3, field_cubic()),
    "split-cubic": lambda: _split(field_cubic()),
    "split-quintic": lambda: _split(field_quintic()),
    "split-septic": lambda: _split(field_septic()),
    "split-octic": _split_octic,
    "split-sextic-two-part": _split_sextic_two_part,
    "cor-sqrt2-quaternion": _cor_quaternion_sqrt2,
    "cor-m2-cubic": _cor_m2_cubic,
    # K x K over Q(zeta_5): orbits of lengths 1, 2 and 4 under an order-4 sigma
    "cor-kxk-zeta5": lambda: _cor(*zeta5_k_times_k()),
}

GOLDEN = {
    "isotropy-r2": "bb278178423735802bed17aa2e3527d502e8d99ca83c945ae30f405c2ac41f54",
    "isotropy-r3": "76140a5c8ac004b937cdb92898d7ac4ccd4aef28bd610c38c9c4b12d9ec7b75e",
    "split-cubic": "b905eeb2eccb949cf2ab875b89458d42a1f9d4e48e4cca710eb80dc8aed4b131",
    "split-quintic": "ed54aa832631470e36ad9b1734149a3f0068ae5414768a6500cbfec3999644ba",
    "cor-sqrt2-quaternion": "92f2d351514f17c707e4d20e7023ca10cdb914de8ffafa96e6faca8bd75f9bea",
    # pinned before the lazy-reduction dot product: a 4-level sqrt chain and
    # the septic base-root level, which no case above reaches
    "isotropy-r4": "e5c6c27d096880d1bc467a4034685e7231924c93a893766bab3368d0702ad710",
    "split-septic": "dd3dc40f8607e0909d81d31fd75acb731fbf80c83605cc7d1b5f3c40f8773c6e",
    # pinned before corestriction moved to raw rows
    "cor-m2-cubic": "eb8f3daf6d36a0bef321b2f8b989a0e8f6be8e0b7c903e5268fa691b36dbe70d",
    # pinned before the fixed-basis coordinates were read off instead of solved
    "cor-kxk-zeta5": "0accaec60ebc70a99150652d97f70bfe1141ac20d2e5ab64df576179101ca991",
    # pinned before g(alpha) was read off the transferred forms on the F-side,
    # with the integer-to-string limit lifted, which the writer needed then
    "split-octic": "26aba353b40ef9c095459ca62cb09f3a48d4e2f3f2302705b1be548900d524c6",
    # pinned before the quadratic forms moved to raw level data: forms over
    # a base-root level, which the cases above only reach as a split's field
    "isotropy-r3-cubic": "b04580f38896754fe4c74ae696f376b7c6877061f43e33363ad1d96e4fae4850",
    # pinned before the transfer read Gram entries through one F-linear row
    # per functional: the one case whose transfer runs over F above Q
    "split-sextic-two-part": "a1ec3d21823d1e19e4a79c85ee46945b2fcdfee7f45cd63b58c37f7109e4d6a9",
}


def _digest(docs):
    return hashlib.sha256("".join(canonical_dumps(d) for d in docs).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_certificate_bytes_pinned(name):
    assert _digest(CASES[name]()) == GOLDEN[name]
