"""Named preset fields, cyclic data, and demo instances for the CLI."""

from __future__ import annotations

from .csa import (
    CyclicExtensionData,
    central_simple_check,
    fixed_basis_spans,
    fixed_subalgebra,
    g_action_matrix,
    matrix_algebra,
    quaternion_structure_algebra,
    split_idempotent_witness,
    tensor_power_over_K,
    base_change_embedding_check,
)
from .certjson import (
    cor_result_doc,
    isotropy_certificate_doc,
    split_certificate_doc,
)
from .errors import PreconditionError
from .generate import random_qfsystem, random_quaternion
from .quadforms import QFSystem, QuadraticForm, isotropy_2ext
from .splitting import quadratic_slot_split, split_over_2ext, standard_quaternion
from .tower import QQ, TowerField, tower_extend
from . import verify


def field_gaussian() -> TowerField:
    """Q(i)."""
    return tower_extend(QQ, [1, 0, 1], label="i")


def field_sqrt(d: int) -> TowerField:
    return tower_extend(QQ, [-d, 0, 1], label=f"sqrt{d}")


def field_cubic() -> TowerField:
    """The cyclic cubic field Q[x]/(x^3 + x^2 - 2x - 1) (discriminant 49);
    irreducible by the rational root test."""
    return tower_extend(QQ, [-1, -2, 1, 1], label="a3")


def field_quintic() -> TowerField:
    """Q[x]/(x^5 - 2), irreducible by Eisenstein at 2."""
    return tower_extend(QQ, [-2, 0, 0, 0, 0, 1], label="a5")


def field_septic() -> TowerField:
    """Q[x]/(x^7 - 2), irreducible by Eisenstein at 2."""
    return tower_extend(QQ, [-2, 0, 0, 0, 0, 0, 0, 1], label="a7")


def cyclic_sqrt(d: int) -> CyclicExtensionData:
    """Q(sqrt d)/Q with the conjugation sqrt(d) -> -sqrt(d)."""
    tower = field_sqrt(d)
    return CyclicExtensionData.create(tower, 1, [[1, 0], [0, -1]], 2)


def cyclic_gaussian() -> CyclicExtensionData:
    tower = field_gaussian()
    return CyclicExtensionData.create(tower, 1, [[1, 0], [0, -1]], 2)


def cyclic_cubic() -> CyclicExtensionData:
    """The cyclic cubic with generator alpha -> alpha^2 - 2."""
    tower = field_cubic()
    # columns are the images of 1, a, a^2 under the generator
    m = [[1, -2, 3], [0, 0, -1], [0, 1, -1]]
    return CyclicExtensionData.create(tower, 1, m, 3)


SPLIT_FIELDS = {
    "r1": lambda: QQ,
    "cubic": field_cubic,
    "quintic": field_quintic,
    "septic": field_septic,
}


# ---------------------------------------------------------------------------
# demos
# ---------------------------------------------------------------------------


def _demo_isotropy(system: QFSystem, title: str):
    cert = isotropy_2ext(system)
    doc = isotropy_certificate_doc(system, cert)
    ok, reason = verify.verify_isotropy(doc)
    lines = [
        title,
        f"  forms: {system.r}, dimension: {system.dim}",
        f"  tower degree over the base: {cert.actual_degree} (bound {cert.claimed_bound})",
        f"  witness: ({', '.join(str(w) for w in cert.witness)})",
        f"  verify: {'PASS' if ok else 'FAIL'} ({reason})",
    ]
    return lines, doc, ok


def demo_thm21_r1():
    system = QFSystem((QuadraticForm.diagonal(QQ, 0, [1, 1]),))
    return _demo_isotropy(system, "one positive definite binary form over Q")


def demo_thm21_r2():
    system = QFSystem(
        (
            QuadraticForm.diagonal(QQ, 0, [1, 1, 1, 1]),
            QuadraticForm.diagonal(QQ, 0, [1, 2, 3, 4]),
        )
    )
    return _demo_isotropy(system, "two positive definite forms in four variables over Q")


def demo_thm21_r3():
    import random

    system = random_qfsystem(random.Random(1903), 3)
    return _demo_isotropy(system, "three random forms in seven variables over Q (seed 1903)")


def _demo_split(q, title: str, two_part_levels=None):
    cert = split_over_2ext(q, two_part_levels)
    doc = split_certificate_doc(cert)
    ok, reason = verify.verify_split(doc)
    lines = [
        title,
        f"  [K:Q] = {q.field.absolute_degree()}",
        f"  degree over F: {cert.degree_over_F} (bound {cert.claimed_bound})",
        f"  compositum levels: {cert.tower.height}",
        f"  verify: {'PASS' if ok else 'FAIL'} ({reason})",
    ]
    return lines, doc, ok


def demo_thm32_r1():
    q = standard_quaternion(QQ.rational(-1), QQ.rational(-1))
    return _demo_split(q, "the rational quaternion (-1, -1)")


def demo_thm32_cubic():
    tower = field_cubic()
    q = standard_quaternion(tower.gen(), tower.rational(2))
    return _demo_split(q, "quaternion (alpha, 2) over the cyclic cubic field")


def demo_thm32_quintic():
    import random

    q = random_quaternion(random.Random(57), field_quintic())
    return _demo_split(q, "random quaternion over Q[x]/(x^5 - 2) (seed 57)")


def demo_thm32_septic():
    import random

    q = random_quaternion(random.Random(77), field_septic())
    return _demo_split(q, "random quaternion over Q[x]/(x^7 - 2) (seed 77)")


def demo_lemma24_quad():
    tower = field_cubic()
    alpha = tower.gen()
    res = quadratic_slot_split(alpha, (1, 0, 1))  # X^2 + 1
    top = res.comp_tower.height
    a_t = alpha.in_tower(res.comp_tower).embed(top)
    w = res.witness
    val = w[0].square() + a_t * w[1].square() + (a_t * a_t + 1) * w[2].square()
    ok = val.is_zero()
    lines = [
        "explicit witness of <1, alpha, alpha^2 + 1> over the cyclic cubic",
        f"  adjoined square roots over Q: {res.two_tower.height} "
        f"(degree {res.two_tower.absolute_degree()} <= 8)",
        f"  witness: ({', '.join(str(x) for x in w)})",
        f"  exact check: {'PASS' if ok else 'FAIL'}",
    ]
    return lines, None, ok


def _demo_cor(cyclic: CyclicExtensionData, title: str, division_pair=None):
    tower = cyclic.tower
    if division_pair is None:
        alg = matrix_algebra(tower, cyclic.k_level)
    else:
        u, v = division_pair
        alg = quaternion_structure_algebra(
            standard_quaternion(tower.rational(u, 1), tower.rational(v, 1))
        )
    ta = tensor_power_over_K(alg, cyclic)
    action = g_action_matrix(ta, cyclic)
    cor = fixed_subalgebra(ta, action)
    doc = cor_result_doc(cor, alg)
    expected = alg.dim ** cyclic.order
    checks = {
        "dimension (deg A)^2r": cor.algebra.dim == expected,
        "central simple": central_simple_check(cor.algebra),
        "fixed basis spans": fixed_basis_spans(cor),
    }
    if division_pair is None:
        try:
            split_idempotent_witness(cor)
            checks["split idempotent"] = True
        except PreconditionError:
            checks["split idempotent"] = False
    verified, reason = verify.verify_cor(doc)
    ok = all(checks.values()) and verified
    lines = [title, f"  F-dimension: {cor.algebra.dim}"]
    lines += [f"  {name}: {'PASS' if good else 'FAIL'}" for name, good in checks.items()]
    lines.append(f"  verify: {'PASS' if verified else 'FAIL'} ({reason})")
    return lines, doc, ok


def demo_cor_m2_sqrt2():
    return _demo_cor(cyclic_sqrt(2), "corestriction of M2 along Q(sqrt2)/Q")


def demo_cor_m2_i():
    return _demo_cor(cyclic_gaussian(), "corestriction of M2 along Q(i)/Q")


def demo_cor_m2_cubic():
    return _demo_cor(cyclic_cubic(), "corestriction of M2 along the cyclic cubic")


def demo_cor_division_sqrt2():
    return _demo_cor(
        cyclic_sqrt(2),
        "corestriction of the division quaternion (-1, -1) along Q(sqrt2)/Q",
        division_pair=(-1, -1),
    )


def demo_cor42_basechange():
    cyclic = cyclic_sqrt(2)
    tower = cyclic.tower
    alg = quaternion_structure_algebra(
        standard_quaternion(tower.gen(), tower.rational(-1))
    )
    ok = base_change_embedding_check(alg, cyclic, [-3, 0, 1])
    rejected = not base_change_embedding_check(alg, cyclic, [-2, 0, 1])
    lines = [
        "base change of the corestriction along Q(sqrt3)/Q",
        f"  embedding bijective algebra homomorphism: {'PASS' if ok else 'FAIL'}",
        f"  non-disjoint L = K rejected: {'PASS' if rejected else 'FAIL'}",
    ]
    return lines, None, ok and rejected


DEMOS = {
    "thm21-r1": demo_thm21_r1,
    "thm21-r2": demo_thm21_r2,
    "thm21-r3": demo_thm21_r3,
    "thm32-r1": demo_thm32_r1,
    "thm32-cubic": demo_thm32_cubic,
    "thm32-quintic": demo_thm32_quintic,
    "thm32-septic": demo_thm32_septic,
    "lemma24-quad": demo_lemma24_quad,
    "cor-m2-sqrt2": demo_cor_m2_sqrt2,
    "cor-m2-i": demo_cor_m2_i,
    "cor-m2-cubic": demo_cor_m2_cubic,
    "cor-division-sqrt2": demo_cor_division_sqrt2,
    "cor42-basechange": demo_cor42_basechange,
}


__all__ = [
    "field_gaussian",
    "field_sqrt",
    "field_cubic",
    "field_quintic",
    "field_septic",
    "cyclic_sqrt",
    "cyclic_gaussian",
    "cyclic_cubic",
    "SPLIT_FIELDS",
    "DEMOS",
]
