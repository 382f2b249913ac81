"""Acceptance suite: every criterion at its stated tolerance (exact
arithmetic everywhere, so tolerances are zero), one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from fractions import Fraction

import pytest
from norm_oracle import hilbert_symbol_Q, rational_norm_zero_search

from isotower import verify
from isotower.certjson import (
    cor_result_doc,
    isotropy_certificate_doc,
    split_certificate_doc,
)
from isotower.csa import (
    base_change_embedding_check,
    central_simple_check,
    fixed_subalgebra,
    g_action_matrix,
    matrix_algebra,
    quaternion_structure_algebra,
    split_idempotent_witness,
    tensor_power_over_K,
)
from isotower.generate import random_qfsystem, random_quaternion
from isotower.presets import (
    cyclic_cubic,
    cyclic_gaussian,
    cyclic_sqrt,
    field_cubic,
    field_quintic,
    field_septic,
)
from isotower.quadforms import isotropy_2ext
from isotower.splitting import split_over_2ext, standard_quaternion
from isotower.sqrt import adjoin_sqrt, sqrt_or_nonsquare
from isotower.tower import QQ, tower_extend

SEED = 20260808


def report(number: int, name: str, detail: str = ""):
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {number} ({name}): PASS{suffix}")


@pytest.fixture(scope="module")
def isotropy_batch():
    """200 seeded instances per r in {1, 2, 3}, kept for criteria 1 and 2."""
    docs = {}
    rng = random.Random(SEED)
    for r in (1, 2, 3):
        batch = []
        for _ in range(200):
            system = random_qfsystem(rng, r)
            cert = isotropy_2ext(system)
            batch.append((system, cert, isotropy_certificate_doc(system, cert)))
        docs[r] = batch
    return docs


def test_criterion_1_isotropy_bound(isotropy_batch):
    start = time.time()
    for r, batch in isotropy_batch.items():
        assert len(batch) == 200
        for system, cert, doc in batch:
            assert system.dim == r * (r + 1) // 2 + 1
            assert cert.actual_degree <= 2**r
            ok, reason = verify.verify_isotropy(doc)
            assert ok, reason
    elapsed = time.time() - start
    assert elapsed < 60
    report(1, "2-extension isotropy bound", f"600 certificates, {elapsed:.1f}s")


def _bump_leaf(node, leaf_index):
    """Perturb the leaf_index-th rational inside a nested coefficient list."""

    def rec(n, count):
        if isinstance(n, list):
            out = []
            for ch in n:
                ch2, count = rec(ch, count)
                out.append(ch2)
            return out, count
        if count == leaf_index:
            num, den = n.split("/")
            return f"{int(num) + 1}/{den}", count + 1
        return n, count + 1

    out, _ = rec(node, 0)
    return out


def _count_leaves(node):
    if isinstance(node, list):
        return sum(_count_leaves(c) for c in node)
    return 1


def test_criterion_2_witness_exactness_and_mutation(isotropy_batch):
    # literal zero under the independent evaluator for every certificate
    for batch in isotropy_batch.values():
        for _system, _cert, doc in batch:
            ok, reason = verify.verify_isotropy(doc)
            assert ok and "vanish exactly" in reason
    # a single-coefficient perturbation at a random position flips verification
    rng = random.Random(SEED + 2)
    mutated = 0
    for r in (2, 3):
        for _system, _cert, doc in isotropy_batch[r][:30]:
            coord = rng.randrange(len(doc["witness"]))
            leaf = rng.randrange(_count_leaves(doc["witness"][coord]))
            bad = dict(doc)
            witness = list(doc["witness"])
            witness[coord] = _bump_leaf(witness[coord], leaf)
            bad["witness"] = witness
            ok, _ = verify.verify_isotropy(bad)
            assert not ok
            mutated += 1
    assert mutated >= 50
    report(2, "witness exactness and mutation", f"{mutated} mutations all FAIL")


def test_criterion_3_split_bound():
    start = time.time()
    cases = (
        (field_cubic(), 8, "cubic"),
        (field_quintic(), 32, "quintic"),
        (field_septic(), 128, "septic"),
    )
    degrees = {}
    for tower, bound, name in cases:
        rng = random.Random(SEED + tower.absolute_degree())
        seen = []
        for _ in range(100):
            q = random_quaternion(rng, tower)
            cert = split_over_2ext(q)
            assert cert.degree_over_F <= bound
            ok, reason = verify.verify_split(split_certificate_doc(cert))
            assert ok, reason
            seen.append(cert.degree_over_F)
        degrees[name] = max(seen)
    elapsed = time.time() - start
    assert elapsed < 600
    report(
        3,
        "quaternion splitting bound",
        f"300 certificates, max degrees {degrees}, {elapsed:.0f}s",
    )


def random_rational_pair(rng: random.Random, bound: int = 30):
    """Nonzero rationals with numerators and denominators up to the bound."""

    def pick():
        while True:
            num = rng.randint(-bound, bound)
            if num:
                return Fraction(num, rng.randint(1, 12))

    return pick(), pick()


def test_criterion_4_rational_oracle_agreement():
    from isotower.splitting import SplitCertificate

    rng = random.Random(SEED + 4)
    divisions = splits = 0
    for _ in range(500):
        u, v = random_rational_pair(rng)
        verdict = hilbert_symbol_Q(u, v)
        q = standard_quaternion(QQ.rational(u), QQ.rational(v))
        cert = split_over_2ext(q)
        ok, reason = verify.verify_split(split_certificate_doc(cert))
        assert ok, reason
        if verdict == "division":
            assert cert.degree_over_F == 2
            divisions += 1
        else:
            if cert.degree_over_F != 1:
                # the pipeline missed the rational zero: a degree-1
                # certificate still exists, found by bounded integer search
                found = rational_norm_zero_search(u, v)
                assert found is not None
                degree1 = SplitCertificate(
                    quaternion=q,
                    tower=QQ,
                    two_tower=QQ,
                    witness=tuple(QQ.rational(c) for c in found),
                    degree_over_F=1,
                    claimed_bound=2,
                )
                ok, reason = verify.verify_split(split_certificate_doc(degree1))
                assert ok, reason
            splits += 1
    report(4, "rational Hilbert oracle agreement", f"{divisions} division / {splits} split")


def _slot_identity(a: Fraction, b: Fraction, c: Fraction, shape: str):
    """The constructed slot witness annihilates <1, X, g(X)> identically."""
    if shape == "const":
        tower, sa, _ = adjoin_sqrt(QQ, QQ.rational(-c))
        top = tower.height
        w1 = (sa, tower.zero(top))
        w2 = tower.zero(top)
        g = (c,)
    elif shape == "linear":
        tower, sa, _ = adjoin_sqrt(QQ, QQ.rational(-a))
        if b == 0:
            sb = tower.zero()
        else:
            tower, sb, _ = adjoin_sqrt(tower, tower.rational(b))
        top = tower.height
        sa = sa.in_tower(tower).embed(top)
        sb = sb.in_tower(tower).embed(top)
        w1 = (sa * sb, tower.zero(top))
        w2 = sa
        g = (a * b, a)
    else:
        tower, sa, _ = adjoin_sqrt(QQ, QQ.rational(-a))
        if c == 0:
            sc = tower.zero()
        else:
            tower, sc, _ = adjoin_sqrt(tower, tower.rational(c))
        sc = sc.in_tower(tower).embed(tower.height)
        e = b - 2 * sc
        if e.is_zero():
            se = tower.zero()
        else:
            tower, se, _ = adjoin_sqrt(tower, e)
        top = tower.height
        sa = sa.in_tower(tower).embed(top)
        sc = sc.in_tower(tower).embed(top)
        se = se.in_tower(tower).embed(top)
        w1 = (sa * sc, sa)
        w2 = sa * se
        g = (a * c, a * b, a)
    # w1(X)^2 + X * w2^2 + g(X) is exactly the zero polynomial: w1 has degree
    # <= 1 and g degree <= 2, so its coefficients of X^0, X^1, X^2 vanish
    g0, g1, g2 = g + (0,) * (3 - len(g))
    assert (w1[0] * w1[0] + g0).is_zero(), (a, b, c, shape)
    assert (2 * w1[0] * w1[1] + w2 * w2 + g1).is_zero(), (a, b, c, shape)
    assert (w1[1] * w1[1] + g2).is_zero(), (a, b, c, shape)
    assert g[-1] != 0  # so deg g = len(g) - 1
    assert tower.absolute_degree() <= 2 ** len(g)


def test_criterion_5_slot_identity_suite():
    rng = random.Random(SEED + 5)
    count = 0
    for _ in range(100):
        a = Fraction(rng.randint(-9, 9) or 1)
        b = Fraction(rng.randint(-9, 9))
        c = Fraction(rng.randint(-9, 9) or 2)
        _slot_identity(a, b, c, "const")
        _slot_identity(a, b, c, "linear")
        _slot_identity(a, b, c, "quadratic")
        count += 3
    report(5, "quadratic slot identities", f"{count} polynomial identities")


def test_criterion_6_corestriction_structure():
    start = time.time()
    cases = []
    for cyc, division_pairs in (
        (cyclic_sqrt(2), [(-1, -1), (-2, -3)]),
        (cyclic_gaussian(), [(5, 2), (13, 2)]),
        (cyclic_cubic(), [(-1, -1), (-2, -3)]),
    ):
        tower = cyc.tower
        algebras = [("M2", matrix_algebra(tower, cyc.k_level))]
        algebras += [
            (
                f"({u},{v})",
                quaternion_structure_algebra(
                    standard_quaternion(tower.rational(u, 1), tower.rational(v, 1))
                ),
            )
            for u, v in division_pairs
        ]
        for name, alg in algebras:
            ta = tensor_power_over_K(alg, cyc)
            cor = fixed_subalgebra(ta, g_action_matrix(ta, cyc))
            assert cor.algebra.dim == alg.dim**cyc.order  # (deg A)^(2r)
            assert central_simple_check(cor.algebra)
            if alg.matrix_units:
                dense, coords = split_idempotent_witness(cor)
                sparse = {k: x for k, x in enumerate(coords) if x}
                assert cor.algebra.mul_sparse(sparse, sparse) == sparse
                assert any(coords) and tuple(coords) != tuple(cor.algebra.unit)
            ok, reason = verify.verify_cor(cor_result_doc(cor, alg))
            assert ok, reason
            cases.append(f"{name}/{tower.levels[0].label}")
    elapsed = time.time() - start
    assert elapsed < 300
    report(6, "corestriction structure", f"{len(cases)} algebras, {elapsed:.0f}s")


def test_criterion_7_base_change_embedding():
    cyc = cyclic_sqrt(2)
    alg = quaternion_structure_algebra(
        standard_quaternion(cyc.tower.gen(), cyc.tower.rational(-1))
    )
    assert base_change_embedding_check(alg, cyc, [Fraction(-3), Fraction(0), Fraction(1)])
    report(7, "corestriction base change", "K=Q(sqrt2), L=Q(sqrt3), bijective homomorphism")


def test_criterion_8_kernel_laws():
    rng = random.Random(SEED + 8)
    towers = [
        tower_extend(QQ, [1, 0, 1], label="i"),
        tower_extend(QQ, [-2, 0, 1], label="s2"),
        tower_extend(QQ, [-1, -2, 1, 1], label="a"),
    ]
    towers.append(
        tower_extend(
            towers[1],
            [towers[1].rational(-3), towers[1].rational(0), towers[1].rational(1)],
            label="s3",
        )
    )
    sqrt_towers = (towers[0], towers[1], towers[3])

    def rand_elem(tower):
        def build(lv):
            if lv == 0:
                return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            return tuple(build(lv - 1) for _ in range(tower.levels[lv - 1].degree))

        return tower.element(tower.height, build(tower.height))

    checks = 0
    for i in range(2000):
        tower = towers[i % len(towers)]
        x, y, z = rand_elem(tower), rand_elem(tower), rand_elem(tower)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        checks += 3
        if x:
            assert x.inverse() * x == 1
            checks += 1
        else:
            assert (x + 1).inverse() * (x + 1) == 1
            checks += 1
        st = sqrt_towers[i % len(sqrt_towers)]
        w = rand_elem(st)
        if w:
            c = w * w
            root = sqrt_or_nonsquare(c)
            assert root is not None and root * root == c
            checks += 1
        else:
            assert sqrt_or_nonsquare(st.one()) == 1
            checks += 1
    assert checks >= 10000
    report(8, "kernel arithmetic laws", f"{checks} exact checks")
