import dataclasses
import functools
import json
import random
from fractions import Fraction
from math import gcd
from itertools import product

import pytest

from isotower.certjson import algebra_doc, algebra_from_doc, cor_result_doc
from isotower.cli import main
from isotower.csa import (
    CyclicExtensionData,
    StructureConstantAlgebra,
    base_change_embedding_check,
    central_simple_check,
    conjugate_algebra,
    fixed_basis_spans,
    fixed_subalgebra,
    g_action_matrix,
    matrix_algebra,
    quaternion_structure_algebra,
    split_idempotent_witness,
    tensor_power_over_K,
)
from isotower.csa import _orbits
from isotower.errors import MalformedCertificate, MemoryGuardExceeded, PreconditionError
from isotower.presets import cyclic_cubic, cyclic_gaussian, cyclic_sqrt, field_sqrt
from isotower.serialize import canonical_dumps, element_to_json, tower_to_json, vector_to_json
from isotower.splitting import bracket_quaternion, standard_quaternion
from isotower.tower import QQ, _check_shape, _is_zero, tower_extend
from isotower import verify


# -- cyclic data --------------------------------------------------------------------


def zeta5_k_times_k():
    """(cyclic, A): K = Q(zeta_5) = Q[z]/(z^4 + z^3 + z^2 + z + 1) over Q with
    sigma: z -> z^2 of order 4, and A = K x K on its two idempotents.  The
    leg shift on the 16 positions of A's tensor power has orbits of lengths
    1, 1, 2, 4, 4, 4, so one orbit has 1 < ell < r."""
    tower = tower_extend(QQ, [1, 1, 1, 1, 1], label="z5")
    # columns are the images of 1, z, z^2, z^3; z^4 = -1 - z - z^2 - z^3
    m = [[1, 0, -1, 0], [0, 0, -1, 1], [0, 1, -1, 0], [0, 0, -1, 0]]
    cyc = CyclicExtensionData.create(tower, 1, m, 4)
    one = tower.one(1)
    rows = (((0, one.data),), (), (), ((1, one.data),))
    return cyc, StructureConstantAlgebra(tower, 1, 2, rows, (one, one))


def test_cyclic_sqrt2():
    cyc = cyclic_sqrt(2)
    s = cyc.tower.gen()
    assert cyc.apply(s) == -s
    assert cyc.apply(3 + 2 * s) == 3 - 2 * s
    assert cyc.apply(s, 2) == s


def test_cyclic_cubic_generator():
    cyc = cyclic_cubic()
    a = cyc.tower.gen()
    assert cyc.apply(a) == a * a - 2
    assert cyc.apply(a, 3) == a
    assert cyc.apply(a, 1) != a and cyc.apply(a, 2) != a


def test_cyclic_validation_rejects_wrong_order():
    tower = tower_extend(QQ, [-2, 0, 1], label="s2")
    with pytest.raises(PreconditionError):
        CyclicExtensionData.create(tower, 1, [[1, 0], [0, 1]], 2)  # identity: order 1


def test_cyclic_validation_rejects_non_automorphism():
    tower = tower_extend(QQ, [-2, 0, 1], label="s2")
    with pytest.raises(PreconditionError):
        CyclicExtensionData.create(tower, 1, [[1, 1], [0, -1]], 2)  # does not fix products


@pytest.mark.parametrize("k_level", [0, 2, 3])
def test_cyclic_validation_rejects_k_level_outside_the_tower(k_level):
    with pytest.raises(PreconditionError, match="K must be a tower level"):
        CyclicExtensionData.create(field_sqrt(2), k_level, [[1, 0], [0, -1]], 2)


@pytest.mark.parametrize(
    "make",
    [lambda: cyclic_sqrt(2), cyclic_cubic, lambda: zeta5_k_times_k()[0]],
    ids=["sqrt2", "cubic", "zeta5"],
)
def test_fixed_subfield_basis_reduced_form(make):
    # omega_t is fixed by sigma^power, 1 at its last nonzero coordinate f_t
    # and 0 at every other f_s: the contract the coordinate read-off uses
    cyc = make()
    for power in range(1, cyc.order + 1):
        basis = cyc.fixed_subfield_basis(power)
        assert len(basis) == gcd(power, cyc.order)  # [K^(sigma^power) : F]
        free = [max(i for i, c in enumerate(w.coeffs()) if c) for w in basis]
        for t, w in enumerate(basis):
            assert cyc.apply(w, power) == w
            assert [w.coeffs()[f] for f in free] == [int(s == t) for s in range(len(basis))]


def test_sigma_preserves_minpoly():
    cyc = cyclic_cubic()
    minpoly = cyc.tower.levels[0].minpoly
    from isotower.tower import TowerElement

    sg = cyc.apply(cyc.tower.gen())
    acc = cyc.tower.zero(1)
    for c in reversed(minpoly):
        acc = acc * sg + TowerElement(cyc.tower, 0, c).embed(1)
    assert acc.is_zero()


@pytest.mark.parametrize("make", [lambda: cyclic_sqrt(2), cyclic_cubic], ids=["sqrt2", "cubic"])
def test_apply_power_is_repeated_application(make):
    # sigma^p, p mod r passes of sigma, agrees with p single applications
    # for every p, negative ones included, and the raw form with the wrapped one
    cyc = make()
    x = cyc.tower.from_coeffs(cyc.k_level, [Fraction(3), Fraction(-1, 2), Fraction(5)][: cyc.order])
    for p in range(-cyc.order, 2 * cyc.order):
        y = cyc.apply(x, p)
        assert cyc._apply_raw(x.data, p) == y.data
        if p >= 0:
            z = x
            for _ in range(p):
                z = cyc.apply(z)
            assert y == z
        else:
            for _ in range(-p):
                y = cyc.apply(y)
            assert y == x


# -- structure constants ----------------------------------------------------------------


def associative_on(alg, i: int, j: int, k: int) -> bool:
    """(e_i e_j) e_k == e_i (e_j e_k), through the public rows and product."""
    one = alg.tower.one(alg.level)
    return alg.mul_sparse(dict(alg.row(i, j)), {k: one}) == alg.mul_sparse(
        {i: one}, dict(alg.row(j, k))
    )


def test_quaternion_tables_associative_all_triples():
    tower = tower_extend(QQ, [-2, 0, 1], label="s2")
    for q in (
        standard_quaternion(tower.gen(), tower.rational(-1)),
        bracket_quaternion(tower.rational(1), tower.gen() + 3),
    ):
        alg = quaternion_structure_algebra(q)
        assert alg.check_unit()
        for i, j, k in product(range(4), repeat=3):
            assert associative_on(alg, i, j, k)


def test_matrix_algebra_m2():
    alg = matrix_algebra(QQ, 0)
    assert alg.check_unit() and alg.matrix_units
    for i, j, k in product(range(4), repeat=3):
        assert associative_on(alg, i, j, k)


def test_algebra_doc_round_trip():
    alg = matrix_algebra(tower_extend(QQ, [-2, 0, 1], label="s2"), 1)
    doc = algebra_doc(alg)
    back = algebra_from_doc(doc)
    assert algebra_doc(back) == doc


def test_algebra_doc_zero_cells_are_not_shared():
    # above level 0 every zero cell is its own list: editing one in place
    # leaves the other 55 zero cells of M2 over Q(sqrt 2) as they were
    constants = algebra_doc(matrix_algebra(cyclic_sqrt(2).tower, 1))["constants"]
    cells = [cell for plane in constants for row in plane for cell in row]
    zero = ["0/1", "0/1"]
    zeros = [cell for cell in cells if cell == zero]
    assert len(zeros) == 56
    zeros[0][0] = "1/1"
    assert sum(cell == zero for cell in cells) == 55


# -- conjugates -----------------------------------------------------------------------


def test_conjugate_rational_constants_fixed():
    cyc = cyclic_sqrt(2)
    alg = quaternion_structure_algebra(
        standard_quaternion(cyc.tower.rational(-1), cyc.tower.rational(-1))
    )
    assert conjugate_algebra(alg, cyc, 1).rows == alg.rows


def test_conjugate_flips_sqrt2():
    cyc = cyclic_sqrt(2)
    s = cyc.tower.gen()
    alg = quaternion_structure_algebra(standard_quaternion(s, cyc.tower.rational(-1)))
    conj = conjugate_algebra(alg, cyc, 1)
    assert conj.row(1, 1)[0][1] == -s
    assert conjugate_algebra(alg, cyc, cyc.order).rows == alg.rows  # sigma^r = id


def test_conjugates_stay_associative():
    cyc = cyclic_cubic()
    a = cyc.tower.gen()
    alg = quaternion_structure_algebra(standard_quaternion(a, a + 2))
    conj = conjugate_algebra(alg, cyc, 1)
    for i, j, k in product(range(4), repeat=3):
        assert associative_on(conj, i, j, k)


def _s2_s3():
    return tower_extend(cyclic_sqrt(2).tower, [-3, 0, 1], label="sqrt3")


def _mixed_dense():
    """from_dense at level 2 of Q(sqrt2, sqrt3) on constants given as
    rationals, level-1 and level-2 elements, zeros of each kind among them."""
    t = _s2_s3()
    constants = [
        [[1, t.zero(1)], [0, t.gen(1)]],
        [[t.gen(2), t.zero(2)], [Fraction(1, 2), t.rational(3, 1) + t.gen(1)]],
    ]
    return StructureConstantAlgebra.from_dense(t, 2, constants, [1, t.zero(1)])


def _quat_sqrt2():
    cyc = cyclic_sqrt(2)
    q = standard_quaternion(cyc.tower.gen(), cyc.tower.rational(-1))
    return cyc, quaternion_structure_algebra(q)


RAW_ROW_CASES = {
    "from_dense": _mixed_dense,
    "from_doc": lambda: algebra_from_doc(algebra_doc(_mixed_dense())),
    "matrix_algebra": lambda: matrix_algebra(cyclic_sqrt(2).tower, 1),
    "quaternion-standard": lambda: _quat_sqrt2()[1],
    "quaternion-bracket": lambda: quaternion_structure_algebra(
        bracket_quaternion(field_sqrt(2).gen(), field_sqrt(2).rational(3))),
    "conjugate": lambda: conjugate_algebra(_quat_sqrt2()[1], _quat_sqrt2()[0], 1),
    "conjugate-below-K": lambda: conjugate_algebra(
        matrix_algebra(cyclic_sqrt(2).tower, 0), cyclic_sqrt(2), 1),
    "tensor-power": lambda: tensor_power_over_K(_quat_sqrt2()[1], _quat_sqrt2()[0]).algebra,
    "fixed_subalgebra": lambda: run_cor(*_quat_sqrt2()).algebra,
    "fixed_subalgebra-level2": lambda: run_cor(*_quat_over_level2()).algebra,
    "fixed_subalgebra-below-level2": lambda: run_cor(*_quat_sqrt2_below_level2()).algebra,
}


@pytest.mark.parametrize("case", sorted(RAW_ROW_CASES))
def test_rows_hold_raw_nonzero_data_at_the_level(case):
    # every producer stores each constant as nonzero raw data shaped for the
    # algebra's level, and row(i, j) wraps exactly that data
    alg = RAW_ROW_CASES[case]()
    ctx, lv = alg.tower._ctx, alg.level
    assert len(alg.rows) == alg.dim**2
    for i, j in product(range(alg.dim), repeat=2):
        raw = alg.rows[i * alg.dim + j]
        for _k, c in raw:
            _check_shape(ctx, lv, c)
            assert not _is_zero(c, lv)
        wrapped = alg.row(i, j)
        assert all(x.tower is alg.tower and x.level == lv for _k, x in wrapped)
        assert [(k, x.data) for k, x in wrapped] == list(raw)


def _quat_sqrt2_below_level2():
    """(sqrt2, -1) at level 1 of its own tower Q(sqrt2), against K = Q(sqrt2,
    sqrt3) over F = Q(sqrt2): an algebra below K's level."""
    cyc, _alg = _quat_over_level2()
    low = cyc.tower.prefix(1)
    return cyc, quaternion_structure_algebra(standard_quaternion(low.gen(1), low.rational(-1)))


CONJUGATE_CASES = {
    "quat-sqrt2": _quat_sqrt2,
    "m2-below-sqrt2": lambda: (cyclic_sqrt(2), matrix_algebra(cyclic_sqrt(2).tower, 0)),
    "quat-cubic": lambda: (cyclic_cubic(), quaternion_structure_algebra(
        standard_quaternion(cyclic_cubic().tower.gen(), cyclic_cubic().tower.gen() + 2))),
    "kxk-zeta5": zeta5_k_times_k,
    "quat-level2": lambda: _quat_over_level2(),
    "quat-below-level2": _quat_sqrt2_below_level2,
}


@pytest.mark.parametrize("case", sorted(CONJUGATE_CASES))
def test_conjugate_rows_match_apply(case):
    # each conjugate's raw constant is sigma^(-power) of the source constant
    # through the public apply, for A at and below K's level
    cyc, alg = CONJUGATE_CASES[case]()
    for power in range(cyc.order):
        conj = conjugate_algebra(alg, cyc, power)
        assert conj.tower is cyc.tower and conj.level == cyc.k_level
        for i, j in product(range(alg.dim), repeat=2):
            want = tuple((k, cyc.apply(c, -power).data) for k, c in alg.row(i, j))
            assert conj.rows[i * alg.dim + j] == want, (power, i, j)
        assert conj.unit == tuple(cyc.apply(c, -power) for c in alg.unit)


@pytest.mark.parametrize("make", [
    lambda t: matrix_algebra(t, 2),
    lambda t: quaternion_structure_algebra(standard_quaternion(t.gen(2), t.gen(1))),
], ids=["m2", "quat"])
def test_algebra_above_k_level_is_rejected(make):
    # K = Q(sqrt2) is level 1 of Q(sqrt2, sqrt3); an algebra at level 2
    # cannot be twisted by sigma, and the tensor power says so the same way
    tower = _s2_s3()
    cyc = CyclicExtensionData.create(tower, 1, [[1, 0], [0, -1]], 2)
    alg = make(tower)
    with pytest.raises(ValueError, match="cannot embed downward"):
        conjugate_algebra(alg, cyc, 1)
    with pytest.raises(ValueError, match="cannot embed downward"):
        tensor_power_over_K(alg, cyc)


# -- tensor powers ----------------------------------------------------------------------


def test_tensor_dimensions():
    cyc = cyclic_sqrt(2)
    m2 = matrix_algebra(cyc.tower, 1)
    assert tensor_power_over_K(m2, cyc).algebra.dim == 16
    cyc3 = cyclic_cubic()
    q = quaternion_structure_algebra(
        standard_quaternion(cyc3.tower.rational(-1), cyc3.tower.rational(-1))
    )
    assert tensor_power_over_K(q, cyc3).algebra.dim == 64


def test_tensor_dimension_is_power_of_base():
    cyc = cyclic_sqrt(2)
    alg = quaternion_structure_algebra(
        standard_quaternion(cyc.tower.rational(2), cyc.tower.rational(3))
    )
    ta = tensor_power_over_K(alg, cyc)
    assert ta.algebra.dim == alg.dim**cyc.order
    assert ta.base_dim == alg.dim and ta.r == cyc.order


def test_memory_guard():
    cyc = cyclic_cubic()
    big = matrix_algebra(cyc.tower, 1, n=4)  # dim 16, 16^3 = 4096 allowed
    assert tensor_power_over_K(big, cyc).algebra.dim == 4096
    bigger = matrix_algebra(cyc.tower, 1, n=5)  # 25^3 > 4096
    with pytest.raises(MemoryGuardExceeded):
        tensor_power_over_K(bigger, cyc)


def test_tensor_rows_as_a_sequence():
    # the public rows and row() of a tensor power agree with its product
    cyc = cyclic_sqrt(2)
    one = cyc.tower.one(1)
    for alg in (
        matrix_algebra(cyc.tower, 1),
        quaternion_structure_algebra(
            standard_quaternion(cyc.tower.rational(-1), cyc.tower.rational(-1))
        ),
    ):
        ta = tensor_power_over_K(alg, cyc)
        assert len(ta.algebra.rows) == 256
        for i, j in product(range(16), repeat=2):
            assert dict(ta.algebra.row(i, j)) == ta.algebra.mul_sparse({i: one}, {j: one})
        with pytest.raises(IndexError):
            ta.algebra.rows[256]


def test_tensor_associativity_sampled():
    cyc = cyclic_sqrt(2)
    s = cyc.tower.gen()
    alg = quaternion_structure_algebra(standard_quaternion(s, cyc.tower.rational(-1)))
    ta = tensor_power_over_K(alg, cyc)
    rng = random.Random(8)
    for _ in range(60):
        i, j, k = (rng.randrange(16) for _ in range(3))
        assert associative_on(ta.algebra, i, j, k)


# -- the action ----------------------------------------------------------------------


def act_apply(act, vec, power: int = 1):
    """T applied power >= 0 times to vec, where T(x)[q] = sigma^(-1)(x[perm[q]])."""
    out = tuple(vec)
    for _ in range(power):
        out = tuple(act.cyclic.apply(out[p], -1) for p in act.perm)
    return out


def test_action_swaps_pure_tensor():
    cyc = cyclic_sqrt(2)
    m2 = matrix_algebra(cyc.tower, 1)
    ta = tensor_power_over_K(m2, cyc)
    act = g_action_matrix(ta, cyc)
    zero = cyc.tower.zero(1)
    one = cyc.tower.one(1)
    # e_1 (x) e_2 has flat index 1*4 + 2; its image is e_2 (x) e_1
    vec = [zero] * 16
    vec[1 * 4 + 2] = one
    out = act_apply(act, tuple(vec))
    assert out[2 * 4 + 1] == one and sum(1 for x in out if x) == 1


def test_action_perm_rotates_the_leg_digits():
    # perm[q] is q with its base-d digits, leg 0 most significant, rotated
    # left by one; the action reads it as one place-value shift
    from isotower.csa import TensorPowerAlgebra

    for d, r in product((2, 4, 9), (2, 3, 4)):
        if d**r > 4096:
            continue
        want = []
        for q in range(d**r):
            digits, rem = [], q
            for _ in range(r):
                rem, dig = divmod(rem, d)
                digits.append(dig)
            digits.reverse()
            flat = 0
            for dig in digits[1:] + digits[:1]:
                flat = flat * d + dig
            want.append(flat)
        assert g_action_matrix(TensorPowerAlgebra(None, base_dim=d, r=r), None).perm == tuple(want)


def test_action_semilinear():
    cyc = cyclic_sqrt(2)
    s = cyc.tower.gen()
    m2 = matrix_algebra(cyc.tower, 1)
    ta = tensor_power_over_K(m2, cyc)
    act = g_action_matrix(ta, cyc)
    zero = cyc.tower.zero(1)
    vec = [zero] * 16
    vec[1 * 4 + 2] = s
    out = act_apply(act, tuple(vec))
    assert out[2 * 4 + 1] == -s


def test_action_order_r():
    for cyc in (cyclic_sqrt(2), cyclic_cubic()):
        alg = quaternion_structure_algebra(
            standard_quaternion(cyc.tower.gen(), cyc.tower.rational(3))
        )
        ta = tensor_power_over_K(alg, cyc)
        act = g_action_matrix(ta, cyc)
        rng = random.Random(17)
        n = ta.algebra.dim
        for _ in range(10):
            vec = tuple(
                cyc.tower.rational(rng.randint(-5, 5), 1) + cyc.tower.gen() * rng.randint(-5, 5)
                for _ in range(n)
            )
            assert act_apply(act, vec, cyc.order) == vec


def as_sparse(vec):
    return {q: x for q, x in enumerate(vec) if x}


def as_dense(vec, n, zero):
    return tuple(vec.get(q, zero) for q in range(n))


def test_action_multiplicative():
    cyc = cyclic_cubic()
    alg = quaternion_structure_algebra(
        standard_quaternion(cyc.tower.gen(), cyc.tower.rational(2))
    )
    ta = tensor_power_over_K(alg, cyc)
    act = g_action_matrix(ta, cyc)
    rng = random.Random(23)
    n = ta.algebra.dim
    zero = cyc.tower.zero(1)
    for _ in range(5):
        x = [zero] * n
        y = [zero] * n
        for _ in range(3):
            x[rng.randrange(n)] = cyc.tower.rational(rng.randint(-3, 3), 1) + cyc.tower.gen() * rng.randint(0, 2)
            y[rng.randrange(n)] = cyc.tower.rational(rng.randint(-3, 3), 1)
        lhs = act_apply(act, as_dense(ta.algebra.mul_sparse(as_sparse(x), as_sparse(y)), n, zero))
        rhs = as_dense(ta.algebra.mul_sparse(as_sparse(act_apply(act, x)), as_sparse(act_apply(act, y))), n, zero)
        assert lhs == rhs


# -- fixed subalgebras -------------------------------------------------------------------


def run_cor(cyc, alg):
    ta = tensor_power_over_K(alg, cyc)
    return fixed_subalgebra(ta, g_action_matrix(ta, cyc))


def assert_verifies(cor, alg):
    ok, reason = verify.verify_cor(cor_result_doc(cor, alg))
    assert ok, reason


def test_fixed_m2_sqrt2():
    cyc = cyclic_sqrt(2)
    alg = matrix_algebra(cyc.tower, 1)
    cor = run_cor(cyc, alg)
    assert cor.algebra.dim == 16  # (deg 2)^(2*2)
    assert cor.algebra.check_unit()
    assert fixed_basis_spans(cor)
    assert central_simple_check(cor.algebra)
    assert_verifies(cor, alg)


def test_cor_of_algebra_below_k_level():
    # M2 built over Q and corestricted along Q(sqrt2): the tensor power lifts
    # it to K's level once, and the corestriction is that of M2 over K
    cyc = cyclic_sqrt(2)
    low = matrix_algebra(cyc.tower, 0)
    cor = run_cor(cyc, low)
    want = run_cor(cyc, matrix_algebra(cyc.tower, 1))
    assert cor.algebra.rows == want.algebra.rows
    assert cor.algebra.unit == want.algebra.unit
    assert cor.fixed_basis == want.fixed_basis
    ok, reason = verify.verify_cor(cor_result_doc(cor, low))
    assert ok, reason


def test_fixed_quaternion_cubic():
    cyc = cyclic_cubic()
    alg = quaternion_structure_algebra(
        standard_quaternion(cyc.tower.rational(-1), cyc.tower.rational(-1))
    )
    cor = run_cor(cyc, alg)
    assert cor.algebra.dim == 64  # (deg 2)^(2*3)
    assert central_simple_check(cor.algebra)
    assert fixed_basis_spans(cor)
    assert_verifies(cor, alg)


def test_idempotent_witness_m2():
    for cyc in (cyclic_sqrt(2), cyclic_cubic()):
        alg = matrix_algebra(cyc.tower, 1)
        cor = run_cor(cyc, alg)
        assert_verifies(cor, alg)
        dense, coords = split_idempotent_witness(cor)
        assert any(coords)
        # idempotent inside the corestriction
        assert cor.algebra.mul_sparse(as_sparse(coords), as_sparse(coords)) == as_sparse(coords)
        assert tuple(coords) != tuple(cor.algebra.unit)


def test_coordinates_of_fixed_basis():
    for cyc in (cyclic_sqrt(2), cyclic_cubic()):
        alg = matrix_algebra(cyc.tower, 1)
        cor = run_cor(cyc, alg)
        assert_verifies(cor, alg)
        n = cor.algebra.dim
        one, zero = cyc.tower.one(cyc.f_level), cyc.tower.zero(cyc.f_level)
        for i, vec in enumerate(cor.fixed_basis):
            coords = cor.coordinates({q: x for q, x in enumerate(vec) if x})
            assert coords == tuple(one if k == i else zero for k in range(n))
        # E_12 (x) E_11 (x) ... is moved by the leg shift, so it is not fixed
        with pytest.raises(PreconditionError):
            cor.coordinates({4 ** (cyc.order - 1): cyc.tower.one(cyc.k_level)})
        # E_11 (x) ... (x) E_11 is a one-point orbit, fixed only by F-multiples
        with pytest.raises(PreconditionError, match="fixed-basis span"):
            cor.coordinates({0: cyc.tower.gen(cyc.k_level)})


def test_coordinates_read_off_zeta5_orbits():
    cyc, alg = zeta5_k_times_k()
    ta = tensor_power_over_K(alg, cyc)
    act = g_action_matrix(ta, cyc)
    assert sorted(len(orbit) for orbit in _orbits(act.perm)) == [1, 1, 2, 4, 4, 4]
    cor = fixed_subalgebra(ta, act)
    assert_verifies(cor, alg)
    n = cor.algebra.dim
    one, zero = QQ.one(0), QQ.zero(0)
    for i, vec in enumerate(cor.fixed_basis):
        coords = cor.coordinates({q: x for q, x in enumerate(vec) if x})
        assert coords == tuple(one if k == i else zero for k in range(n))
    # positions 5 and 10 (leg exponents 0101 and 1010) form the orbit of
    # length 2; its representative runs over K^(sigma^2) = Q(sqrt 5)
    z = cyc.tower.gen()
    with pytest.raises(PreconditionError, match="fixed-basis span"):
        cor.coordinates({5: z, 10: cyc.apply(z)})
    omega = z + z**4  # fixed by sigma^2, moved by sigma
    with pytest.raises(PreconditionError, match="not action-fixed"):
        cor.coordinates({5: omega, 10: omega})
    x = {5: omega, 10: cyc.apply(omega)}
    coords = cor.coordinates(x)
    for q in range(n):
        entry = sum((c * vec[q] for c, vec in zip(coords, cor.fixed_basis)), cyc.tower.zero(1))
        assert entry == x.get(q, 0)


def _quat_minus_one(cyc):
    tower = cyc.tower
    return quaternion_structure_algebra(
        standard_quaternion(tower.rational(-1, cyc.k_level), tower.rational(-1, cyc.k_level))
    )


def _quat_over_level2():
    """(sqrt2, -1) over K = Q(sqrt2, sqrt3), corestricted to F = Q(sqrt2)."""
    tower = tower_extend(cyclic_sqrt(2).tower, [-3, 0, 1], label="sqrt3")
    cyc = CyclicExtensionData.create(tower, 2, [[1, 0], [0, -1]], 2)
    alg = quaternion_structure_algebra(
        standard_quaternion(tower.gen(1).embed(2), tower.rational(-1, 2))
    )
    return cyc, alg


DIFFERENTIAL_CASES = {
    "m2-sqrt2": lambda: (cyclic_sqrt(2), matrix_algebra(cyclic_sqrt(2).tower, 1)),
    "quat-sqrt2": lambda: (cyclic_sqrt(2), _quat_minus_one(cyclic_sqrt(2))),
    "quat-cubic": lambda: (cyclic_cubic(), _quat_minus_one(cyclic_cubic())),
    "kxk-zeta5": zeta5_k_times_k,
    "quat-level2": _quat_over_level2,
}


@pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
def test_fixed_subalgebra_matches_tensor_products(case):
    # every structure constant against the product of the two fixed basis
    # vectors in the tensor power, read back through coordinates (which also
    # checks that the product is action-fixed), and the unit against the
    # tensor unit read the same way
    cyc, alg = DIFFERENTIAL_CASES[case]()
    ta = tensor_power_over_K(alg, cyc)
    cor = fixed_subalgebra(ta, g_action_matrix(ta, cyc))
    basis = [as_sparse(vec) for vec in cor.fixed_basis]
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            coords = cor.coordinates(ta.algebra.mul_sparse(x, y))
            assert tuple((k, c) for k, c in enumerate(coords) if c) == cor.algebra.row(i, j), (i, j)
    assert cor.coordinates(as_sparse(ta.algebra.unit)) == cor.algebra.unit


def test_fixed_basis_spans_rejects_rank_deficient_orbit():
    # the orbit {1, 4} of M2's tensor square carries basis rows 1 and 2; a
    # copy of row 1 in place of row 2 leaves that block with rank 1
    cor, _doc = honest_m2_sqrt2()
    assert fixed_basis_spans(cor)
    assert [i for i, x in enumerate(cor.fixed_basis[2]) if x] == [1, 4]
    basis = list(cor.fixed_basis)
    basis[2] = basis[1]
    assert not fixed_basis_spans(dataclasses.replace(cor, fixed_basis=tuple(basis)))


@pytest.mark.parametrize("last, spans", [(2, True), (1, False)])
def test_fixed_basis_spans_ranks_chained_supports_as_one_block(last, spans):
    # rows over columns {0, 1}, {1, 2}, {2, 3} and {0, 3} chain into one
    # block, and unit rows fill the rest; r0 - r1 + r2 = (1, 0, 0, 1), so the
    # last row (1, 0, 0, last) is dependent exactly when last = 1
    cor, _doc = honest_m2_sqrt2()
    tower, k = cor.cyclic.tower, cor.cyclic.k_level
    n = cor.tensor.dim
    chain = [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, last)]
    rows = [tuple(chain[i]) + (0,) * (n - 4) if i < 4 else tuple(int(q == i) for q in range(n))
            for i in range(n)]
    basis = tuple(tuple(tower.rational(x, k) for x in row) for row in rows)
    assert fixed_basis_spans(dataclasses.replace(cor, fixed_basis=basis)) is spans


def test_idempotent_rejected_for_division_input():
    cyc = cyclic_sqrt(2)
    alg = quaternion_structure_algebra(
        standard_quaternion(cyc.tower.rational(-1), cyc.tower.rational(-1))
    )
    cor = run_cor(cyc, alg)
    assert_verifies(cor, alg)
    with pytest.raises(PreconditionError):
        split_idempotent_witness(cor)


def test_central_simple_counterexample():
    one, zero = QQ.one(0), QQ.zero(0)
    rows = (((0, one.data),), (), (), ((1, one.data),))
    qxq = StructureConstantAlgebra(QQ, 0, 2, rows, (one, one))
    assert not central_simple_check(qxq)  # center has dimension 2
    assert central_simple_check(matrix_algebra(QQ, 0))


def test_central_simple_rejects_upper_triangular():
    # E11, E12, E22: the center is the scalars, so the center step stops
    # early, but E12 lies in the radical and the trace form is degenerate
    one = QQ.one(0)
    u = one.data
    rows = (((0, u),), ((1, u),), (), (), (), ((1, u),), (), (), ((2, u),))
    upper = StructureConstantAlgebra(QQ, 0, 3, rows, (one, QQ.zero(0), one))
    assert upper.check_unit()
    assert not central_simple_check(upper)


def test_cor_dimension_shadow_tensor_product():
    # dim cor(A (x) B) = dim cor(A) * dim cor(B), for B = A: the orbit solve
    # gives dim_a^2 vectors for the action on the tensor square of A (x)_K A,
    # each one fixed and all of them independent
    from isotower.csa import _fixed_basis_sparse, TensorPowerAlgebra

    cyc = cyclic_sqrt(2)
    a = quaternion_structure_algebra(
        standard_quaternion(cyc.tower.gen(), cyc.tower.rational(-1))
    )
    cor_a = run_cor(cyc, a)
    assert_verifies(cor_a, a)
    dim_a = cor_a.algebra.dim
    # A (x)_K A has K-dimension 16, so the action is on 16^2 = 256 positions
    act = g_action_matrix(TensorPowerAlgebra(None, base_dim=16, r=2), cyc)
    vectors, _meta = _fixed_basis_sparse(act)
    assert len(vectors) == dim_a * dim_a
    for vec in vectors:
        # T(x)[q] = sigma^(-1)(x[perm[q]]), read at the support of x and of T(x)
        image = {q: cyc.apply(vec[p], -1) for q, p in enumerate(act.perm) if p in vec}
        assert image == vec
    assert verify._independent(vec.items() for vec in vectors)


def test_cor_result_verifies():
    cyc = cyclic_gaussian()
    alg = matrix_algebra(cyc.tower, 1)
    cor = run_cor(cyc, alg)
    doc = cor_result_doc(cor, alg)
    ok, reason = verify.verify_cor(doc)
    assert ok, reason


def test_cor_tampered_constant_fails():
    cyc = cyclic_sqrt(2)
    alg = matrix_algebra(cyc.tower, 1)
    cor = run_cor(cyc, alg)
    doc = cor_result_doc(cor, alg)
    bad = dict(doc)
    constants = [ [ [c for c in row] for row in plane] for plane in doc["constants"]]
    constants[0][0][1] = "7/1" if constants[0][0][1] != "7/1" else "5/1"
    bad["constants"] = constants
    ok, _ = verify.verify_cor(bad)
    assert not ok


def honest_m2_sqrt2():
    cyc = cyclic_sqrt(2)
    alg = matrix_algebra(cyc.tower, 1)
    cor = run_cor(cyc, alg)
    return cor, cor_result_doc(cor, alg)


def test_cor_forgery_dependent_basis_fails():
    # 16 copies of the tensor unit multiply by the claimed e_i e_j = e_0 and
    # combine to the unit e_0, but span only the scalars over K
    cor, doc = honest_m2_sqrt2()
    n = cor.algebra.dim
    e0 = ["1/1"] + ["0/1"] * (n - 1)
    doc["fixed_basis"] = [vector_to_json(cor.tensor.unit)] * n
    doc["constants"] = [[e0] * n for _ in range(n)]
    doc["unit"] = e0
    ok, reason = verify.verify_cor(doc)
    assert not ok and "independent" in reason


def test_cor_forgery_trivial_sigma_fails():
    # A passed off as its own corestriction along an order-1 "extension"
    _cor, doc = honest_m2_sqrt2()
    src = doc["source"]["algebra"]
    forged = dict(src)
    forged["fixed_basis"] = [["1/1" if q == i else "0/1" for q in range(4)] for i in range(4)]
    forged["source"] = {
        "algebra": src,
        "cyclic": {"k_level": 1, "order": 1, "sigma": [["1/1"]]},
    }
    ok, reason = verify.verify_cor(forged)
    assert not ok and "[K:F]" in reason


def m2_sqrt2_below_top():
    """M2 corestricted along Q(sqrt2)/Q inside the tower Q(sqrt2, sqrt3), so
    that K is level 1 and not the top of the field's tower."""
    tower = tower_extend(cyclic_sqrt(2).tower, [-3, 0, 1], label="sqrt3")
    cyc = CyclicExtensionData.create(tower, 1, [[1, 0], [0, -1]], 2)
    alg = matrix_algebra(tower, 1)
    cor = run_cor(cyc, alg)
    return tower, cor_result_doc(cor, alg)


def test_cor_forgery_swapped_field_fails():
    tower, doc = m2_sqrt2_below_top()
    assert verify.verify_cor(doc)[0]
    doc["field"] = tower_to_json(field_sqrt(5))
    ok, reason = verify.verify_cor(doc)
    assert not ok and "field" in reason


@pytest.mark.parametrize("path", [("fixed_basis", 0, 0), ("constants", 0, 0, 0), ("unit", 0)])
def test_cor_entry_above_k_level_exits_malformed(tmp_path, capsys, path):
    tower, doc = m2_sqrt2_below_top()
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = element_to_json(tower.gen(2))
    bad = tmp_path / "bad.json"
    bad.write_text(canonical_dumps(doc))
    assert main(["verify", "--input", str(bad)]) == 2
    assert "malformed input" in capsys.readouterr().err


def test_cor_forgery_constant_outside_f_fails():
    tower, doc = m2_sqrt2_below_top()
    doc["unit"][0] = element_to_json(tower.gen(1))
    ok, reason = verify.verify_cor(doc)
    assert not ok and "outside F" in reason


@pytest.mark.parametrize(
    "entry, value, why",
    [
        ((0, 0), "5/1", "sigma(gen^0)"),  # sigma(1) = 5: not multiplicative
        ((1, 1), "2/1", "not a root"),  # sigma(sqrt2) = 2 sqrt2
        ((1, 1), "1/1", "order 1"),  # the identity
    ],
)
def test_cor_forged_sigma_fails(entry, value, why):
    _cor, doc = honest_m2_sqrt2()
    i, j = entry
    doc["source"]["cyclic"]["sigma"][i][j] = value
    ok, reason = verify.verify_cor(doc)
    assert not ok and why in reason


def test_cor_fixed_basis_entry_with_zero_source_fails():
    # the action swaps positions 1 = (0, 1) and 4 = (1, 0); entry 4 of fixed
    # basis vector 0 is zero, so its entry 1 must be zero too
    _cor, doc = honest_m2_sqrt2()
    vec = doc["fixed_basis"][0]
    assert vec[1] == vec[4] == ["0/1", "0/1"]
    vec[1] = ["1/1", "0/1"]
    ok, reason = verify.verify_cor(doc)
    assert not ok and reason == "fixed basis vector 0 is not fixed by the action"


def honest_division_sqrt2():
    cyc = cyclic_sqrt(2)
    alg = quaternion_structure_algebra(
        standard_quaternion(cyc.tower.rational(-1), cyc.tower.rational(-1))
    )
    return cor_result_doc(run_cor(cyc, alg), alg)


def test_cor_forged_product_outside_generators_fails():
    # products are rebuilt in the tensor power only for the generators
    # S = {0, 1, 2, 3, 4, 7, 12} of honest M2; f_14 lies outside S and outside
    # the unit's support {0, 5, 15}, so only the spin-step identities see a
    # forged f_14 f_3 (the last index, 15, is a unit component)
    _cor, doc = honest_m2_sqrt2()
    assert verify.verify_cor(doc)[1].endswith("products exact on 7 generators")
    doc["constants"][14][3][0] = "9/1"
    ok, reason = verify.verify_cor(doc)
    assert not ok and "associative at spin step" in reason


def test_cor_unit_not_left_identity_fails():
    # the unit of honest (-1, -1) is f_0; claim f_0 f_1 = f_1 + f_2
    doc = honest_division_sqrt2()
    assert doc["unit"] == ["1/1"] + ["0/1"] * 15
    doc["constants"][0][1][2] = "1/1"
    ok, reason = verify.verify_cor(doc)
    assert not ok and "not a left identity" in reason


def test_cor_constants_that_do_not_spin_fail():
    # f_0 f_j = f_j and every other product is claimed 0: the unit f_0
    # combines to the tensor unit and is a left identity, but no generator
    # moves it
    doc = honest_division_sqrt2()
    n = doc["dim"]
    e = [["1/1" if q == k else "0/1" for q in range(n)] for k in range(n)]
    doc["constants"] = [e] + [[["0/1"] * n] * n] * (n - 1)
    ok, reason = verify.verify_cor(doc)
    assert not ok and reason == "the unit spins to only 1 of 16 dimensions"


@pytest.mark.parametrize("which", ["m2", "division"])
def test_cor_constant_mutations_fail(which):
    # every nonzero structure constant raised by 1, and every 200th zero set to 1
    doc = honest_m2_sqrt2()[1] if which == "m2" else honest_division_sqrt2()
    assert verify.verify_cor(doc)[0]
    planes = doc["constants"]
    cells = list(product(range(doc["dim"]), repeat=3))
    nonzero = [c for c in cells if planes[c[0]][c[1]][c[2]] != "0/1"]
    zeros = [c for c in cells if planes[c[0]][c[1]][c[2]] == "0/1"][::200]
    for i, j, k in nonzero + zeros:
        old = planes[i][j][k]
        q = Fraction(old) + 1
        planes[i][j][k] = f"{q.numerator}/{q.denominator}"
        try:
            ok, _reason = verify.verify_cor(doc)
        except MalformedCertificate:
            ok = False
        planes[i][j][k] = old
        assert not ok, (i, j, k)


# -- corestriction along K/F with F above the rationals --------------------------------------


@functools.cache
def _level2_cor_text(which):
    """Canonical text of a corestriction along K = Q(sqrt2, sqrt3) over
    F = Q(sqrt2), so that k_level is 2: M2, or the quaternion algebra
    (sqrt2, -1) over K."""
    tower = tower_extend(cyclic_sqrt(2).tower, [-3, 0, 1], label="sqrt3")
    cyc = CyclicExtensionData.create(tower, 2, [[1, 0], [0, -1]], 2)
    if which == "m2":
        alg = matrix_algebra(tower, 2)
    else:
        alg = quaternion_structure_algebra(
            standard_quaternion(tower.gen(1).embed(2), tower.rational(-1, 2))
        )
    return canonical_dumps(cor_result_doc(run_cor(cyc, alg), alg))


def level2_cor_doc(which):
    return json.loads(_level2_cor_text(which))


def bumped(leaf):
    q = Fraction(leaf) + 1
    return f"{q.numerator}/{q.denominator}"


@pytest.mark.parametrize("which", ["m2", "quat"])
def test_cor_over_level1_field_verifies(which):
    doc = level2_cor_doc(which)
    assert doc["source"]["cyclic"]["k_level"] == 2
    ok, reason = verify.verify_cor(doc)
    assert ok, reason


@pytest.mark.parametrize("which", ["m2", "quat"])
def test_cor_over_level1_field_constant_mutations_fail(which):
    # every nonzero structure constant, an element a + b sqrt2 of F, with a
    # or b raised by 1
    doc = level2_cor_doc(which)
    planes = doc["constants"]
    zero = ["0/1", "0/1"]
    cells = [c for c in product(range(doc["dim"]), repeat=3) if planes[c[0]][c[1]][c[2]] != zero]
    assert cells
    for i, j, k in cells:
        entry = planes[i][j][k]
        for coord in range(2):
            old = entry[coord]
            entry[coord] = bumped(old)
            ok, _reason = verify.verify_cor(doc)
            entry[coord] = old
            assert not ok, (i, j, k, coord)
    assert verify.verify_cor(doc)[0]


@pytest.mark.parametrize("which", ["m2", "quat"])
def test_cor_over_level1_field_bumped_fixed_basis_fails(which):
    # the first nonzero leaf of each fixed basis vector raised by 1
    doc = level2_cor_doc(which)
    for bi, vec in enumerate(doc["fixed_basis"]):
        pos = next(p for p, x in enumerate(vec) if x != [["0/1", "0/1"], ["0/1", "0/1"]])
        entry = vec[pos]
        a, b = next((a, b) for a in range(2) for b in range(2) if entry[a][b] != "0/1")
        old = entry[a][b]
        entry[a][b] = bumped(old)
        ok, reason = verify.verify_cor(doc)
        entry[a][b] = old
        assert not ok, (bi, reason)


@pytest.mark.parametrize(
    "entry, value, why",
    [
        ((0, 0), ["0/1", "1/1"], "sigma(gen^0)"),  # sigma(1) = sqrt2
        ((1, 1), ["0/1", "1/1"], "not a root"),  # sigma(sqrt3) = sqrt2 sqrt3
        ((1, 1), ["1/1", "0/1"], "order 1"),  # the identity
    ],
)
@pytest.mark.parametrize("which", ["m2", "quat"])
def test_cor_over_level1_field_forged_sigma_fails(which, entry, value, why):
    doc = level2_cor_doc(which)
    i, j = entry
    doc["source"]["cyclic"]["sigma"][i][j] = value
    ok, reason = verify.verify_cor(doc)
    assert not ok and why in reason


# -- base change --------------------------------------------------------------------------


def test_base_change_sqrt3():
    cyc = cyclic_sqrt(2)
    alg = quaternion_structure_algebra(
        standard_quaternion(cyc.tower.gen(), cyc.tower.rational(-1))
    )
    assert base_change_embedding_check(alg, cyc, [Fraction(-3), Fraction(0), Fraction(1)])


def test_base_change_trivial_L():
    cyc = cyclic_sqrt(2)
    alg = matrix_algebra(cyc.tower, 1)
    assert base_change_embedding_check(alg, cyc, [Fraction(0), Fraction(1)])


def test_base_change_rejects_L_equal_K():
    cyc = cyclic_sqrt(2)
    alg = matrix_algebra(cyc.tower, 1)
    assert not base_change_embedding_check(alg, cyc, [Fraction(-2), Fraction(0), Fraction(1)])


# -- the central-simplicity check against the dense elimination ---------------


def dense_central_simple_check(a):
    """The check as it was before its sparse echelon: the commutator rows of
    each generator re-reduced with the echelon so far by a dense rref, then
    the rank of the dense trace-form matrix."""
    from isotower.linalg import _rref_raw
    from isotower.tower import _add, _dot, _is_zero, _raw_zero, _sub

    if not a.check_unit():
        return False
    n, ctx, lv, raw_row = a.dim, a.tower._ctx, a.level, a.rows.__getitem__
    zero = _raw_zero(ctx, lv)
    echelon: list = []
    for i in range(n):
        comm = [[zero] * n for _ in range(n)]
        for j in range(n):
            for k, c in raw_row(i * n + j):
                comm[k][j] = c
            for k, c in raw_row(j * n + i):
                comm[k][j] = _sub(ctx, lv, comm[k][j], c)
        nonzero = [r for r in comm if any(not _is_zero(x, lv) for x in r)]
        red, pivots = _rref_raw(ctx, lv, echelon + nonzero)
        echelon = red[: len(pivots)]
        if len(echelon) == n - 1:
            break
    if len(echelon) != n - 1:
        return False
    tr = []
    for k in range(n):
        acc = zero
        for m in range(n):
            for idx, c in raw_row(k * n + m):
                if idx == m:
                    acc = _add(ctx, lv, acc, c)
        tr.append(acc)
    tmat = []
    for i in range(n):
        row = []
        for j in range(n):
            pairs = [(c, tr[k]) for k, c in raw_row(i * n + j) if not _is_zero(tr[k], lv)]
            row.append(_dot(ctx, lv, pairs) if pairs else zero)
        tmat.append(row)
    _, pivots = _rref_raw(ctx, lv, tmat)
    return len(pivots) == n


def _central_simple_cases():
    s2 = field_sqrt(2)
    one = QQ.one(0)
    u = one.data
    upper_rows = (((0, u),), ((1, u),), (), (), (), ((1, u),), (), (), ((2, u),))
    m2 = matrix_algebra(QQ, 0)
    cases = {
        "m2": (m2, True),
        "quaternion(-1,-1)": (quaternion_structure_algebra(
            standard_quaternion(QQ.rational(-1), QQ.rational(-1))), True),
        "m2 over Q(sqrt2)": (matrix_algebra(s2, 1), True),
        "quaternion(-1,-1) over Q(sqrt2)": (quaternion_structure_algebra(
            standard_quaternion(s2.rational(-1), s2.rational(-1))), True),
        "Q x Q": (StructureConstantAlgebra(QQ, 0, 2, (((0, u),), (), (), ((1, u),)),
                                           (one, one)), False),
        # the center test passes, the trace test fails
        "upper triangular": (StructureConstantAlgebra(QQ, 0, 3, upper_rows,
                                                      (one, QQ.zero(0), one)), False),
        "wrong unit": (dataclasses.replace(m2, unit=(one,) + (QQ.zero(0),) * 3), False),
    }
    # the algebra of every golden corestriction case
    cyc = cyclic_sqrt(2)
    quat = quaternion_structure_algebra(
        standard_quaternion(cyc.tower.rational(-1, 1), cyc.tower.rational(-1, 1)))
    cubic = cyclic_cubic()
    cases["cor-sqrt2-quaternion"] = (run_cor(cyc, quat).algebra, True)
    cases["cor-m2-cubic"] = (run_cor(cubic, matrix_algebra(cubic.tower, 1)).algebra, True)
    cases["cor-kxk-zeta5"] = (run_cor(*zeta5_k_times_k()).algebra, False)
    return cases


def test_central_simple_check_matches_dense_elimination():
    for name, (alg, expected) in _central_simple_cases().items():
        assert central_simple_check(alg) is expected, name
        assert dense_central_simple_check(alg) is expected, name
