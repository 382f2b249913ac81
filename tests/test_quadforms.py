import hashlib
import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from isotower import linalg
from isotower.certjson import isotropy_certificate_doc
from isotower.errors import (
    AllVanish,
    DimensionTooSmall,
    MalformedCertificate,
    PreconditionError,
    ReducibilityError,
)
from isotower.generate import random_qfsystem
from isotower.quadforms import (
    LinearFunctionalBasis,
    QFSystem,
    QuadraticForm,
    clear_denominators,
    diagonalize,
    flatten_between,
    isotropy_2ext,
    mix_forms,
    _from_ints,
    _restrict,
    _scan_vector,
    _solve_system,
    orthogonal_intersection,
    transfer_system,
)
from isotower.presets import field_cubic, field_quintic, field_septic
from isotower.serialize import canonical_dumps
from isotower.tower import QQ, dot, tower_extend
from isotower import verify
from test_serialize import fresh, fresh_element
from test_tower import _dot_towers, _random_element


def diag(*entries):
    return QuadraticForm.diagonal(QQ, 0, list(entries))


def vec(*xs):
    return tuple(QQ.rational(x) for x in xs)


def random_system_over(rng, tower, r):
    """r forms in r(r+1)/2 + 1 variables over the top of a one-level tower,
    with Gram entries c + d*gen for small random integers c and d."""
    n, g = r * (r + 1) // 2 + 1, tower.gen()
    forms = []
    for _ in range(r):
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randint(-3, 3) + rng.randint(-3, 3) * g
        forms.append(QuadraticForm.from_gram(tower, 1, rows))
    return QFSystem(tuple(forms))


# -- evaluation ------------------------------------------------------------------


def test_evaluate_examples():
    assert diag(1, 1).evaluate(vec(3, 4)) == 25
    assert diag(1, 2, 3).evaluate(vec(1, 1, 1)) == 6
    q_s = tower_extend(QQ, [-2, 0, 1], label="s2")
    form = QuadraticForm.diagonal(q_s, 1, [1, -2])
    assert form.evaluate((q_s.gen(), q_s.one())).is_zero()
    # plain numbers are read as rationals
    assert QuadraticForm.from_gram(QQ, 0, [[1, 3], [3, 2]]).evaluate([1, 2]) == 21


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        diag(1, 1).evaluate(vec(1, 2, 3))


def test_polarization_identity():
    rng = random.Random(3)
    form = random_qfsystem(rng, 1, dim=4).forms[0]
    for _ in range(10):
        x = vec(*[rng.randint(-5, 5) for _ in range(4)])
        y = vec(*[rng.randint(-5, 5) for _ in range(4)])
        xy = tuple(a + b for a, b in zip(x, y))
        lhs = form.evaluate(xy) - form.evaluate(x) - form.evaluate(y)
        assert lhs == 2 * dot(x, linalg.matvec(form.gram, y))


# -- diagonalization ---------------------------------------------------------------


def check_congruence(form, diag_entries, p):
    got = linalg.matmul(tuple(zip(*p)), linalg.matmul(form.gram, p))
    n = form.dim
    for i in range(n):
        for j in range(n):
            if i == j:
                assert got[i][j] == diag_entries[i]
            else:
                assert not got[i][j]
    assert linalg.rank(p) == n  # genuinely a basis change


def test_diagonalize_hyperbolic():
    form = QuadraticForm.from_gram(QQ, 0, [[0, 1], [1, 0]])
    d, p = diagonalize(form)
    check_congruence(form, d, p)
    assert all(d)


@pytest.mark.parametrize(
    "gram",
    [
        # zero first diagonal entry, a later one nonzero: pivot by swap
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        # zero first row and diagonal: swap in the first off-diagonal pair
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
    ],
)
def test_diagonalize_zero_diagonal(gram):
    form = QuadraticForm.from_gram(QQ, 0, gram)
    d, p = diagonalize(form)
    check_congruence(form, d, p)
    assert sum(1 for x in d if x) == linalg.rank(form.gram)


def test_diagonalize_already_diagonal():
    form = diag(2, 3)
    d, p = diagonalize(form)
    assert list(d) == [QQ.rational(2), QQ.rational(3)]
    assert p == linalg.identity(QQ, 0, 2)


def test_diagonalize_rank_deficient():
    form = QuadraticForm.from_gram(QQ, 0, [[1, 1], [1, 1]])
    d, p = diagonalize(form)
    check_congruence(form, d, p)
    assert sum(1 for x in d if not x) == 1  # kernel vector exposed


def test_diagonalize_random_congruence():
    rng = random.Random(9)
    for _ in range(10):
        form = random_qfsystem(rng, 1, dim=5).forms[0]
        d, p = diagonalize(form)
        check_congruence(form, d, p)


# -- mixing ------------------------------------------------------------------------


def test_mix_example():
    system = QFSystem((diag(1, -1), diag(1, 1)))
    mixed = mix_forms(system, vec(1, 0))
    assert mixed.forms[0].gram[0][0] == 0
    assert mixed.forms[0].gram[1][1] == -2
    assert mixed.forms[1].gram == diag(1, 1).gram


def test_mix_reindexes_largest_nonvanishing():
    # phi_2 vanishes at v, phi_1 does not: phi_1 moves to the last slot
    system = QFSystem((diag(1, 1), diag(0, 1)))
    mixed = mix_forms(system, vec(1, 0))
    assert mixed.forms[-1].gram == diag(1, 1).gram
    assert mixed.forms[0].evaluate(vec(1, 0)).is_zero()


def test_mix_all_vanish():
    system = QFSystem((diag(0, 1), diag(0, 2)))
    with pytest.raises(AllVanish):
        mix_forms(system, vec(1, 0))


def test_mix_value_identity_random():
    # each mixed phi_i(x) is a_r phi_i(x) - a_i phi_r(x) for the forms after
    # the swap, the last mixed form is phi_r, and the first r-1 vanish at v
    rng = random.Random(4)
    for _ in range(5):
        system = random_qfsystem(rng, 3, dim=5)
        v = vec(*[rng.randint(-3, 3) for _ in range(5)])
        vals = [f.evaluate(v) for f in system.forms]
        if not any(vals):
            continue
        pick = max(i for i, a in enumerate(vals) if a)
        forms = list(system.forms)
        forms[pick], forms[-1] = forms[-1], forms[pick]
        vals[pick], vals[-1] = vals[-1], vals[pick]
        mixed = mix_forms(system, v)
        assert all(f.evaluate(v).is_zero() for f in mixed.forms[:-1])
        for _ in range(20):
            x = vec(*[rng.randint(-4, 4) for _ in range(5)])
            at_x = [f.evaluate(x) for f in forms]
            assert mixed.forms[-1].evaluate(x) == at_x[-1]
            for i in range(2):
                assert mixed.forms[i].evaluate(x) == vals[-1] * at_x[i] - vals[i] * at_x[-1]


@pytest.mark.parametrize("case", sorted(_dot_towers()))
def test_raw_forms_match_wrapped_arithmetic(case):
    # forms at every level of the chain's longest tower, Q included, a third
    # of their entries zero: evaluate, mix_forms and _restrict against
    # TowerElement operators and two matmuls, in value and in level
    tower = _dot_towers()[case][-1]
    rng = random.Random(case)

    def entry(level):
        return tower.zero(level) if rng.random() < 0.3 else _random_element(rng, tower, level)

    mixed_count = 0
    for level in [lv for lv in range(tower.height + 1) for _ in range(3)]:
        n, r = 3, rng.randint(2, 3)
        forms = []
        for _ in range(r):
            rows = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = entry(level)
            forms.append(QuadraticForm.from_gram(tower, level, rows))
        v = (_random_element(rng, tower, level),) + tuple(entry(level) for _ in range(n - 1))
        vals = [f.evaluate(v) for f in forms]
        for f, a in zip(forms, vals):
            want = sum((v[p] * f.gram[p][q] * v[q] for p in range(n) for q in range(n)), tower.zero(level))
            assert a == want and a.level == level
        basis = [tuple(entry(level) for _ in range(n)) for _ in range(2)]
        cols = tuple(zip(*basis))
        for f in forms:
            got = _restrict(f, basis)
            want = linalg.matmul(tuple(zip(*cols)), linalg.matmul(f.gram, cols))
            assert got.gram == want and got.level == level
            assert [[x.level for x in row] for row in got.gram] == [[level] * 2] * 2
        if not any(vals):
            continue
        mixed_count += 1
        pick = max(i for i, a in enumerate(vals) if a)
        forms[pick], forms[-1] = forms[-1], forms[pick]
        vals[pick], vals[-1] = vals[-1], vals[pick]
        mixed = mix_forms(QFSystem(tuple(forms)), v)
        assert mixed.forms[-1].gram == forms[-1].gram
        for i in range(r - 1):
            for p in range(n):
                for q in range(n):
                    got = mixed.forms[i].gram[p][q]
                    assert got == vals[-1] * forms[i].gram[p][q] - vals[i] * forms[-1].gram[p][q]
                    assert got.level == level
    assert mixed_count


def test_restrict_rejects_basis_entries_off_the_form_level():
    # the raw path never reads an entry at another level as level-lv data
    s2 = tower_extend(QQ, [-2, 0, 1], label="s2")
    over_q = QuadraticForm.diagonal(s2, 0, [1, 2])
    over_s2 = QuadraticForm.diagonal(s2, 1, [1, s2.gen()])
    with pytest.raises(ValueError):
        _restrict(over_q, [(s2.one(0), s2.gen())])
    with pytest.raises(ValueError):
        _restrict(over_s2, [(s2.one(1), s2.zero(0))])
    with pytest.raises(ValueError):
        _restrict(over_s2, [(s2.one(1),)])
    got = _restrict(over_s2, [(s2.one(1), s2.gen())])
    assert got.gram == ((1 + 2 * s2.gen(),),) and got.level == 1


# -- orthogonal intersection ---------------------------------------------------------


def test_orthogonal_intersection_line():
    system = QFSystem((diag(1, -1), diag(1, 1)))
    w_basis, complement = orthogonal_intersection(system, vec(1, 1))
    assert len(w_basis) == 1 and len(complement) == 0
    assert w_basis[0] == vec(1, 1)


def test_orthogonal_intersection_r1_no_constraints():
    system = QFSystem((diag(1, 1, 1),))
    w_basis, complement = orthogonal_intersection(system, vec(1, 0, 0))
    assert len(w_basis) == 3 and len(complement) == 2


def test_orthogonal_intersection_bilinear_rows():
    # phi_1 = x1 x2 as a symmetric gram, v = e1: W = {x2 = 0}
    gram = [[0, Fraction(1, 2), 0, 0], [Fraction(1, 2), 0, 0, 0], [0] * 4, [0] * 4]
    phi1 = QuadraticForm.from_gram(QQ, 0, gram)
    system = QFSystem((phi1, diag(1, 1, 1, 1)))
    v = vec(1, 0, 0, 0)
    w_basis, complement = orthogonal_intersection(system, v)
    assert len(w_basis) == 3
    for w in w_basis:
        assert w[1].is_zero()
        # the polar form phi(w + v) - phi(w) - phi(v) = 2 w^T G v
        wv = tuple(a + b for a, b in zip(w, v))
        assert (phi1.evaluate(wv) - phi1.evaluate(w) - phi1.evaluate(v)).is_zero()
    assert len(complement) == 2


def test_orthogonal_intersection_precondition():
    system = QFSystem((diag(1, 1), diag(1, -1)))
    with pytest.raises(PreconditionError):
        orthogonal_intersection(system, vec(1, 0))
    # phi_1(0) = 0, but v = 0 spans no line for W's basis to start with
    system = QFSystem((diag(1, -1, 0, 2), diag(1, 1, 1, 1)))
    with pytest.raises(PreconditionError, match="v != 0"):
        orthogonal_intersection(system, vec(0, 0, 0, 0))


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("over", ["rational", "sqrt2"])
def test_orthogonal_intersection_complement_raises_the_rank(over, r):
    # the complement is the w's that raise the rank of [v | w_1 | ...], in
    # order, for v with two or more nonzero free coordinates
    tower = QQ if over == "rational" else tower_extend(QQ, [-2, 0, 1], label="s2")
    lv, n = tower.height, r * (r + 1) // 2 + 1
    rng = random.Random(f"complement-{over}-{r}")

    def entry(zero_share):
        if rng.random() < zero_share:
            return tower.zero(lv)
        x = tower.rational(rng.randint(-4, 4), lv)
        return x + rng.randint(-3, 3) * tower.gen() if lv else x

    checked = not_last = 0
    while checked < 12:
        v = tuple(entry(0.3) for _ in range(n))
        k = next((i for i, x in enumerate(v) if x), None)
        if k is None:
            continue
        forms = []
        for i in range(r):
            rows = [[None] * n for _ in range(n)]
            for p in range(n):
                for q in range(p, n):
                    rows[p][q] = rows[q][p] = entry(0.2)
            if i < r - 1:
                # phi_i(v) = 0: shift the k-th diagonal entry
                rows[k][k] -= QuadraticForm.from_gram(tower, lv, rows).evaluate(v) / (v[k] * v[k])
            forms.append(QuadraticForm.from_gram(tower, lv, rows))
        gv = tuple(linalg.matvec(f.gram, v) for f in forms[:-1])
        _, pivots = linalg.rref(gv)
        free = [c for c in range(n) if c not in pivots]
        if sum(1 for c in free if v[c]) < 2:
            continue
        ws = linalg.nullspace(gv, tower, lv, n)
        _, pivots = linalg.rref(tuple(zip(v, *ws)))
        want = tuple(ws[c - 1] for c in pivots[1:])
        basis, complement = orthogonal_intersection(QFSystem(tuple(forms)), v)
        assert complement == want and basis == (v,) + want
        checked += 1
        not_last += want != ws[:-1]
    # some draws drop a w before the last one
    assert not_last


# -- the isotropy construction ---------------------------------------------------------


def test_isotropy_r1_rational_root():
    cert = isotropy_2ext(QFSystem((diag(1, -1),)))
    assert cert.actual_degree == 1
    assert cert.witness == vec(1, 1)


def test_isotropy_r1_needs_i():
    cert = isotropy_2ext(QFSystem((diag(1, 1),)))
    assert cert.actual_degree == 2
    assert cert.tower.levels[0].minpoly == (Fraction(1), Fraction(0), Fraction(1))
    t = cert.witness[0]
    assert t * t == -1
    assert cert.witness[1] == 1


def test_isotropy_r2_derived_example():
    system = QFSystem((diag(1, 1, 1, 1), diag(1, 2, 3, 4)))
    cert = isotropy_2ext(system)
    assert cert.actual_degree <= 4
    assert verify.verify_isotropy(isotropy_certificate_doc(system, cert))[0]
    # no rational common zero with coordinates in {-3..3}: the extension is real
    for point in product(range(-3, 4), repeat=4):
        if not any(point):
            continue
        vals = [f.evaluate(vec(*point)) for f in system.forms]
        assert any(not v.is_zero() for v in vals)
    assert cert.actual_degree >= 2


def test_isotropy_dimension_guard():
    with pytest.raises(DimensionTooSmall):
        isotropy_2ext(QFSystem((diag(1,),)))
    with pytest.raises(DimensionTooSmall):
        isotropy_2ext(QFSystem((diag(1, 1, 1), diag(1, 2, 3))))


def test_isotropy_zero_system_immediate_witness():
    system = QFSystem((diag(0, 0), ))
    cert = isotropy_2ext(system)
    assert cert.actual_degree == 1
    assert any(cert.witness)
    assert verify.verify_isotropy(isotropy_certificate_doc(system, cert))[0]


def test_isotropy_hyperbolic_zero_diagonal_verifies():
    # three multiples of x1 x2 + x3 x4 + x5 x6: no diagonal entry to pick, so
    # the scan takes e_1 + e_2, and mixing leaves two zero forms, whose
    # witness is immediate
    gram = [[Fraction(0)] * 7 for _ in range(7)]
    for i in (0, 2, 4):
        gram[i][i + 1] = gram[i + 1][i] = Fraction(1, 2)
    system = QFSystem(
        tuple(QuadraticForm.from_gram(QQ, 0, [[s * x for x in row] for row in gram]) for s in (1, 2, 3))
    )
    cert = isotropy_2ext(system)
    assert cert.actual_degree == 1
    ok, reason = verify.verify_isotropy(isotropy_certificate_doc(system, cert))
    assert ok, reason


# -- forms over Q as integer rows over one denominator ---------------------------------


def _sparse_form(n, entries):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (p, q), x in entries.items():
        rows[p][q] = rows[q][p] = Fraction(x)
    return QuadraticForm.from_gram(QQ, 0, rows)


def _certificate_sha(system):
    doc = isotropy_certificate_doc(system, isotropy_2ext(system))
    ok, reason = verify.verify_isotropy(doc)
    assert ok, reason
    return hashlib.sha256(canonical_dumps(doc).encode()).hexdigest()


# certificates pinned before the rational rounds moved to integer rows
EDGE_PINS = {
    "zero-diagonals": "94cd8e2bf74167f5b011f5fa20fc6a105c52c321623bcbd0c8c29d9d69460d8e",
    "zero-form": "af0f2458854d7f5338fda92323512d52ff0b8b3938c27681111a57666d70e2e9",
    "cubic-level-1": "7538f58bea5e348ad0678018f44a8157086f0a8a1ed54b402863f423a3353d43",
    "rational-base-root": "6cf8106f4375f63b0ba326625217ee7db842b2d32ee44f1ec4ca049b4b05e707",
}


def test_zero_diagonals_scan_falls_back_to_a_pair():
    # no diagonal entry anywhere: the scan reads M's off-diagonal entries
    # and takes e_1 + e_5, the first pair that is nonzero in some form
    system = QFSystem((
        _sparse_form(5, {(1, 3): Fraction(3, 2), (2, 4): Fraction(-2, 3), (1, 2): 5}),
        _sparse_form(5, {(2, 3): Fraction(5, 7), (1, 3): Fraction(1, 4), (0, 4): -1}),
    ))
    assert _scan_vector(system) == vec(1, 0, 0, 0, 1)
    assert _certificate_sha(system) == EDGE_PINS["zero-diagonals"]


def test_identically_zero_form_in_the_system():
    rng = random.Random("zero-form")
    forms = []
    for k in range(3):
        rows = [[0] * 7 for _ in range(7)]
        for p in range(7):
            for q in range(p, 7):
                if k != 1:
                    rows[p][q] = rows[q][p] = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 10**20 + 39)))
        forms.append(QuadraticForm.from_gram(QQ, 0, rows))
    assert forms[1]._ints == (((0,) * 7,) * 7, 1)
    assert _certificate_sha(QFSystem(tuple(forms))) == EDGE_PINS["zero-form"]


def test_rational_base_root_closes_the_level_over_q():
    # the r = 1 base has a rational root, so the last level's binary
    # quadratic is read at z over Q with denominators: b = 2 (G z)_1 is
    # M z' / (D d) and c = z^T G z is z'^T M z' / (D d^2)
    grams = [
        [[-4, 0, -3, -5], [0, 3, -2, 9], [-3, -2, 2, -6], [-5, 9, -6, 2]],
        [[1, -6, -4, -2], [-6, 2, 8, -8], [-4, 8, 2, 4], [-2, -8, 4, -8]],
    ]
    system = QFSystem(tuple(QuadraticForm.from_gram(QQ, 0, g) for g in grams))
    assert _certificate_sha(system) == EDGE_PINS["rational-base-root"]


def test_r1_zero_diagonal_entry_is_the_witness():
    cert = isotropy_2ext(QFSystem((_sparse_form(3, {(0, 0): 2, (0, 2): Fraction(1, 3), (2, 2): -1}),)))
    assert cert.actual_degree == 1 and cert.witness == vec(0, 1, 0)
    # a form held only as (M, D): the zero test reads M, and no gram is built
    form = _from_ints(QQ, ((4, 1, 0), (1, 0, 5), (0, 5, 7)), 6)
    tower, witness = _solve_system(QFSystem((form,)))
    assert tower is QQ and witness == vec(0, 1, 0)
    assert "gram" not in form.__dict__


def test_integer_forms_raise_as_wrapped_forms_do():
    # every form vanishes at e_1
    vanish = QFSystem((_from_ints(QQ, ((0, 1), (1, 0)), 3), _from_ints(QQ, ((0, 2), (2, 5)), 7)))
    with pytest.raises(AllVanish):
        mix_forms(vanish, vec(1, 0))
    # phi_1(e_1) = 1/2 != 0
    system = QFSystem((_from_ints(QQ, ((1, 0), (0, 1)), 2), _from_ints(QQ, ((1, 0), (0, -1)), 5)))
    with pytest.raises(PreconditionError, match="phi_i"):
        orthogonal_intersection(system, vec(1, 0))
    with pytest.raises(PreconditionError, match="v != 0"):
        orthogonal_intersection(system, vec(0, 0))


def test_integer_form_gram_is_built_on_first_read():
    form = _from_ints(QQ, ((4, -6), (-6, 0)), 4)
    assert form.dim == 2 and "gram" not in form.__dict__
    assert form.evaluate(vec(1, Fraction(1, 3))) == QQ.rational(0)
    assert "gram" not in form.__dict__
    assert form.gram == _sparse_form(2, {(0, 0): 1, (0, 1): Fraction(-3, 2)}).gram
    assert [[type(x.data) for x in row] for row in form.gram] == [[int, Fraction], [Fraction, int]]
    assert form == _sparse_form(2, {(0, 0): 1, (0, 1): Fraction(-3, 2)})
    assert form._ints == (((4, -6), (-6, 0)), 4)


def test_isotropy_above_q_keeps_the_raw_path():
    # forms at level 1 over a base-root level: no integer view is formed,
    # and the certificate is the one pinned before the change
    tower = field_cubic()
    rng = random.Random("level-1")
    g, forms = tower.gen(), []
    for _ in range(2):
        rows = [[None] * 4 for _ in range(4)]
        for p in range(4):
            for q in range(p, 4):
                rows[p][q] = rows[q][p] = Fraction(rng.randint(-3, 3), rng.randint(1, 4)) + rng.randint(-3, 3) * g
        forms.append(QuadraticForm.from_gram(tower, 1, rows))
    system = QFSystem(tuple(forms))
    assert _certificate_sha(system) == EDGE_PINS["cubic-level-1"]
    assert not any("_ints" in f.__dict__ for f in forms)


def test_isotropy_over_extension_field():
    q_s = tower_extend(QQ, [-2, 0, 1], label="s2")
    s = q_s.gen()
    form = QuadraticForm.diagonal(q_s, 1, [1, s])
    cert = isotropy_2ext(QFSystem((form,)))
    assert cert.base_levels == 1
    assert cert.actual_degree <= 2
    assert verify.verify_isotropy(isotropy_certificate_doc(QFSystem((form,)), cert))[0]


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("field", ["sqrt2", "cubic"])
def test_isotropy_above_level0_verifies(field, r):
    # a sqrt level and a base-root level under the forms: mixing and
    # restriction run on level-1 data
    tower = tower_extend(QQ, [-2, 0, 1], label="s2") if field == "sqrt2" else field_cubic()
    rng = random.Random(f"{field}-{r}")
    for _ in range(2):
        system = random_system_over(rng, tower, r)
        cert = isotropy_2ext(system)
        assert cert.base_levels == 1 and cert.actual_degree <= 2**r
        ok, reason = verify.verify_isotropy(isotropy_certificate_doc(system, cert))
        assert ok, reason


def test_isotropy_seeded_bound_and_verify():
    rng = random.Random(123)
    for r in (1, 2, 3):
        for _ in range(5):
            system = random_qfsystem(rng, r)
            cert = isotropy_2ext(system)
            assert cert.actual_degree <= 2**r
            assert verify.verify_isotropy(isotropy_certificate_doc(system, cert))[0]


def test_tampered_witness_fails():
    system = QFSystem((diag(1, 1, 1, 1), diag(1, 2, 3, 4)))
    cert = isotropy_2ext(system)
    doc = isotropy_certificate_doc(system, cert)
    bad = dict(doc)

    def bump(node):
        if isinstance(node, list):
            return [bump(node[0])] + node[1:]
        n, d = node.split("/")
        return f"{int(n) + 1}/{d}"

    bad["witness"] = [bump(doc["witness"][0])] + list(doc["witness"][1:])
    ok, _ = verify.verify_isotropy(bad)
    assert not ok


def test_isotropy_bound_forgeries_fail():
    system = random_qfsystem(random.Random(3), 2)
    doc = isotropy_certificate_doc(system, isotropy_2ext(system))
    assert verify.verify_isotropy(doc)[0]
    # a bound the certificate declares for itself
    ok, reason = verify.verify_isotropy(dict(doc, claimed_bound=1000000))
    assert not ok and "claimed_bound" in reason
    # a repeated form still vanishes at the witness, but r = 3 forms need
    # dim >= 7 and the witness has 4 coordinates
    forged = dict(doc, forms=doc["forms"] + doc["forms"][:1], claimed_bound=8)
    ok, reason = verify.verify_isotropy(forged)
    assert not ok and "dim 4" in reason


def test_zero_witness_fails():
    system = QFSystem((diag(1, -1),))
    cert = isotropy_2ext(system)
    doc = isotropy_certificate_doc(system, cert)
    doc["witness"] = [element_zero_like(w) for w in doc["witness"]]
    ok, reason = verify.verify_isotropy(doc)
    assert not ok and "witness = 0" in reason


def element_zero_like(node):
    if isinstance(node, list):
        return [element_zero_like(c) for c in node]
    return "0/1"


def test_non_integer_fields_are_malformed():
    system = QFSystem((diag(1, 1, 1, 1), diag(1, 2, 3, 4)))
    doc = isotropy_certificate_doc(system, isotropy_2ext(system))
    for key in ("claimed_bound", "actual_degree"):
        for value in ("abc", "4", 4.5, True, None):
            bad = dict(doc, **{key: value})
            with pytest.raises(MalformedCertificate):
                verify.verify_any(bad)


def test_degree1_certificates_accepted():
    # the verifier accepts degree-1 certificates outright (the reading over
    # quadratically closed fields, where no extension can ever be added)
    from isotower.quadforms import IsotropyCertificate

    system = QFSystem((diag(0, 1, 1, 1), diag(0, 2, 5, 3)))
    cert = IsotropyCertificate(
        tower=QQ, witness=vec(1, 0, 0, 0), claimed_bound=4, actual_degree=1, base_levels=0
    )
    assert verify.verify_isotropy(isotropy_certificate_doc(system, cert))[0]


# -- transfer -----------------------------------------------------------------------


def test_transfer_sqrt2_example():
    q_s = tower_extend(QQ, [-2, 0, 1], label="s2")
    form = QuadraticForm.diagonal(q_s, 1, [1])
    basis = LinearFunctionalBasis.standard(q_s, 0, 1)
    system = transfer_system(form, basis)
    # (x0 + x1 sqrt2)^2 = x0^2 + 2 x1^2 + 2 x0 x1 sqrt2
    s0, s1 = system.forms
    assert s0.gram[0][0] == 1 and s0.gram[1][1] == 2 and not s0.gram[0][1]
    assert s1.gram[0][1] == 1 and not s1.gram[0][0] and not s1.gram[1][1]


def test_transfer_cubic_coordinate_oracle():
    cubic = tower_extend(QQ, [-1, -2, 1, 1], label="a")
    a = cubic.gen()
    form = QuadraticForm.diagonal(cubic, 1, [1, a])
    basis = LinearFunctionalBasis.standard(cubic, 0, 1)
    system = transfer_system(form, basis)
    assert system.r == 3 and system.dim == 6
    rng = random.Random(77)
    for _ in range(20):
        x = [Fraction(rng.randint(-6, 6)) for _ in range(6)]
        v_k = (
            cubic.element(1, (x[0], x[1], x[2])),
            cubic.element(1, (x[3], x[4], x[5])),
        )
        value = form.evaluate(v_k)
        coords = value.data  # nested coords over Q in the power basis
        got = [f.evaluate(vec(*x)) for f in system.forms]
        assert [g.rational_value() for g in got] == list(coords)


def _septic_split_basis():
    # _split_large's shape: 1, alpha, alpha^2, then power-product monomials
    # that complete them to a basis over Q
    septic = field_septic()
    a = septic.gen()
    alpha = 1 + a + 3 * a**3
    pows = [septic.one(), alpha, alpha * alpha]
    rest = [a**c for c in (3, 4, 5, 6)]
    basis = LinearFunctionalBasis.from_elements(septic, 0, 1, pows + rest)
    return QuadraticForm.diagonal(septic, 1, [2 - a**2, 5 * a + a**6]), basis


def _cubic_nondiagonal():
    # zero and off-diagonal Gram entries, through a basis that is not the
    # power-product one
    cubic = field_cubic()
    a = cubic.gen()
    rows = [[1 + a, 0, a * a], [0, 0, 3 - a], [a * a, 3 - a, 2]]
    form = QuadraticForm.from_gram(cubic, 1, rows)
    return form, LinearFunctionalBasis.from_elements(cubic, 0, 1, [cubic.one() + a, a, a * a - 2])


def _cube_root_over_sqrt2():
    # K = Q(sqrt2)(3^(1/3)) over F = Q(sqrt2): coordinates at level 1
    s2 = tower_extend(QQ, [-2, 0, 1], label="s2")
    k = tower_extend(s2, [-3, 0, 0, 1], label="c3")
    s, c = s2.gen().in_tower(k).embed(2), k.gen()
    rows = [[s + c, 1 - s * c * c], [1 - s * c * c, 0]]
    form = QuadraticForm.from_gram(k, 2, rows)
    return form, LinearFunctionalBasis.from_elements(k, 1, 2, [k.one(), s + c, c * c - s * c])


@pytest.mark.parametrize("make", [_septic_split_basis, _cubic_nondiagonal, _cube_root_over_sqrt2],
                         ids=["septic-split-basis", "cubic-nondiagonal", "cubic-over-sqrt2"])
def test_transfer_matches_definition(make):
    # Scharlau's transfer s_*(<g>)(x, y) = s(g x y): Gram entry (j, l) of the
    # block (i, p) of form t is s_t(G_ip B_j B_l), the t-th row of the
    # inverse coordinate matrix times the coordinates of G_ip B_j B_l
    form, basis = make()
    m, f = basis.size, basis.f_level
    system = transfer_system(form, basis)
    assert system.r == m and system.dim == form.dim * m and system.level == f
    for a in range(system.dim):
        i, j = divmod(a, m)
        for b in range(system.dim):
            p, l = divmod(b, m)
            coords = flatten_between(form.gram[i][p] * basis.elements[j] * basis.elements[l], f)
            for t, row in enumerate(basis.inv_matrix):
                assert system.forms[t].gram[a][b] == dot(row, coords)


@pytest.mark.parametrize("make, f_level, k_level", [
    (field_cubic, 0, 1),
    (field_quintic, 0, 1),
    (lambda: tower_extend(field_cubic(), [-2, 0, 1], label="s"), 0, 2),
], ids=["cubic", "quintic", "cubic-sqrt2"])
def test_standard_functionals_are_from_elements_inverse(make, f_level, k_level):
    # the power-product basis's coordinate matrix is the identity, so
    # standard takes the identity as its functionals without inverting it
    tower = make()
    basis = LinearFunctionalBasis.standard(tower, f_level, k_level)
    general = LinearFunctionalBasis.from_elements(tower, f_level, k_level, basis.elements)
    assert basis.elements == general.elements
    assert basis.inv_matrix == general.inv_matrix


def test_transfer_rejects_dependent_basis():
    cubic = tower_extend(QQ, [-1, -2, 1, 1], label="a")
    a = cubic.gen()
    with pytest.raises(PreconditionError):
        LinearFunctionalBasis.from_elements(cubic, 0, 1, [cubic.one(), a, 2 * a])


def test_basis_rejects_f_level_above_k_level():
    # [K:F] would floor to 0: an empty basis, whose transfer would fail
    # only later, at the system's "needs at least one form"
    cubic = field_cubic()
    with pytest.raises(ValueError, match="above k_level"):
        LinearFunctionalBasis.standard(cubic, 1, 0)
    with pytest.raises(ValueError, match="above k_level"):
        LinearFunctionalBasis.from_elements(cubic, 1, 0, [])


@pytest.mark.parametrize("f_level", [-1, 2])
def test_flatten_between_rejects_level_outside_element(f_level):
    a = field_cubic().gen()
    with pytest.raises(ValueError, match="outside"):
        flatten_between(a, f_level)


def test_basis_over_reducible_level_names_reducibility():
    bad = tower_extend(QQ, [-4, 0, 1], label="t")  # X^2 - 4 = (X - 2)(X + 2)
    top = tower_extend(bad, [bad.rational(-3), bad.rational(0), bad.rational(1)], label="s")
    t = bad.gen().in_tower(top).embed(2)
    with pytest.raises(ReducibilityError):
        LinearFunctionalBasis.from_elements(top, 1, 2, [top.one(), (t - 2) * top.gen()])


@pytest.mark.parametrize("case", sorted(_dot_towers()))
def test_clear_denominators_ignores_zero_identity(case):
    def leaves(data, lv):
        return [data] if lv == 0 else [q for c in data for q in leaves(c, lv - 1)]

    chain = _dot_towers()[case]
    rng = random.Random(case)
    for _ in range(8):
        witness = []
        for _ in range(rng.randint(1, 4)):
            tower = rng.choice(chain)
            witness.append(_random_element(rng, tower, rng.randint(0, tower.height)))
        m = lcm(*(q.denominator for x in witness for q in leaves(x.data, x.level)))
        expected = tuple(x * m for x in witness)
        for w in (witness, [fresh_element(x) for x in witness]):
            got = clear_denominators(w)
            assert got == expected
            assert [fresh(x.data, x.level) for x in got] == [x.data for x in expected]
