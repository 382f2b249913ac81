import random
from fractions import Fraction

import pytest
from norm_oracle import hilbert_symbol_Q, rational_norm_zero_search

from isotower.certjson import (
    quaternion_doc,
    quaternion_from_doc,
    split_certificate_doc,
)
from isotower.errors import DegreeTooLarge, Missing2PartDeclaration, PreconditionError
from isotower.generate import random_quaternion
from isotower.presets import field_cubic, field_quintic, field_septic
from isotower.quadforms import (
    LinearFunctionalBasis,
    QuadraticForm,
    diagonalize,
    flatten_between,
    transfer_system,
)
from isotower.splitting import (
    _Pair,
    _dependent_alpha_witness,
    bracket_quaternion,
    norm_form,
    quadratic_slot_split,
    split_over_2ext,
    standard_quaternion,
)
from isotower.serialize import tower_to_json
from isotower.tower import QQ, TowerField, tower_extend
from isotower import linalg, verify


def q_rat(u, v):
    return standard_quaternion(QQ.rational(u), QQ.rational(v))


def assert_split_verifies(q, cert):
    """The certificate is for q and passes the verifier."""
    doc = split_certificate_doc(cert)
    assert doc["quaternion"] == quaternion_doc(q)
    ok, reason = verify.verify_split(doc)
    assert ok, reason


# -- presentations and norm forms --------------------------------------------------


def test_norm_form_standard():
    nf = norm_form(q_rat(-1, -1))
    assert [nf.gram[i][i] for i in range(4)] == [1, 1, 1, 1]
    nf2 = norm_form(q_rat(2, 3))
    assert [str(nf2.gram[i][i]) for i in range(4)] == ["1", "-2", "-3", "6"]


def test_norm_form_bracket_conversion():
    nf = norm_form(bracket_quaternion(QQ.rational(0), QQ.rational(5)))
    assert [str(nf.gram[i][i]) for i in range(4)] == ["1", "-1", "-5", "5"]


@pytest.mark.parametrize("make", [
    lambda: q_rat(2, 3),
    lambda: bracket_quaternion(QQ.rational(0), QQ.rational(5)),
    lambda: random_quaternion(random.Random(3), field_cubic()),
    lambda: bracket_quaternion(field_cubic().gen(), field_cubic().rational(-2)),
    lambda: random_quaternion(random.Random(1000003), field_septic()),
], ids=["standard-Q", "bracket-Q", "cubic", "bracket-cubic", "septic"])
def test_norm_form_diagonalizes_to_itself(make):
    # the large split branch returns its witness in the norm form's own basis:
    # <1, -u, -v, uv> is diagonal with nonzero entries, so P = I
    q = make()
    nf = norm_form(q)
    u, v = q.standard_pair()
    diag, p = diagonalize(nf)
    assert diag == (1, -u, -v, u * v)
    assert p == tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


def test_presentation_invariants():
    with pytest.raises(ValueError):
        standard_quaternion(QQ.zero(), QQ.rational(1))
    with pytest.raises(ValueError):
        bracket_quaternion(QQ.rational(Fraction(-1, 4)), QQ.rational(1))  # 1 + 4a = 0
    with pytest.raises(ValueError):
        bracket_quaternion(QQ.rational(1), QQ.zero())


# -- the quadratic slot -----------------------------------------------------------------


@pytest.fixture
def cubic():
    return field_cubic()


def test_slot_split_constant(cubic):
    alpha = cubic.gen()
    res = quadratic_slot_split(alpha, (1,))
    assert res.two_tower.absolute_degree() == 2
    assert res.two_tower.levels[0].minpoly == (Fraction(1), Fraction(0), Fraction(1))
    w = res.witness
    assert w[1].is_zero() and w[2] == 1


def test_slot_split_linear_zero_shift(cubic):
    alpha = cubic.gen()
    res = quadratic_slot_split(alpha, (0, 1))  # g = X
    assert res.two_tower.absolute_degree() == 2  # sqrt(0) level skipped
    assert res.witness[0].is_zero()


def test_slot_split_quadratic_example(cubic):
    alpha = cubic.gen()
    res = quadratic_slot_split(alpha, (1, 0, 1))  # X^2 + 1
    # sqrt(c) = sqrt(1) is rational: only sqrt(-1) and sqrt(-2) are adjoined
    assert res.two_tower.absolute_degree() == 4
    mins = [lev.minpoly for lev in res.two_tower.levels]
    assert mins[0] == (Fraction(1), Fraction(0), Fraction(1))
    from isotower.tower import TowerElement

    assert TowerElement(res.two_tower, 1, mins[1][0]).rational_value() == 2  # X^2 + 2


def test_slot_split_bound(cubic):
    rng = random.Random(5)
    alpha = cubic.gen()
    for _ in range(5):
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(3)]
        coeffs[2] = coeffs[2] or Fraction(1)  # deg g = 2
        if ((coeffs[2] * alpha + coeffs[1]) * alpha + coeffs[0]).is_zero():
            continue
        res = quadratic_slot_split(alpha, coeffs)
        assert res.two_tower.absolute_degree() <= 2 ** (2 + 1)


@pytest.mark.parametrize(
    "g, levels",
    [
        ((3, 1), 2),  # linear g = X + 3: sqrt(-1) and sqrt(3)
        ((0, 1, 1), 1),  # quadratic with c = 0: sqrt(c) is not adjoined
        ((1, 2, 1), 1),  # (X + 1)^2: e = b - 2 sqrt(c) = 0 is not adjoined
    ],
)
def test_slot_split_branches(cubic, g, levels):
    alpha = cubic.gen()
    res = quadratic_slot_split(alpha, g)
    assert res.two_tower.height == levels
    assert res.two_tower.absolute_degree() <= 2 ** len(g)
    a = alpha.in_tower(res.comp_tower).embed(res.comp_tower.height)
    g_a = sum(c * a**i for i, c in enumerate(g))
    w = res.witness
    assert (w[0].square() + a * w[1].square() + g_a * w[2].square()).is_zero()
    assert any(w)


def test_slot_split_rejects_gzero(cubic):
    alpha = cubic.gen()
    with pytest.raises(PreconditionError):
        quadratic_slot_split(alpha, ())  # the zero polynomial
    # a genuine g(alpha) = 0: alpha = sqrt2 with g = X^2 - 2
    q_s = tower_extend(QQ, [-2, 0, 1], label="s2")
    with pytest.raises(PreconditionError):
        quadratic_slot_split(q_s.gen(), (-2, 0, 1))


def test_slot_split_over_a_level_above_q():
    # alpha = 2^(1/6) generates a cubic over F = Q(sqrt2); g = X^2 + sqrt2
    f_tower = tower_extend(QQ, [-2, 0, 1], label="s2")
    s = f_tower.gen()
    k_tower = tower_extend(f_tower, [-s, 0, 0, 1], label="a")
    alpha = k_tower.gen()
    res = quadratic_slot_split(alpha, (s, 0, 1))
    assert res.two_tower.levels[:1] == k_tower.levels[:1]
    degree_over_f = res.two_tower.absolute_degree() // f_tower.absolute_degree()
    assert degree_over_f <= 2 ** (2 + 1)
    top = res.comp_tower.height
    a_t = alpha.in_tower(res.comp_tower).embed(top)
    w = res.witness
    assert any(w)
    assert (w[0] * w[0] + a_t * w[1] * w[1] + (a_t * a_t + s) * w[2] * w[2]).is_zero()


# -- the pipeline --------------------------------------------------------------------


def test_split_r1_division_case():
    cert = split_over_2ext(q_rat(-1, -1))
    assert cert.degree_over_F == 2
    assert cert.claimed_bound == 2
    assert verify.verify_split(split_certificate_doc(cert))[0]


def test_split_r1_u_square():
    cert = split_over_2ext(q_rat(1, 7))
    assert cert.degree_over_F == 1
    assert [str(w) for w in cert.witness] == ["1", "1", "0", "0"]


def test_split_cubic_example(cubic):
    q = standard_quaternion(cubic.gen(), cubic.rational(2))
    cert = split_over_2ext(q)
    assert cert.degree_over_F <= 8
    assert_split_verifies(q, cert)


def test_split_odd_degrees_bound():
    rng = random.Random(2024)
    for tower, bound in ((field_cubic(), 8), (field_quintic(), 32)):
        q = random_quaternion(rng, tower)
        cert = split_over_2ext(q)
        assert cert.degree_over_F <= bound
        assert_split_verifies(q, cert)


def test_split_septic_large_branch():
    rng = random.Random(99)
    q = random_quaternion(rng, field_septic())
    cert = split_over_2ext(q)
    assert cert.degree_over_F <= 128
    assert_split_verifies(q, cert)


def test_split_septic_dependent_alpha():
    # u rational makes (1, alpha, alpha^2) dependent in the large branch
    tower = field_septic()
    q = standard_quaternion(tower.rational(3), tower.gen() + 1)
    cert = split_over_2ext(q)
    assert cert.degree_over_F <= 128
    assert_split_verifies(q, cert)


def test_split_declared_two_part():
    # K = Q(sqrt2, sqrt3) with the full tower declared as its own 2-part
    t = tower_extend(QQ, [-2, 0, 1], label="s2")
    t = tower_extend(t, [t.rational(-3), t.rational(0), t.rational(1)], label="s3")
    q = standard_quaternion(t.gen() + 1, t.rational(-1))
    cert = split_over_2ext(q, two_part_levels=2)
    assert cert.degree_over_F <= 16
    assert_split_verifies(q, cert)


def test_split_even_degree_requires_declaration():
    t = tower_extend(QQ, [-2, 0, 1], label="s2")
    q = standard_quaternion(t.gen(), t.rational(3))
    with pytest.raises(Missing2PartDeclaration):
        split_over_2ext(q)
    cert = split_over_2ext(q, two_part_levels=1)
    assert cert.degree_over_F <= 4
    assert_split_verifies(q, cert)


def test_split_even_degree_without_quadratic_subfield():
    # x^4 - x - 1 and x^6 - x - 1 have no proper subfields, so declaring an
    # empty 2-part is honest; the mirrored levels go through the tripwire path
    for coeffs, bound in (([-1, -1, 0, 0, 1], 16), ([-1, -1, 0, 0, 0, 0, 1], 64)):
        t = tower_extend(QQ, coeffs)
        q = standard_quaternion(t.gen(), t.rational(2))
        cert = split_over_2ext(q, two_part_levels=0)
        assert cert.degree_over_F <= bound
        assert_split_verifies(q, cert)


def test_split_degree_too_large():
    t = tower_extend(QQ, [-2, 0, 0, 0, 0, 0, 0, 0, 0, 1], label="t9")  # degree 9
    q = standard_quaternion(t.gen(), t.rational(3))
    with pytest.raises(DegreeTooLarge):
        split_over_2ext(q)


def _collapsed_pair():
    # a dishonestly declared 2-part: sqrt(3) already lives in the compositum,
    # so mirroring sqrt(3) collapses: its image is recorded, no level stacked
    t2 = tower_extend(QQ, [-2, 0, 1], label="s2")
    comp = tower_extend(t2, [t2.rational(-3), t2.rational(0), t2.rational(1)], label="s3")
    pair = _Pair(
        f_tower=TowerField(comp.levels[:1]),
        c_tower=comp,
        shared=1,
        comp_base=comp.height,
        images=(),
        guaranteed=False,
    )
    pair2, root = pair.adjoin_sqrt(pair.f_tower.rational(3))
    return comp, pair2, root


def test_mirror_records_collapse():
    comp, pair2, root = _collapsed_pair()
    assert pair2.c_tower is comp or pair2.c_tower == comp  # no level stacked
    assert pair2.f_tower.absolute_degree() == 4  # F-side still counts it
    lifted = pair2.lift(root)
    assert lifted * lifted == 3


def test_split_quartic_alpha_branch():
    # degree 8 field Q[x]/(x^8 - 3) with alpha = -u = sqrt3 of degree 2 over Q:
    # the dependent branch adjoins the quartic minpoly of sqrt(-alpha)
    t = tower_extend(QQ, [-3] + [0] * 7 + [1], label="e8")
    x4 = t.gen() ** 4  # a square root of 3
    q = standard_quaternion(-x4, t.rational(5))
    cert = split_over_2ext(q, two_part_levels=0)
    assert cert.degree_over_F <= 256
    assert_split_verifies(q, cert)


# -- lifting F-side elements into the compositum ------------------------------------


def _random_element(tower, lv, rng):
    if lv == 0:
        return tower.rational(Fraction(rng.randint(-9, 9), rng.randint(1, 3)), 0)
    coeffs = [_random_element(tower, lv - 1, rng) for _ in range(tower.degree_of_level(lv))]
    return tower.from_coeffs(lv, coeffs)


def _horner_lift(pair, x):
    """x evaluated at the compositum top by substituting each F-side
    generator above the shared levels with its image, coefficient by
    coefficient."""
    top = pair.c_tower.height
    if x.level <= pair.shared:
        return x.in_tower(pair.c_tower).embed(top)
    img = pair.images[x.level - 1 - pair.shared].in_tower(pair.c_tower).embed(top)
    acc = pair.c_tower.zero(top)
    for c in reversed(x.coeffs()):
        acc = acc * img + _horner_lift(pair, c)
    return acc


def _guaranteed_pair():
    # K = Q(sqrt2)(3^(1/3)) over its 2-part Q(sqrt2): r = 3 is odd, so every
    # mirrored level is stacked as a plain generator
    s2 = tower_extend(QQ, [-2, 0, 1], label="s2")
    k = tower_extend(s2, [-3, 0, 0, 1], label="c3")
    pair = _Pair(s2, k, shared=1, comp_base=2, images=(), guaranteed=True)
    pair, _ = pair.adjoin_sqrt(pair.f_tower.gen(1) + 3)
    pair, _ = pair.adjoin_sqrt(pair.f_tower.gen() - 1)
    return pair


def _after_collapse_pair():
    # two more levels stacked above the collapsed sqrt(3): their images are
    # generators, but the image before them is not
    _, pair, _ = _collapsed_pair()
    pair, _ = pair.adjoin_sqrt(pair.f_tower.rational(5))
    pair, _ = pair.adjoin_sqrt(pair.f_tower.gen() + 1)
    return pair


def _completion(k, alpha):
    """The coordinate rows over Q of 1, alpha, alpha^2 and the rref of the
    completion [1 | alpha | alpha^2 | I], as _split_large builds it."""
    rows = [flatten_between(x, 0) for x in (k.one(k.height), alpha, alpha * alpha)]
    unit = linalg.identity(k, 0, len(rows[0]))
    red, pivots = linalg.rref(tuple(col + row for col, row in zip(zip(*rows), unit)))
    return rows, red, pivots


def test_dependent_alpha_in_K0_is_read_off_the_rref():
    # test_split_septic_dependent_alpha's quaternion: u = 3 makes alpha = -3
    # rational, and the witness starts with sqrt(-alpha)
    k = field_septic()
    q = standard_quaternion(k.rational(3), k.gen() + 1)
    alpha = diagonalize(norm_form(q))[0][1]
    rows, red, pivots = _completion(k, alpha)
    assert linalg.rank(rows[:2]) == 1
    assert pivots[1] != 1 and red[0][1] == rows[1][0] == -3
    pair = _Pair(k.prefix(0), k, shared=0, comp_base=k.height, images=(), guaranteed=True)
    pair, w = _dependent_alpha_witness(pair, alpha, red, pivots)
    assert w[0] * w[0] == -rows[1][0] and list(w[1:]) == [1, 0, 0]


@pytest.mark.parametrize("shift, e", [(0, (3, 0)), (1, (2, 2))])
def test_dependent_alpha_of_degree_two_is_read_off_the_rref(shift, e):
    # alpha = x^4 + shift in Q[x]/(x^8 - 3): alpha^2 = e0 + e1 alpha over Q,
    # and the F-side gets X^4 + e1 X^2 - e0, the minpoly of sqrt(-alpha)
    k = tower_extend(QQ, [-3] + [0] * 7 + [1], label="e8")
    alpha = k.gen() ** 4 + shift
    rows, red, pivots = _completion(k, alpha)
    assert linalg.rank(rows[:2]) == 2 and linalg.rank(rows) == 2
    e0, e1 = linalg.solve(tuple(zip(*rows[:2])), rows[2], k, 0)
    assert pivots[:2] == (0, 1) and pivots[2] != 2
    assert (red[0][2], red[1][2]) == (e0, e1) == e
    pair = _Pair(k.prefix(0), k, shared=0, comp_base=1, images=(), guaranteed=False)
    pair, w = _dependent_alpha_witness(pair, alpha, red, pivots)
    assert pair.f_tower.levels[-1].minpoly == (-e0.data, 0, e1.data, 0, 1)
    assert w[0] * w[0] == -alpha and list(w[1:]) == [1, 0, 0]


def _dependent_alpha_pair():
    # the quartic F-side level of test_split_quartic_alpha_branch, mirrored
    # to a quadratic compositum level, then one sqrt level above it
    t = tower_extend(QQ, [-3] + [0] * 7 + [1], label="e8")
    alpha = t.gen() ** 4
    pair = _Pair(t.prefix(0), t, shared=0, comp_base=1, images=(), guaranteed=False)
    _rows, red, pivots = _completion(t, alpha)
    pair, _ = _dependent_alpha_witness(pair, alpha, red, pivots)
    assert pair.f_tower.levels[-1].degree == 4
    pair, _ = pair.adjoin_sqrt(pair.f_tower.rational(5))
    return pair


# every shape of mirrored level: stacked generators, a collapse, levels after
# a collapse, and a quartic F-side level on a quadratic compositum level
each_pair = pytest.mark.parametrize(
    "make_pair",
    [_guaranteed_pair, lambda: _collapsed_pair()[1], _after_collapse_pair, _dependent_alpha_pair],
    ids=["guaranteed", "collapsed", "after-collapse", "dependent-alpha"],
)


@each_pair
def test_lift_matches_horner(make_pair):
    pair = make_pair()
    assert pair.f_tower.height > pair.shared
    rng = random.Random(31)
    for lv in range(pair.f_tower.height + 1):
        for _ in range(3):
            x = _random_element(pair.f_tower, lv, rng)
            assert pair.lift(x) == _horner_lift(pair, x)
        # an element from the F-side tower as it stood when lv was its top
        x = _random_element(pair.f_tower.prefix(lv), lv, rng)
        assert pair.lift(x) == _horner_lift(pair, x.in_tower(pair.f_tower))


@each_pair
def test_transfer_commutes_with_lift(make_pair):
    # x (x) f -> x lift(f) is a ring map K (x)_K0 F' -> K F', collapsed or
    # not: at v_i = sum_j lift(w_ij) B_j, <d_0, d_1> takes the value
    # sum_t lift(phi_t(w)) B_t, phi_t its transfer through the K0-basis B
    pair = make_pair()
    k = pair.c_tower.prefix(pair.comp_base)
    basis = LinearFunctionalBasis.standard(k, pair.shared, pair.comp_base)
    rng = random.Random(47)
    ds = [_random_element(k, k.height, rng) for _ in range(2)]
    forms = transfer_system(QuadraticForm.diagonal(k, k.height, ds), basis).forms
    top, r = pair.c_tower.height, basis.size
    for _ in range(2):
        w = [_random_element(pair.f_tower, pair.f_tower.height, rng) for _ in range(2 * r)]
        lhs = rhs = pair.c_tower.zero(top)
        for i, d in enumerate(ds):
            v = pair.c_tower.zero(top)
            for wj, b in zip(w[i * r : (i + 1) * r], basis.elements):
                v = v + pair.lift(wj) * b
            lhs = lhs + d * v.square()
        for f, b in zip(forms, basis.elements):
            rhs = rhs + pair.lift(f.evaluate(w)) * b
        assert lhs == rhs


# -- rational oracle ------------------------------------------------------------------


def test_hilbert_examples():
    assert hilbert_symbol_Q(-1, -1) == "division"
    assert hilbert_symbol_Q(1, 7) == "split"
    assert hilbert_symbol_Q(1, -17) == "split"
    assert hilbert_symbol_Q(2, 7) == "split"
    assert hilbert_symbol_Q(Fraction(1, 7), 3) == "division"


@pytest.mark.parametrize(
    "v, want",
    [
        (1000033, "split"),  # a prime 1 mod 4, past trial division: Miller-Rabin
        (1000039, "division"),  # a prime 3 mod 4
        (10007 * 10009, "division"),  # composite past trial division: Pollard rho
    ],
)
def test_hilbert_large_prime_factors(v, want):
    # (-1, p) splits exactly when p is 1 mod 4; 10007 is 3 mod 4
    assert hilbert_symbol_Q(-1, v) == want


def test_hilbert_rejects_zero():
    with pytest.raises(PreconditionError):
        hilbert_symbol_Q(0, 3)


def test_norm_zero_search():
    w = rational_norm_zero_search(2, 7)
    assert w is not None
    x, y, z, t = w
    assert x * x - 2 * y * y - 7 * z * z == 0 and t == 0
    assert rational_norm_zero_search(-1, -1) is None


def test_oracle_agreement_sample():
    rng = random.Random(31)
    for _ in range(40):
        u = Fraction(rng.randint(-20, 20) or 1, rng.randint(1, 9))
        v = Fraction(rng.randint(-20, 20) or 1, rng.randint(1, 9))
        verdict = hilbert_symbol_Q(u, v)
        q = standard_quaternion(QQ.rational(u), QQ.rational(v))
        cert = split_over_2ext(q)
        assert_split_verifies(q, cert)
        if verdict == "division":
            assert cert.degree_over_F == 2
        else:
            assert cert.degree_over_F == 1 or rational_norm_zero_search(u, v) is not None


# -- documents -------------------------------------------------------------------------


def test_quaternion_doc_round_trip(cubic):
    q = standard_quaternion(cubic.gen(), cubic.rational(2))
    doc = quaternion_doc(q)
    assert quaternion_doc(quaternion_from_doc(doc)) == doc
    qb = bracket_quaternion(QQ.rational(1), QQ.rational(5))
    doc2 = quaternion_doc(qb)
    assert set(doc2) == {"presentation", "field", "a", "b"}
    assert quaternion_doc(quaternion_from_doc(doc2)) == doc2


def test_scaled_witness_still_verifies(cubic):
    from isotower.splitting import SplitCertificate

    q = standard_quaternion(cubic.gen(), cubic.rational(2))
    cert = split_over_2ext(q)
    top = cert.tower.height
    scale = cert.tower.gen(top) + 2 if top > cert.quaternion.field.height else cert.tower.rational(3)
    scaled = SplitCertificate(
        cert.quaternion,
        cert.tower,
        cert.two_tower,
        tuple(w.embed(top) * scale for w in cert.witness),
        cert.degree_over_F,
        cert.claimed_bound,
    )
    assert verify.verify_split(split_certificate_doc(scaled))[0]


def test_lowered_bound_fails(cubic):
    q = standard_quaternion(cubic.gen(), cubic.rational(2))
    cert = split_over_2ext(q)
    doc = split_certificate_doc(cert)
    doc["claimed_bound"] = cert.degree_over_F // 2
    ok, _ = verify.verify_split(doc)
    assert not ok


def test_cubic_two_tower_level_fails():
    # a 2-extension has no cubic level: appending X^3 - 2 to an honest
    # F-side and tripling degree_over_F (2 -> 6 <= 8) must not PASS
    cert = split_over_2ext(random_quaternion(random.Random(34), field_cubic()))
    doc = split_certificate_doc(cert)
    assert doc["degree_over_F"] == 2 and verify.verify_split(doc)[0]
    doc["two_tower"] = tower_to_json(tower_extend(cert.two_tower, [-2, 0, 0, 1], label="c"))
    doc["degree_over_F"] = 6
    ok, reason = verify.verify_split(doc)
    assert not ok and "not a power of 2" in reason
