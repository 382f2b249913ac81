"""Quaternion algebras over a finite extension K of Q and their splitting
over composita with 2-extension towers.

The pipeline keeps two towers in step: the F-side (a chain of square-root
adjunctions over the rationals, whose exact degree is the certified
[F':F]) and the compositum side (K's tower with the same adjunctions
stacked on top, where the isotropic norm vector lives).  Each F-side
generator carries an image element on the compositum side, so witnesses
transport by evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import linalg
from .errors import DegreeTooLarge, Missing2PartDeclaration, PreconditionError
from .quadforms import (
    LinearFunctionalBasis,
    QFSystem,
    QuadraticForm,
    _basis_element,
    clear_denominators,
    diagonalize,
    flatten_between,
    isotropy_2ext,
    transfer_system,
)
from .sqrt import adjoin_sqrt
from .tower import (
    KIND_SQRT,
    TowerElement,
    TowerField,
    _div,
    _embed_up,
    _neg,
    dot,
    tower_extend,
)

# ---------------------------------------------------------------------------
# quaternion presentations and norm forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuaternionAlgebra:
    """A degree-2 central simple algebra in bracket or standard presentation.

    bracket(a, b):  i^2 - i = a,  j^2 = b,  ji = (1 - i)j, with 1 + 4a != 0;
    standard(u, v): I^2 = u, J^2 = v, JI = -IJ, with u, v != 0.
    """

    presentation: str
    x: TowerElement
    y: TowerElement

    def __post_init__(self):
        if self.presentation not in ("standard", "bracket"):
            raise ValueError(f"unknown presentation {self.presentation!r}")
        top = self.x.tower.height
        object.__setattr__(self, "x", self.x.embed(top))
        object.__setattr__(self, "y", self.y.in_tower(self.x.tower).embed(top))
        if self.presentation == "standard":
            if self.x.is_zero() or self.y.is_zero():
                raise ValueError("standard presentation requires u, v != 0")
        else:
            if not (1 + 4 * self.x):
                raise ValueError("bracket presentation requires 1 + 4a != 0")
            if self.y.is_zero():
                raise ValueError("bracket presentation requires b != 0")

    @property
    def field(self) -> TowerField:
        return self.x.tower

    @property
    def level(self) -> int:
        return self.x.level

    def standard_pair(self) -> tuple[TowerElement, TowerElement]:
        """(u, v) with the algebra isomorphic to standard(u, v); the bracket
        form converts by u = 1 + 4a, v = b (valid in characteristic 0)."""
        if self.presentation == "standard":
            return self.x, self.y
        return 1 + 4 * self.x, self.y


def standard_quaternion(u: TowerElement, v: TowerElement) -> QuaternionAlgebra:
    return QuaternionAlgebra("standard", u, v.in_tower(u.tower))


def bracket_quaternion(a: TowerElement, b: TowerElement) -> QuaternionAlgebra:
    return QuaternionAlgebra("bracket", a, b.in_tower(a.tower))


def norm_form(q: QuaternionAlgebra) -> QuadraticForm:
    """The norm form <1, -u, -v, uv> in the basis (1, I, J, IJ)."""
    u, v = q.standard_pair()
    return QuadraticForm.diagonal(q.field, q.level, [q.field.one(q.level), -u, -v, u * v])


# ---------------------------------------------------------------------------
# paired towers: F-side sqrt chain mirrored onto the compositum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Pair:
    f_tower: TowerField
    c_tower: TowerField
    shared: int                       # F-side levels [0, shared) are comp levels
    comp_base: int                    # comp height before any mirrored level
    images: tuple[TowerElement, ...]  # comp image of each F-side generator above
    guaranteed: bool                  # no-quadratic-subextension hypothesis holds
    mirrored: int = 0                 # leading images that are plain generators
                                      # of successive comp levels of equal degree

    def _extended(self, f2: TowerField, c2: TowerField, img: TowerElement) -> "_Pair":
        """This pair with f2's new top level mirrored to ``img``, a root in c2
        of the level's lifted minimal polynomial."""
        i = len(self.images)
        level = self.comp_base + i + 1
        plain = (
            self.mirrored == i
            and img.level == level
            and f2.levels[self.shared + i].degree == c2.levels[level - 1].degree
            and img.data == c2.gen(level).data
        )
        return _Pair(
            f2, c2, self.shared, self.comp_base, self.images + (img,), self.guaranteed,
            self.mirrored + plain,
        )

    def lift(self, x: TowerElement) -> TowerElement:
        """Carry an F-side element into the compositum top.  Only ``x.level``
        and ``x.data`` are read, so x may lie in any prefix of the F-side."""
        top = self.c_tower.height
        j = x.level - self.shared
        if j <= 0:
            return TowerElement(self.c_tower, x.level, x.data).embed(top)
        if j <= self.mirrored:
            # generator-for-generator: re-nest the shared-level coefficients
            # through the K levels, no field arithmetic needed
            ctx = self.c_tower._ctx

            def restructure(data, jj):
                if jj == 0:
                    return _embed_up(ctx, self.shared, data, self.comp_base)
                return tuple(restructure(c, jj - 1) for c in data)

            return TowerElement(
                self.c_tower, self.comp_base + j, restructure(x.data, j)
            ).embed(top)

        def rec(data, lv):
            if lv <= self.shared:
                return TowerElement(self.c_tower, lv, data).embed(top)
            img = self.images[lv - 1 - self.shared].in_tower(self.c_tower).embed(top)
            acc = self.c_tower.zero(top)
            for c in reversed(data):
                acc = acc * img + rec(c, lv - 1)
            return acc

        return rec(x.data, x.level)

    def adjoin_sqrt(self, c: TowerElement) -> tuple["_Pair", TowerElement]:
        """Adjoin sqrt(c) on the F-side and mirror it onto the compositum.

        Returns (pair, F-side root).  The root's compositum image is reached
        through :meth:`lift`.
        """
        f2, root, added = adjoin_sqrt(self.f_tower, c.in_tower(self.f_tower))
        if not added:
            return self, root
        return self._mirror_one(f2), root.in_tower(f2)

    def _mirror_one(self, f2: TowerField) -> "_Pair":
        idx = f2.height - 1
        level = f2.levels[idx]
        d_elem = TowerElement(self.f_tower, idx, _neg(f2._ctx, idx, level.minpoly[0]))
        c_comp = self.lift(d_elem)
        if self.guaranteed:
            # K/K0 has no quadratic subextension, hence K0-2-extensions stay
            # linearly disjoint: the mirrored level cannot collapse
            c2 = tower_extend(self.c_tower, [-c_comp, self.c_tower.zero(), self.c_tower.one()])
            return self._extended(f2, c2, c2.gen())
        c2, img, _ = adjoin_sqrt(self.c_tower, c_comp)
        return self._extended(f2, c2, img)

    def mirror_to(self, f_ext: TowerField) -> "_Pair":
        """Mirror every F-side level of f_ext beyond the current height."""
        if not self.f_tower.is_prefix_of(f_ext):
            raise ValueError("mirror target does not extend the F-side tower")
        pair = self
        while pair.f_tower.height < f_ext.height:
            idx = pair.f_tower.height
            level = f_ext.levels[idx]
            if level.kind != KIND_SQRT:
                raise PreconditionError("only sqrt levels can be mirrored")
            pair = pair._mirror_one(f_ext.prefix(idx + 1))
        return pair


# ---------------------------------------------------------------------------
# the explicit 3-slot witness of <1, alpha, g(alpha)>
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlotSplitResult:
    two_tower: TowerField
    comp_tower: TowerField
    witness: tuple[TowerElement, TowerElement, TowerElement]


def _quotients(xs, d: TowerElement) -> tuple:
    """x / d for each x, all on d's tower and level, through one
    conjugate-norm chain for d."""
    tower, lv = d.tower, d.level
    quotients = _div(tower._ctx, lv, [x.data for x in xs], d.data)
    return tuple(TowerElement(tower, lv, q) for q in quotients)


def _slot_split(pair: _Pair, alpha_comp: TowerElement, g_coeffs) -> tuple[_Pair, tuple]:
    """Witness of <1, alpha, g(alpha)> over the compositum, adjoining at most
    deg(g) + 1 square roots on the F-side.  g_coeffs live on the F-side top,
    highest degree coefficient nonzero, deg <= 2."""
    coeffs = list(g_coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    if not coeffs:
        raise PreconditionError("g must be nonzero")
    if len(coeffs) > 3:
        raise PreconditionError("g must have degree <= 2")

    top = pair.f_tower.height
    coeffs = [c.in_tower(pair.f_tower).embed(top) for c in coeffs]
    if len(coeffs) == 1:
        pair, s = pair.adjoin_sqrt(-coeffs[0])
        w = (pair.lift(s), pair.c_tower.zero(), pair.c_tower.one())
    elif len(coeffs) == 2:
        a = coeffs[1]
        b = coeffs[0] / a
        pair, sa = pair.adjoin_sqrt(-a)
        if b.is_zero():
            sb = pair.f_tower.zero()
        else:
            pair, sb = pair.adjoin_sqrt(b)
        la = pair.lift(sa)
        w = (la * pair.lift(sb), la, pair.c_tower.one())
    else:
        a = coeffs[2]
        b, c = _quotients((coeffs[1], coeffs[0]), a)
        pair, sa = pair.adjoin_sqrt(-a)
        if c.is_zero():
            sc = pair.f_tower.zero()
        else:
            pair, sc = pair.adjoin_sqrt(c)
        e = b.in_tower(pair.f_tower).embed(pair.f_tower.height) - 2 * sc.embed(pair.f_tower.height)
        if e.is_zero():
            se = pair.f_tower.zero()
        else:
            pair, se = pair.adjoin_sqrt(e)
        la = pair.lift(sa)
        alpha_t = alpha_comp.in_tower(pair.c_tower).embed(pair.c_tower.height)
        w = (la * (alpha_t + pair.lift(sc)), la * pair.lift(se), pair.c_tower.one())
    return pair, w


def quadratic_slot_split(alpha: TowerElement, g: Sequence) -> SlotSplitResult:
    """Constructive isotropy of <1, alpha, g(alpha)> over K F' with F' a
    2-extension of F ([F':F] <= 2^(deg g + 1)).

    alpha is taken at the top of K's tower.  g is at most three
    coefficients, lowest degree first, each a rational or an element of
    alpha's tower; F is the highest level among them (Q when all are
    rational).  g(alpha) must be nonzero.
    """
    k_tower = alpha.tower
    alpha = alpha.embed(k_tower.height)
    coeffs = [
        c.in_tower(k_tower) if isinstance(c, TowerElement) else k_tower.rational(c, 0) for c in g
    ]
    f_level = max((c.level for c in coeffs), default=0)

    def g_at(x: TowerElement) -> TowerElement:
        acc = x.tower.zero(x.level)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    if g_at(alpha).is_zero():
        raise PreconditionError("g(alpha) = 0: the direct witness (0, ..., v) applies")
    f_tower = k_tower.prefix(f_level)
    pair = _Pair(f_tower, k_tower, shared=f_level, comp_base=k_tower.height, images=(), guaranteed=False)
    pair, w = _slot_split(pair, alpha, coeffs)
    # exactness of the constructed witness
    a_t = alpha.in_tower(pair.c_tower).embed(pair.c_tower.height)
    assert (w[0].square() + a_t * w[1].square() + g_at(a_t) * w[2].square()).is_zero()
    return SlotSplitResult(pair.f_tower, pair.c_tower, w)


# ---------------------------------------------------------------------------
# the splitting pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitCertificate:
    """Everything needed to re-check that N_Q vanishes over K F'.

    ``tower`` is the compositum (K's tower with the adjunctions stacked on
    top) carrying the witness; ``two_tower`` is the F-side recipe whose exact
    degree over Q is ``degree_over_F``.
    """

    quaternion: QuaternionAlgebra
    tower: TowerField
    two_tower: TowerField
    witness: tuple[TowerElement, ...]
    degree_over_F: int
    claimed_bound: int


def split_over_2ext(q: QuaternionAlgebra, two_part_levels: int | None = None) -> SplitCertificate:
    """Split certificate for a quaternion over K with [K:Q] <= 8.

    K is q's whole tower over the rational base F = Q.  Even-degree K must
    declare its maximal 2-subextension as the first ``two_part_levels``
    levels of the tower (a chain of quadratic levels); odd-degree K needs no
    declaration since no quadratic subextension can exist.

    The witness is a zero of N_Q by construction; ``verify_split`` evaluates
    the norm, so it is not evaluated here.  ``_Pair.lift`` is a ring
    homomorphism F' -> K F' fixing K0: every F-side level goes to a root of
    its lifted minimal polynomial, collapsed or not.  So x (x) f -> x lift(f)
    is a ring homomorphism K (x)_K0 F' -> K F', and for a K-form transferred
    through the functionals s_t of a K0-basis B of K, the value at the lifted
    vector sum_j lift(w_j) B_j is sum_t lift(phi_t(w)) B_t.  Small r: that
    identity for the whole norm form makes the lifted isotropy witness a
    zero.  Large r: with B = (1, alpha, alpha^2, ...) and phi_t(w) = 0 for
    t >= 3, d3 v3^2 + d4 v4^2 = g(alpha), where g's coefficients are the
    F-side values phi_0(w), phi_1(w), phi_2(w).  Then ``_slot_split`` kills
    <1, alpha, g(alpha)> (``_dependent_alpha_witness`` kills <1, alpha>) of
    the norm form, which is diag(1, alpha, d3, d4) with no base change.
    """
    k_tower = q.field
    k_height = k_tower.height
    d = k_tower.absolute_degree()
    if d > 8:
        raise DegreeTooLarge(f"[K:F] = {d} > 8 is not supported")
    if two_part_levels is None:
        if d % 2 == 0:
            raise Missing2PartDeclaration(
                "even-degree K needs a declared maximal 2-subextension chain"
            )
        two_part_levels = 0
    t = two_part_levels
    if not 0 <= t <= k_height:
        raise PreconditionError("two_part_levels out of range")
    if any(k_tower.levels[i].degree != 2 for i in range(t)):
        raise Missing2PartDeclaration("declared 2-part levels must be quadratic")
    r = d // k_tower.absolute_degree(t)
    pair = _Pair(
        f_tower=k_tower.prefix(t),
        c_tower=k_tower,
        shared=t,
        comp_base=k_height,
        images=(),
        guaranteed=(r % 2 == 1),
    )
    nf = norm_form(q)
    if r <= 6:
        pair, witness = _split_small(nf, pair, t, k_height, r)
    else:
        pair, witness = _split_large(nf, pair, t, k_height, r)
    witness = clear_denominators(witness)
    assert any(witness), "split witness is zero"
    degree_over_f = pair.f_tower.absolute_degree()
    claimed = 2**d
    assert degree_over_f <= claimed
    return SplitCertificate(
        quaternion=q,
        tower=pair.c_tower,
        two_tower=pair.f_tower,
        witness=witness,
        degree_over_F=degree_over_f,
        claimed_bound=claimed,
    )


def _split_small(nf: QuadraticForm, pair: _Pair, t: int, k_height: int, r: int):
    """Transfer the whole norm form through a K0-basis of K: r forms in 4r
    variables (4r > r(r+1)/2 for r <= 6), then one isotropy certificate."""
    k_tower = pair.c_tower
    basis = LinearFunctionalBasis.standard(k_tower, t, k_height)
    cert = isotropy_2ext(transfer_system(nf, basis))
    pair = pair.mirror_to(cert.tower)
    witness = tuple(
        _lifted_sum(pair, cert.witness[i * r : (i + 1) * r], basis.elements) for i in range(4)
    )
    return pair, witness


def _lifted_sum(pair: _Pair, coords, basis) -> TowerElement:
    """sum_j lift(coords[j]) * basis[j] at the compositum top, one ``dot``:
    F-side coordinates in a K0-basis of K, read as one compositum element."""
    return dot([pair.lift(w) for w in coords], basis)


def _split_large(nf: QuadraticForm, pair: _Pair, t: int, k_height: int, r: int):
    """r in {7, 8}: peel <1, alpha> off the (diagonal) norm form, transfer
    the 2-dimensional rest, make functionals 3..r-1 vanish, read g off
    functionals 0..2 and finish with the explicit 3-slot witness."""
    k_tower = pair.c_tower
    # nf is diagonal with nonzero entries, so P = I; the call stays because
    # perfbench's tracing self-test expects diagonalize here (ROADMAP 2 (c))
    diag, _ = diagonalize(nf)
    assert diag[0] == 1
    alpha = diag[1]
    d3, d4 = diag[2], diag[3]

    one_k = k_tower.one(k_height)
    pows = [one_k, alpha, alpha * alpha]
    coord_rows = [flatten_between(x, t) for x in pows]
    # the pivot columns of [1 | alpha | alpha^2 | e_0 | ... | e_{m-1}] say
    # whether the powers are independent and which standard vectors, taken
    # in order, complete them to a K0-basis B.  The rref is E [P | I] and
    # its pivot columns are I, so E B = I: the right block E is B's inverse,
    # the coordinate functionals of the chosen basis
    m = len(coord_rows[0])
    unit = linalg.identity(k_tower, t, m)
    red, pivots = linalg.rref(tuple(col + row for col, row in zip(zip(*coord_rows), unit)))
    if pivots[:3] != (0, 1, 2):
        pair, w_diag = _dependent_alpha_witness(pair, alpha, red, pivots)
    else:
        chosen = pows + [_basis_element(k_tower, t, k_height, c - 3) for c in pivots[3:]]
        inv = tuple(row[3:] for row in red)
        basis = LinearFunctionalBasis(k_tower, t, k_height, tuple(chosen), inv)
        rest = QuadraticForm.diagonal(k_tower, k_height, [d3, d4])
        forms = transfer_system(rest, basis).forms
        cert = isotropy_2ext(QFSystem(forms[3:]))
        g_coeffs = tuple(f.evaluate(cert.witness) for f in forms[:3])
        pair = pair.mirror_to(cert.tower)
        top = pair.c_tower.height
        v3 = _lifted_sum(pair, cert.witness[:r], basis.elements)
        v4 = _lifted_sum(pair, cert.witness[r:], basis.elements)
        if all(c.is_zero() for c in g_coeffs):
            w_diag = (pair.c_tower.zero(top), pair.c_tower.zero(top), v3, v4)
        else:
            alpha_c = alpha.in_tower(pair.c_tower).embed(top)
            pair, w3 = _slot_split(pair, alpha_c, g_coeffs)
            top = pair.c_tower.height
            z = w3[2]
            w_diag = (
                w3[0],
                w3[1],
                z * v3.in_tower(pair.c_tower).embed(top),
                z * v4.in_tower(pair.c_tower).embed(top),
            )
    top = pair.c_tower.height
    return pair, tuple(w.in_tower(pair.c_tower).embed(top) for w in w_diag)


def _dependent_alpha_witness(pair: _Pair, alpha: TowerElement, red, pivots):
    """(1, alpha, alpha^2) K0-linearly dependent: alpha has degree <= 2 over
    K0, and <1, alpha> is killed by adjoining sqrt(-alpha).

    ``red`` and ``pivots`` are the rref of the completion [1 | alpha |
    alpha^2 | I] over K0: it writes each non-pivot column as a combination
    of the pivot columns before it, and column 0 (the 1) is a pivot.  So
    alpha = red[0][1] if column 1 is not a pivot, and otherwise column 2 is
    not and alpha^2 = red[0][2] + red[1][2] alpha."""
    if pivots[1] != 1:
        # alpha lies in K0
        alpha0 = red[0][1].in_tower(pair.f_tower)
        pair, s = pair.adjoin_sqrt(-alpha0)
        top = pair.c_tower.height
        w = (pair.lift(s), pair.c_tower.one(top), pair.c_tower.zero(top), pair.c_tower.zero(top))
        return pair, w
    # degree exactly 2: the F-side gets the quartic minpoly of sqrt(-alpha).
    # If the declared 2-part was not maximal after all, the quartic is
    # reducible and a later inversion raises the ReducibilityError precondition
    e0, e1 = red[0][2].in_tower(pair.f_tower), red[1][2].in_tower(pair.f_tower)
    f_top = pair.f_tower.height
    quartic = [
        -e0.embed(f_top),
        pair.f_tower.zero(f_top),
        e1.embed(f_top),
        pair.f_tower.zero(f_top),
        pair.f_tower.one(f_top),
    ]
    f2 = tower_extend(pair.f_tower, quartic)
    c2, img, _added = adjoin_sqrt(pair.c_tower, -alpha.embed(pair.c_tower.height))
    pair = pair._extended(f2, c2, img)
    top = pair.c_tower.height
    w = (
        img.in_tower(pair.c_tower).embed(top),
        pair.c_tower.one(top),
        pair.c_tower.zero(top),
        pair.c_tower.zero(top),
    )
    return pair, w


__all__ = [
    "QuaternionAlgebra",
    "standard_quaternion",
    "bracket_quaternion",
    "norm_form",
    "SlotSplitResult",
    "quadratic_slot_split",
    "SplitCertificate",
    "split_over_2ext",
]
