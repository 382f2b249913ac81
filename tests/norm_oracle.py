"""Reference oracle for rational quaternions, used by the tests only.

A bounded search for a rational zero of the norm form, independent of the
splitting pipeline, to cross-check split certificates and hilbert_symbol_Q.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from isotower.errors import PreconditionError
from isotower.sqrt import squarefree_reduce


def rational_norm_zero_search(u, v, boxes=(48, 800)):
    """Bounded integer search for a nonzero rational zero of <1,-u,-v,uv>.

    Works on the squarefree parts a, b of u, v via X^2 = a Y^2 + b Z^2 and
    unscales; small solutions exist for isotropic ternary forms, so the
    escalating boxes cover the split cases in practice.  Returns a verified
    4-vector of Fractions or None."""
    u, v = Fraction(u), Fraction(v)
    if u == 0 or v == 0:
        raise PreconditionError("nonzero entries required")
    a, ma = squarefree_reduce(u.numerator * u.denominator)
    b, mb = squarefree_reduce(v.numerator * v.denominator)
    # u = a * (ma / den_u)^2 and likewise for v
    su = Fraction(ma, u.denominator)
    sv = Fraction(mb, v.denominator)

    def unscale(x, y, z):
        w = (Fraction(x), Fraction(y) / su, Fraction(z) / sv, Fraction(0))
        check = w[0] ** 2 - u * w[1] ** 2 - v * w[2] ** 2
        assert check == 0
        return w

    if a == 1:
        return unscale(1, 1, 0)
    if b == 1:
        return unscale(1, 0, 1)
    for box in boxes:
        for yz in range(1, 2 * box + 1):
            for y in range(max(0, yz - box), min(yz, box) + 1):
                z = yz - y
                val = a * y * y + b * z * z
                if val < 0:
                    continue
                x = isqrt(val)
                if x * x == val:
                    return unscale(x, y, z)
    return None

