"""Reference oracles for rational quaternions, independent of the
splitting pipeline, which the tests compare split certificates against.

- ``hilbert_symbol_Q`` decides split or division for (u, v) over Q from
  Hilbert symbols at -1, 2 and the odd primes dividing the entries
  (Miller-Rabin and Pollard rho factor the entries);
- ``rational_norm_zero_search`` is a bounded search for a rational zero of
  the norm form, for the split cases the pipeline answers with a quadratic
  extension.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from isotower.errors import PreconditionError
from isotower.sqrt import _trial_factor, squarefree_reduce


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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factor(n: int) -> dict[int, int]:
    """Complete factorization of |n|: small primes by trial division, the
    cofactor by Pollard rho."""
    out, cofactor = _trial_factor(abs(n))
    stack = [cofactor]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        x, y, d = 2, 2, 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _hilbert_local(a: int, b: int, p: int) -> int:
    """Hilbert symbol (a, b)_p for integers a, b != 0 at a prime p (2 allowed)."""
    al = 0
    while a % p == 0:
        a //= p
        al += 1
    be = 0
    while b % p == 0:
        b //= p
        be += 1
    if p == 2:
        eps = lambda x: ((x - 1) // 2) & 1
        om = lambda x: ((x * x - 1) // 8) & 1
        e = eps(a) * eps(b) + al * om(b) + be * om(a)
        return -1 if e & 1 else 1
    e = ((p - 1) // 2) * al * be
    sym = (-1) ** (e & 1)
    if be & 1:
        sym *= _legendre(a, p)
    if al & 1:
        sym *= _legendre(b, p)
    return sym


def hilbert_symbol_Q(u, v) -> str:
    """Decide split/division for the rational quaternion (u, v), via Hilbert
    symbols at -1, 2 and the odd primes dividing the entries, with the
    product formula as a self-check."""
    u, v = Fraction(u), Fraction(v)
    if u == 0 or v == 0:
        raise PreconditionError("hilbert_symbol_Q requires nonzero entries")
    a = u.numerator * u.denominator
    b = v.numerator * v.denominator
    primes = {2}
    primes.update(_factor(a))
    primes.update(_factor(b))
    primes.discard(2)
    symbols = {}
    symbols["inf"] = -1 if (a < 0 and b < 0) else 1
    symbols[2] = _hilbert_local(a, b, 2)
    for p in sorted(primes):
        symbols[p] = _hilbert_local(a, b, p)
    prod = 1
    for s in symbols.values():
        prod *= s
    assert prod == 1, "Hilbert product formula violated (factorization bug)"
    return "split" if all(s == 1 for s in symbols.values()) else "division"
