"""Rabin's irreducibility test mod l and the pipeline it fed, kept as test oracles.

`poly_irreducible_mod` now decides by the rank of Berlekamp's matrix.  The
test it replaced is here: f of degree n is irreducible over F_l iff it is
squarefree, x^(l^n) = x mod f, and gcd(f, x^(l^(n/r)) - x) = 1 for every
prime r | n.  `is_irreducible_reference` is the irreducibility pipeline that
called it, with the Eisenstein scan trying every prime at every shift.
"""

from __future__ import annotations

import itertools
from math import isqrt

from padicsep.intpoly import (
    IntPoly,
    IrreducibilityResult,
    _EISENSTEIN_SHIFTS,
    _SMALL_PRIMES,
    eisenstein_check,
    kronecker_factor,
    rational_roots,
)
from padicsep.padic import is_prime


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _ff_rem(a: list[int], mod: list[int], l: int) -> list[int]:
    a = a[:]
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], -1, l)
    while len(a) - 1 >= dm and _trim(a):
        f = a[-1] * inv_lead % l
        off = len(a) - 1 - dm
        for i, m in enumerate(mod):
            a[off + i] = (a[off + i] - f * m) % l
        _trim(a)
    return a


def _ff_mulmod(a: list[int], b: list[int], mod: list[int], l: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % l
    return _ff_rem(out, mod, l)


def _ff_gcd(a: list[int], b: list[int], l: int) -> list[int]:
    a, b = _trim(a[:]), _trim(b[:])
    while b:
        a, b = b, _ff_rem(a, b, l)
        _trim(b)
    if a:
        inv = pow(a[-1], -1, l)
        a = [x * inv % l for x in a]
    return a


def _ff_powmod_x(e: int, mod: list[int], l: int) -> list[int]:
    """x^e mod (mod, l) by binary exponentiation."""
    result = [1]
    base = _ff_rem([0, 1], mod, l)
    while e:
        if e & 1:
            result = _ff_mulmod(result, base, mod, l)
        base = _ff_mulmod(base, base, mod, l)
        e >>= 1
    return result


def poly_irreducible_mod_rabin(poly: IntPoly, l: int) -> bool:
    """True iff P mod l is irreducible of full degree over F_l (Rabin's test)."""
    n = poly.degree
    f = _trim([a % l for a in poly.coeffs])
    if len(f) - 1 != n:
        return False
    if n == 1:
        return True
    deriv = _trim([(j * a) % l for j, a in enumerate(f)][1:])
    if not deriv or len(_ff_gcd(f, deriv, l)) > 1:
        return False
    xq = _ff_powmod_x(l**n, f, l)
    if _trim([(a - b) % l for a, b in itertools.zip_longest(xq, [0, 1], fillvalue=0)]):
        return False
    for r in {r for r in range(2, n + 1) if n % r == 0 and is_prime(r)}:
        xr = _ff_powmod_x(l ** (n // r), f, l)
        diff = _trim([(a - b) % l for a, b in itertools.zip_longest(xr, [0, 1], fillvalue=0)])
        if len(_ff_gcd(f, diff, l)) > 1:
            return False
    return True


def is_irreducible_reference(poly: IntPoly) -> IrreducibilityResult:
    """The irreducibility pipeline with Rabin's test and the unfiltered Eisenstein scan."""
    n = poly.degree
    if n == 1:
        return IrreducibilityResult(True, "degree-1")
    if poly.coeffs[0] == 0:
        return IrreducibilityResult(False, "rational-root", (0, 1))
    if n == 2:
        d = poly.coeffs[1] ** 2 - 4 * poly.coeffs[2] * poly.coeffs[0]
        if d >= 0 and isqrt(d) ** 2 == d:
            return IrreducibilityResult(False, "rational-root", ("sqrt-disc",))
        return IrreducibilityResult(True, "exhaustive-factor-search", ("linear-only",))
    roots = rational_roots(poly)
    if roots:
        r = roots[0]
        return IrreducibilityResult(False, "rational-root", (r.numerator, r.denominator))
    if n == 3:
        return IrreducibilityResult(True, "exhaustive-factor-search", ("linear-only",))
    for c in _EISENSTEIN_SHIFTS:
        shifted = poly.shift(c)
        for q in _SMALL_PRIMES:
            if eisenstein_check(shifted, q):
                return IrreducibilityResult(True, "eisenstein", (q, c))
    tried = 0
    for l in _SMALL_PRIMES:
        if poly.leading % l == 0:
            continue
        if poly_irreducible_mod_rabin(poly, l):
            return IrreducibilityResult(True, "irreducible-mod-l", (l,))
        tried += 1
        if tried >= 10:
            break
    factor = kronecker_factor(poly)
    if factor is not None:
        return IrreducibilityResult(False, "factor-found", factor.coeffs)
    return IrreducibilityResult(True, "exhaustive-factor-search")
