"""Exact p-adic valuations and magnitudes.

Everything here is exact: a p-adic magnitude |x|_p = p^(-v) is stored as its
valuation v (an integer, a rational for roots in ramified extensions, or +inf
for zero).  No floating point is ever involved, so magnitude comparisons are
exact rational comparisons on valuations.  The package's one argument gate is
here: every public entry point passes its primes, integers and rationals to
_as_p, _as_int and _as_rational, which accept exactly int (plus Prime, or
Fraction) and refuse bool, float and str with a ValueError naming the argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union


class _Infinity:
    """Valuation of zero: greater than every rational, absorbing under +."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __sub__(self, other):
        if other is self:
            raise ArithmeticError("infinity - infinity is undefined")
        return self

    def __rsub__(self, other):
        raise ArithmeticError("finite - infinity is not a valuation")

    def __mul__(self, other):
        if other == 0:
            raise ArithmeticError("0 * infinite valuation is undefined")
        return self

    __rmul__ = __mul__

    def __repr__(self):
        return "+Infinity"


INF = _Infinity()


class InvariantError(ArithmeticError):
    """An internal invariant of an exact computation failed: a bug, not bad input."""


Valuation = Union[int, Fraction, _Infinity]

# Deterministic Miller-Rabin witness set: correct for all n < 3.3 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test for n below ~3.3e24."""
    if _as_int(n, "n") < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == small:
            return True
        if n % small == 0:
            return False
    if n >= _MR_LIMIT:
        raise ValueError(f"primality check not deterministic for n >= {_MR_LIMIT}")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Prime:
    """A checked prime p >= 2."""

    p: int

    def __post_init__(self):
        object.__setattr__(self, "p", _as_p(self.p))

    def __int__(self):
        return self.p

    def __repr__(self):
        return f"Prime({self.p})"


_CHECKED_PRIMES: set[int] = set()


def _as_p(p, name: str = "p") -> int:
    """The int of a Prime or a prime int, else ValueError naming it; each prime is tested once."""
    if type(p) is Prime:
        return p.p
    if type(p) is not int:  # before the set: 3.0 == 3 and both hash alike
        raise ValueError(f"{name} must be a prime int, got {p!r}")
    if p not in _CHECKED_PRIMES:
        if not is_prime(p):
            raise ValueError(f"{name} = {p} is not a prime")
        _CHECKED_PRIMES.add(p)
    return p


def _as_int(value, name: str, least: Optional[int] = None) -> int:
    """value, an int (not a bool) >= least; ValueError naming the argument otherwise."""
    if type(value) is not int or least is not None and value < least:
        floor = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{floor}, got {value!r}")
    return value


def _as_rational(value, name: str, least: Optional[int] = None) -> Fraction:
    """value as a Fraction, if an int or a Fraction >= least; else ValueError naming the argument."""
    if type(value) not in (int, Fraction) or least is not None and value < least:
        floor = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an int or a Fraction{floor}, got {value!r}")
    return Fraction(value)


def valuation(x: int, p) -> Valuation:
    """p-adic valuation of an integer; INF for x = 0."""
    q = _as_p(p)
    if type(x) is not int:
        raise ValueError(f"x must be an integer, got {x!r}")
    if x == 0:
        return INF
    v = 0
    x = abs(x)
    while x % q == 0:
        x //= q
        v += 1
    return v


def _ceil_log(value, p) -> int:
    """The least integer e with p^e >= value, for a positive rational value; may be negative."""
    p = _as_p(p)
    if value <= 0:
        raise ValueError(f"log_p needs a positive value, got {value}")
    num, den, e = value.numerator, value.denominator, 0
    while den < num:  # p^e >= num/den  <=>  den p^e >= num
        den *= p
        e += 1
    while num * p <= den:
        num *= p
        e -= 1
    return e


def _power_exponent(value, p) -> Optional[int]:
    """The exponent e with value = p^e, or None if value is no power of p."""
    p = _as_p(p)
    if value <= 0:
        return None
    e = _ceil_log(value, p)
    return e if Fraction(p) ** e == value else None


@dataclass(frozen=True, order=False)
class PadicMag:
    """A p-adic magnitude p^(-val), kept as the exact valuation.

    Comparison operators compare *magnitudes*, so a < b means |a|_p < |b|_p,
    i.e. a.val > b.val.  The zero magnitude has val = INF.
    """

    val: Valuation

    @classmethod
    def zero(cls) -> "PadicMag":
        return cls(INF)

    @property
    def is_zero(self) -> bool:
        return self.val is INF

    def __mul__(self, other: "PadicMag") -> "PadicMag":
        return PadicMag(self.val + other.val)

    def __lt__(self, other: "PadicMag") -> bool:
        return other.val < self.val

    def __le__(self, other: "PadicMag") -> bool:
        return not other < self

    def __gt__(self, other: "PadicMag") -> bool:
        return other < self

    def __ge__(self, other: "PadicMag") -> bool:
        return not self < other

    def __repr__(self):
        return f"PadicMag(p^-({self.val!r}))"


def vp(x: int, p) -> PadicMag:
    """Exact magnitude |x|_p of an integer; vp(0) is the zero magnitude."""
    return PadicMag(valuation(x, p))


def vp_rat(num: int, den: int, p) -> PadicMag:
    """Exact |num/den|_p.  den must be nonzero."""
    if den == 0:
        raise ZeroDivisionError("vp_rat: denominator is zero")
    if num == 0:
        return PadicMag.zero()
    return PadicMag(valuation(num, p) - valuation(den, p))


def ultrametric_max(a: PadicMag, b: PadicMag) -> PadicMag:
    """max(|a|_p, |b|_p), the ultrametric bound for |a + b|_p.

    Equals the exact value of |a + b|_p whenever the two valuations differ.
    """
    return PadicMag(min(a.val, b.val))
