"""Exact integer polynomial arithmetic.

Coefficients are arbitrary-precision integers stored low-to-high.  The
discriminant goes through a fraction-free Sylvester determinant, and
interpolation, exact division and gcd run in integers too, so every value
this module produces is exact.  Only rational roots are Fractions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, isqrt
from typing import Iterable, Optional, Sequence

from .linalg import bareiss_det
from .padic import InvariantError, _as_int, _as_p, is_prime

_SMALL_PRIMES = tuple(q for q in range(2, 101) if is_prime(q))
_EISENSTEIN_SHIFTS = (0, 1, -1, 2, -2, 3, -3)


class IntPoly:
    """Integer polynomial a_0 + a_1 x + ... + a_n x^n with a_n != 0."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        c = list(coeffs)
        for a in c:
            if type(a) is not int:
                _as_int(a, "every coefficient")  # raises, naming the argument
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    @classmethod
    def from_string(cls, text: str) -> "IntPoly":
        """Parse the canonical encoding: comma-separated a_0,...,a_n in decimal."""
        return cls(int(part) for part in text.split(","))

    def to_string(self) -> str:
        if not self.coeffs:
            return "0"
        return ",".join(str(a) for a in self.coeffs)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def height(self) -> int:
        return max((abs(a) for a in self.coeffs), default=0)

    @property
    def content(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no content")
        return gcd(*self.coeffs)

    def __call__(self, x: int) -> int:
        acc = 0
        for a in reversed(self.coeffs):
            acc = acc * x + a
        return acc

    def hasse_derivative(self, i: int) -> "IntPoly":
        """The i-th derivative divided by i!, with integer coefficients C(j,i)*a_j."""
        if _as_int(i, "i", 0) == 0:
            return self
        return IntPoly(comb(j, i) * a for j, a in enumerate(self.coeffs[i:], start=i))

    def derivative(self) -> "IntPoly":
        return self.hasse_derivative(1)

    def shift(self, c: int) -> "IntPoly":
        """P(x + c), exact Taylor shift via synthetic division."""
        _as_int(c, "c")
        b = list(self.coeffs)
        n = len(b)
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                b[j] += c * b[j + 1]
        return IntPoly(b)

    def __neg__(self):
        return IntPoly(-a for a in self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly(
            (x + y for x, y in itertools.zip_longest(a, b, fillvalue=0))
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(other * a for a in self.coeffs)
        if self.is_zero or other.is_zero:
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "IntPoly(0)"
        terms = []
        for j in range(len(self.coeffs) - 1, -1, -1):
            a = self.coeffs[j]
            if a == 0:
                continue
            sign = "-" if a < 0 else ("+" if terms else "")
            mag = abs(a)
            if j == 0:
                body = str(mag)
            else:
                xs = "x" if j == 1 else f"x^{j}"
                body = xs if mag == 1 else f"{mag}{xs}"
            terms.append(f"{sign}{body}" if not terms else f" {sign} {body}")
        return f"IntPoly({''.join(terms)})"


def content_primitive(poly: IntPoly) -> tuple[int, IntPoly]:
    """Split P = content * primitive with content > 0 and primitive of content 1."""
    c = poly.content  # ValueError for the zero polynomial
    return c, IntPoly(a // c for a in poly.coeffs)


def sylvester_matrix(p: IntPoly, q: IntPoly) -> list[list[int]]:
    """Sylvester matrix of p and q (descending-coefficient convention)."""
    n, m = p.degree, q.degree
    if n < 0 or m < 0:
        raise ValueError("Sylvester matrix needs nonzero polynomials")
    size = n + m
    pd = list(reversed(p.coeffs))
    qd = list(reversed(q.coeffs))
    rows = []
    for i in range(m):
        rows.append([0] * i + pd + [0] * (size - i - n - 1))
    for i in range(n):
        rows.append([0] * i + qd + [0] * (size - i - m - 1))
    return rows


def resultant(p: IntPoly, q: IntPoly) -> int:
    """Res(p, q) as an exact integer (Bareiss determinant of the Sylvester matrix)."""
    # two nonzero constants give the 0 x 0 Sylvester matrix, whose determinant is 1
    return bareiss_det(sylvester_matrix(p, q))


def discriminant_coeffs(coeffs: tuple[int, ...]) -> int:
    """Discriminant from a raw low-to-high coefficient tuple.

    Callers: discriminant (so the theorem3 summary of the generate command),
    the memo roots._discriminant that zp_roots and profile_at_zp_root read D
    through, and the census kernel, once per record at n >= 4; the n = 2 and
    n = 3 kernels inline their own closed forms.
    Degrees 2 and 3 use the expanded closed forms of the Sylvester
    determinant; higher degrees go through the Bareiss determinant, and so
    does degree 1, where Res(P, P') = a_1 gives a_1 / a_1 = 1 (the empty
    root-difference product).
    """
    n = len(coeffs) - 1
    if n < 1 or coeffs[n] == 0:
        raise ValueError("discriminant needs degree >= 1 with nonzero leading coefficient")
    if n == 2:
        a0, a1, a2 = coeffs
        return a1 * a1 - 4 * a2 * a0
    if n == 3:
        a0, a1, a2, a3 = coeffs
        return (18 * a3 * a2 * a1 * a0 - 4 * a2**3 * a0 + a2 * a2 * a1 * a1
                - 4 * a3 * a1**3 - 27 * a3 * a3 * a0 * a0)
    p = IntPoly(coeffs)
    res = resultant(p, p.derivative())
    q, r = divmod(res, coeffs[n])
    if r != 0:
        raise InvariantError("resultant not divisible by leading coefficient")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * q


def discriminant(poly: IntPoly) -> int:
    """D(P) = (-1)^(n(n-1)/2) Res(P, P') / a_n, exact."""
    return discriminant_coeffs(poly.coeffs)


def hadamard_bound(n: int, height: int) -> int:
    """Explicit B(n, H) with |D(P)| <= B for every degree-n P of height <= H.

    B = n^n (n+1)^(n-1) H^(2n-2): the Mahler-measure form of the Hadamard
    row-norm estimate for the Sylvester determinant, which keeps the exponent
    at 2n-2.
    """
    _as_int(n, "n", 1)
    _as_int(height, "height", 1)
    return n**n * (n + 1) ** (n - 1) * height ** (2 * n - 2)


def eisenstein_check(poly: IntPoly, q: int) -> bool:
    """Eisenstein criterion at q: q | a_i for i < n, q does not divide a_n, q^2 does not divide a_0."""
    q = _as_p(q, "q")
    n = poly.degree
    if n < 1:
        raise ValueError("Eisenstein check needs degree >= 1")
    a = poly.coeffs
    if a[n] % q == 0:
        return False
    if any(a[i] % q for i in range(n)):
        return False
    return a[0] % (q * q) != 0


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, big = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                big.append(n // d)
        d += 1
    return small + big[::-1]


def rational_roots(poly: IntPoly) -> list[Fraction]:
    """All rational roots of a nonzero polynomial, via the rational root theorem."""
    if poly.is_zero:
        raise ValueError("zero polynomial")
    coeffs = poly.coeffs
    shift = 0
    while coeffs[shift] == 0:
        shift += 1
    roots = [Fraction(0)] if shift else []
    coeffs = coeffs[shift:]
    n = len(coeffs) - 1
    if n == 0:
        return roots
    a0, an = coeffs[0], coeffs[-1]
    an_divisors = _divisors(an)
    for r in _divisors(a0):
        for s in an_divisors:
            if gcd(r, s) != 1:
                continue
            for num in (r, -r):
                # integer test of P(num/s) = 0: sum a_i num^i s^(n-i)
                val = sum(a * num**i * s ** (n - i) for i, a in enumerate(coeffs))
                if val == 0:
                    roots.append(Fraction(num, s))
    return sorted(set(roots))


def _trim(c: list[int]) -> list[int]:
    """Drop trailing zero coefficients in place (low-to-high lists)."""
    while c and c[-1] == 0:
        c.pop()
    return c


# --- polynomial arithmetic over F_l ---------------------------------------


def _ff_gcd(a: list[int], b: list[int], l: int) -> list[int]:
    """A gcd over F_l of two trimmed coefficient lists (Euclid, not made monic)."""
    a, b = a[:], b[:]
    while b:
        inv, db = pow(b[-1], -1, l), len(b) - 1
        while len(a) > db:  # a <- a mod b
            f, off = a[-1] * inv % l, len(a) - 1 - db
            for i, m in enumerate(b):
                a[off + i] = (a[off + i] - f * m) % l
            _trim(a)
        a, b = b, a
    return a


def _ff_mulmod(a: list[int], b: list[int], m: list[int], l: int) -> list[int]:
    """a*b mod (f, l) for residues of n coefficients, f monic with x^n = -sum m_i x^i."""
    n = len(m)
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):  # reduce from the top
        c = prod[k] % l
        if c:
            for i, mi in enumerate(m, start=k - n):
                prod[i] -= c * mi
    return [v % l for v in prod[:n]]


def poly_irreducible_mod(poly: IntPoly, l: int) -> bool:
    """True iff P mod l is irreducible of full degree over F_l (Berlekamp rank).

    For f = P mod l of degree n, Q is the n x n matrix whose row i holds the
    coefficients of x^(il) mod f.  Frobenius g -> g^l is F_l-linear on
    A = F_l[x]/(f), and g^l = sum g_i x^(il) because g_i^l = g_i, so g^l - g
    is the row vector g (Q - I).  For squarefree f = p_1 ... p_k with
    distinct irreducible p_j, the Chinese remainder theorem makes A a product
    of the fields F_l[x]/(p_j), and Frobenius fixes exactly F_l in each, so
    dim ker(Q - I) = k (Berlekamp 1967; Knuth, TAOCP vol. 2, 4.6.2).  Hence a
    squarefree f is irreducible iff rank(Q - I) = n - 1; gcd(f, f') rejects
    the others first.  Residues are lists of n coefficients mod f made monic.
    """
    l = _as_p(l, "l")
    n = poly.degree
    f = _trim([a % l for a in poly.coeffs])
    if len(f) - 1 != n:
        return False  # degree dropped mod l; caller should pick l not dividing a_n
    if n == 1:
        return True
    deriv = _trim([(j * a) % l for j, a in enumerate(f)][1:])
    if not deriv or len(_ff_gcd(f, deriv, l)) > 1:
        return False
    inv = pow(f[n], -1, l)
    m = [a * inv % l for a in f[:n]]
    xl = [0, 1] + [0] * (n - 2)
    for bit in bin(l)[3:]:  # x^l by square-and-multiply
        xl = _ff_mulmod(xl, xl, m, l)
        if bit == "1":  # times x: shift up and reduce x^n
            c = xl[-1]
            xl = [(a - c * mi) % l for a, mi in zip([0] + xl[:-1], m)]
    basis = []  # reduced rows of Q - I: 1 at their own pivot, 0 at earlier pivots
    for i in range(1, n):  # row 0 of Q - I is zero
        row = xl if i == 1 else _ff_mulmod(row, xl, m, l)  # x^(il) mod f
        v = row[:]
        v[i] = (v[i] - 1) % l
        for col, b in basis:
            if v[col]:
                c = v[col]
                v = [(x - c * y) % l for x, y in zip(v, b)]
        col = next((j for j, x in enumerate(v) if x), None)
        if col is None:
            return False  # rank(Q - I) < n - 1
        inv = pow(v[col], -1, l)
        basis.append((col, [x * inv % l for x in v]))
    return True


# --- exact interpolation and division over Z ---------------------------------


def interpolate(xs: Sequence[int], ys: Sequence[int]) -> Optional[IntPoly]:
    """The interpolant of degree < len(xs) through (xs[i], ys[i]) if it is in Z[x], else None.

    Newton divided differences over distinct integer nodes, each one a
    divmod; the first nonzero remainder returns None.  The Newton form is
    expanded by integer Horner steps.  Proof: the divided difference of x^j
    over k+1 integer nodes is the complete homogeneous symmetric polynomial
    h_(j-k) of the nodes, an integer, so for an interpolant in Z[x] every
    table entry is an integer and every division is exact.  Conversely,
    exact divisions give integer Newton coefficients, hence a Z[x] result.
    """
    table = list(ys)
    k = len(table)
    for j in range(1, k):
        for i in range(k - 1, j - 1, -1):
            quo, rem = divmod(table[i] - table[i - 1], xs[i] - xs[i - j])
            if rem:
                return None
            table[i] = quo
    coeffs: list[int] = []
    for j in range(k - 1, -1, -1):
        # coeffs <- coeffs * (x - xs[j]) + table[j]
        nxt = [0] + coeffs
        for t, c in enumerate(coeffs):
            nxt[t] -= xs[j] * c
        nxt[0] += table[j]
        coeffs = nxt
    return IntPoly(coeffs)


def poly_divmod_exact(num: IntPoly, den: IntPoly) -> Optional[IntPoly]:
    """num / den when the quotient is in Z[x] and the remainder is 0, else None.

    Integer long division.  Until a quotient coefficient is not divisible by
    lead(den) it agrees with division over Q, so it stops there with None.
    """
    if den.is_zero:
        raise ZeroDivisionError
    if num.is_zero:
        return IntPoly(())
    dn = den.degree
    if num.degree < dn:
        return None
    rem = list(num.coeffs)
    dc = den.coeffs
    quo = [0] * (num.degree - dn + 1)
    for k in range(len(quo) - 1, -1, -1):
        coeff, r = divmod(rem[k + dn], dc[-1])
        if r:
            return None
        quo[k] = coeff
        if coeff:
            for i, d in enumerate(dc):
                rem[k + i] -= coeff * d
    if any(rem):
        return None
    return IntPoly(quo)


def _divide_exact(num: IntPoly, den: IntPoly) -> IntPoly:
    """num / den for a divisor den known to divide num, e.g. a gcd."""
    quo = poly_divmod_exact(num, den)
    if quo is None:
        raise ArithmeticError(f"{den!r} does not divide {num!r}")
    return quo


# --- Kronecker exhaustive factor search ------------------------------------


def kronecker_factor(poly: IntPoly) -> Optional[IntPoly]:
    """A nontrivial integer factor of a primitive polynomial, or None.

    Complete search: a factor of degree d is the interpolant through a tuple
    of divisors of P's values at d+1 points.  `interpolate` drops a tuple at
    its first inexact division.  Exponential in the factor degree, intended
    as the guaranteed fallback at desk scale.
    """
    n = poly.degree
    if n < 2:
        return None
    sample_pool = itertools.chain([0], (s * v for v in itertools.count(1) for s in (1, -1)))
    points: list[int] = []
    values: list[int] = []
    for x in sample_pool:
        val = poly(x)
        if val == 0:
            # x is an integer root; x - root is a factor.
            return IntPoly((-x, 1))
        points.append(x)
        values.append(val)
        if len(points) > n // 2:
            break
    for d in range(1, n // 2 + 1):
        xs = points[: d + 1]
        divisor_lists = []
        for j, v in enumerate(values[: d + 1]):
            divs = _divisors(v)
            if j == 0:
                divisor_lists.append(divs)  # sign-normalize: g(x_0) > 0
            else:
                divisor_lists.append([s * t for t in divs for s in (1, -1)])
        for choice in itertools.product(*divisor_lists):
            g = interpolate(xs, choice)
            if g is None or g.degree < 1:
                continue
            if poly_divmod_exact(poly, g) is not None:
                return content_primitive(g)[1]
    return None


# --- irreducibility pipeline ------------------------------------------------


@dataclass(frozen=True)
class IrreducibilityResult:
    """Yes/no with a checkable certificate naming which stage decided."""

    irreducible: bool
    certificate: str
    detail: tuple = ()

    def __bool__(self) -> bool:
        return self.irreducible


def is_irreducible(poly: IntPoly) -> IrreducibilityResult:
    """Irreducibility over Q for a primitive polynomial of degree >= 1.

    Pipeline: rational-root test, Eisenstein scan (primes q <= 100, shifts
    |c| <= 3; a shift is skipped when gcd(a_0, ..., a_(n-1)) = 1, since every
    such q divides it), irreducible-mod-l by Berlekamp rank for the first ten
    primes not dividing a_n, then Kronecker exhaustive factor search as the
    complete fallback.
    """
    n = poly.degree
    if n < 1:
        raise ValueError("irreducibility needs degree >= 1")
    if poly.content != 1:
        raise ValueError("polynomial must be primitive (content 1)")
    if n == 1:
        return IrreducibilityResult(True, "degree-1")
    if poly.coeffs[0] == 0:
        return IrreducibilityResult(False, "rational-root", (0, 1))
    if n == 2:
        # Reducible over Q iff the discriminant is a perfect square; this is
        # the linear-factor search in closed form.
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
    an = poly.leading
    for c in _EISENSTEIN_SHIFTS:
        a = poly.shift(c).coeffs
        g = gcd(*a[:n])  # Eisenstein at q needs q | g
        if g == 1:
            continue
        for q in _SMALL_PRIMES:
            if q > g:
                break
            if g % q == 0 and an % q and a[0] % (q * q):
                return IrreducibilityResult(True, "eisenstein", (q, c))
    tried = 0
    for l in _SMALL_PRIMES:
        if poly.leading % l == 0:
            continue
        if poly_irreducible_mod(poly, l):
            return IrreducibilityResult(True, "irreducible-mod-l", (l,))
        tried += 1
        if tried >= 10:
            break
    factor = kronecker_factor(poly)
    if factor is not None:
        return IrreducibilityResult(False, "factor-found", factor.coeffs)
    return IrreducibilityResult(True, "exhaustive-factor-search")


# --- gcd / squarefree machinery over Z --------------------------------------


def _primitive(c: list[int]) -> list[int]:
    """A coefficient list divided by its content; [] stays []."""
    g = gcd(*c)
    return [x // g for x in c] if g > 1 else c


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd over Q with positive leading coefficient.

    Primitive Euclid over Z: each pseudo-remainder is a nonzero integer
    multiple of the remainder over Q and is divided by its content, so by
    Gauss's lemma the last nonzero one is the primitive gcd up to sign.
    """
    x = _primitive(list(a.coeffs))
    y = _primitive(list(b.coeffs))
    while y:
        lead, dy = y[-1], len(y) - 1
        while len(x) > dy:
            # x <- (lead/g) x - (x[-1]/g) x^off y, which kills the top term
            top = x[-1]
            g = gcd(top, lead)
            scale, f = lead // g, top // g
            off = len(x) - 1 - dy
            x = [scale * c for c in x]
            for i, d in enumerate(y):
                x[off + i] -= f * d
            _trim(x)
        x, y = y, _primitive(x)
    if x and x[-1] < 0:
        x = [-c for c in x]
    return IntPoly(x)


def squarefree_part(poly: IntPoly) -> IntPoly:
    """Primitive squarefree polynomial with the same roots (ignoring multiplicity)."""
    if poly.degree < 1:
        raise ValueError("squarefree part needs degree >= 1")
    # a constant gcd is 1 (poly_gcd is primitive and positive), and dividing by 1 gives P
    return content_primitive(_divide_exact(poly, poly_gcd(poly, poly.derivative())))[1]


def squarefree_decomposition(poly: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun-style decomposition [(S_m, m), ...] with P = content * prod S_m^m."""
    if poly.degree < 1:
        raise ValueError("decomposition needs degree >= 1")
    p = content_primitive(poly)[1]
    out = []
    m = 1
    while p.degree >= 1:
        g = poly_gcd(p, p.derivative())
        if g.degree == 0:
            out.append((p, m))
            break
        s = _divide_exact(p, g)  # product of distinct factors of p
        nxt = _divide_exact(p, s)
        # factors appearing exactly once in p (multiplicity m overall):
        once = _divide_exact(s, poly_gcd(s, nxt))
        if once.degree >= 1:
            out.append((content_primitive(once)[1], m))
        p = nxt
        m += 1
    return out
