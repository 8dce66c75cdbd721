"""Roots of integer polynomials over Z_p and root-distance geometry.

Root valuations come from Newton polygons, roots in Z_p from a residue
branch-and-lift search with a provable depth cap, run per factor of the
squarefree decomposition (which gives the multiplicities), and the minimal
distance between distinct roots in the algebraic closure from the Newton
polygon of the root-difference polynomial, built from power sums (the
composed sums of Bostan, Flajolet, Salvy and Schost).  All valuations are
exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from math import comb
from typing import Sequence

from .intpoly import (IntPoly, content_primitive, discriminant_coeffs, squarefree_decomposition,
                      squarefree_part)
from .padic import INF, InvariantError, PadicMag, Valuation, _as_int, _as_p, valuation


class HenselInapplicable(ValueError):
    """The simple-root condition |P(x)|_p < |P'(x)|_p^2 fails at this point."""


class PrecisionExhausted(RuntimeError):
    """The Z_p root search hit its depth cap (raised only by _lifted_roots)."""


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull of (i, v_p(a_i)); slopes encode root valuations."""

    vertices: tuple[tuple[int, int], ...]
    segments: tuple[tuple[Fraction, int], ...]  # (slope, horizontal length)

    @property
    def zero_root_multiplicity(self) -> int:
        """Number of roots equal to 0 (valuation +inf): the first hull abscissa."""
        return self.vertices[0][0]

    def root_valuations(self) -> list[tuple[Valuation, int]]:
        """Multiset [(valuation, multiplicity)] of all root valuations.

        A segment of slope s and length L contributes L roots of valuation -s;
        x^m dividing P contributes m roots of valuation +inf.
        """
        zeros = [(INF, self.zero_root_multiplicity)] if self.zero_root_multiplicity else []
        return zeros + [(-slope, length) for slope, length in self.segments]


def newton_polygon(poly: IntPoly, p) -> NewtonPolygon:
    """Newton polygon of a nonzero integer polynomial at the prime p."""
    if poly.is_zero:
        raise ValueError("Newton polygon needs a nonzero polynomial")
    q = _as_p(p)
    pts = [(i, valuation(a, q)) for i, a in enumerate(poly.coeffs) if a != 0]
    hull: list[tuple[int, int]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop hull[-1] unless it turns strictly left (keeps lower hull)
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    segments = tuple((Fraction(y2 - y1, x2 - x1), x2 - x1)
                     for (x1, y1), (x2, y2) in zip(hull, hull[1:]))
    return NewtonPolygon(tuple(hull), segments)


@dataclass(frozen=True)
class ZpRoot:
    """A root in Z_p known to precision p^N: residue mod p^N."""

    residue: int
    precision: int
    simple: bool


def _newton_refine(poly: IntPoly, deriv: IntPoly, x0: int, p: int, target: int, v1: int) -> int:
    """Refine x0 to x with v_p(P(x)) >= target, assuming the Hensel condition.

    deriv = P', built once by the caller.  v1 is v_p(P'(x0)), which Hensel's
    lemma keeps invariant.  Works on exact integers mod p^(target + v1 + 2).
    """
    modulus = p ** (target + v1 + 2)
    x = x0 % modulus
    while True:
        fx = poly(x)
        if fx == 0 or valuation(fx, p) >= target:
            return x
        unit = deriv(x) // p**v1
        step = (fx // p**v1) * pow(unit % modulus, -1, modulus)
        x = (x - step) % modulus


def hensel_lift(poly: IntPoly, x0: int, p, precision: int) -> tuple[ZpRoot, Valuation]:
    """Lift x0 to the unique nearby root of P in Z_p, to precision p^precision.

    Requires v_p(P(x0)) > 2 v_p(P'(x0)).  Returns the root together with the
    distance valuation v_p(x0 - alpha) = v_p(P(x0)) - v_p(P'(x0)).
    """
    q = _as_p(p)
    _as_int(precision, "precision", 1)
    _as_int(x0, "x0")
    deriv = poly.derivative()
    v0 = valuation(poly(x0), q)
    v1 = valuation(deriv(x0), q)
    if not v0 > 2 * v1:
        raise HenselInapplicable(
            f"v_p(P(x0)) = {v0} is not greater than 2 v_p(P'(x0)) = 2*{v1}"
        )
    # at a root (v0 = INF) _newton_refine returns x0 mod its modulus at once, and INF - v1 = INF
    x = _newton_refine(poly, deriv, x0, q, precision + v1, v1)
    return ZpRoot(x % q**precision, precision, True), v0 - v1


def _lifted_roots(poly: IntPoly, p: int, precision: int, disc: int) -> list[int]:
    """The roots in Z_p of a squarefree P with D(P) = disc, each lifted to at least p^precision.

    Branches on residue classes and lifts as soon as a class provably
    contains exactly one root, by _newton_refine from the v_p(P'(r)) the
    test already holds; classes provably empty are dropped.  The branch
    depth is capped at 2 v_p(D(P)) + 4, beyond which the simple-root closure
    must have triggered for well-formed inputs.
    """
    if poly.degree >= 2:
        cap = 2 * valuation(disc, p) + 4
    else:
        cap = valuation(poly.leading, p) + precision + 4
    deriv = poly.derivative()
    lifted: list[int] = []
    stack: list[tuple[int, int, Valuation]] = [(0, 0, valuation(poly(0), p))]
    while stack:
        r, k, vs = stack.pop()  # vs = v_p(P(r)), computed by the filter that pushed r
        v1 = valuation(deriv(r), p)
        if v1 < k and vs > 2 * v1:
            if vs - v1 >= k:
                prec = max(precision, 2 * v1 + 2)
                lifted.append(_newton_refine(poly, deriv, r, p, prec + v1, v1) % p**prec)
            # else: the unique nearby root lies outside this class; class empty
            continue
        if k >= cap:
            raise PrecisionExhausted(
                f"root search depth cap {cap} exceeded at residue {r} mod {p}^{k}"
            )
        step = p**k
        for c in range(p - 1, -1, -1):
            child = r + c * step
            if (vc := valuation(poly(child), p)) >= k + 1:
                stack.append((child, k + 1, vc))
    return lifted


_DISC_MEMO_SIZE = 32  # one root analysis reads D of at most deg P + 1 polynomials


@lru_cache(maxsize=_DISC_MEMO_SIZE)
def _discriminant(coeffs: tuple[int, ...]) -> int:
    """D by coefficients, memoised: zp_roots(P), then profile_at_zp_root at its roots, share D.

    D is neither passed in nor returned with the roots, so the public calls
    carry only the residue.  Proof: D depends on the coefficient tuple alone.
    """
    return discriminant_coeffs(coeffs)


def zp_roots(poly: IntPoly, p, precision: int) -> list[ZpRoot]:
    """All roots of P in Z_p, each as a residue mod p^precision, in ascending order.

    The roots are searched factor by factor of the squarefree decomposition
    P = c prod S_m^m (Yun).  The S_m are squarefree and pairwise coprime, so
    each root of P is a root of exactly one S_m, with multiplicity m: it is
    simple exactly when m = 1.  When the primitive part S of P has D(S) != 0,
    S is squarefree and the decomposition is [(S, 1)], so Yun's gcd pass
    runs only when D(S) = 0.  Distinct roots congruent mod p^precision share
    a residue; they are ordered by their lifts to the higher precision the
    search reached, then non-simple before simple.
    """
    q = _as_p(p)
    if poly.is_zero:
        raise ValueError("zero polynomial")
    _as_int(precision, "precision", 1)
    if poly.degree == 0:
        return []
    modulus = q**precision
    prim = content_primitive(poly)[1]
    disc = _discriminant(prim.coeffs)
    parts = ([(prim, 1, disc)] if disc else
             [(s, m, _discriminant(s.coeffs)) for s, m in squarefree_decomposition(poly)])
    found = sorted((r % modulus, r, m == 1) for s, m, d in parts
                   for r in _lifted_roots(s, q, precision, d))
    return [ZpRoot(residue, precision, simple) for residue, _, simple in found]


@dataclass(frozen=True)
class DistanceProfile:
    """Multiset of valuations v_p(a - alpha_j), one per root, largest first.

    entries[0] is the closest root (ordering |x-alpha_1| <= |x-alpha_2| <= ...
    corresponds to decreasing valuations).
    """

    center: int
    entries: tuple[Valuation, ...]

    def __len__(self) -> int:
        return len(self.entries)


def distance_profile(poly: IntPoly, a: int, p) -> DistanceProfile:
    """Exact distance profile of the roots of P from an integer center a.

    The Newton polygon of P(x + a) has slopes -v_p(a - alpha_j); an exact
    rational root at a shows up as a +inf entry.  Because a is an exact
    integer the profile is computed in one shot (no adaptive precision).
    """
    if poly.is_zero:
        raise ValueError("zero polynomial")
    # the hull's slopes strictly increase (collinear points are popped), so
    # root_valuations() lists +inf first, then strictly decreasing valuations
    pairs = newton_polygon(poly.shift(_as_int(a, "a")), p).root_valuations()
    return DistanceProfile(a, tuple(val for val, mult in pairs for _ in range(mult)))


def profile_at_zp_root(poly: IntPoly, residue: int, p) -> DistanceProfile:
    """Distance profile centered at the Z_p root alpha approximated by residue.

    One Hensel lift of S = squarefree_part(P) to precision N, then one exact
    distance_profile of P at the lifted center a, whose entries >= N - 1 are
    the copies of alpha and become +inf.  Raises HenselInapplicable when the
    residue does not isolate a simple root of S.  S is the primitive part of
    P when that has D != 0; only otherwise does Yun's gcd run.  D(S) comes
    from the memo _discriminant, which zp_roots(P) has filled.

    Proof.  Let S have degree s, leading coefficient c, gamma = v_p(c) and
    roots alpha_1, ..., alpha_s, the distinct roots of P.  The c alpha_i are
    algebraic integers and prod_(i<j) (c alpha_i - c alpha_j)^2
    = c^((s-1)(s-2)) D(S), so each pair has 2 v_p(c alpha_i - c alpha_j)
    <= X = (s-1)(s-2) gamma + v_p(D(S)), and v_p(alpha_i - alpha_j)
    <= X/2 - gamma < B + 1 with B = floor(X/2) - gamma.  Take N = max(B + 2, 1).
    The lift gives v_p(a - alpha) >= N, so the m copies of alpha in P lie at
    valuation >= N, and every other root alpha_j at exactly
    v_p(a - alpha_j) = v_p(alpha - alpha_j) < N - 1.
    """
    q, residue = _as_p(p), _as_int(residue, "residue")
    sqfree = content_primitive(poly)[1]
    disc = _discriminant(sqfree.coeffs)
    if not disc:
        sqfree = squarefree_part(poly)
        disc = _discriminant(sqfree.coeffs)
    s, gamma = sqfree.degree, valuation(sqfree.leading, q)
    bound = ((s - 1) * (s - 2) * gamma + valuation(disc, q)) // 2 - gamma
    n = max(bound + 2, 1)
    root, _ = hensel_lift(sqfree, residue, q, n)
    entries = distance_profile(poly, root.residue, q).entries
    # entries run largest first, so those >= N - 1 are a prefix
    large = next((i for i, v in enumerate(entries) if v < n - 1), len(entries))
    if not large:
        raise InvariantError(f"no root of P within p^{n - 1} of the lifted center")
    return DistanceProfile(root.residue, (INF,) * large + entries[large:])


@cache
def _signed_binomials(k: int) -> tuple[int, ...]:
    """w_0..w_(k/2) with S_k = sum_m w_m T_m T_(k-m), for even k.

    Proof: the terms m and k - m of S_k = sum_m C(k,m) (-1)^(k-m) T_m T_(k-m) are
    equal, so w_m = 2 (-1)^m C(k,m) for m < k/2 and w_(k/2) = (-1)^(k/2) C(k,k/2).
    """
    return tuple((1 if 2 * m == k else 2) * (-1) ** m * comb(k, m) for m in range(k // 2 + 1))


def _difference_elementary(coeffs: Sequence[int]) -> list[int]:
    """[E_0..E_N], N = n(n-1): elementary symmetric functions of the beta_i - beta_j, i != j.

    Proof.  beta_i = a_n alpha_i are the roots of the monic integer polynomial
    y^n + sum_(k=1..n) c_k y^(n-k), c_k = a_(n-k) a_n^(k-1); Newton's identities
    give their power sums T_k in integers.  Summed over all i, j (terms i = j
    vanish), S_k = sum (beta_i - beta_j)^k = sum_m C(k,m) (-1)^(k-m) T_m T_(k-m),
    which is 0 for odd k (swap i, j).  Newton's identities
    k E_k = sum_i (-1)^(i-1) E_(k-i) S_i give E_k = 0 for odd k, and each E_k is
    a symmetric integer polynomial in algebraic integers, so it is in Z and the
    division by k is exact.  So R(y) = prod_(i != j) (y - beta_i + beta_j)
    = sum_(k even) E_k y^(N-k), and E_N = 0 exactly when P has a repeated root.
    """
    n = len(coeffs) - 1
    big_n = n * (n - 1)
    c = [1] + [coeffs[n - k] * coeffs[n] ** (k - 1) for k in range(1, n + 1)] + [0] * big_n
    t = [n] + [0] * big_n
    for k in range(1, big_n + 1):
        acc = -k * c[k]
        for j in range(1, min(k, n + 1)):
            acc -= c[j] * t[k - j]
        t[k] = acc
    e = [1] + [0] * big_n
    s = [0] * (big_n + 1)
    for k in range(2, big_n + 1, 2):
        acc = 0
        for m, b in enumerate(_signed_binomials(k)):
            acc += b * t[m] * t[k - m]
        s[k] = acc
        acc = 0
        for i in range(2, k + 1, 2):
            acc -= e[k - i] * s[i]
        e[k], rem = divmod(acc, k)
        if rem:
            raise InvariantError(f"Newton's identity left {k} E_{k} indivisible by {k}")
    return e


def difference_poly(poly: IntPoly) -> IntPoly:
    """Res_x(P(x), P(x+y)) as a polynomial in y, from the E_k of _difference_elementary.

    Res_x(P(x), P(x+y)) = a_n^n prod_i P(alpha_i + y) = a_n^(2n-N) y^n R(a_n y)
    has its coefficient E_k a_n^(2n-k) at y^(n+N-k), an integer, so for k > 2n
    the division by a_n^(k-2n) is exact.
    """
    n, lead = poly.degree, poly.leading
    if n < 1:
        raise ValueError("degree >= 1 required")
    delta = [0] * (n * n + 1)
    for k, ek in enumerate(_difference_elementary(poly.coeffs)):
        delta[n * n - k], rem = divmod(ek * lead ** max(2 * n - k, 0), lead ** max(k - 2 * n, 0))
        if rem:
            raise InvariantError(f"E_{k} is not divisible by a_n^{k - 2 * n}")
    return IntPoly(delta)


def min_conjugate_separation(poly: IntPoly, p) -> PadicMag:
    """|closest pair of distinct roots|_p, as the exact valuation max_{i<j} v_p(a_i - a_j).

    R(y) has the roots a_n (alpha_i - alpha_j); their largest valuation is minus
    the first slope of its Newton polygon, max over E_k != 0, k < N, of
    (v_p(E_N) - v_p(E_k)) / (N - k), less v_p(a_n) for the separation.  A
    repeated root (E_N = 0, that is D = 0) is a domain error.
    """
    q = _as_p(p)
    n = poly.degree
    if n < 2:
        raise ValueError("separation needs degree >= 2")
    e = _difference_elementary(poly.coeffs)
    big_n = n * (n - 1)
    if e[big_n] == 0:
        raise ValueError("repeated roots: separation undefined")
    return PadicMag(_first_slope(big_n, valuation(e[big_n], q),
                                 [(k, valuation(e[k], q)) for k in range(0, big_n, 2) if e[k]],
                                 valuation(poly.leading, q)))


def _first_slope(big_n: int, v_last: int, terms: Sequence[tuple[int, int]],
                 v_lead: int) -> int | Fraction:
    """max over (k, v_p(E_k)) in terms of (v_last - v_p(E_k)) / (big_n - k), less v_lead.

    The slope rule of min_conjugate_separation, shared with the cubic census:
    an int when the value is integral, else a Fraction.  Every k < big_n, so
    the slopes num/den compare as num den' > num' den, and one Fraction is
    built at the end.
    """
    num, den = v_last - terms[0][1], big_n - terms[0][0]
    for k, vk in terms:
        if (v_last - vk) * den > num * (big_n - k):
            num, den = v_last - vk, big_n - k
    num -= v_lead * den
    return num // den if num % den == 0 else Fraction(num, den)


@dataclass(frozen=True)
class OrderingCheck:
    """One row of the derivative-vs-root-distances bound report."""

    j: int
    lhs_valuation: Valuation
    bound_valuation: Valuation
    bound_holds: bool
    equality_expected: bool
    equality_holds: bool


def check_ordering_lemma(poly: IntPoly, x: int, p, profile: DistanceProfile) -> list[OrderingCheck]:
    """Check v_p((1/j!)P^(j)(x)) >= v_p(a_n) + sum of the n-j smallest entries.

    The bound must hold for every 0 <= j < n; equality is expected at j = 0
    (exact product formula) and whenever the j-th and (j+1)-th distances
    differ strictly.
    """
    q, x = _as_p(p), _as_int(x, "x")
    n = poly.degree
    if len(profile.entries) != n:
        raise ValueError("profile size must equal deg P")
    va_n = valuation(poly.leading, q)
    rows = []
    for j in range(n):
        lhs = valuation(poly.hasse_derivative(j)(x), q)
        bound: Valuation = va_n
        for v in profile.entries[j:]:
            bound = bound + v
        holds = lhs >= bound
        expected = j == 0 or profile.entries[j - 1] > profile.entries[j]
        # INF defines no __eq__, so == compares it by identity: INF == INF only
        rows.append(OrderingCheck(j, lhs, bound, holds, expected, lhs == bound))
    return rows
