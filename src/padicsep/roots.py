"""Roots of integer polynomials over Z_p and root-distance geometry.

Root valuations come from Newton polygons, roots in Z_p from a residue
branch-and-lift search with a provable depth cap, and the minimal distance
between distinct roots in the algebraic closure from the Newton polygon of
the root-difference polynomial, built from power sums (the composed sums of
Bostan, Flajolet, Salvy and Schost).  All valuations are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from .intpoly import IntPoly, discriminant, squarefree_decomposition
from .padic import INF, InvariantError, PadicMag, Valuation, _as_p, valuation

PROFILE_START_PRECISION = 8
PROFILE_MAX_PRECISION = 512


class HenselInapplicable(ValueError):
    """The simple-root condition |P(x)|_p < |P'(x)|_p^2 fails at this point."""


class PrecisionExhausted(RuntimeError):
    """An adaptive-precision loop hit its hard cap without stabilizing."""


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


def _newton_refine(poly: IntPoly, x0: int, p: int, target: int, v1: int) -> int:
    """Refine x0 to x with v_p(P(x)) >= target, assuming the Hensel condition.

    v1 is v_p(P'(x0)), which Hensel's lemma keeps invariant along the
    iteration.  Works on exact integers reduced mod p^(target + v1 + 2).
    """
    modulus = p ** (target + v1 + 2)
    x = x0 % modulus
    while True:
        fx = poly(x)
        if fx == 0 or valuation(fx, p) >= target:
            return x
        dfx = poly.derivative()(x)
        unit = dfx // p**v1
        step = (fx // p**v1) * pow(unit % modulus, -1, modulus)
        x = (x - step) % modulus


def hensel_lift(poly: IntPoly, x0: int, p, precision: int) -> tuple[ZpRoot, Valuation]:
    """Lift x0 to the unique nearby root of P in Z_p, to precision p^precision.

    Requires v_p(P(x0)) > 2 v_p(P'(x0)).  Returns the root together with the
    distance valuation v_p(x0 - alpha) = v_p(P(x0)) - v_p(P'(x0)).
    """
    q = _as_p(p)
    if precision < 1:
        raise ValueError("precision must be >= 1")
    v0 = valuation(poly(x0), q)
    v1 = valuation(poly.derivative()(x0), q)
    if not v0 > 2 * v1:
        raise HenselInapplicable(
            f"v_p(P(x0)) = {v0} is not greater than 2 v_p(P'(x0)) = 2*{v1}"
        )
    if v0 is INF:
        return ZpRoot(x0 % q**precision, precision, True), INF
    x = _newton_refine(poly, x0, q, precision + v1, v1)
    return ZpRoot(x % q**precision, precision, True), v0 - v1


def _squarefree_from(poly: IntPoly, decomp: list[tuple[IntPoly, int]]) -> IntPoly:
    """squarefree_part(poly), read off its squarefree decomposition.

    P = c prod S_m^m with every S_m primitive, so prod S_m has each root of P
    once and is primitive by Gauss's lemma; squarefree_part differs from it
    at most in sign, and carries the sign of P's leading coefficient.
    """
    out = decomp[0][0]
    for s, _ in decomp[1:]:
        out = out * s
    return out if (out.leading > 0) == (poly.leading > 0) else -out


def _simple_flags(decomp: list[tuple[IntPoly, int]], sqfree: IntPoly, roots: list[int],
                  p: int, precision: int) -> list[bool]:
    """Multiplicity-1 test per root, via the squarefree decomposition of P."""
    if len(decomp) == 1:
        only_mult = decomp[0][1]
        return [only_mult == 1] * len(roots)
    flags = []
    for r in roots:
        n_check = max(precision, PROFILE_START_PRECISION)
        while True:
            # refine r against the squarefree part so valuations are decisive
            root, _ = hensel_lift(sqfree, r, p, n_check)
            vals = [(m, valuation(s(root.residue), p)) for s, m in decomp]
            big = [m for m, v in vals if v >= n_check]
            if len(big) == 1:
                flags.append(big[0] == 1)
                break
            n_check *= 2
            if n_check > PROFILE_MAX_PRECISION:
                raise PrecisionExhausted("could not separate multiplicity classes")
    return flags


def zp_roots(poly: IntPoly, p, precision: int) -> list[ZpRoot]:
    """All roots of P in Z_p, each as a residue mod p^precision.

    Branches on residue classes and Hensel-lifts as soon as a class provably
    contains exactly one root; classes provably empty are dropped.  The branch
    depth is capped at 2 v_p(D(squarefree part)) + 4, beyond which the
    simple-root closure must have triggered for well-formed inputs.
    """
    q = _as_p(p)
    if poly.is_zero:
        raise ValueError("zero polynomial")
    if precision < 1:
        raise ValueError("precision must be >= 1")
    if poly.degree == 0:
        return []
    decomp = squarefree_decomposition(poly)
    sqfree = _squarefree_from(poly, decomp)
    disc = discriminant(sqfree) if sqfree.degree >= 1 else 1
    cap = 2 * valuation(disc, q) + 4 if sqfree.degree >= 2 else valuation(sqfree.leading, q) + precision + 4
    deriv = sqfree.derivative()

    refined: list[int] = []  # residues at precision high enough to re-lift
    stack: list[tuple[int, int]] = [(0, 0)]
    while stack:
        r, k = stack.pop()
        vs = valuation(sqfree(r), q)
        v1 = valuation(deriv(r), q)
        if v1 < k and vs > 2 * v1:
            if vs - v1 >= k:
                high = max(precision, 2 * v1 + 2)
                root, _ = hensel_lift(sqfree, r, q, high)
                refined.append(root.residue)
            # else: the unique nearby root lies outside this class; class empty
            continue
        if k >= cap:
            raise PrecisionExhausted(
                f"root search depth cap {cap} exceeded at residue {r} mod {q}^{k}"
            )
        step = q**k
        for c in range(q - 1, -1, -1):
            child = r + c * step
            if valuation(sqfree(child), q) >= k + 1:
                stack.append((child, k + 1))

    refined.sort()
    flags = _simple_flags(decomp, sqfree, refined, q, precision)
    modulus = q**precision
    out = [ZpRoot(r % modulus, precision, s) for r, s in zip(refined, flags)]
    out.sort(key=lambda z: z.residue)
    return out


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
    entries: list[Valuation] = []
    for val, mult in newton_polygon(poly.shift(a), p).root_valuations():
        entries.extend([val] * mult)
    entries.sort(key=lambda v: (0, 0) if v is INF else (1, -v))
    return DistanceProfile(a, tuple(entries))


def profile_at_zp_root(poly: IntPoly, residue: int, p) -> DistanceProfile:
    """Distance profile centered at the Z_p root approximated by residue.

    Recomputes the profile at centers residue mod p^N with N doubled until
    the entries below N - 1 repeat and those at or above N - 1, made +inf, are
    as many as the root's multiplicity m (its factor S_m vanishes).  Raises
    PrecisionExhausted beyond the hard cap, HenselInapplicable when the
    residue does not isolate a simple root of the squarefree part.
    """
    q = _as_p(p)
    decomp = squarefree_decomposition(poly)
    sqfree = _squarefree_from(poly, decomp)
    n = PROFILE_START_PRECISION
    prev: Optional[tuple] = None
    while n <= PROFILE_MAX_PRECISION:
        root, _ = hensel_lift(sqfree, residue, q, n)
        prof = distance_profile(poly, root.residue, q)
        finite = tuple(v for v in prof.entries if v is not INF and v < n - 1)
        large = len(prof.entries) - len(finite)
        mults = [m for s, m in decomp if valuation(s(root.residue), q) >= n]
        if prev is not None and finite == prev and mults == [large]:
            return DistanceProfile(root.residue, (INF,) * large + finite)
        prev = finite
        n *= 2
    raise PrecisionExhausted("distance profile did not stabilize")


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
        t[k] = -k * c[k] - sum(c[j] * t[k - j] for j in range(1, min(k, n + 1)))
    e = [1] + [0] * big_n
    s = [0] * (big_n + 1)
    for k in range(2, big_n + 1, 2):  # the terms m and k - m of S_k are equal
        s[k] = (-1) ** (k // 2) * comb(k, k // 2) * t[k // 2] ** 2 + 2 * sum(
            (-1) ** m * comb(k, m) * t[m] * t[k - m] for m in range(k // 2))
        e[k], rem = divmod(-sum(e[k - i] * s[i] for i in range(2, k + 1, 2)), k)
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
    an int when the value is integral, else a Fraction.
    """
    best = max(Fraction(v_last - vk, big_n - k) for k, vk in terms) - v_lead
    return int(best) if best.denominator == 1 else best


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
    q = _as_p(p)
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
        equal = (lhs is INF and bound is INF) or (
            lhs is not INF and bound is not INF and lhs == bound
        )
        rows.append(OrderingCheck(j, lhs, bound, holds, expected, equal))
    return rows
