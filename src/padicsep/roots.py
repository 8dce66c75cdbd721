"""Roots of integer polynomials over Z_p and root-distance geometry.

Root valuations come from Newton polygons, roots in Z_p from a residue
branch-and-lift search with a provable depth cap, and the minimal distance
between distinct roots in the algebraic closure from the Newton polygon of
the root-difference resultant.  All valuations are exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .intpoly import (IntPoly, discriminant, interpolate, resultant, squarefree_decomposition,
                      squarefree_part)
from .padic import INF, PadicMag, Valuation, _as_p, valuation

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
        out: list[tuple[Valuation, int]] = []
        if self.zero_root_multiplicity:
            out.append((INF, self.zero_root_multiplicity))
        for slope, length in self.segments:
            out.append((-slope, length))
        return out


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
    segments = tuple(
        (Fraction(y2 - y1, x2 - x1), x2 - x1)
        for (x1, y1), (x2, y2) in zip(hull, hull[1:])
    )
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


def _simple_flags(poly: IntPoly, roots: list[int], p: int, precision: int) -> list[bool]:
    """Multiplicity-1 test per root, via the squarefree decomposition of P."""
    decomp = squarefree_decomposition(poly)
    if len(decomp) == 1:
        only_mult = decomp[0][1]
        return [only_mult == 1] * len(roots)
    sqfree = squarefree_part(poly)
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
    sqfree = squarefree_part(poly)
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
    flags = _simple_flags(poly, refined, q, precision)
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
    shifted = poly.shift(a)
    polygon = newton_polygon(shifted, p)
    entries: list[Valuation] = []
    for val, mult in polygon.root_valuations():
        entries.extend([val] * mult)
    entries.sort(key=lambda v: (0, 0) if v is INF else (1, -v))
    return DistanceProfile(a, tuple(entries))


def profile_at_zp_root(poly: IntPoly, residue: int, p) -> DistanceProfile:
    """Distance profile centered at the Z_p root approximated by residue.

    Recomputes the profile at centers residue mod p^N with N doubled until
    every entry except the root's own +inf entry stabilizes below N.  Raises
    PrecisionExhausted beyond the hard cap, HenselInapplicable when the
    residue does not isolate a simple root of the squarefree part.
    """
    q = _as_p(p)
    sqfree = squarefree_part(poly)
    n = PROFILE_START_PRECISION
    prev: Optional[tuple] = None
    while n <= PROFILE_MAX_PRECISION:
        root, _ = hensel_lift(sqfree, residue, q, n)
        prof = distance_profile(poly, root.residue, q)
        finite = tuple(v for v in prof.entries if v is not INF and v < n - 1)
        large = [v for v in prof.entries if v is INF or v >= n - 1]
        if prev is not None and finite == prev and len(large) == len(prof.entries) - len(finite):
            mult = len(large)
            entries = (INF,) * mult + finite
            return DistanceProfile(root.residue, entries)
        prev = finite
        n *= 2
    raise PrecisionExhausted("distance profile did not stabilize")


def difference_poly(poly: IntPoly) -> IntPoly:
    """Res_x(P(x), P(x+y)) as a polynomial in y.

    Its roots are all ordered differences alpha_i - alpha_j of roots of P
    (i = j contributing the factor y^n).  It has degree n^2 and integer
    coefficients, so it is recovered from the integer resultants at n^2 + 1
    integer points by intpoly.interpolate, which divides only exactly.
    ArithmeticError if that interpolant is not in Z[x].
    """
    n = poly.degree
    if n < 1:
        raise ValueError("degree >= 1 required")
    npoints = n * n + 1
    ys: list[int] = [0]
    step = 1
    while len(ys) < npoints:
        ys.extend((step, -step))
        step += 1
    ys = ys[:npoints]
    delta = interpolate(ys, [resultant(poly, poly.shift(y)) for y in ys])
    if delta is None:
        raise ArithmeticError("difference polynomial interpolated to non-integer coefficients")
    return delta


def min_conjugate_separation(poly: IntPoly, p) -> PadicMag:
    """|closest pair of distinct roots|_p, as the exact valuation max_{i<j} v_p(a_i - a_j).

    For quadratics the discriminant identity v(a1-a2) = (v_p(D) - 2 v_p(a_n))/2
    is used directly; for higher degree the Newton polygon of the
    root-difference resultant gives the full multiset of pairwise valuations.
    Repeated roots (D = 0) are a domain error.
    """
    q = _as_p(p)
    n = poly.degree
    if n < 2:
        raise ValueError("separation needs degree >= 2")
    disc = discriminant(poly)
    if disc == 0:
        raise ValueError("repeated roots: separation undefined")
    if n == 2:
        val = Fraction(valuation(disc, q) - 2 * valuation(poly.leading, q), 2)
        return PadicMag(val if val.denominator != 1 else int(val))
    delta = difference_poly(poly)
    if any(delta.coeffs[:n]):
        raise ArithmeticError("difference polynomial lacks the factor y^n")
    reduced = IntPoly(delta.coeffs[n:])
    polygon = newton_polygon(reduced, q)
    if not polygon.segments:
        # all pairwise differences share one valuation given by vertex 0 only
        # (cannot happen: reduced has degree n^2 - n >= 2 and nonzero constant)
        raise AssertionError("degenerate difference polygon")
    best = -polygon.segments[0][0]
    return PadicMag(int(best) if best.denominator == 1 else best)


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
