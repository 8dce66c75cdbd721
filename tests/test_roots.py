import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from padicsep.intpoly import (IntPoly, content_primitive, discriminant, discriminant_coeffs,
                              squarefree_decomposition, squarefree_part)
from padicsep.padic import INF, valuation
from padicsep.roots import (
    DistanceProfile,
    HenselInapplicable,
    check_ordering_lemma,
    difference_poly,
    distance_profile,
    hensel_lift,
    min_conjugate_separation,
    newton_polygon,
    profile_at_zp_root,
    zp_roots,
)
from padicsep.roots import _difference_elementary, _discriminant, _first_slope, _lifted_roots
from difference_elementary_oracle import difference_elementary_by_sums
from profile_oracle import profile_by_doubling
from resultant_oracle import difference_poly_by_resultants, separation_by_resultants

X = sympy.Symbol("x")


def test_newton_polygon_examples():
    np1 = newton_polygon(IntPoly([-25, 0, 1]), 5)  # x^2 - p^2
    assert np1.segments == ((Fraction(-1), 2),)
    assert np1.root_valuations() == [(1, 2)]

    np2 = newton_polygon(IntPoly([-5, 0, 0, 1]), 5)  # x^3 - p
    assert np2.segments == ((Fraction(-1, 3), 3),)

    np3 = newton_polygon(IntPoly([5, 1, 5]), 5)  # p x^2 + x + p
    assert np3.segments == ((Fraction(-1), 1), (Fraction(1), 1))
    assert np3.root_valuations() == [(1, 1), (-1, 1)]
    # oracle: quadratic formula valuations for 5x^2 + x + 5: product of roots = 1,
    # sum = -1/5, so valuations are +1 and -1


def test_newton_polygon_zero_roots_and_lengths():
    # x^2 (x^3 - 5): two zero roots (infinite valuation) plus slope -1/3 part
    p = IntPoly([0, 0, -5, 0, 0, 1])
    np_ = newton_polygon(p, 5)
    assert np_.zero_root_multiplicity == 2
    assert sum(length for _, length in np_.segments) == p.degree - 2
    vals = np_.root_valuations()
    assert vals[0] == (INF, 2) and vals[1] == (Fraction(1, 3), 3)


def test_newton_polygon_unit_dilation_invariance():
    rng = random.Random(2)
    for _ in range(100):
        p_prime = rng.choice([2, 3, 5])
        n = rng.randint(1, 5)
        coeffs = [rng.randint(-40, 40) for _ in range(n)] + [rng.randint(1, 40)]
        poly = IntPoly(coeffs)
        u = rng.choice([v for v in range(1, 10) if v % p_prime])
        dilated = IntPoly(c * u**j for j, c in enumerate(poly.coeffs))
        a = newton_polygon(poly, p_prime)
        b = newton_polygon(dilated, p_prime)
        assert a.segments == b.segments


def test_hensel_examples():
    root, dist = hensel_lift(IntPoly([-2, 0, 1]), 3, 7, 3)
    assert root.residue == 108 and root.precision == 3 and dist == 1
    assert pow(108, 2, 343) == 2 % 343
    root, dist = hensel_lift(IntPoly([-2, 0, 1]), 3, 7, 1)
    assert root.residue == 3
    with pytest.raises(HenselInapplicable):
        hensel_lift(IntPoly([-2, 0, 1]), 1, 5, 2)


def test_hensel_exact_root_input():
    root, dist = hensel_lift(IntPoly([-4, 0, 1]), 2, 7, 4)
    assert root.residue == 2 and dist is INF
    # an exact root beyond the refine modulus 7^(4 + 0 + 2) comes back reduced mod 7^4
    big = 7**8 + 3
    for x0 in (big, -big):
        root, dist = hensel_lift(IntPoly([-big * big, 0, 1]), x0, 7, 4)
        assert root.residue == x0 % 7**4 and root.precision == 4 and dist is INF


def test_hensel_contract_seeded():
    rng = random.Random(424242)
    verified = 0
    while verified < 300:
        p = rng.choice([2, 3, 5, 7])
        n = rng.randint(2, 4)
        coeffs = [rng.randint(-50, 50) for _ in range(n)] + [rng.randint(1, 50)]
        poly = IntPoly(coeffs)
        x0 = rng.randint(-80, 80)
        v0 = valuation(poly(x0), p)
        v1 = valuation(poly.derivative()(x0), p)
        if not v0 > 2 * v1:
            continue
        prec = rng.randint(1, 9)
        root, dist = hensel_lift(poly, x0, p, prec)
        assert poly(root.residue) % p**prec == 0
        expect = INF if v0 is INF else v0 - v1
        assert dist == expect or (dist is INF and expect is INF)
        observed = valuation(x0 - root.residue, p)
        cap = prec if expect is INF else min(prec, expect)
        assert observed is INF or observed >= cap
        if expect is not INF and expect < prec:
            assert observed == expect
        verified += 1


def test_zp_roots_examples():
    assert sorted(r.residue for r in zp_roots(IntPoly([-2, 0, 1]), 7, 2)) == [10, 39]
    assert zp_roots(IntPoly([-2, 0, 1]), 5, 4) == []
    assert zp_roots(IntPoly([-5, 0, 1]), 5, 4) == []  # root valuation 1/2, not in Z_p


def test_zp_roots_constructed_known_roots():
    rng = random.Random(31415)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        prec = rng.randint(2, 4)
        count = rng.randint(1, 3)
        roots = set()
        while len(roots) < count:
            roots.add(rng.randint(-20, 20))
        poly = IntPoly([1])
        for r in roots:
            poly = poly * IntPoly([-r, 1])
        if rng.random() < 0.5:
            poly = poly * IntPoly([1, 0, rng.choice([1, p])])  # no Z_p roots for p odd...
            # keep only factors guaranteed rootless in Z_p: x^2 + 1 has roots mod
            # some p, so recompute the expectation from scratch below
        got = {r.residue for r in zp_roots(poly, p, prec)}
        modulus = p**prec
        expect = set()
        # brute-force candidates: all integer roots reduce correctly; quadratic
        # factor roots found by scanning the residue ring and verifying liftability
        for r in roots:
            expect.add(r % modulus)
        for candidate in range(modulus):
            val = poly(candidate)
            if val % modulus:
                continue
            # test liftability to much higher precision to rule out ghosts
            deep = modulus * p**6
            for lift in range(candidate, deep, modulus):
                if poly(lift) % deep == 0:
                    expect.add(candidate)
                    break
        assert got <= expect
        for r in roots:
            assert r % modulus in got


def test_zp_roots_multiplicity_flags():
    poly = IntPoly([-1, 1]) * IntPoly([-1, 1]) * IntPoly([-3, 1])
    roots = zp_roots(poly, 5, 3)
    assert [(r.residue, r.simple) for r in roots] == [(1, False), (3, True)]
    roots = zp_roots(IntPoly([-25, 0, 1]), 5, 3)
    assert sorted(r.residue for r in roots) == [5, 120]
    assert all(r.simple for r in roots)


def test_zp_roots_multiplicities_match_factorization_seeded():
    # P = prod g^m over random small factors with repeats: the (residue, simple)
    # multiset of P is the union over sympy's factors of (r, m == 1), r in zp_roots(g)
    rng = random.Random(20260311)
    repeated = 0
    for _ in range(400):
        poly = IntPoly([rng.choice([-1, 1]) * rng.randint(1, 4)])
        for _ in range(rng.randint(1, 3)):
            degree = rng.randint(1, 2)
            factor = IntPoly([rng.randint(-4, 4) for _ in range(degree)] + [rng.randint(1, 3)])
            for _ in range(rng.choice([1, 1, 2, 3])):
                poly = poly * factor
        p, prec = rng.choice([2, 3, 5]), rng.randint(1, 4)
        _, factors = sympy.factor_list(sympy.Poly(list(reversed(poly.coeffs)), X))
        repeated += any(m > 1 for _, m in factors)
        expect = Counter((r.residue, m == 1) for g, m in factors
                         for r in zp_roots(IntPoly([int(c) for c in reversed(g.all_coeffs())]),
                                           p, prec))
        got = zp_roots(poly, p, prec)
        assert Counter((r.residue, r.simple) for r in got) == expect, (poly, p, prec)
        assert [r.residue for r in got] == sorted(r.residue for r in got)
    assert repeated >= 100


def test_zp_roots_exhaustive_small():
    # all monic quadratics and a slice of cubics, p in {2,3}, exhaustive oracle
    for p in (2, 3):
        prec = 3
        modulus = p**prec
        deep = modulus * p**8
        for a1 in range(-3, 4):
            for a0 in range(-3, 4):
                poly = IntPoly([a0, a1, 1])
                got = sorted(r.residue for r in zp_roots(poly, p, prec))
                expect = sorted(
                    c for c in range(modulus)
                    if any(poly(c + k * modulus) % deep == 0 for k in range(deep // modulus))
                )
                assert got == expect, (poly, p, got, expect)


def test_distance_profile_examples():
    p3 = 27
    poly = IntPoly([1 + p3, -(2 + p3), 1])  # (x - 1)(x - 1 - 27)
    prof = distance_profile(poly, 1, 3)
    assert prof.entries[0] is INF and prof.entries[1] == 3

    prof = distance_profile(IntPoly([1, 0, 1]), 0, 3)
    assert prof.entries == (0, 0)

    prof = distance_profile(IntPoly([-1, 1]) * IntPoly([-2, 1]), 1, 5)
    assert prof.entries[0] is INF and prof.entries[1] == 0


def test_distance_profile_matches_known_roots():
    rng = random.Random(7)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        roots = rng.sample(range(-15, 16), 3)
        poly = IntPoly([rng.randint(1, 4)])
        for r in roots:
            poly = poly * IntPoly([-r, 1])
        center = rng.randint(-15, 15)
        prof = distance_profile(poly, center, p)
        assert prof.center == center
        expect = sorted(
            (valuation(center - r, p) for r in roots),
            key=lambda v: (0, 0) if v is INF else (1, -v),
        )
        got = list(prof.entries)
        assert [g if g is INF else Fraction(g) for g in got] == [
            e if e is INF else Fraction(e) for e in expect
        ]


def test_distance_profile_is_the_old_sorted_form_seeded():
    # the entries come in hull order: +inf first, then strictly decreasing, as
    # the removed sort by (0, 0) if +inf else (1, -v) would have put them
    rng = random.Random(20261025)
    at_root = p_divides_lead = negative = 0
    for _ in range(400):
        p = rng.choice([2, 3, 5])
        poly = IntPoly([rng.randint(-5, 5), rng.choice([-2, -1, 1, 3])])
        integer_roots = []
        for _ in range(rng.randint(1, 4)):
            scale = rng.choice([1, 1, 2, 3, p, p * p])
            r = rng.randint(-20, 20)
            poly = poly * IntPoly([-r, scale])
            if scale == 1:
                integer_roots.append(r)
        a = rng.choice(integer_roots) if integer_roots and rng.random() < 0.5 else rng.randint(-30, 30)
        entries = []
        for val, mult in newton_polygon(poly.shift(a), p).root_valuations():
            entries.extend([val] * mult)
        want = tuple(sorted(entries, key=lambda v: (0, 0) if v is INF else (1, -v)))
        got = distance_profile(poly, a, p)
        assert got.entries == want and [type(v) for v in got.entries] == [type(v) for v in want]
        at_root += want[0] is INF
        p_divides_lead += poly.leading % p == 0
        negative += any(v is not INF and v < 0 for v in want)
    assert at_root >= 80 and p_divides_lead >= 80 and negative >= 80, (at_root, p_divides_lead,
                                                                      negative)


def test_profile_at_zp_root():
    poly = IntPoly([-1, 1]) * IntPoly([-(1 + 3**5), 1]) * IntPoly([1, 0, 1])
    roots = zp_roots(poly, 3, 2)
    near_one = [r for r in roots if (r.residue - 1) % 3 == 0][0]
    prof = profile_at_zp_root(poly, near_one.residue, 3)
    assert prof.entries[0] is INF
    assert list(prof.entries[1:]) == [5, 0, 0]


def test_profile_at_zp_root_keeps_a_distant_root_finite():
    # x (x - 3) (x - 2^40) at p = 2: the root 2^40 lies at distance 40 from the
    # root 0, above the first precisions tried, and must not turn into +inf;
    # with x^2 in place of x the root 0 has multiplicity 2 and two +inf entries
    simple = IntPoly([0, 3 * 2**40, -(2**40 + 3), 1])
    assert profile_at_zp_root(simple, 0, 2).entries == (INF, 40, 0)
    double = simple * IntPoly([0, 1])
    assert profile_at_zp_root(double, 0, 2).entries == (INF, INF, 40, 0)
    assert profile_at_zp_root(double, 3, 2).entries == (INF, 0, 0, 0)


def _largest_first(vals):
    return tuple(sorted(vals, key=lambda v: (0, 0) if v is INF else (1, -v)))


def _fraction_valuation(x: Fraction, p: int):
    return INF if x == 0 else valuation(x.numerator, p) - valuation(x.denominator, p)


def test_profile_at_zp_root_matches_exact_split_distances():
    # a prod (s_j x - r_j)^(m_j), with p | a and repeated and close roots among
    # them: the profile at each root r/s in Z_p is the multiset of exact
    # v_p(r/s - r_j/s_j) over the roots with multiplicity
    rng = random.Random(20261019)
    checked = p_divides_lead = repeated = 0
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        lead = rng.choice([1, 2, 3, 5, 6, 10, -4, -9])
        roots: dict[Fraction, int] = {}
        count = rng.randint(2, 4)
        while len(roots) < count:
            alpha = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
            if roots and rng.random() < 0.3:  # close to a root already taken
                alpha = rng.choice(list(roots)) + p ** rng.randint(2, 8)
            roots[alpha] = rng.choice([1, 1, 2, 3])
        poly = IntPoly([lead])
        for alpha, m in roots.items():
            for _ in range(m):
                poly = poly * IntPoly([-alpha.numerator, alpha.denominator])
        modulus = p**64
        for alpha in roots:
            if alpha.denominator % p == 0:
                continue
            residue = alpha.numerator * pow(alpha.denominator, -1, modulus) % modulus
            expect = _largest_first(_fraction_valuation(alpha - beta, p)
                                    for beta, m in roots.items() for _ in range(m))
            assert profile_at_zp_root(poly, residue, p).entries == expect, (poly, p, alpha)
            checked += 1
            p_divides_lead += lead % p == 0
            repeated += roots[alpha] > 1
    assert checked >= 500 and p_divides_lead >= 100 and repeated >= 100


def test_profile_at_zp_root_precision_bound_is_attained():
    # (2x - 1)(x - 1)(x - 1 - 2^20) at p = 2: S = P, c = 2, v_2(D) = 40, so
    # B = ((2)(1)(1) + 40) // 2 - 1 = 20 is the distance of the two close roots;
    # the lift precision N = B + 2 keeps it finite, N = B + 1 would not
    poly = IntPoly([-1, 2]) * IntPoly([-1, 1]) * IntPoly([-(1 + 2**20), 1])
    assert valuation(discriminant(poly), 2) == 40
    for residue in (1, 1 + 2**20, 1 + 2**25):
        assert profile_at_zp_root(poly, residue, 2).entries == (INF, 20, -1)


def test_profile_at_zp_root_matches_precision_doubling_seeded():
    # seeded polynomials that mostly do not split over Q, a third of them
    # times a repeated factor: every Z_p root gets the doubling loop's entries
    rng = random.Random(20261020)
    compared = non_simple = 0
    for _ in range(150):
        p = rng.choice([2, 3, 5])
        poly = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 4))]
                       + [rng.choice([-4, -3, -2, -1, 1, 2, 3, 4, 9])])
        if rng.random() < 0.35:
            factor = IntPoly([rng.randint(-4, 4), rng.choice([-3, -1, 1, 2])])
            poly = poly * factor * factor
        sqfree = squarefree_part(poly)
        s, gamma = sqfree.degree, valuation(sqfree.leading, p)
        precision = 2 * valuation(discriminant(sqfree), p) + 2 * s * s * gamma + 4
        # the lift precision N of profile_at_zp_root's proof: its center is a root mod p^N
        lift = max(((s - 1) * (s - 2) * gamma + valuation(discriminant(sqfree), p)) // 2
                   - gamma + 2, 1)
        for root in zp_roots(poly, p, precision):
            prof = profile_at_zp_root(poly, root.residue, p)
            assert prof.entries == profile_by_doubling(poly, root.residue, p).entries, (poly, p)
            assert poly(prof.center) % p**lift == 0, (poly, p, root)
            assert (prof.center - root.residue) % p ** min(lift, precision) == 0
            compared += 1
            non_simple += not root.simple
    assert compared >= 100 and non_simple >= 20


def test_root_analysis_equals_the_yun_route_seeded(monkeypatch):
    # zp_roots and profile_at_zp_root run Yun's gcd pass only when the primitive
    # part has D = 0; on squarefree and non-squarefree inputs they give what the
    # Yun route gives: the roots of every factor S_m of the squarefree
    # decomposition, and profiles lifted on S = squarefree_part(P)
    rng = random.Random(20261021)
    cases = []
    squarefree = repeated = 0
    for _ in range(120):
        p = rng.choice([2, 3, 5])
        poly = IntPoly([rng.choice([-1, 1]) * rng.randint(1, 3)])
        for _ in range(rng.randint(1, 3)):
            factor = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 2))]
                             + [rng.choice([1, 2, 3, p])])
            for _ in range(rng.choice([1, 1, 2])):
                poly = poly * factor
        sqfree = squarefree_part(poly)
        s, gamma = sqfree.degree, valuation(sqfree.leading, p)
        precision = 2 * valuation(discriminant(sqfree), p) + 2 * s * s * gamma + 4
        modulus = p**precision
        yun = sorted((r % modulus, r, m == 1) for f, m in squarefree_decomposition(poly)
                     for r in _lifted_roots(f, p, precision, discriminant(f)))
        roots = zp_roots(poly, p, precision)
        assert [(r.residue, r.simple) for r in roots] == [(x, m) for x, _, m in yun], (poly, p)
        cases += [(poly, r.residue, p) for r in roots]
        squarefree += sqfree.degree == poly.degree
        repeated += sqfree.degree < poly.degree
    got = [profile_at_zp_root(*case) for case in cases]
    monkeypatch.setattr("padicsep.roots.content_primitive", lambda poly: (1, squarefree_part(poly)))
    _discriminant.cache_clear()  # the Yun route computes each D afresh
    expect = [profile_at_zp_root(*case) for case in cases]
    assert got == expect
    assert squarefree >= 30 and repeated >= 30 and len(cases) >= 100, (squarefree, repeated)


def test_root_analysis_computes_d_once_per_polynomial_seeded(monkeypatch):
    # zp_roots and then profile_at_zp_root at every simple root read D of the
    # primitive part through one memo, so each squarefree P costs one discriminant
    calls = []

    def counted(coeffs):
        calls.append(coeffs)
        return discriminant_coeffs(coeffs)

    monkeypatch.setattr("padicsep.roots.discriminant_coeffs", counted)
    _discriminant.cache_clear()
    rng = random.Random(20261023)
    seen = set()
    analysed = multi = 0
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        poly = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
                       + [rng.choice([-4, -1, 1, 2, 3, 5, 6])])
        poly = poly * IntPoly([rng.randint(-6, 6), 1])  # a rational root, so a root in Z_p
        poly = IntPoly([rng.choice([1, 1, 2, 6]) * a for a in poly.coeffs])  # content > 1 too
        prim = content_primitive(poly)[1]
        d = discriminant(prim)
        if d == 0 or prim.coeffs in seen:
            continue
        seen.add(prim.coeffs)
        s, gamma = prim.degree, valuation(prim.leading, p)
        before = len(calls)
        simple = [r for r in zp_roots(poly, p, 2 * valuation(d, p) + 2 * s * s * gamma + 4)
                  if r.simple]
        for root in simple:
            profile_at_zp_root(poly, root.residue, p)
        assert calls[before:] == [prim.coeffs], (poly, p)
        analysed += 1
        multi += len(simple) >= 2
    assert analysed >= 150 and multi >= 50, (analysed, multi)


def test_first_slope_equals_the_largest_fraction_seeded():
    # the integer cross-multiplication against max(Fraction(...)) on seeded
    # terms, exact ties between distinct k included; an int iff integral
    rng = random.Random(20261022)
    ties = integral = fractional = 0
    for _ in range(3000):
        big_n = rng.choice([2, 6, 12, 20])
        ks = sorted(rng.sample(range(0, big_n, 2), rng.randint(1, big_n // 2)))
        v_last = rng.randint(0, 12)
        terms = [(k, rng.randint(0, v_last + 3)) for k in ks]
        v_lead = rng.randint(0, 4)
        slopes = [Fraction(v_last - vk, big_n - k) for k, vk in terms]
        best = max(slopes) - v_lead
        want = int(best) if best.denominator == 1 else best
        got = _first_slope(big_n, v_last, terms, v_lead)
        assert got == want and type(got) is type(want), (big_n, v_last, terms, v_lead)
        ties += slopes.count(max(slopes)) > 1
        integral += type(got) is int
        fractional += type(got) is Fraction
    assert ties >= 100 and integral >= 100 and fractional >= 100, (ties, integral, fractional)


def test_zp_roots_lift_without_hensel_lift(monkeypatch):
    # the root search refines each isolated root itself, not through the gated
    # public lift that would recompute P(r), P'(r) and their valuations
    def no_lift(*_):
        raise AssertionError("zp_roots called hensel_lift")

    monkeypatch.setattr("padicsep.roots.hensel_lift", no_lift)
    assert [r.residue for r in zp_roots(IntPoly([-2, 0, 1]), 7, 2)] == [10, 39]
    quintic = IntPoly([-6, 11, -6, 1]) * IntPoly([-5, 0, 1])  # roots 1, 2, 3 and +-sqrt 5
    assert [r.residue for r in zp_roots(quintic, 11, 3)] == [1, 2, 3, 73, 1258]  # 73^2 = 5 mod 11^3


def test_profile_at_zp_root_needs_no_squarefree_decomposition(monkeypatch):
    def no_decomposition(poly):
        raise AssertionError("profile_at_zp_root ran a squarefree decomposition")

    monkeypatch.setattr("padicsep.roots.squarefree_decomposition", no_decomposition)
    double = IntPoly([0, 3 * 2**40, -(2**40 + 3), 1]) * IntPoly([0, 1])
    assert profile_at_zp_root(double, 0, 2).entries == (INF, INF, 40, 0)


def test_min_conjugate_separation_examples():
    for k in (1, 2, 3):
        assert min_conjugate_separation(IntPoly([-(5 ** (2 * k)), 0, 1]), 5).val == k
    assert min_conjugate_separation(IntPoly([1, 1, 1]), 5).val == 0
    assert min_conjugate_separation(IntPoly([-2, 0, 1]), 7).val == 0
    assert min_conjugate_separation(IntPoly([-2, 0, 0, 1]), 3).val == Fraction(1, 2)
    with pytest.raises(ValueError):
        min_conjugate_separation(IntPoly([0, 0, 1]), 5)


def test_min_conjugate_separation_quadratic_identity_exhaustive():
    # the power-sum route against the n = 2 identity (v_p(D) - 2 v_p(a_2)) / 2
    # and against the resultant oracle, on every H <= 12 quadratic with distinct roots
    for p in (2, 3):
        for a2 in range(1, 13):
            for a1 in range(-12, 13):
                for a0 in range(-12, 13):
                    poly = IntPoly([a0, a1, a2])
                    d = discriminant(poly)
                    if d == 0:
                        continue
                    sep = min_conjugate_separation(poly, p).val
                    closed = Fraction(valuation(d, p) - 2 * valuation(a2, p), 2)
                    assert sep == closed == separation_by_resultants(poly, p), (poly, p)
                    assert type(sep) is (int if closed.denominator == 1 else Fraction)


def test_min_conjugate_separation_cubic_known_roots():
    rng = random.Random(5)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        roots = rng.sample(range(-12, 13), 3)
        lead = rng.randint(1, 3)
        poly = IntPoly([lead])
        for r in roots:
            poly = poly * IntPoly([-r, 1])
        expect = max(
            valuation(a - b, p) for i, a in enumerate(roots) for b in roots[:i]
        )
        assert min_conjugate_separation(poly, p).val == expect


def test_difference_poly_structure():
    poly = IntPoly([-2, 0, 1])
    delta = difference_poly(poly)
    # roots of P are +-sqrt2: ordered differences 0, 0, +-2 sqrt2
    # Res_x(P(x), P(x+y)) = y^2 (y^2 - 8)
    assert delta == IntPoly([0, 0, -8, 0, 1])


def test_difference_poly_against_sympy_resultant():
    x, y = sympy.symbols("x y")
    rng = random.Random(45)
    for n in (2, 3, 4, 5):
        for _ in range(6 if n < 5 else 3):
            coeffs = [rng.randint(-9, 9) for _ in range(n)] + [rng.choice([1, -1, 2, 5])]
            poly = IntPoly(coeffs)
            px = sum(c * x**i for i, c in enumerate(coeffs))
            ref = sympy.Poly(sympy.resultant(px, px.subs(x, x + y), x), y)
            assert difference_poly(poly) == IntPoly(int(c) for c in reversed(ref.all_coeffs())), coeffs


def _oracle_polys():
    """Every cubic with H <= 2, every quartic with H <= 1, and quartics with a_4 in {2, 3, 4, 6}."""
    yield from (c for c in itertools.product(range(-2, 3), repeat=4) if c[3])
    yield from (c for c in itertools.product(range(-1, 2), repeat=5) if c[4])
    rng = random.Random(61)
    for lead in (2, 3, 4, 6):
        for _ in range(25):
            yield tuple(rng.randint(-2, 2) for _ in range(4)) + (lead,)


def test_power_sum_route_against_resultant_oracle_exhaustive():
    checked = repeated = 0
    for coeffs in _oracle_polys():
        poly = IntPoly(coeffs)
        oracle = difference_poly_by_resultants(poly)
        assert difference_poly(poly) == oracle, coeffs
        for p in (2, 3):
            expect = separation_by_resultants(poly, p)
            if expect is None:
                repeated += 1
                with pytest.raises(ValueError):
                    min_conjugate_separation(poly, p)
                continue
            sep = min_conjugate_separation(poly, p).val
            assert sep == expect and type(sep) is type(expect), (coeffs, p)
            checked += 1
    assert checked > 1000 and repeated > 100


@st.composite
def polys_and_primes(draw):
    """(P, p): degree 2..6, either random of height 12 or a_n prod (x - r_i) + p^4 e(x)
    with roots r_i = p^k s_i, whose roots crowd p-adically (repeated roots included)."""
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-12, 12), min_size=n, max_size=n))
        return IntPoly(coeffs + [draw(st.integers(1, 12))]), p
    poly = IntPoly([draw(st.integers(1, 4))])
    for _ in range(n):
        poly = poly * IntPoly([-p ** draw(st.integers(0, 3)) * draw(st.integers(-4, 4)), 1])
    noise = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)) + [0]
    return IntPoly(a + p**4 * e for a, e in zip(poly.coeffs, noise)), p


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(polys_and_primes())
def test_min_conjugate_separation_property_against_resultant_oracle(case):
    poly, p = case
    expect = separation_by_resultants(poly, p)
    if expect is None:
        with pytest.raises(ValueError):
            min_conjugate_separation(poly, p)
        return
    sep = min_conjugate_separation(poly, p).val
    assert sep == expect and type(sep) is type(expect), (poly, p)


def test_difference_elementary_gives_the_discriminant():
    # D = (-1)^(n(n-1)/2) E_N / a_n^((n-1)(n-2)), an exact division
    rng = random.Random(62)
    for n in (3, 4, 5, 6):
        for _ in range(40):
            coeffs = [rng.randint(-9, 9) for _ in range(n)] + [rng.choice([1, -2, 3, 4, -6, 9])]
            e_n = _difference_elementary(coeffs)[n * (n - 1)]
            quo, rem = divmod((-1) ** (n * (n - 1) // 2) * e_n, coeffs[n] ** ((n - 1) * (n - 2)))
            assert rem == 0 and quo == discriminant(IntPoly(coeffs)), coeffs


def test_difference_elementary_equals_the_generator_sum_form_seeded():
    # the tabled signed binomials and integer loops against the old per-term form
    rng = random.Random(20261026)
    negative = p_divides_lead = 0
    for n in range(2, 8):
        for _ in range(80 if n < 6 else 25):
            lead = rng.choice([1, -1, 2, -3, 4, -5, 6, -9, 25, -8])
            coeffs = [rng.randint(-12, 12) for _ in range(n)] + [lead]
            assert _difference_elementary(coeffs) == difference_elementary_by_sums(coeffs), coeffs
            negative += lead < 0
            p_divides_lead += any(lead % p == 0 for p in (2, 3, 5))
    assert negative >= 100 and p_divides_lead >= 150, (negative, p_divides_lead)


def test_cubic_difference_elementary_closed_form():
    # the identities the n = 3 sep census rests on: E_2 = 2u, E_4 = u^2,
    # E_6 = -a_3^2 D, with u = 3 a_1 a_3 - a_2^2
    rng = random.Random(63)
    cases = [(0, 3, 3, 1), (5, 12, 6, 1), (2, -3, 0, 1), (-4, 0, 3, 1), (0, 0, 0, 2)]
    cases += [tuple(rng.randint(-20, 20) for _ in range(3)) + (rng.choice([1, -2, 3, 8, -9]),)
              for _ in range(200)]
    zero_u = zero_d = 0
    for a0, a1, a2, a3 in cases:
        u = 3 * a1 * a3 - a2 * a2
        d = discriminant(IntPoly([a0, a1, a2, a3]))
        zero_u += u == 0
        zero_d += d == 0
        assert _difference_elementary([a0, a1, a2, a3]) == [1, 0, 2 * u, 0, u * u, 0, -a3 * a3 * d]
    assert zero_u >= 2 and zero_d >= 2


def test_check_ordering_lemma():
    poly = IntPoly([-2, 0, 1])
    prof = distance_profile(poly, 3, 7)
    rows = check_ordering_lemma(poly, 3, 7, prof)
    assert all(r.bound_holds for r in rows)
    assert all(r.equality_holds for r in rows if r.equality_expected)
    # j = 1 row: v_7(P'(3)) = v_7(6) = 0 = v_7(a_n) + 0
    assert rows[1].lhs_valuation == 0 and rows[1].bound_valuation == 0
    assert len(rows) == poly.degree  # rows cover 0 <= j < n only
    # x = 3 is a root of (x - 3)(x - 5): both sides of the j = 0 row are INF
    poly = IntPoly([15, -8, 1])
    rows = check_ordering_lemma(poly, 3, 7, distance_profile(poly, 3, 7))
    assert rows[0].lhs_valuation is INF and rows[0].bound_valuation is INF
    assert rows[0].equality_holds
    # P'(0) = 0 for x^2 - 2: the j = 1 row has lhs INF against the finite bound 0
    poly = IntPoly([-2, 0, 1])
    rows = check_ordering_lemma(poly, 0, 7, distance_profile(poly, 0, 7))
    assert rows[1].lhs_valuation is INF and rows[1].bound_valuation == 0
    assert rows[1].bound_holds and not rows[1].equality_holds


def test_check_ordering_lemma_seeded():
    rng = random.Random(999)
    for _ in range(150):
        p = rng.choice([2, 3, 5])
        n = rng.randint(2, 4)
        coeffs = [rng.randint(-30, 30) for _ in range(n)] + [rng.randint(1, 30)]
        poly = IntPoly(coeffs)
        x = rng.randint(-20, 20)
        prof = distance_profile(poly, x, p)
        rows = check_ordering_lemma(poly, x, p, prof)
        assert all(r.bound_holds for r in rows), (poly, x, p, rows)
        for r in rows:
            if r.equality_expected:
                assert r.equality_holds, (poly, x, p, r)


def test_profile_at_zp_root_rejects_ambiguous_residue():
    # residue 1 does not isolate a root of x^2 - 2 over Z_5 (no roots at all)
    with pytest.raises(HenselInapplicable):
        profile_at_zp_root(IntPoly([-2, 0, 1]), 1, 5)


def test_discriminant_valuation_consistency_with_root_distances():
    # v_p(D) = (2n-2) v_p(a_n) + 2 sum_(i<j) v_p(a_i - a_j) on split cubics
    rng = random.Random(12)
    for _ in range(50):
        p = rng.choice([2, 3, 5])
        roots = rng.sample(range(-10, 11), 3)
        lead = rng.randint(1, 6)
        poly = IntPoly([lead])
        for r in roots:
            poly = poly * IntPoly([-r, 1])
        d = discriminant(poly)
        pair_sum = sum(
            valuation(a - b, p) for i, a in enumerate(roots) for b in roots[:i]
        )
        assert valuation(d, p) == 4 * valuation(lead, p) + 2 * pair_sum


def test_lifted_roots_evaluates_p_once_per_pushed_class(monkeypatch):
    # with the refinement stubbed out, the search evaluates P at 0 and at the
    # p children of each class it splits, and P' once per class it pops: no pop
    # evaluates P again, so P runs once per pushed class (and once per rejected child)
    events = []
    real_call = IntPoly.__call__

    def spy(self, x):
        events.append(("P" if self is poly else "D", x))
        return real_call(self, x)

    monkeypatch.setattr(IntPoly, "__call__", spy)
    monkeypatch.setattr("padicsep.roots._newton_refine", lambda poly, deriv, x0, *_: x0)
    deep = 0
    for poly, p in ((IntPoly([-2, 0, 1]), 7), (IntPoly([-6, 11, -6, 1]), 2),
                    (IntPoly([-6, 11, -6, 1]) * IntPoly([-5, 0, 1]), 11),
                    (IntPoly([1, 2, 0, 1]) * IntPoly([-9, 0, 4]), 3), (IntPoly([-17, 0, 1]), 2)):
        events.clear()
        _lifted_roots(poly, p, 4, discriminant(poly))
        assert events[0] == ("P", 0), (poly, p)
        kinds = "".join(kind for kind, _ in events[1:])
        assert kinds.replace("D" + "P" * p, "").replace("D", "") == "", (poly, p, kinds)
        splits = kinds.count("D" + "P" * p)
        assert kinds.count("P") == p * splits
        deep += splits >= 3
    assert deep
