import random
from fractions import Fraction

import pytest
import sympy

from padicsep.intpoly import IntPoly, discriminant
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
        expect = sorted(
            (valuation(center - r, p) for r in roots),
            key=lambda v: (0, 0) if v is INF else (1, -v),
        )
        got = list(prof.entries)
        assert [g if g is INF else Fraction(g) for g in got] == [
            e if e is INF else Fraction(e) for e in expect
        ]


def test_profile_at_zp_root():
    poly = IntPoly([-1, 1]) * IntPoly([-(1 + 3**5), 1]) * IntPoly([1, 0, 1])
    roots = zp_roots(poly, 3, 2)
    near_one = [r for r in roots if (r.residue - 1) % 3 == 0][0]
    prof = profile_at_zp_root(poly, near_one.residue, 3)
    assert prof.entries[0] is INF
    assert list(prof.entries[1:]) == [5, 0, 0]


def test_min_conjugate_separation_examples():
    for k in (1, 2, 3):
        assert min_conjugate_separation(IntPoly([-(5 ** (2 * k)), 0, 1]), 5).val == k
    assert min_conjugate_separation(IntPoly([1, 1, 1]), 5).val == 0
    assert min_conjugate_separation(IntPoly([-2, 0, 1]), 7).val == 0
    assert min_conjugate_separation(IntPoly([-2, 0, 0, 1]), 3).val == Fraction(1, 2)
    with pytest.raises(ValueError):
        min_conjugate_separation(IntPoly([0, 0, 1]), 5)


def test_min_conjugate_separation_quadratic_identity_exhaustive():
    # n = 2 identity (v_p(D) - 2 v_p(a_2)) / 2 against the difference-resultant
    # polygon (independent route) on every H <= 12 quadratic with distinct roots
    for p in (2, 3):
        for a2 in range(1, 13):
            for a1 in range(-12, 13):
                for a0 in range(-12, 13):
                    poly = IntPoly([a0, a1, a2])
                    d = discriminant(poly)
                    if d == 0:
                        continue
                    sep = min_conjugate_separation(poly, p)
                    delta = difference_poly(poly)
                    reduced = IntPoly(delta.coeffs[2:])
                    polygon = newton_polygon(reduced, p)
                    oracle = -polygon.segments[0][0]
                    assert sep.val == oracle, (poly, p)


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


def test_check_ordering_lemma():
    poly = IntPoly([-2, 0, 1])
    prof = distance_profile(poly, 3, 7)
    rows = check_ordering_lemma(poly, 3, 7, prof)
    assert all(r.bound_holds for r in rows)
    assert all(r.equality_holds for r in rows if r.equality_expected)
    # j = 1 row: v_7(P'(3)) = v_7(6) = 0 = v_7(a_n) + 0
    assert rows[1].lhs_valuation == 0 and rows[1].bound_valuation == 0
    assert len(rows) == poly.degree  # rows cover 0 <= j < n only


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
