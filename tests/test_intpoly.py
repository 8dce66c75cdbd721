import itertools
import random
from fractions import Fraction

import pytest
import sympy

from padicsep.intpoly import (
    IntPoly,
    content_primitive,
    discriminant,
    eisenstein_check,
    hadamard_bound,
    interpolate,
    is_irreducible,
    kronecker_factor,
    poly_divmod_exact,
    poly_gcd,
    poly_irreducible_mod,
    rational_roots,
    resultant,
    squarefree_decomposition,
    squarefree_part,
)
from padicsep.padic import valuation

X = sympy.Symbol("x")


def to_sympy(poly: IntPoly):
    return sympy.Poly(list(reversed(poly.coeffs)), X) if not poly.is_zero else sympy.Poly(0, X)


def frac_det(matrix):
    """Independent exact determinant: rational Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in matrix]
    size = len(m)
    det = Fraction(1)
    for c in range(size):
        piv = next((r for r in range(c, size) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, size):
            if m[r][c]:
                f = m[r][c] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def oracle_disc(poly: IntPoly) -> int:
    """Discriminant via rational elimination on the Sylvester matrix (independent route)."""
    from padicsep.intpoly import sylvester_matrix

    n = poly.degree
    res = frac_det(sylvester_matrix(poly, poly.derivative()))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    val = sign * res / poly.leading
    assert val.denominator == 1
    return int(val)


def test_eval_examples():
    assert IntPoly([-2, 0, 1])(3) == 7
    assert IntPoly([])(5) == 0
    assert IntPoly([-5, 0, 3])(10) == 295


def test_hasse_derivative_examples():
    assert IntPoly([0, 0, 0, 1]).hasse_derivative(2) == IntPoly([0, 3])
    p = IntPoly([4, -1, 7, 2])
    assert p.hasse_derivative(0) == p
    # expand C(4,2) x^2 + C(2,2)*2 and cross-check by symbolic differentiation
    got = IntPoly([0, 0, 2, 0, 1]).hasse_derivative(2)
    assert got == IntPoly([2, 0, 6])
    sym = sympy.diff(X**4 + 2 * X**2, X, 2) / sympy.factorial(2)
    assert sympy.expand(sym) == sympy.expand(6 * X**2 + 2)


def test_hasse_derivative_matches_sympy_on_random_polys():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 6)
        coeffs = [rng.randint(-9, 9) for _ in range(n)] + [rng.randint(1, 9)]
        p = IntPoly(coeffs)
        i = rng.randint(0, n)
        expect = sympy.expand(sympy.diff(to_sympy(p).as_expr(), X, i) / sympy.factorial(i))
        got = to_sympy(p.hasse_derivative(i)).as_expr()
        assert sympy.expand(got - expect) == 0
    assert IntPoly([1, 1]).hasse_derivative(5).is_zero


def test_discriminant_examples():
    assert discriminant(IntPoly([-1, 0, 1])) == 4
    assert discriminant(IntPoly([0, 0, 1])) == 0
    # independent oracle: rational-elimination Sylvester and the cubic formula
    p = IntPoly([1, 1, 0, 1])
    assert oracle_disc(p) == -31
    assert -4 * 1**3 - 27 * 1**2 == -31
    assert discriminant(p) == -31
    assert discriminant(IntPoly([7, 3])) == 1
    with pytest.raises(ValueError):
        discriminant(IntPoly([5]))


def test_discriminant_closed_forms_small_heights():
    # the degree-2/3 closed forms against the Sylvester route (-1)^(n(n-1)/2) Res(P, P') / a_n
    domains = (itertools.product(range(-4, 5), range(-4, 5), range(1, 5)),
               itertools.product(range(-3, 4), range(-3, 4), range(-3, 4), range(1, 4)))
    for coeffs in itertools.chain(*domains):
        poly = IntPoly(coeffs)
        n = poly.degree
        q, r = divmod(resultant(poly, poly.derivative()), poly.leading)
        assert r == 0
        assert discriminant(poly) == (-1) ** (n * (n - 1) // 2) * q


def test_discriminant_against_sympy_samples():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 5)
        coeffs = [rng.randint(-30, 30) for _ in range(n)] + [rng.randint(1, 30)]
        p = IntPoly(coeffs)
        assert discriminant(p) == int(sympy.discriminant(to_sympy(p).as_expr(), X))


def test_discriminant_shift_and_scale_invariance():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(2, 4)
        coeffs = [rng.randint(-9, 9) for _ in range(n)] + [rng.randint(1, 9)]
        p = IntPoly(coeffs)
        c = rng.randint(-5, 5)
        assert discriminant(p.shift(c)) == discriminant(p)
        lam = rng.choice([-3, -2, -1, 2, 3])
        assert discriminant(lam * p) == lam ** (2 * n - 2) * discriminant(p)


def test_resultant_basics():
    assert resultant(IntPoly([-2, 0, 1]), IntPoly([-3, 0, 1])) == 1
    p, q = IntPoly([1, 2, 3]), IntPoly([-1, 5])
    expect = int(sympy.resultant(to_sympy(p).as_expr(), to_sympy(q).as_expr(), X))
    assert resultant(p, q) == expect


def test_hadamard_bound_examples():
    # degree 2, height 1: exhaustive maximum of |D| is 5 (a1 = +-1, a0 a2 = -1)
    best = max(
        abs(discriminant(IntPoly([a0, a1, a2])))
        for a2 in (1, -1)
        for a1 in (-1, 0, 1)
        for a0 in (-1, 0, 1)
    )
    assert best == 5
    assert hadamard_bound(2, 1) >= 8 >= best
    assert hadamard_bound(1, 1000) == 1
    # frozen exhaustive maximum over degree-3, H <= 10: |D(10x^3-10x^2-10x-10)|
    assert hadamard_bound(3, 10) >= 440000
    with pytest.raises(ValueError):
        hadamard_bound(0, 5)


def test_hadamard_bound_dominates_exhaustively():
    for n, hmax in ((2, 4), (3, 3)):
        bound = hadamard_bound(n, hmax)

        def rec(i, acc):
            if i < 0:
                d = discriminant(IntPoly(acc))
                assert abs(d) <= bound
                return
            for a in range(-hmax, hmax + 1):
                acc[i] = a
                rec(i - 1, acc)

        for an in range(1, hmax + 1):
            acc = [0] * (n + 1)
            acc[n] = an
            rec(n - 1, acc)


def test_vp_disc_bounded_by_hadamard_log():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(2, 4)
        coeffs = [rng.randint(-20, 20) for _ in range(n)] + [rng.randint(1, 20)]
        p = IntPoly(coeffs)
        d = discriminant(p)
        if d == 0:
            continue
        for q in (2, 3, 5):
            v = valuation(d, q)
            assert q**v <= hadamard_bound(n, p.height)


def test_eisenstein_examples():
    assert eisenstein_check(IntPoly([3, 3, 0, 1]), 3)
    assert not eisenstein_check(IntPoly([-1, 0, 1]), 3)
    assert not eisenstein_check(IntPoly([18, 6, 2]), 3)


def test_content_primitive_examples():
    assert content_primitive(IntPoly([9, 6])) == (3, IntPoly([3, 2]))
    assert content_primitive(IntPoly([1, 0, 1])) == (1, IntPoly([1, 0, 1]))
    assert content_primitive(IntPoly([0, 0, -4])) == (4, IntPoly([0, 0, -1]))
    with pytest.raises(ValueError):
        content_primitive(IntPoly([]))


def test_is_irreducible_examples():
    assert is_irreducible(IntPoly([-2, 0, 1]))
    assert not is_irreducible(IntPoly([-1, 0, 1]))
    res = is_irreducible(IntPoly([3, 3, 0, 1]))
    assert res and res.certificate in ("eisenstein", "exhaustive-factor-search")
    with pytest.raises(ValueError):
        is_irreducible(IntPoly([2, 0, 2]))
    assert is_irreducible(IntPoly([7, 1])).certificate == "degree-1"


def test_is_irreducible_certificates_and_products():
    assert is_irreducible(IntPoly([1, 1, 1, 1, 1])).certificate == "eisenstein"
    prod = IntPoly([1, 0, 1]) * IntPoly([1, 1, 1])
    res = is_irreducible(prod)
    assert not res and res.certificate == "factor-found"
    factor = IntPoly(res.detail)
    assert poly_divmod_exact(prod, factor) is not None


def test_is_irreducible_exhaustive_small_vs_kronecker():
    for n in (2, 3):
        for coeffs in _all_coeffs(n, 2):
            p = IntPoly(coeffs)
            c, prim = content_primitive(p)
            got = bool(is_irreducible(prim))
            factor = kronecker_factor(prim)
            assert got == (factor is None)


def _all_coeffs(n, h):
    def rec(i, acc):
        if i < 0:
            yield tuple(acc)
            return
        for a in range(-h, h + 1):
            acc[i] = a
            yield from rec(i - 1, acc)

    for an in range(1, h + 1):
        acc = [0] * (n + 1)
        acc[n] = an
        yield from rec(n - 1, acc)


def test_is_irreducible_matches_sympy_quartics():
    rng = random.Random(11)
    for _ in range(120):
        coeffs = [rng.randint(-8, 8) for _ in range(4)] + [rng.randint(1, 8)]
        p = IntPoly(coeffs)
        c, prim = content_primitive(p)
        expect = sympy.Poly(list(reversed(prim.coeffs)), X).is_irreducible
        assert bool(is_irreducible(prim)) == expect, prim


def test_poly_irreducible_mod():
    assert poly_irreducible_mod(IntPoly([-2, 0, 1]), 5)  # 2 is not a square mod 5
    assert not poly_irreducible_mod(IntPoly([-2, 0, 1]), 7)  # 3^2 = 2 mod 7
    assert not poly_irreducible_mod(IntPoly([1, 2, 1]), 5)  # (x+1)^2


def test_rational_roots():
    assert rational_roots(IntPoly([-1, 0, 1])) == [Fraction(-1), Fraction(1)]
    assert rational_roots(IntPoly([1, 1, 0, 1])) == []
    assert Fraction(1, 2) in rational_roots(IntPoly([-1, 2]))
    assert Fraction(0) in rational_roots(IntPoly([0, 1, 1]))


def test_gcd_and_squarefree():
    q = IntPoly([-1, 1]) * IntPoly([-1, 1]) * IntPoly([2, 1])
    g = poly_gcd(q, q.derivative())
    assert g == IntPoly([-1, 1])
    assert squarefree_part(q) == IntPoly([-1, 1]) * IntPoly([2, 1])
    decomp = squarefree_decomposition(q)
    assert (IntPoly([2, 1]), 1) in decomp and (IntPoly([-1, 1]), 2) in decomp


def test_string_encoding_round_trip():
    p = IntPoly([-5, 0, 12])
    assert p.to_string() == "-5,0,12"
    assert IntPoly.from_string("-5,0,12") == p
    assert IntPoly.from_string("0") == IntPoly([])


def fraction_lagrange(xs, ys):
    """Independent interpolation: Lagrange form over Q, coefficients low-to-high."""
    k = len(xs)
    coeffs = [Fraction(0)] * k
    for i in range(k):
        basis = [Fraction(1)]
        for j in range(k):
            if j != i:
                # basis <- basis * (x - xs[j]) / (xs[i] - xs[j])
                shifted = [Fraction(0)] + basis
                for t in range(len(basis)):
                    shifted[t] -= xs[j] * basis[t]
                basis = [c / (xs[i] - xs[j]) for c in shifted]
        for t, c in enumerate(basis):
            coeffs[t] += ys[i] * c
    return coeffs


def test_interpolate_round_trips_random_polys():
    rng = random.Random(41)
    for _ in range(400):
        k = rng.randint(1, 10)
        poly = IntPoly([rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, k))])
        xs = rng.sample(range(-30, 31), k)
        assert interpolate(xs, [poly(x) for x in xs]) == poly


def test_interpolate_none_exactly_when_lagrange_is_not_integral():
    rng = random.Random(42)
    nones = 0
    for _ in range(600):
        k = rng.randint(1, 7)
        xs = rng.sample(range(-10, 11), k)
        ys = [rng.randint(-60, 60) for _ in range(k)]
        ref = fraction_lagrange(xs, ys)
        got = interpolate(xs, ys)
        if any(c.denominator != 1 for c in ref):
            assert got is None, (xs, ys)
            nones += 1
        else:
            assert got == IntPoly(int(c) for c in ref), (xs, ys)
    assert 100 < nones < 600  # both outcomes are exercised


def test_poly_divmod_exact_against_sympy():
    # 2x + 2 divides x + 1 over Q, but the quotient 1/2 is not in Z[x]
    assert poly_divmod_exact(IntPoly([1, 1]), IntPoly([2, 2])) is None
    assert poly_divmod_exact(IntPoly([2, 2]), IntPoly([1, 1])) == IntPoly([2])
    assert poly_divmod_exact(IntPoly([]), IntPoly([3, 1])) == IntPoly([])
    with pytest.raises(ZeroDivisionError):
        poly_divmod_exact(IntPoly([1, 1]), IntPoly([]))
    rng = random.Random(43)
    for _ in range(400):
        den = IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(1, 4))] + [rng.choice([1, -2, 3, 4])])
        num = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 7))])
        if rng.random() < 0.5:
            num = num * den
        if num.is_zero:
            continue
        quo, rem = sympy.div(to_sympy(num), to_sympy(den), domain="QQ")
        integral = rem.is_zero and all(c.q == 1 for c in quo.all_coeffs())
        got = poly_divmod_exact(num, den)
        if integral:
            assert got == IntPoly(int(c) for c in reversed(quo.all_coeffs())), (num, den)
        else:
            assert got is None, (num, den)


def test_poly_gcd_against_sympy():
    assert poly_gcd(IntPoly([]), IntPoly([])) == IntPoly([])
    assert poly_gcd(IntPoly([6]), IntPoly([4])) == IntPoly([1])
    assert poly_gcd(IntPoly([]), IntPoly([-4, -2])) == IntPoly([2, 1])
    rng = random.Random(44)
    for _ in range(300):
        common = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))])
        a = IntPoly([rng.randint(-7, 7) for _ in range(rng.randint(1, 5))]) * common
        b = IntPoly([rng.randint(-7, 7) for _ in range(rng.randint(1, 5))]) * common
        if a.is_zero or b.is_zero:
            continue
        ref = sympy.gcd(to_sympy(a), to_sympy(b))
        _, prim = ref.primitive()
        ref_coeffs = [int(c) for c in reversed(prim.all_coeffs())]
        if ref_coeffs[-1] < 0:
            ref_coeffs = [-c for c in ref_coeffs]
        assert poly_gcd(a, b) == IntPoly(ref_coeffs), (a, b)
