import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
import sympy

from padicsep.intpoly import IntPoly, discriminant, eisenstein_check, is_irreducible
from padicsep.lattice import (
    DegenerateSample,
    RoundingInfeasible,
    XiParams,
    _box_has_point,
    _box_points,
    _RankTracker,
    admissible_primes,
    build_gamma,
    choose_q,
    congruence_lattice,
    eisenstein_twist,
    expand_preset,
    generate,
    normalization,
    preset_theorem2,
    preset_theorem3,
    round_params,
    short_vectors,
    smallest_c2,
    successive_minima,
    taylor_matrix,
)
from padicsep.linalg import bareiss_det, solve_mod_prime
from padicsep.padic import INF, valuation
from round_params_oracle import round_params_oracle


def det_of(columns):
    dim = len(columns)
    return bareiss_det([[columns[c][r] for c in range(dim)] for r in range(dim)])


def test_xi_params_validation():
    with pytest.raises(ValueError):
        XiParams(4, 1, (1, 1))  # p not prime
    with pytest.raises(ValueError):
        XiParams(3, 1, (2, 2))  # sum != t(n+1)
    with pytest.raises(ValueError):
        XiParams(3, 1, (-1, 3))
    params = XiParams(3, 2, (4, 2, 0))
    assert params.n == 2 and params.Q == 9
    assert params.xi(0) == Fraction(1, 81)


def test_round_params_fixed_point():
    ps = round_params([Fraction(1, 81), Fraction(1, 9), Fraction(1)], 3)
    assert ps.b == (4, 2, 0) and ps.t == 2


def test_round_params_sandwich():
    # p^-b <= xi <= p^(n-b) forces b_0 = 3 for xi_0 = 1/5 at p = 2, n = 1;
    # the sum condition then picks b_1 = 1, t = 2
    ps = round_params([Fraction(1, 5), Fraction(1, 2)], 2)
    assert ps.b == (3, 1) and ps.t == 2
    for bi, xi in zip(ps.b, (Fraction(1, 5), Fraction(1, 2))):
        assert Fraction(1, 2**bi) <= xi <= Fraction(2**1) / 2**bi


def test_round_params_needs_positive_t():
    ps = round_params([Fraction(1), Fraction(1)], 2)
    assert sum(ps.b) == 2 * ps.t and ps.t >= 1


def test_round_params_infeasible():
    with pytest.raises(RoundingInfeasible):
        round_params([Fraction(32), Fraction(1)], 2)  # xi_0 > p^n unroundable
    with pytest.raises(RoundingInfeasible):
        round_params([Fraction(1, 5), Fraction(1, 2)], 2, Q=Fraction(10**9))


def test_round_params_random_instances():
    rng = random.Random(44)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        n = rng.randint(1, 4)
        xi = [Fraction(rng.randint(1, 50), rng.randint(1, 50)) for _ in range(n + 1)]
        xi = [min(x, Fraction(1)) for x in xi]
        try:
            ps = round_params(xi, p)
        except RoundingInfeasible:
            continue
        assert sum(ps.b) == ps.t * (n + 1)
        for bi, x in zip(ps.b, xi):
            assert Fraction(1, p**bi) <= x <= Fraction(p**n, p**bi)


def test_round_params_matches_the_trial_search():
    # the closed form against the trial search it replaced: the same b, or
    # RoundingInfeasible with the same message from both
    rng = random.Random(28)
    kinds = Counter()
    for _ in range(3000):
        p = rng.choice([2, 3, 5])
        n = rng.randint(1, 5)
        xi = [Fraction(rng.randint(1, p ** (n + 1)), rng.randint(1, p ** (n + 2)))
              for _ in range(n + 1)]
        try:
            want = round_params_oracle(xi, p)
        except RoundingInfeasible as exc:
            with pytest.raises(RoundingInfeasible) as got:
                round_params(xi, p)
            assert str(got.value) == str(exc), (xi, p)
            kinds["sandwich" if "sandwich" in str(exc) else "total"] += 1
        else:
            assert round_params(xi, p).b == want, (xi, p)
            kinds["feasible"] += 1
    assert kinds["feasible"] and kinds["total"] and kinds["sandwich"], kinds


def test_taylor_matrix_unit_triangular():
    # row i of T(x) a is (1/i!) P^(i)(x), the one Hasse matrix that the
    # box enumerator and the membership test both read
    rng = random.Random(12)
    for x in (-7, 0, 3, 11):
        for n in (1, 2, 3, 4):
            t = taylor_matrix(x, n)
            assert bareiss_det(t) == 1
            for i in range(n + 1):
                assert t[i][i] == 1
                for j in range(i):
                    assert t[i][j] == 0
            coeffs = [rng.randint(-9, 9) for _ in range(n)] + [rng.randint(1, 9)]
            deriv = IntPoly(coeffs)
            for i in range(n + 1):
                assert sum(c * a for c, a in zip(t[i], coeffs)) == deriv(x) // factorial(i)
                deriv = deriv.derivative()


def test_build_gamma_examples():
    lat = build_gamma(5, XiParams(3, 0, (0, 0, 0)))
    assert lat.covolume == 1

    lat = congruence_lattice(1, 2, (1, 0))
    assert lat.covolume == 2
    assert lat.contains((1, 1)) and lat.contains((-1, 1)) and not lat.contains((1, 0))

    lat = build_gamma(1, XiParams(3, 1, (2, 1, 0)))
    assert lat.covolume == 27
    assert abs(det_of(lat.basis)) == 27


def test_build_gamma_membership_and_covolume_random():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(1, 4)
        p = rng.choice([2, 3, 5])
        b = [rng.randint(0, 3) for _ in range(n + 1)]
        x = rng.randrange(p ** max(b) + 1)
        lat = congruence_lattice(x, p, b)
        assert abs(det_of(lat.basis)) == lat.covolume
        for col in lat.basis:
            values = lat.hasse_values(col)
            for value, bi in zip(values, b):
                assert valuation(value, p) >= bi


def test_box_points_against_brute_force():
    # the one congruence-descent enumerator against a filter of the full box:
    # its points and their negatives are exactly the nonzero members, once
    # each; the first point carries the largest a_n, which decides the
    # measure estimate's hit predicate with and without require_top
    rng = random.Random(2718)
    for _ in range(120):
        n = rng.randint(1, 3)
        p = rng.choice([2, 3, 5])
        b = [rng.randint(0, 3) for _ in range(n + 1)]
        x = rng.randint(-60, 60)
        radius = rng.randint(0, 3 if n == 3 else 6)
        lat = congruence_lattice(x, p, b)
        box = range(-radius, radius + 1)
        truth = {v for v in itertools.product(box, repeat=n + 1) if any(v) and lat.contains(v)}
        points = list(_box_points(p, b, x, radius))
        assert points == lat.half_box_points(radius)  # lat.x is x mod p^max(b)
        half = set(points)
        negatives = {tuple(-a for a in v) for v in points}
        assert len(half) == len(points)
        assert all(any(v) and next(a for a in reversed(v) if a) > 0 for v in points)
        assert half.isdisjoint(negatives) and half | negatives == truth
        assert 2 * len(points) + 1 <= lat.box_count_estimate(radius)
        if points:
            assert points[0][-1] == max(v[-1] for v in points)
        assert _box_has_point(p, b, x, radius) == bool(truth)
        assert _box_has_point(p, b, x, radius, require_top=True) == any(v[-1] for v in truth)


def test_short_vectors_identity_lattice():
    lat = build_gamma(0, XiParams(3, 0, (0, 0, 0)))
    sv = short_vectors(lat)
    assert sv.c0 == 1
    assert all(max(abs(c) for c in v) == 1 for v in sv.vectors)
    assert bareiss_det([list(v) for v in sv.vectors]) != 0


def test_short_vectors_congruence_example():
    # n = 1, p = 2, b = (2, 0), x = 1: members satisfy a_0 + a_1 = 0 mod 4
    lat = build_gamma(1, XiParams(2, 1, (2, 0)))
    sv = short_vectors(lat)
    for v in sv.vectors:
        assert (v[0] + v[1]) % 4 == 0
    assert det_of(sv.vectors) != 0
    assert sv.c0 == Fraction(max(max(abs(c) for c in v) for v in sv.vectors), 2)


def test_minkowski_product_bound_random():
    rng = random.Random(321)
    verified = 0
    skipped = 0
    for _ in range(60):
        n = rng.randint(1, 3)
        p = rng.choice([2, 3, 5])
        t = rng.randint(1, 2)
        b = _random_b(rng, n, t, cap=t + 2)
        params = XiParams(p, t, tuple(b))
        lat = build_gamma(rng.randrange(p ** max(b) + 1), params)
        try:
            lams = successive_minima(lat, enum_limit=300_000)
        except RuntimeError:
            skipped += 1  # box too skewed for exact enumeration at test scale
            continue
        assert lams[0] ** n * lams[-1] <= 1
        verified += 1
    assert verified >= 50, (verified, skipped)


def _random_b(rng, n, t, cap=None):
    total = t * (n + 1)
    while True:
        cuts = sorted(rng.randint(0, total) for _ in range(n))
        parts = []
        prev = 0
        for c in cuts + [total]:
            parts.append(c - prev)
            prev = c
        if cap is None or max(parts) <= cap:
            return parts


def test_normalization_height_floor():
    params = XiParams(2, 2, (4, 2, 0))
    nm = normalization(params, "height-floor", Fraction(1, 2))
    assert nm.g_exponents == (3, 1, -1)
    assert nm.d_exponent == -1  # d = 1/(delta Q) = 2^-1
    assert (params.n + 1) * nm.d_exponent + sum(nm.g_exponents) == 0
    assert nm.d == Fraction(1, 2)
    assert all(c.ok for c in nm.certificates)
    for cert in nm.certificates:
        assert cert.rhs_exponent == Fraction(2)  # Q^v with v = 1, t = 2


def test_normalization_identity_symbolic():
    rng = random.Random(8)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        n = rng.randint(2, 4)
        t = rng.randint(2, 4)
        # non-increasing b with b_n = 0 and b_0 > t (so v > 0 exists)
        middle = sorted((rng.randint(0, t) for _ in range(n - 1)), reverse=True)
        b = [t * (n + 1) - sum(middle), *middle, 0]
        assert b[0] > t and all(b[i] >= b[i + 1] for i in range(n))
        params = XiParams(p, t, tuple(b))
        dv = rng.randint(1, 3)
        nm = normalization(params, "height-floor", Fraction(1, p**dv))
        assert (n + 1) * nm.d_exponent + sum(nm.g_exponents) == 0
        i_pinch = rng.randint(0, n)
        c2 = p ** (2 * rng.randint(0, 2))
        nm = normalization(params, "derivative-pinch", Fraction(1, p**dv),
                           c2=c2, i_pinch=i_pinch)
        assert (n + 1) * nm.d_exponent + sum(nm.g_exponents) == 0
        assert all(c.ok for c in nm.certificates)


def test_normalization_pinch_certificates_grid():
    for p, t, b in ((2, 2, (4, 2, 0)), (3, 2, (4, 2, 0)), (2, 3, (6, 3, 0))):
        params = XiParams(p, t, b)
        for i_pinch in range(3):
            for dv in (1, 2):
                for u in (0, 1, 2):
                    nm = normalization(params, "derivative-pinch",
                                       Fraction(1, p**dv), c2=p ** (2 * u),
                                       i_pinch=i_pinch)
                    for cert in nm.certificates:
                        assert cert.ok
                        assert cert.lhs_exponent >= cert.rhs_exponent


def test_normalization_validation():
    params = XiParams(3, 2, (4, 2, 0))
    with pytest.raises(ValueError):
        normalization(params, "height-floor", Fraction(1, 2))  # delta not power of 3
    with pytest.raises(ValueError):
        normalization(params, "derivative-pinch", Fraction(1, 3))  # missing c2/i_pinch
    for i_pinch in (-1, params.n + 1):
        with pytest.raises(ValueError):
            normalization(params, "derivative-pinch", Fraction(1, 3), c2=9, i_pinch=i_pinch)
    with pytest.raises(ValueError):
        normalization(XiParams(3, 2, (2, 2, 2)), "height-floor", Fraction(1, 3))
    with pytest.raises(ValueError):
        normalization(params, "height-floor", Fraction(1, 3), v=Fraction(3, 2))


def test_choose_q_examples():
    assert choose_q(3, 5) == 7  # primes in (3,12): 5,7,11; skip p = 5
    assert choose_q(1, 5) == 2
    assert choose_q(1, 2) == 3
    rng = random.Random(6)
    for _ in range(200):
        m = rng.randint(1, 500)
        p = rng.choice([2, 3, 5, 7])
        q = choose_q(m, p)
        assert m < q < 4 * m and q != p


def test_eisenstein_twist_identity_example():
    tw = eisenstein_twist([(1, 0), (0, 1)], 3)
    assert tw.t_vec == (0, 1)
    assert tw.etas[0] == (3, 4)
    poly = tw.polys_raw[0]
    assert poly == IntPoly([3, 4])
    assert poly.coeffs[0] % 3 == 0 and poly.coeffs[1] % 3 == 1 and poly.coeffs[0] % 9 != 0


def test_eisenstein_twist_pattern_random():
    rng = random.Random(77)
    done = 0
    while done < 100:
        dim = rng.randint(2, 4)
        cols = [tuple(rng.randint(-9, 9) for _ in range(dim)) for _ in range(dim)]
        d = det_of(cols)
        if d == 0:
            continue
        q = rng.choice([3, 5, 7, 11])
        if d % q == 0:
            continue
        tw = eisenstein_twist(cols, q)
        n = dim - 1
        for poly, eta in zip(tw.polys_raw, tw.etas, strict=True):
            coeffs = poly.coeffs
            assert coeffs == tuple(sum(e * col[r] for e, col in zip(eta, cols)) for r in range(dim))
            assert len(coeffs) == dim
            assert all(coeffs[i] % q == 0 for i in range(n))
            assert coeffs[n] % q == 1
            assert coeffs[0] % (q * q) != 0
        done += 1


def test_solve_mod_prime_many_right_hand_sides():
    # one elimination solves every b: M z = b mod q, entries in [0, q), and each
    # z is the solve of b alone
    rng = random.Random(41)
    done = 0
    while done < 60:
        dim = rng.randint(1, 5)
        q = rng.choice([2, 3, 5, 7, 11])
        matrix = [[rng.randint(-20, 20) for _ in range(dim)] for _ in range(dim)]
        if bareiss_det(matrix) % q == 0:
            with pytest.raises(ValueError):
                solve_mod_prime(matrix, [[1] * dim, [0] * dim], q)
            continue
        rhs = [[rng.randint(-50, 50) for _ in range(dim)] for _ in range(rng.randint(1, 6))]
        sols = solve_mod_prime(matrix, rhs, q)
        assert len(sols) == len(rhs)
        for z, b in zip(sols, rhs):
            assert all(0 <= zi < q for zi in z)
            assert all((sum(m * zi for m, zi in zip(row, z)) - bi) % q == 0
                       for row, bi in zip(matrix, b))
            assert [z] == solve_mod_prime(matrix, [b], q)
        done += 1
    with pytest.raises(ValueError):
        solve_mod_prime([[1, 2], [2, 4]], [[1, 0], [0, 1], [3, 3]], 7)


def test_eisenstein_twist_eliminates_once(monkeypatch):
    import padicsep.lattice as lattice_mod

    calls = []

    def counted(matrix, rhs, q):
        calls.append(len(rhs))
        return solve_mod_prime(matrix, rhs, q)

    monkeypatch.setattr(lattice_mod, "solve_mod_prime", counted)
    for dim in (2, 3, 5):
        calls.clear()
        cols = [tuple(1 if r == c else max(r - c, 0) for r in range(dim)) for c in range(dim)]
        tw = eisenstein_twist(cols, 7)
        assert calls == [dim] and len(tw.polys_raw) == dim


def test_eisenstein_twist_rejects_bad_q():
    with pytest.raises(ValueError):
        eisenstein_twist([(2, 0), (0, 1)], 2)  # q | det A


def test_smallest_c2():
    assert smallest_c2(3, Fraction(1)) == 1
    assert smallest_c2(3, Fraction(10)) == 81
    assert smallest_c2(2, Fraction(4)) == 4


def test_generate_full_certificates():
    params = XiParams(3, 1, (2, 1, 0))
    out = generate(1, params)
    assert out.all_ok
    assert out.m < out.q < 4 * out.m and out.q != 3
    assert len(out.polys) == 3
    assert det_of([cert.coeffs + (0,) * (3 - len(cert.coeffs)) for cert in out.certificates]) != 0
    for poly, cert in zip(out.polys, out.certificates):
        assert poly.degree == 2
        assert poly.content == 1
        assert eisenstein_check(poly, out.q)
        assert is_irreducible(poly)
        assert valuation(poly(1), 3) >= 2
        assert valuation(poly.derivative()(1), 3) >= 1
        assert poly.height <= out.c2 * 3
        for margin in cert.membership_margins:
            assert margin is INF or margin >= 0


def test_generate_theorem2_preset_end_to_end():
    from padicsep.roots import hensel_lift, min_conjugate_separation

    params = preset_theorem2(2, 3, 3, Fraction(1))
    assert params.b == (6, 3, 0)
    # theta = 1 sits on the boundary (n+1)/3 for n = 2, where the simple-root
    # condition v(P(x)) > 2 v(P'(x)) only holds when the empirical margins
    # leave slack; assert the root-distance contract whenever it applies, and
    # that the x-scan produces separation witnesses with valuation >= theta t.
    hensel_hits = 0
    witnesses = 0
    for x in range(0, 3**7, 5):
        try:
            out = generate(x, params)
        except DegenerateSample:
            continue
        assert out.all_ok
        for poly in out.polys:
            v0 = valuation(poly(out.x), 3)
            v1 = valuation(poly.derivative()(out.x), 3)
            assert (v0 is INF or v0 >= 6) and (v1 is INF or v1 >= 3)
            if v0 > 2 * v1:
                root, dist = hensel_lift(poly, out.x, 3, 10)
                assert dist is INF or dist == v0 - v1 >= 3
                hensel_hits += 1
            if min_conjugate_separation(poly, 3).val >= 3:  # theta t = 3
                witnesses += 1
        if hensel_hits >= 3 and witnesses >= 1:
            break
    assert hensel_hits >= 3
    assert witnesses >= 1


def test_generate_theorem3_preset_end_to_end():
    params = preset_theorem3(2, 3, 2, Fraction(1))
    assert params.b == (4, 2, 0)
    vpds = []
    for x in range(0, 81, 7):
        try:
            out = generate(x, params)
        except DegenerateSample:
            continue
        for poly in out.polys:
            d = discriminant(poly)
            assert d != 0
            vpds.append(valuation(d, 3))
    # nu = 1: target v_p(D) >= 2 nu t - slack = 4 - slack; many outputs meet it
    assert vpds and max(vpds) >= 4


def test_preset_theorem3_rounding():
    ps = preset_theorem3(3, 2, 4, Fraction(1))
    # targets (12, 8/3, 4/3, 0) rounded to a monotone composition of 16
    assert sum(ps.b) == 16 and ps.b[-1] == 0
    assert all(ps.b[i] >= ps.b[i + 1] for i in range(3))
    assert abs(ps.b[1] - Fraction(8, 3)) <= 1 and abs(ps.b[2] - Fraction(4, 3)) <= 1


def test_expand_preset():
    ps = expand_preset({"mode": "theorem2", "n": 2, "p": 3, "t": 3, "theta": "1"})
    assert ps.b == (6, 3, 0)
    ps = expand_preset({"mode": "theorem3", "n": 2, "p": 3, "t": 2, "nu": 1})
    assert ps.b == (4, 2, 0)
    with pytest.raises(ValueError):
        expand_preset({"mode": "bogus", "n": 2, "p": 3, "t": 2})
    with pytest.raises(ValueError):
        expand_preset({"mode": "theorem2", "n": 2, "p": 3, "t": 2})


def test_generate_outputs_member_of_gamma_before_primitivization():
    # re-verify membership via raw eta reconstruction on a few instances
    rng = random.Random(13)
    for _ in range(10):
        params = preset_theorem2(2, 2, 2, Fraction(1))
        x = rng.randrange(2 ** (params.b[0] + 2))
        try:
            out = generate(x, params)
        except DegenerateSample:
            continue
        lat = build_gamma(x, params)
        for cert in out.certificates:
            vec = cert.coeffs + (0,) * (3 - len(cert.coeffs))
            raw = tuple(v * cert.content for v in vec)
            assert lat.contains(raw)


def _generator_record(tag, x, params):
    """(one line fixing everything generate reports for x, the output or None)."""
    try:
        out = generate(x, params)
    except DegenerateSample as exc:
        return f"{tag} {x} degenerate {exc}", None
    certs = ";".join(
        f"{c.coeffs} {c.content} {c.degree_ok} {c.eisenstein_ok} {c.membership_margins!r} "
        f"{c.membership_ok} {c.height} {c.height_ok}" for c in out.certificates)
    polys = ";".join(poly.to_string() for poly in out.polys)
    return f"{tag} {out.x} {out.q} {out.m} {out.c0} {out.c2} {out.route} {polys} {certs}", out


def test_n3_generator_outputs_are_frozen():
    # theorem2 n=3 p=2 t=3 and theorem3 n=3 p=2 t=4 draws reach the branches
    # the golden n=2 generate does not: certificates whose content p divides,
    # both short-vector routes, and a draw with no usable q^2-shift
    th2 = preset_theorem2(3, 2, 3, Fraction(1))
    th3 = preset_theorem3(3, 2, 4, Fraction(1))
    draws = [("th2", x, th2) for x in range(64)] + [("th3", x, th3) for x in [*range(32), 154]]
    records, outputs = zip(*(_generator_record(*draw) for draw in draws))
    even = {(out.params, out.x) for out in outputs
            if out is not None and any(c.content % 2 == 0 for c in out.certificates)}
    assert {(th2, 1), (th2, 4), (th2, 5), (th3, 6), (th3, 13)} <= even
    assert {out.route for out in outputs if out is not None} == {"enumeration", "lll_dual_certificate"}
    assert records[-1] == ("th3 154 degenerate no q^2-shift yields a primitive independent"
                           " output with valid bounds")
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "aea95f8fd93a927888c95bcc511d053ac282dc5d28265232b487c31790108947"


def test_admissible_primes():
    assert list(admissible_primes(1, 2)) == [3]
    assert list(admissible_primes(3, 5)) == [7, 11]


def test_short_vectors_lll_fallback_is_verified():
    # a very skewed lattice with a tiny enumeration budget diverts to LLL;
    # membership and independence must still be re-verified exactly
    params = XiParams(5, 3, (12, 0, 0, 0))
    lat = build_gamma(123456, params)
    sv = short_vectors(lat, enum_limit=2000)
    assert sv.method == "lll"
    assert bareiss_det([list(v) for v in sv.vectors]) != 0
    for v in sv.vectors:
        assert lat.contains(v)
        assert max(abs(c) for c in v) <= sv.c0 * params.Q


def test_rank_tracker_against_sympy():
    # every accept/reject decision of the integer rank tracker against sympy's
    # rank of the prefix, on random rows with forced sums and multiples
    rng = random.Random(1009)
    for _ in range(150):
        dim = rng.randint(2, 6)
        rows = []
        for _ in range(rng.randint(1, dim + 3)):
            kind = rng.random()
            if len(rows) >= 2 and kind < 0.25:
                u, w = rng.sample(rows, 2)
                c = rng.choice([-2, -1, 1, 3])
                rows.append([a + c * e for a, e in zip(u, w)])
            elif rows and kind < 0.4:
                k = rng.choice([-5, -1, 2, 7])
                rows.append([k * a for a in rng.choice(rows)])
            elif kind < 0.5:
                rows.append([rng.choice([0, 0, 0, rng.randint(-3, 3)]) for _ in range(dim)])
            else:
                scale = rng.choice([5, 50, 10**9])
                rows.append([rng.randint(-scale, scale) for _ in range(dim)])
        tracker = _RankTracker()
        rank = 0
        for k, row in enumerate(rows):
            prefix_rank = sympy.Matrix(rows[:k + 1]).rank()
            assert tracker.try_add(row) == (prefix_rank > rank), (rows, k)
            rank = prefix_rank


def test_generator_outputs_satisfy_root_distance_ladder():
    # with d_j = (b_(j-1) - b_j)/t non-increasing, the j-th closest root of
    # every output satisfies v_p(x - alpha_j) >= t d_j - slack, where the
    # slack is the largest membership margin (the empirical delta_0 exponent)
    from padicsep.roots import distance_profile

    for p, t, nu in ((3, 2, Fraction(1)), (2, 3, Fraction(1, 2))):
        params = preset_theorem3(2, p, t, nu)
        d = [Fraction(params.b[j] - params.b[j + 1], t) for j in range(params.n)]
        assert all(a >= b_ for a, b_ in zip(d, d[1:])) and d[-1] >= 0
        produced = 0
        for x in range(0, p ** max(params.b), 3):
            try:
                out = generate(x, params)
            except DegenerateSample:
                continue
            slack = out.delta0_exponent
            if slack is INF:
                # a derivative vanishes exactly at x: empirical delta_0 = 0
                # and the distance bound is vacuous for this sample
                continue
            for poly in out.polys:
                prof = distance_profile(poly, out.x, p)
                for j, dj in enumerate(d, start=1):
                    entry = prof.entries[j - 1]
                    assert entry is INF or entry >= t * dj - slack, (
                        poly, out.x, j, entry, t * dj, slack)
            produced += 1
            if produced >= 12:
                break
        assert produced >= 12
