"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v tests/test_acceptance.py`; the per-criterion lines are
printed live (capture disabled) so the gate is readable in any pytest run.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from padicsep.census import (
    disc_census,
    fit_exponent,
    measure_estimate,
    sep_census,
)
from padicsep.cli import main as cli_main
from padicsep.intpoly import (IntPoly, content_primitive, discriminant_coeffs, hadamard_bound,
                              is_irreducible, resultant)
from padicsep.lattice import (
    DegenerateSample,
    XiParams,
    build_gamma,
    congruence_lattice,
    generate,
    preset_theorem2,
    preset_theorem3,
    successive_minima,
    taylor_matrix,
)
from padicsep.linalg import bareiss_det
from padicsep.padic import INF, valuation
from padicsep.roots import hensel_lift
from resultant_oracle import separation_by_resultants

WORKERS = 8


def report(capsys, criterion: int, ok: bool, detail: str):
    with capsys.disabled():
        print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _sylvester_disc(coeffs) -> int:
    """(-1)^(n(n-1)/2) Res(P, P') / a_n through the Bareiss determinant."""
    poly = IntPoly(coeffs)
    n = poly.degree
    q, r = divmod(resultant(poly, poly.derivative()), poly.leading)
    assert r == 0
    return (-1) ** (n * (n - 1) // 2) * q


def test_criterion_1_discriminant_oracle_equivalence(capsys):
    """Sylvester route == closed forms on every degree-2/3 polynomial, H <= 10."""
    started = time.time()
    checked = 0
    rng2 = range(-10, 11)
    leads = [a for a in rng2 if a]
    for a2 in leads:
        for a1 in rng2:
            for a0 in rng2:
                assert discriminant_coeffs((a0, a1, a2)) == _sylvester_disc((a0, a1, a2))
                checked += 1
    for a3 in leads:
        for a2 in rng2:
            for a1 in rng2:
                for a0 in rng2:
                    coeffs = (a0, a1, a2, a3)
                    assert discriminant_coeffs(coeffs) == _sylvester_disc(coeffs)
                    checked += 1
    elapsed = time.time() - started
    report(capsys, 1, elapsed < 60,
           f"{checked} exact equalities (deg 2: 8820, deg 3: 185220) in {elapsed:.1f}s < 60s")


def test_criterion_2_hensel_contract(capsys):
    root, dist = hensel_lift(IntPoly([-2, 0, 1]), 3, 7, 3)
    assert root.residue == 108 and dist == 1 and pow(108, 2, 343) == 2

    rng = random.Random(260809)
    verified = 0
    attempts = 0
    while verified < 1000 and attempts < 200_000:
        attempts += 1
        p = rng.choice([2, 3, 5, 7])
        n = rng.randint(2, 4)
        coeffs = [rng.randint(-60, 60) for _ in range(n)] + [rng.randint(1, 60)]
        poly = IntPoly(coeffs)
        x0 = rng.randint(-90, 90)
        v0 = valuation(poly(x0), p)
        v1 = valuation(poly.derivative()(x0), p)
        if not v0 > 2 * v1:
            continue
        prec = rng.randint(1, 10)
        root, dist = hensel_lift(poly, x0, p, prec)
        assert poly(root.residue) % p**prec == 0
        expect = INF if v0 is INF else v0 - v1
        assert (dist is INF and expect is INF) or dist == expect
        observed = valuation(x0 - root.residue, p)
        if expect is INF or expect >= prec:
            assert observed is INF or observed >= prec
        else:
            assert observed == expect
        verified += 1
    report(capsys, 2, verified >= 1000,
           f"{verified} seeded Hensel lifts verified exactly (incl. 108 mod 343)")


def test_criterion_3_lattice_identities(capsys):
    rng = random.Random(31337)
    for _ in range(500):
        n = rng.randint(1, 4)
        p = rng.choice([2, 3, 5])
        b = [rng.randint(0, 4) for _ in range(n + 1)]
        x = rng.randrange(p ** max(b) + 1)
        lat = congruence_lattice(x, p, b)
        det = bareiss_det([[lat.basis[c][r] for c in range(n + 1)] for r in range(n + 1)])
        expect = 1
        for bi in b:
            expect *= p**bi
        assert abs(det) == expect
        assert bareiss_det(taylor_matrix(x, n)) == 1
        assert bareiss_det(taylor_matrix(-x, n)) == 1

    minkowski = 0
    attempts = 0
    while minkowski < 100 and attempts < 400:
        attempts += 1
        n = rng.randint(1, 3)
        p = rng.choice([2, 3, 5])
        t = rng.randint(1, 2)
        total = t * (n + 1)
        b = []
        left = total
        for i in range(n):
            cap = min(left, t + 2)
            v = rng.randint(max(0, left - (t + 2) * (n - i)), cap)
            b.append(v)
            left -= v
        if left > t + 2:
            continue
        b.append(left)
        params = XiParams(p, t, tuple(b))
        lat = build_gamma(rng.randrange(p ** max(b) + 1), params)
        try:
            lams = successive_minima(lat, enum_limit=400_000)
        except RuntimeError:
            continue
        assert lams[0] ** n * lams[-1] <= 1
        minkowski += 1
    report(capsys, 3, minkowski >= 100,
           f"500 covolume identities, det T = 1, Minkowski bound on {minkowski} exact-minima instances")


def test_criterion_4_generator_certificates(capsys):
    started = time.time()
    rng = random.Random(4242)
    total = successes = 0
    for n in (2, 3):
        for p in (2, 3, 5):
            for t in (2, 3):
                params = preset_theorem2(n, p, t, Fraction(1))
                modulus = p ** (max(params.b) + 2)
                for _ in range(50):
                    total += 1
                    x = rng.randrange(modulus)
                    try:
                        out = generate(x, params)
                    except DegenerateSample:
                        continue
                    cols = [c.coeffs + (0,) * (n + 1 - len(c.coeffs)) for c in out.certificates]
                    assert bareiss_det([[cols[c][r] for c in range(n + 1)]
                                        for r in range(n + 1)]) != 0  # (a) independence
                    assert out.m < out.q < 4 * out.m and out.q != p  # (c) prime window
                    ok = True
                    for poly, cert in zip(out.polys, out.certificates):
                        if poly.content != 1:  # (b) primitive
                            ok = False
                        if not cert.eisenstein_ok:  # (c) Eisenstein at q
                            ok = False
                        if not cert.membership_ok:  # (d) lattice member, re-verified
                            ok = False
                        values = build_gamma(x, params).hasse_values(
                            poly.coeffs + (0,) * (n + 1 - len(poly.coeffs)))
                        for value, bi in zip(values, params.b):
                            if valuation(value, p) < bi:
                                ok = False
                        if poly.degree != n or poly.height > out.c2 * params.Q:  # (e)
                            ok = False
                    if ok:
                        successes += 1
    elapsed = time.time() - started
    rate = successes / total
    report(capsys, 4, rate >= 0.9 and elapsed < 300,
           f"{successes}/{total} samples fully certified ({100*rate:.1f}% >= 90%) in {elapsed:.1f}s < 300s")


def test_criterion_5_discriminant_census_exponent(capsys):
    started = time.time()
    grid = [20, 40, 80, 160]
    nus = [Fraction(1, 4), Fraction(1, 2)]
    result = disc_census(2, 3, grid, nus, c_exps=(0, 1, 2), workers=WORKERS)
    details = []
    ok = True
    for nu in nus:
        floor = float(3 - 2 * nu) - 0.5
        for ce in (0, 1, 2):
            pts = [(r.height_bound, r.count_irr) for r in result.rows
                   if r.nu == nu and r.c_exp == ce]
            if any(c == 0 for _, c in pts):
                ok = False
            fit = fit_exponent(pts)
            if fit.slope < floor:
                ok = False
            details.append(f"nu={nu},C=3^{ce}: slope {fit.slope:.2f} >= {floor:.2f}")
    elapsed = time.time() - started
    report(capsys, 5, ok and elapsed < 600,
           "; ".join(details) + f"; all counts nonzero; {elapsed:.1f}s < 600s ({WORKERS} workers)")


def _sep_row_by_resultants(n: int, p: int, t: int, theta: Fraction) -> tuple[int, int]:
    """(count_all, count_irr) of a sep-census row, separations from the resultant oracle."""
    count_all = count_irr = 0
    for coeffs in itertools.product(range(-p**t, p**t + 1), repeat=n + 1):
        if coeffs[n] <= 0 or max(map(abs, coeffs)) < p ** (t - 1):
            continue
        poly = IntPoly(coeffs)
        sep = separation_by_resultants(poly, p)
        if sep is not None and sep >= theta * t:
            count_all += 2
            count_irr += 2 * bool(is_irreducible(content_primitive(poly)[1]))
    return count_all, count_irr


def test_criterion_6_separation_census(capsys):
    started = time.time()
    result = sep_census(2, 2, [4, 5, 6, 7], [Fraction(1)], c0_exp=0, workers=WORKERS)
    pts = [(r.p**r.t, r.count_irr) for r in result.rows]
    nonzero = all(c > 0 for _, c in pts)
    fit = fit_exponent(pts)
    elapsed = time.time() - started
    quartic = sep_census(4, 2, [1], [Fraction(1)]).rows[0]
    recount = _sep_row_by_resultants(4, 2, 1, Fraction(1))
    report(capsys, 6, nonzero and fit.slope >= 0.5 and recount == (quartic.count_all,
                                                                  quartic.count_irr),
           f"counts {pts} all nonzero; fitted exponent {fit.slope:.3f} >= 0.5 "
           f"(target n+1-2theta = 1); {elapsed:.1f}s; n=4 Q=2 theta=1 row: "
           f"count_all {quartic.count_all}, count_irr {quartic.count_irr}, "
           f"resultant-oracle recount {recount}")


def test_criterion_7_separation_ceiling(capsys):
    checked = 0
    for p in (2, 3):
        for a2 in [a for a in range(-50, 51) if a]:
            for a1 in range(-50, 51):
                for a0 in range(-50, 51):
                    d = a1 * a1 - 4 * a2 * a0
                    if d == 0:
                        continue
                    v = 0
                    dd = d
                    while dd % p == 0:
                        dd //= p
                        v += 1
                    va = 0
                    aa = a2
                    while aa % p == 0:
                        aa //= p
                        va += 1
                    two_sep = v - 2 * va  # 2 * separation valuation
                    h = max(abs(a0), abs(a1), abs(a2))
                    assert two_sep <= v
                    assert p**v <= hadamard_bound(2, h)
                    checked += 1
    report(capsys, 7, True,
           f"{checked} records (n=2, H<=50, p in {{2,3}}): 2 sep <= v_p(D) <= log_p B, zero violations")


def test_criterion_8_nondivergence_decay(capsys):
    params = XiParams(3, 2, (4, 2, 0))
    estimates = []
    for e in (1, 2, 3, 4):
        me = measure_estimate(params, e, samples=10_000, seed=20260809)
        estimates.append((e, me.estimate))
    mono = all(a[1] >= b[1] for a, b in zip(estimates, estimates[1:]))
    strict = all(a[1] > b[1] for a, b in zip(estimates, estimates[1:]) if a[1] > 0)
    pos = [(3.0**-e, float(x)) for e, x in estimates if x > 0]
    xs = [math.log(v) for v, _ in pos]
    ys = [math.log(v) for _, v in pos]
    xb, yb = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - xb) * (y - yb) for x, y in zip(xs, ys)) / sum((x - xb) ** 2 for x in xs)
    alpha_theory = 1 / ((2 + 1) ** 2 // 4)  # 1 / floor(((n+1)/2)^2) = 1/2 for n = 2
    report(capsys, 8, mono and strict and slope >= 0.15,
           f"estimates {[(e, str(x)) for e, x in estimates]} non-increasing; "
           f"log-log slope {slope:.3f} >= 0.15 (theory floor alpha = {alpha_theory:.2f})")


def test_criterion_9_almost_prime_power_statistic(capsys):
    bound = hadamard_bound(2, 80)
    witnesses = []
    table = {}
    for t in (2, 3):
        params = preset_theorem3(2, 3, t, Fraction(1))
        for x in range(3 ** max(params.b)):
            try:
                out = generate(x, params)
            except DegenerateSample:
                continue
            for poly in out.polys:
                if poly.height > 80:
                    continue
                d = discriminant_coeffs(poly.coeffs)
                if d == 0:
                    continue
                v = valuation(d, 3)
                cof = abs(d) // 3**v
                entry = table.setdefault(v, [0, None])
                entry[0] += 1
                entry[1] = cof if entry[1] is None else min(entry[1], cof)
                if abs(d) * 10 >= bound and cof <= 100:
                    witnesses.append((t, x, poly.coeffs, d, v, cof))
    lines = [f"v3(D)={k}: outputs {v[0]}, min cofactor {v[1]}" for k, v in sorted(table.items())]
    with capsys.disabled():
        print("\n[criterion 9] generator almost-prime-power table (H <= 80):")
        for line in lines:
            print("   ", line)
        if witnesses:
            t, x, coeffs, d, v, cof = witnesses[0]
            print(f"    witness: t={t} x={x} coeffs={coeffs} D={d} = 3^{v} * {d//3**v}")
    from padicsep.intpoly import is_irreducible

    ok = len(witnesses) >= 1
    for t, x, coeffs, d, v, cof in witnesses[:5]:
        assert bool(is_irreducible(IntPoly(coeffs)))
    report(capsys, 9, ok,
           f"{len(witnesses)} irreducible outputs with |D| in the top Hadamard decade "
           f"(|D| >= {bound}/10) and cofactor <= 100")


def test_criterion_10_worker_determinism(capsys, tmp_path):
    pairs = []
    for workers in ("1", "8"):
        out = tmp_path / f"disc{workers}"
        assert cli_main(["disc-census", "--n", "2", "--p", "3", "--q-grid", "10,20",
                         "--nu", "1/4,1/2", "--workers", workers,
                         "--out-dir", str(out)]) == 0
        pairs.append(out)
    same_disc = all(
        (pairs[0] / f).read_bytes() == (pairs[1] / f).read_bytes()
        for f in ("disc_census.csv", "disc_census_stats.csv")
    )
    pairs = []
    for workers in ("1", "8"):
        out = tmp_path / f"sep{workers}"
        assert cli_main(["sep-census", "--n", "2", "--p", "2", "--q-grid", "16,32",
                         "--theta", "1", "--workers", workers,
                         "--out-dir", str(out)]) == 0
        pairs.append(out)
    same_sep = (pairs[0] / "sep_census.csv").read_bytes() == (pairs[1] / "sep_census.csv").read_bytes()
    gens = []
    for tag in ("a", "b"):
        out = tmp_path / f"gen{tag}"
        assert cli_main(["generate", "--preset", "theorem2", "--n", "2", "--p", "3",
                         "--t", "2", "--theta", "1", "--samples", "10", "--seed", "5",
                         "--out-dir", str(out)]) == 0
        gens.append(out)
    same_gen = (gens[0] / "generated_polys.csv").read_bytes() == (gens[1] / "generated_polys.csv").read_bytes()
    report(capsys, 10, same_disc and same_sep and same_gen,
           "disc-census, sep-census and generator artifacts byte-identical across 1/8 workers and reruns")
