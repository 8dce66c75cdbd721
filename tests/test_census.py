import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy

from padicsep.census import (
    _records,
    _sep_shard,
    _shards,
    disc_census,
    disc_threshold,
    fit_exponent,
    iter_coeffs,
    measure_estimate,
    poly_count,
    record_stream,
    sep_census,
)
from padicsep.intpoly import (
    IntPoly,
    content_primitive,
    discriminant,
    discriminant_coeffs,
    is_irreducible,
)
from padicsep.lattice import XiParams
from padicsep.padic import valuation
from padicsep.roots import min_conjugate_separation

X = sympy.Symbol("x")


def _sympy_irreducible(coeffs) -> bool:
    _, factors = sympy.factor_list(sympy.Poly(list(reversed(coeffs)), X))
    return len(factors) == 1 and factors[0][1] == 1 and factors[0][0].degree() == len(coeffs) - 1


def test_poly_count_examples():
    assert poly_count(2, 1) == 18
    assert poly_count(2, 2) == (2 * 2) * (2 * 2 + 1) ** 2 == 100
    assert sum(1 for _ in iter_coeffs(2, 1)) == 9
    assert sum(1 for _ in iter_coeffs(3, 2)) == poly_count(3, 2) // 2


def test_iter_coeffs_deterministic_and_sharded():
    all_at_once = list(iter_coeffs(2, 3))
    sharded = list(iter_coeffs(2, 3, 1, 2)) + list(iter_coeffs(2, 3, 3, 3))
    assert all_at_once == sharded
    assert len(set(all_at_once)) == len(all_at_once)
    assert all(c[-1] >= 1 for c in all_at_once)
    cubics = list(iter_coeffs(3, 2))
    assert cubics == sorted(cubics, key=lambda c: c[::-1])  # a_n, then a_(n-1), ..., a_0


def test_record_invariants():
    for rec in record_stream(2, 3, 5, want_sep=True):
        assert rec.disc == discriminant(IntPoly(rec.coeffs))
        assert rec.height == max(abs(c) for c in rec.coeffs)
        if rec.disc != 0:
            assert rec.vp_disc == valuation(rec.disc, 5)
            # exact prime power split
            cof = abs(rec.disc) // 5**rec.vp_disc
            assert cof * 5**rec.vp_disc == abs(rec.disc) and cof % 5 != 0
            # n = 2 cross-check: 2 sep + (2n-2) v(a_n) = v(D)
            assert 2 * rec.sep_val + 2 * valuation(rec.coeffs[2], 5) == rec.vp_disc
        else:
            assert rec.vp_disc is None and rec.sep_val is None


def test_disc_threshold_exactness():
    assert disc_threshold(3, 20, Fraction(1, 2), 0) == 3  # ceil(log_3 20) = 3
    assert disc_threshold(3, 20, Fraction(1, 2), 1) == 2
    assert disc_threshold(3, 9, Fraction(1, 2), 0) == 2  # exact power boundary
    assert disc_threshold(3, 9, Fraction(0), 0) == 0
    assert disc_threshold(2, 16, Fraction(1), 0) == 8
    # the membership v(D) >= k must match |D|_p <= C Q^(-2nu) exactly
    for q in (7, 8, 9, 10):
        k = disc_threshold(3, q, Fraction(3, 4), 1)
        assert 3**(k + 1) >= q ** Fraction(3, 2).__round__() or True
        assert Fraction(3) ** (k + 1) >= Fraction(q) ** 2 * Fraction(1) ** 0 or True
        # direct definition check via rational powers: 3^(2(k+1)) >= q^3
        assert 3 ** (4 * (k + 1)) >= q**6
        assert k == 0 or 3 ** (4 * k) < q**6


def test_disc_census_against_direct_recount():
    res = disc_census(2, 3, [10], [Fraction(1, 2)], c_exps=(0, 1))
    thr0 = disc_threshold(3, 10, Fraction(1, 2), 0)
    thr1 = disc_threshold(3, 10, Fraction(1, 2), 1)
    counts = {thr0: [0, 0], thr1: [0, 0]}
    for a2 in range(1, 11):
        for a1 in range(-10, 11):
            for a0 in range(-10, 11):
                d = a1 * a1 - 4 * a2 * a0
                if d == 0:
                    continue
                v = 0
                dd = d
                while dd % 3 == 0:
                    dd //= 3
                    v += 1
                r = math.isqrt(d) if d >= 0 else -1
                irr = not (d >= 0 and r * r == d)
                for thr in (thr0, thr1):
                    if v >= thr:
                        counts[thr][0] += 1
                        if irr:
                            counts[thr][1] += 1
    by_c = {row.c_exp: row for row in res.rows}
    assert by_c[0].count_all == 2 * counts[thr0][0]
    assert by_c[0].count_irr == 2 * counts[thr0][1]
    assert by_c[1].count_all == 2 * counts[thr1][0]
    assert by_c[1].count_irr == 2 * counts[thr1][1]
    assert res.records_seen == poly_count(2, 10)


def test_disc_census_monotonicity():
    res = disc_census(2, 3, [8, 16, 24], [Fraction(1, 4), Fraction(1, 2)], c_exps=(0,))
    for nu in (Fraction(1, 4), Fraction(1, 2)):
        seq = [r for r in res.rows if r.nu == nu]
        seq.sort(key=lambda r: r.height_bound)
        for a, b in zip(seq, seq[1:]):
            assert b.count_all >= a.count_all
            assert b.count_irr >= a.count_irr
    for row in res.rows:
        assert row.count_irr <= row.count_all


def test_disc_census_worker_determinism():
    serial = disc_census(2, 5, [12], [Fraction(1, 2)], c_exps=(0, 1), workers=1)
    parallel = disc_census(2, 5, [12], [Fraction(1, 2)], c_exps=(0, 1), workers=4)
    assert serial.rows == parallel.rows
    assert serial.stats == parallel.stats


def test_disc_census_prime_power_stats():
    res = disc_census(2, 3, [6], [Fraction(0)], c_exps=(0,))
    total = sum(s.count_all for s in res.stats)
    assert total == res.rows[0].count_all  # nu = 0 row counts all D != 0
    for s in res.stats:
        assert s.min_cofactor is None or s.min_cofactor % 3 != 0


def test_disc_census_max_records_cap():
    res = disc_census(2, 3, [6, 400], [Fraction(1, 2)], c_exps=(0,), max_records=10_000)
    assert not res.complete
    assert {r.height_bound for r in res.rows} == {6}


def test_sep_census_max_records_cap():
    # Q = 2^8 alone would exceed the cap, so that level is refused before it starts
    res = sep_census(2, 2, [3, 8], [Fraction(1)], max_records=10_000)
    assert not res.complete
    assert {r.t for r in res.rows} == {3}
    assert res.records_seen == poly_count(2, 8)


def test_max_records_counts_both_signs():
    # the cap is compared with the count records_seen reports, both signs included
    nu, theta = [Fraction(1, 2)], [Fraction(1)]
    for cap, complete in ((poly_count(2, 6) - 1, False), (poly_count(2, 6), True)):
        res = disc_census(2, 3, [6], nu, c_exps=(0,), max_records=cap)
        assert res.complete is complete and res.records_seen <= cap, cap
        assert res.records_seen == (poly_count(2, 6) if complete else 0)
    res = sep_census(2, 2, [3], theta, max_records=poly_count(2, 8) // 2)
    assert not res.complete and res.records_seen == 0 and not res.rows
    res = sep_census(2, 2, [1, 3], theta, max_records=poly_count(2, 8))
    assert not res.complete and res.records_seen == poly_count(2, 2)
    assert {r.t for r in res.rows} == {1}


def test_sep_census_small():
    res = sep_census(2, 2, [3, 4], [Fraction(1)], c0_exp=0)
    assert len(res.rows) == 2
    for row in res.rows:
        assert row.count_irr <= row.count_all
        assert row.count_irr % 2 == 0
    assert res.rows[1].t == 4

    # direct recount at t = 3 (Q = 8, shell H in [4, 8])
    cnt = 0
    for a2 in range(1, 9):
        for a1 in range(-8, 9):
            for a0 in range(-8, 9):
                if max(abs(a0), abs(a1), abs(a2)) < 4:
                    continue
                d = a1 * a1 - 4 * a2 * a0
                if d == 0:
                    continue
                r = math.isqrt(d) if d >= 0 else -1
                if d >= 0 and r * r == d:
                    continue
                v = 0
                dd = d
                while dd % 2 == 0:
                    dd //= 2
                    v += 1
                va = 0
                aa = a2
                while aa % 2 == 0:
                    aa //= 2
                    va += 1
                if Fraction(v - 2 * va, 2) >= 3:
                    cnt += 1
    assert res.rows[0].count_irr == 2 * cnt


def test_sep_census_theta_zero_with_slack_counts_everything():
    # with a large C0 slack every irreducible distinct-root record qualifies
    res = sep_census(2, 3, [2], [Fraction(0)], c0_exp=6)
    row = res.rows[0]
    cnt = 0
    for coeffs in iter_coeffs(2, 9):
        if max(abs(c) for c in coeffs) < 3:
            continue
        d = coeffs[1] ** 2 - 4 * coeffs[2] * coeffs[0]
        if d == 0:
            continue
        r = math.isqrt(d) if d >= 0 else -1
        if not (d >= 0 and r * r == d):
            cnt += 1
    assert row.count_irr == 2 * cnt


def test_sep_census_worker_determinism():
    serial = sep_census(2, 2, [4], [Fraction(1)], workers=1)
    parallel = sep_census(2, 2, [4], [Fraction(1)], workers=4)
    assert serial.rows == parallel.rows


def test_sep_census_cubic_path():
    res = sep_census(3, 2, [2], [Fraction(1, 2)])
    row = res.rows[0]
    assert row.count_all >= row.count_irr >= 0
    assert row.flagged == 0


def test_disc_census_cubic_against_sympy():
    # every cubic of height <= 3, both signs of a_3; D and irreducibility from sympy
    nus, c_exps = [Fraction(0), Fraction(1, 2), Fraction(1)], (0, 1, 2)
    res = disc_census(3, 3, [3], nus, c_exps, workers=2)
    by_v: dict[int, list] = {}
    total = 0
    for coeffs in itertools.product(range(-3, 4), repeat=4):
        if coeffs[3] == 0:
            continue
        total += 1
        d = int(sympy.discriminant(sympy.Poly(list(reversed(coeffs)), X)))
        if d == 0:
            continue
        v = sympy.multiplicity(3, d)
        irr = _sympy_irreducible(coeffs)
        entry = by_v.setdefault(v, [0, 0, abs(d) // 3**v, abs(d)])
        entry[0] += 1
        entry[1] += irr
        entry[2] = min(entry[2], abs(d) // 3**v)
        entry[3] = max(entry[3], abs(d))
    assert res.complete and res.records_seen == total == poly_count(3, 3)
    assert len(res.rows) == len(nus) * len(c_exps)
    for row in res.rows:
        assert row.threshold == disc_threshold(3, 3, row.nu, row.c_exp)
        assert row.count_all == sum(e[0] for v, e in by_v.items() if v >= row.threshold)
        assert row.count_irr == sum(e[1] for v, e in by_v.items() if v >= row.threshold)
        assert row.flagged == 0
    assert [(s.k, s.count_all, s.count_irr, s.min_cofactor, s.max_abs_disc)
            for s in res.stats] == [(v, *by_v[v]) for v in sorted(by_v)]


def test_sep_census_cubic_against_recount():
    # every cubic in the shell H in [Q/2, Q], both signs of a_3, counted directly
    thetas = [Fraction(0), Fraction(1, 2), Fraction(1)]
    res = sep_census(3, 2, [1, 2], thetas, workers=2)
    assert res.complete and res.records_seen == poly_count(3, 2) + poly_count(3, 4)
    for t in (1, 2):
        q = 2**t
        seps = []  # (separation valuation, height, irreducible)
        for coeffs in itertools.product(range(-q, q + 1), repeat=4):
            h = max(abs(c) for c in coeffs)
            if coeffs[3] == 0 or h < q // 2:
                continue
            if sympy.discriminant(sympy.Poly(list(reversed(coeffs)), X)) == 0:
                continue
            sep = Fraction(min_conjugate_separation(IntPoly(coeffs), 2).val)
            seps.append((sep, h, _sympy_irreducible(coeffs)))
        best = max(float(sep) / math.log(h, 2) for sep, h, irr in seps if irr and h > 1)
        rows = [r for r in res.rows if r.t == t]
        assert [r.theta for r in rows] == thetas
        for row in rows:
            assert row.count_all == sum(1 for sep, _, _ in seps if sep >= row.theta * t)
            assert row.count_irr == sum(1 for sep, _, irr in seps if irr and sep >= row.theta * t)
            assert row.flagged == 0
            assert math.isclose(row.max_exponent, best, rel_tol=1e-12)


def test_fit_exponent_examples():
    assert abs(fit_exponent([(10, 100), (100, 10000)]).slope - 2) < 1e-12
    assert abs(fit_exponent([(10, 7), (40, 7), (160, 7)]).slope) < 1e-12
    rng = random.Random(10)
    pts = []
    for q in (10, 20, 40, 80, 160):
        noise = 1 + rng.uniform(-0.05, 0.05)
        pts.append((q, round(3 * q ** (5 / 3) * noise)))
    fit = fit_exponent(pts)
    assert abs(fit.slope - 5 / 3) < 0.1
    fit = fit_exponent([(10, 0), (20, 5), (40, 11), (80, 23)])
    assert fit.dropped == [(10, 0)]
    with pytest.raises(ValueError):
        fit_exponent([(10, 0), (20, 0), (30, 1)])


def test_measure_estimate_certain_event():
    params = XiParams(3, 2, (4, 2, 0))
    me = measure_estimate(params, 0, samples=300, seed=9)
    assert me.estimate == 1 and me.hits == 300
    assert me.wilson_low < 1 <= me.wilson_high


def test_measure_estimate_monotone_and_deterministic():
    params = XiParams(3, 2, (4, 2, 0))
    ests = []
    for e in (0, 1, 2, 3):
        me = measure_estimate(params, e, samples=800, seed=123)
        ests.append(me.estimate)
    assert all(a >= b for a, b in zip(ests, ests[1:]))
    again = measure_estimate(params, 1, samples=800, seed=123)
    assert again.estimate == ests[1]
    par = measure_estimate(params, 1, samples=800, seed=123, workers=4)
    assert par.estimate == ests[1]
    other_seed = measure_estimate(params, 1, samples=800, seed=124)
    assert other_seed.seed == 124


def test_measure_estimate_matches_exhaustive_truth():
    # the sampled estimate's Wilson interval covers the exact measure, which
    # is computable here by enumerating every center residue
    from padicsep.census import _box_has_point

    params = XiParams(3, 1, (2, 1, 0))
    modulus = 3 ** (max(params.b) + 4)
    radius = 3 ** (params.t - 1)
    hits = sum(
        1 for x in range(modulus) if _box_has_point(3, params.b, x, radius)
    )
    exact = Fraction(hits, modulus)
    me = measure_estimate(params, 1, samples=3000, seed=77)
    assert me.wilson_low <= float(exact) <= me.wilson_high
    assert abs(float(me.estimate) - float(exact)) < 0.05


def test_measure_estimate_pinch_mode():
    params = XiParams(3, 2, (4, 2, 0))
    m1 = measure_estimate(params, 1, mode="pinch", samples=200, seed=4, i_pinch=0, c2=9)
    m2 = measure_estimate(params, 2, mode="pinch", samples=200, seed=4, i_pinch=0, c2=9)
    assert 0 <= m2.estimate <= m1.estimate <= 1
    with pytest.raises(ValueError):
        measure_estimate(params, 1, mode="pinch", samples=10, seed=0)
    with pytest.raises(ValueError):
        measure_estimate(params, 1, mode="bogus", samples=10, seed=0)


@pytest.mark.parametrize("call", [
    lambda: disc_census(-1, 3, [2], [Fraction(1, 2)]),
    lambda: disc_census(1, 3, [2], [Fraction(1, 2)]),
    lambda: disc_census(2, 3, [0], [Fraction(1, 2)]),
    lambda: disc_census(2, 3, [4, -2], [Fraction(1, 2)]),
    lambda: disc_census(2, 4, [2], [Fraction(1, 2)]),
    lambda: sep_census(2, 2, [-1], [Fraction(1)]),
    lambda: sep_census(2, 2, [1.5], [Fraction(1)]),
    lambda: sep_census(1, 2, [2], [Fraction(1)]),
    lambda: sep_census(2, 2, [2], [Fraction(1), Fraction(-1)]),
    lambda: record_stream(2, 0, 3),
    lambda: record_stream(1, 2, 3),
], ids=["disc-n-negative", "disc-n-1", "disc-Q-0", "disc-Q-negative", "disc-p-composite",
        "sep-t-negative", "sep-t-float", "sep-n-1", "sep-theta-negative", "stream-Q-0",
        "stream-n-1"])
def test_census_inputs_rejected_at_entry(call, monkeypatch):
    def no_shards(*args):
        raise AssertionError("a shard ran before the inputs were checked")

    monkeypatch.setattr("padicsep.census._run_shards", no_shards)
    monkeypatch.setattr("padicsep.census._records", no_shards)
    with pytest.raises(ValueError):
        call()


def test_sep_census_accepts_t_zero():
    # Q = p^0 = 1 is a legal grid point: the shell is H in [0, 1]
    assert sep_census(2, 2, [0], [Fraction(1)]).complete


class _SerialPool:
    """A stand-in for ProcessPoolExecutor that records its size and runs in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, args):
        return map(fn, args)


def test_worker_pool_never_exceeds_shard_count(monkeypatch):
    monkeypatch.setattr("padicsep.census.ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    res = disc_census(2, 3, [20], [Fraction(1, 2)], c_exps=(0,), workers=10**6)
    assert _SerialPool.sizes == [3]  # a_n in 1..20 makes three shards of eight
    assert res.rows == disc_census(2, 3, [20], [Fraction(1, 2)], c_exps=(0,)).rows


def test_census_results_record_the_processes_started(monkeypatch):
    monkeypatch.setattr("padicsep.census.ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    nu, theta = [Fraction(1, 2)], [Fraction(1)]
    # Q = 8 is one shard (no pool), Q = 16 two shards, Q = 20 three
    assert disc_census(2, 3, [8], nu, workers=8).workers_used == 0
    assert disc_census(2, 3, [8, 20, 16], nu, workers=8).workers_used == 3
    assert disc_census(2, 3, [20], nu, workers=2).workers_used == 2
    assert disc_census(2, 3, [20], nu, workers=1).workers_used == 0
    assert sep_census(2, 2, [3, 4], theta, workers=8).workers_used == 2
    assert sep_census(2, 2, [4], theta, workers=1).workers_used == 0
    # a level skipped by max_records starts nothing
    assert disc_census(2, 3, [8, 20], nu, workers=8, max_records=10**4).workers_used == 0
    assert sep_census(2, 2, [3, 8], theta, workers=8, max_records=10**4).workers_used == 0


def test_n2_sep_shard_against_per_record_recount():
    # the closed-form shard against min_conjugate_separation on every quadratic
    # with H <= 8: keys, their types and their insertion order
    for p, t_top in ((2, 3), (3, 2)):
        for t in range(t_top + 1):
            q = p**t
            for lo, hi in _shards(q):
                expect: dict = {}
                for a2 in range(lo, hi + 1):
                    for a1 in range(-q, q + 1):
                        for a0 in range(-q, q + 1):
                            poly = IntPoly([a0, a1, a2])
                            h = poly.height
                            if discriminant(poly) == 0 or h < q // p:
                                continue
                            irr = bool(is_irreducible(content_primitive(poly)[1]))
                            key = (h, min_conjugate_separation(poly, p).val, irr)
                            expect[key] = expect.get(key, 0) + 1
                got = _sep_shard((2, p, t, lo, hi))
                assert list(got.items()) == list(expect.items()), (p, t, lo)
                assert [type(k[1]) for k in got] == [type(k[1]) for k in expect], (p, t, lo)


def test_n3_sep_shard_against_per_record_recount():
    # the closed-form shard against min_conjugate_separation record by record
    # on every shard: keys, their types and their insertion order
    zero_u = lead_div = fractional = 0
    for p, t in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)):
        q = p**t
        for lo, hi in _shards(q):
            expect: dict = {}
            for (a0, a1, a2, a3), _, v, irr in _records(3, p, q, lo, hi):
                h = max(abs(a0), abs(a1), abs(a2), a3)
                if v is None or h < q // p:
                    continue
                key = (h, min_conjugate_separation(IntPoly([a0, a1, a2, a3]), p).val, irr)
                expect[key] = expect.get(key, 0) + 1
                zero_u += 3 * a1 * a3 == a2 * a2
                lead_div += a3 % p == 0
                fractional += type(key[1]) is Fraction
            got = _sep_shard((3, p, t, lo, hi))
            assert list(got.items()) == list(expect.items()), (p, t, lo)
            assert [type(k[1]) for k in got] == [type(k[1]) for k in expect], (p, t, lo)
    assert zero_u and lead_div and fractional


def test_sep_shard_closed_forms_skip_the_per_record_route(monkeypatch):
    def refuse(*_):
        raise RuntimeError("per-record separation called")

    monkeypatch.setattr("padicsep.census.min_conjugate_separation", refuse)
    assert _sep_shard((2, 2, 2, 1, 4)) and _sep_shard((3, 2, 1, 1, 2))
    with pytest.raises(RuntimeError, match="per-record"):
        _sep_shard((4, 2, 1, 1, 2))


@pytest.mark.parametrize("p, q", [(2, 4), (3, 5), (5, 3), (2, 9)])
def test_cubic_kernel_against_per_record_oracle(p, q):
    # the rational-root sieve against discriminant_coeffs, valuation and
    # is_irreducible on the primitive part, record by record on every shard
    zero_a0 = zero_disc = 0
    for lo, hi in _shards(q):
        got = list(_records(3, p, q, lo, hi))
        expect = []
        for coeffs in iter_coeffs(3, q, lo, hi):
            disc = discriminant_coeffs(coeffs)
            if disc == 0:
                expect.append((coeffs, 0, None, False))
                continue
            irr = bool(is_irreducible(content_primitive(IntPoly(coeffs))[1]))
            expect.append((coeffs, disc, valuation(disc, p), irr))
        assert got == expect, (p, q, lo)
        assert all(type(r[3]) is bool for r in got)
        zero_a0 += sum(1 for r in got if r[0][0] == 0 and r[1] != 0)
        zero_disc += sum(1 for r in got if r[1] == 0)
    assert zero_a0 and zero_disc
    if q == 9:
        assert _shards(q) == [(1, 8), (9, 9)]
