import collections
import functools
import itertools
import math
import os
import random
import signal
import time
from fractions import Fraction

import pytest
import sympy

from canonical_order_oracle import iter_coeffs
from cubic_sieve_oracle import cubic_sieve_records
import padicsep.census as census
from padicsep.census import (
    _census_inputs,
    _cubic_products,
    _disc_shard,
    _plan,
    _quadratic_disc_blocks,
    _quadratic_sep_blocks,
    _records,
    _run_shards,
    _sep_shard,
    _shard_cost,
    _shards,
    disc_census,
    disc_threshold,
    fit_exponent,
    measure_estimate,
    poly_count,
    sep_census,
)
from padicsep.intpoly import (
    IntPoly,
    content_primitive,
    discriminant,
    discriminant_coeffs,
    is_irreducible,
    rational_roots,
)
from padicsep.lattice import XiParams
from padicsep.padic import valuation
from padicsep.roots import min_conjugate_separation

X = sympy.Symbol("x")


def _flat_records(n, p, q, lo, hi):
    """The blocks of _records as flat records ((a_0,) + head, D, v_p(D), irreducible)."""
    return [((a0,) + head, disc, v, irr)
            for head, rows in _records(n, p, q, lo, hi) for a0, disc, v, irr in rows]


def _mirror(coeffs):
    """mu(P)(x) = (-1)^n P(-x): a_i -> (-1)^(n - i) a_i."""
    n = len(coeffs) - 1
    return tuple(a if (n - i) % 2 == 0 else -a for i, a in enumerate(coeffs))


def _assert_oracle_less_zero_disc(got, oracle, where) -> int:
    """got is the oracle's records with D != 0 and a_(n-1) >= 0, in order: of
    those with a_(n-1) >= 0, the records absent are exactly the oracle's D = 0
    records.  On the oracle's own records, every record with a_(n-1) < 0 equals
    that of its mirror, which has a_(n-1) > 0.  Returns how many D = 0 records
    the oracle lists with a_(n-1) >= 0."""
    half = [r for r in oracle if r[0][-2] >= 0]
    assert got == [r for r in half if r[1] != 0], where
    zero = {r[0] for r in half if r[1] == 0}
    assert {r[0] for r in half} - {r[0] for r in got} == zero, where
    by_coeffs = {r[0]: r[1:] for r in oracle}
    skipped = [r for r in oracle if r[0][-2] < 0]
    assert len(skipped) == sum(1 for r in oracle if r[0][-2] > 0), where
    for r in skipped:
        assert _mirror(r[0])[-2] > 0 and by_coeffs[_mirror(r[0])] == r[1:], (where, r)
    return len(zero)


def _reversal(coeffs):
    """rho(P) = sign(a_0) x^n P(1/x), a_0 != 0: a_i -> sign(a_0) a_(n - i)."""
    sign = 1 if coeffs[0] > 0 else -1
    return tuple(sign * a for a in reversed(coeffs))


def _sympy_irreducible(coeffs) -> bool:
    _, factors = sympy.factor_list(sympy.Poly(list(reversed(coeffs)), X))
    return len(factors) == 1 and factors[0][1] == 1 and factors[0][0].degree() == len(coeffs) - 1


@functools.lru_cache(maxsize=None)
def _sympy_facts(coeffs):
    """(D, (v_2(D), v_3(D)), primitive part irreducible, H), D from sympy."""
    disc = int(sympy.discriminant(sympy.Poly(list(reversed(coeffs)), X)))
    prim = content_primitive(IntPoly(coeffs))[1].coeffs
    return (disc, tuple(valuation(disc, p) if disc else None for p in (2, 3)),
            _sympy_irreducible(prim), max(map(abs, coeffs)))


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
    # the kernel's records and their mirrors are the D != 0 records of the full box
    got = {}
    for coeffs, disc, vpd, _ in _flat_records(3, 5, 3, 1, 3):
        assert disc == discriminant(IntPoly(coeffs)) != 0
        assert vpd == valuation(disc, 5)
        # exact prime power split
        cof = abs(disc) // 5**vpd
        assert cof * 5**vpd == abs(disc) and cof % 5 != 0
        got[coeffs] = got[_mirror(coeffs)] = disc
    full = {c: discriminant(IntPoly(c)) for c in iter_coeffs(3, 3, 1, 3)}
    assert got == {c: disc for c, disc in full.items() if disc}


def test_mirror_keeps_disc_irreducibility_separation_and_height():
    # the census walks only the blocks with a_(n-1) >= 0 and counts the others
    # through mu(P)(x) = (-1)^n P(-x); sympy and the per-record routines check
    # on the full box that P and mu(P) agree on all the censuses read
    cases = {"a_(n-1) = 0": 0, "p | a_n": 0, "reducible": 0, "D = 0": 0}
    for n, q in ((2, 3), (3, 3), (4, 2)):
        seen = {}

        def facts(coeffs):
            if coeffs not in seen:
                base = _sympy_facts(coeffs)
                seen[coeffs] = base + tuple(
                    min_conjugate_separation(IntPoly(coeffs), p).val if base[0] else None
                    for p in (2, 3))
            return seen[coeffs]

        box = list(iter_coeffs(n, q))
        for coeffs in box:
            image = _mirror(coeffs)
            assert _mirror(image) == coeffs and image[-1] == coeffs[-1]
            assert image[-2] == -coeffs[-2]
            assert facts(image) == facts(coeffs), (coeffs, image)
            cases["a_(n-1) = 0"] += coeffs[-2] == 0
            cases["p | a_n"] += coeffs[-1] % 2 == 0 or coeffs[-1] % 3 == 0
            cases["reducible"] += not facts(coeffs)[2]
            cases["D = 0"] += facts(coeffs)[0] == 0
        assert set(seen) == set(box)
    assert all(cases.values()), cases


def test_reversal_keeps_disc_irreducibility_and_height():
    # the disc census walks only |a_0| <= a_n and counts the records with
    # 0 < |a_0| < a_n twice, for their reversals rho(P) = sign(a_0) x^n P(1/x);
    # on the full box, rho is an involution of the a_0 != 0 records that pairs
    # 0 < |a_0| < a_n with |a_0| > a_n and commutes with the mirror, and sympy
    # checks that P and rho(P) agree on D, v_2(D), v_3(D), irreducibility and H
    cases = {"0 < |a_0| < a_n": 0, "|a_0| = a_n": 0, "reducible": 0, "D = 0": 0}
    for n, q in ((3, 3), (4, 2)):
        box = list(iter_coeffs(n, q))
        for coeffs in box:
            if not coeffs[0]:
                continue
            image = _reversal(coeffs)
            assert image[-1] > 0 and max(map(abs, image)) <= q and _reversal(image) == coeffs
            assert _reversal(_mirror(coeffs)) == _mirror(image)
            assert (abs(coeffs[0]) < coeffs[-1]) == (abs(image[0]) > image[-1]), coeffs
            assert _sympy_facts(image) == _sympy_facts(coeffs), (coeffs, image)
            cases["0 < |a_0| < a_n"] += abs(coeffs[0]) < coeffs[-1]
            cases["|a_0| = a_n"] += abs(coeffs[0]) == coeffs[-1]
            cases["reducible"] += not _sympy_facts(coeffs)[2]
            cases["D = 0"] += _sympy_facts(coeffs)[0] == 0
    assert all(cases.values()), cases


def _full_box_discs(n, q, cases):
    """{(D, primitive part irreducible, a_n > 8): records} over the full box
    a_n > 0, D != 0, with no fold: the rational-root sieve at n = 3,
    discriminant_coeffs and is_irreducible record by record at n = 4.  Counts
    the fold's cases up to Q = 9, the least Q with a second shard."""
    if n == 3:
        records = [(c, d, irr) for lo, hi in _shards(q)
                   for c, d, _, irr in cubic_sieve_records(2, q, lo, hi)]
    else:
        records = [(c, d, d != 0 and bool(is_irreducible(content_primitive(IntPoly(c))[1])))
                   for c in iter_coeffs(4, q) for d in [discriminant_coeffs(c)]]
    for coeffs, disc, _ in records if q <= 9 else ():
        a0, an = abs(coeffs[0]), coeffs[-1]
        cases["D = 0"] += not disc
        cases["|a_0| = a_n"] += disc != 0 and a0 == an
        cases["a_0 = 0"] += disc != 0 and a0 == 0
        cases["a_(n-1) = 0"] += disc != 0 and coeffs[-2] == 0
        cases["partner in another shard"] += disc != 0 and (an - 1) // 8 < (a0 - 1) // 8
    return collections.Counter((d, irr, c[-1] > 8) for c, d, irr in records if d)


def test_disc_census_reversal_fold_against_unfolded_recount():
    # the census walks |a_0| <= a_n, a_(n-1) >= 0; a direct count of the whole
    # box must give every row and prime-power stat; for Q > 8 partners cross
    # shards, so a shard's histogram is not its own records' but the levels
    # merged over the shards are
    nus, c_exps = [Fraction(0), Fraction(1, 2), Fraction(1)], (0, 2)
    cases = dict.fromkeys(["|a_0| = a_n", "a_0 = 0", "a_(n-1) = 0", "D = 0",
                           "partner in another shard", "shard histogram not its own"], 0)
    for n, qs, ps in ((3, (8, 9, 16), (2, 3, 5)), (4, (1, 2, 3), (2, 3))):
        for q in qs:
            box = _full_box_discs(n, q, cases)
            own = sum(cnt for (_, _, later), cnt in box.items() if not later)
            for p in ps:
                if q > 8:
                    shard = _disc_shard((n, p, q, *_shards(q)[0]))
                    cases["shard histogram not its own"] += sum(e[0] for e in shard.values()) != own
                hist = {}
                for (disc, irr, _), cnt in box.items():
                    v = valuation(disc, p)
                    entry = hist.setdefault(v, [0, 0, abs(disc), abs(disc)])
                    entry[0] += cnt
                    entry[1] += cnt * irr
                    entry[2] = min(entry[2], abs(disc))
                    entry[3] = max(entry[3], abs(disc))
                res = disc_census(n, p, [q], nus, c_exps)
                for row in res.rows:
                    thr = disc_threshold(p, q, row.nu, row.c_exp)
                    assert (row.threshold, row.count_all, row.count_irr) == (
                        thr, 2 * sum(e[0] for v, e in hist.items() if v >= thr),
                        2 * sum(e[1] for v, e in hist.items() if v >= thr)), (n, q, p, row)
                assert [(s.k, s.count_all, s.count_irr, s.min_cofactor, s.max_abs_disc)
                        for s in res.stats] == [(v, 2 * e[0], 2 * e[1], e[2] // p**v, e[3])
                                                for v, e in sorted(hist.items())], (n, q, p)
    assert all(cases.values()), cases


def test_disc_threshold_exactness():
    assert disc_threshold(3, 20, Fraction(1, 2), 0) == 3  # ceil(log_3 20) = 3
    assert disc_threshold(3, 20, Fraction(1, 2), 1) == 2
    assert disc_threshold(3, 9, Fraction(1, 2), 0) == 2  # exact power boundary
    assert disc_threshold(3, 9, Fraction(0), 0) == 0
    with pytest.raises(ValueError):
        disc_threshold(3, 9, Fraction(-1, 2), 0)
    assert disc_threshold(2, 16, Fraction(1), 0) == 8
    # k is the least integer with p^(k + c) >= Q^(2 nu): with nu = a/d, raise
    # both sides to the power d, p^((k + c) d) >= Q^(2a), and k - 1 fails it
    for p, q, nu, c in itertools.product((2, 3), range(2, 31),
                                         [Fraction(i, 4) for i in range(5)], (0, 1, 2)):
        k = disc_threshold(p, q, nu, c)
        a, d = nu.numerator, nu.denominator
        assert Fraction(p) ** ((k + c) * d) >= q ** (2 * a), (p, q, nu, c, k)
        assert Fraction(p) ** ((k - 1 + c) * d) < q ** (2 * a), (p, q, nu, c, k)


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
            assert math.isclose(row.max_exponent, best, rel_tol=1e-12)


@pytest.mark.parametrize("p, t_max", [(2, 4), (3, 2)])
def test_sep_census_quadratic_against_recount(p, t_max):
    # every quadratic in the shell H in [Q/p, Q], both signs of a_2, counted directly
    thetas = [Fraction(0), Fraction(1, 2), Fraction(1)]
    res = sep_census(2, p, list(range(t_max + 1)), thetas, workers=2)
    assert res.complete
    for t in range(t_max + 1):
        q = p**t
        seps = []  # (separation valuation, height, irreducible)
        for coeffs in itertools.product(range(-q, q + 1), repeat=3):
            poly = IntPoly(coeffs)
            if coeffs[2] == 0 or poly.height < q // p or discriminant(poly) == 0:
                continue
            irr = bool(is_irreducible(content_primitive(poly)[1]))
            seps.append((Fraction(min_conjugate_separation(poly, p).val), poly.height, irr))
        exps = [float(sep) / math.log(h, p) for sep, h, irr in seps if irr and h > 1]
        rows = [r for r in res.rows if r.t == t]
        assert [r.theta for r in rows] == thetas
        for row in rows:
            assert row.count_all == sum(1 for sep, _, _ in seps if sep >= row.theta * t)
            assert row.count_irr == sum(1 for sep, _, irr in seps if irr and sep >= row.theta * t)
            if exps:
                assert math.isclose(row.max_exponent, max(exps), rel_tol=1e-12)
            else:
                assert t == 0 and row.max_exponent is None


def test_max_exponent_breaks_exact_ties_to_the_smallest_sep(monkeypatch):
    # 1 / log_2 3 = 3 / log_2 27 exactly, but the two floats differ in the last bit
    assert 1 / math.log(3, 2) != 3 / math.log(27, 2)
    half = Fraction(1, 2)
    shard = ({(3, True): 1, (1, True): 1, (half, True): 1}, {3: 27, 1: 3, half: 3})
    monkeypatch.setattr("padicsep.census._sep_shard", lambda args: shard)
    row, = sep_census(2, 2, [1], [Fraction(1)]).rows
    assert row.max_exponent == 1 / math.log(3, 2)
    assert (row.count_all, row.count_irr) == (4, 4)


def test_fit_exponent_examples():
    assert abs(fit_exponent([(10, 100), (100, 10000)]).slope - 2) < 1e-12
    assert abs(fit_exponent([(10, 7), (40, 7), (160, 7)]).slope) < 1e-12
    # exact points c Q^k: slope k, intercept log c, every nonzero point used
    fit = fit_exponent([(4, 0), (8, 3 * 8**2), (16, 3 * 16**2), (64, 3 * 64**2)])
    assert abs(fit.slope - 2) < 1e-12 and abs(fit.intercept - math.log(3)) < 1e-12
    assert fit.used == 3 and fit.dropped == [(4, 0)] and fit.residual_rms < 1e-12
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
    other_seed = measure_estimate(params, 1, samples=800, seed=124)
    assert other_seed.seed == 124


def test_measure_estimate_matches_exhaustive_truth():
    # the sampled estimate's Wilson interval covers the exact measure, which
    # is computable here by enumerating every center residue
    from padicsep.lattice import _box_has_point

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


@pytest.mark.parametrize("params, exact", [
    (XiParams(3, 2, (4, 2, 0)), (1, Fraction(1, 3), Fraction(1, 9), 0, 0)),
    (XiParams(2, 2, (4, 0)), (1, Fraction(1, 2), Fraction(3, 16))),
], ids=["b=4,2,0", "b=4,0"])
def test_measure_estimate_decides_each_residue_class_once(params, exact):
    # the event depends on x mod p^max(b) alone: over those classes the exact
    # measures at epsilon = p^-e, e = 0, 1, ..., are `exact`, every seeded
    # sample decides as its class does, and the hits are the classes'
    # decisions summed over the sample stream.  At b = (4, 0) the event is
    # a_0 + a_1 x = 0 mod 16 for some nonzero (a_0, a_1) of sup-norm <= p^(t-e);
    # at e = 1 the classes 2 and 10 mod 16 differ, so no coarser class would do.
    from padicsep.census import _SAMPLE_BLOCK
    from padicsep.lattice import _box_has_point

    p, classes_mod = params.p, params.p ** max(params.b)
    samples, seed = 1100, 11
    xs = []  # the sample stream, x mod p^(max b + 4): one seeded generator per block
    for idx, done in enumerate(range(0, samples, _SAMPLE_BLOCK)):
        rng = random.Random(f"{seed}:{idx}")
        xs += [rng.randrange(classes_mod * p**4)
               for _ in range(min(_SAMPLE_BLOCK, samples - done))]
    for e, measure in enumerate(exact):
        radius = p ** (params.t - e) if e <= params.t else 0
        classes = [_box_has_point(p, params.b, r, radius) for r in range(classes_mod)]
        assert Fraction(sum(classes), classes_mod) == measure
        assert all(_box_has_point(p, params.b, x, radius) == classes[x % classes_mod] for x in xs)
        me = measure_estimate(params, e, samples=samples, seed=seed)
        assert me.hits == sum(classes[x % classes_mod] for x in xs)
    if params.b == (4, 0):
        assert _box_has_point(p, params.b, 2, p) != _box_has_point(p, params.b, 10, p)


def test_measure_estimate_pinch_mode():
    params = XiParams(3, 2, (4, 2, 0))
    m1 = measure_estimate(params, 1, mode="pinch", samples=200, seed=4, i_pinch=0, c2=9)
    m2 = measure_estimate(params, 2, mode="pinch", samples=200, seed=4, i_pinch=0, c2=9)
    assert 0 <= m2.estimate <= m1.estimate <= 1
    with pytest.raises(ValueError):
        measure_estimate(params, 1, mode="pinch", samples=10, seed=0)
    for i_pinch in (-1, params.n + 1):  # b_(-1) would silently pinch b_n
        with pytest.raises(ValueError):
            measure_estimate(params, 1, mode="pinch", samples=10, seed=0, i_pinch=i_pinch, c2=9)
    with pytest.raises(ValueError):
        measure_estimate(params, 1, mode="bogus", samples=10, seed=0)


@pytest.mark.parametrize("mode, threshold_exp", [("pinch", -2), ("short-vector", Fraction(1, 2)),
                                                 ("short-vector", -1), ("pinch", 1.0)],
                         ids=["pinch-negative", "short-vector-half", "short-vector-negative",
                              "pinch-float"])
def test_measure_estimate_rejects_threshold_exp(mode, threshold_exp):
    # epsilon, delta = p^-threshold_exp <= 1 with an integer exponent
    params = XiParams(3, 2, (4, 2, 0))
    with pytest.raises(ValueError, match="threshold_exp"):
        measure_estimate(params, threshold_exp, mode=mode, samples=10, seed=0, i_pinch=0, c2=9)


@pytest.mark.parametrize("samples", [2.5, 0, -3, Fraction(4)], ids=["float", "zero", "negative",
                                                                     "fraction"])
def test_measure_estimate_rejects_samples(samples, monkeypatch):
    def no_blocks(*args):
        raise AssertionError("a block ran before samples was checked")

    monkeypatch.setattr("padicsep.lattice._box_has_point", no_blocks)
    with pytest.raises(ValueError, match="samples"):
        measure_estimate(XiParams(3, 2, (4, 2, 0)), 1, samples=samples, seed=0)


@pytest.mark.parametrize("call", [
    lambda: disc_census(-1, 3, [2], [Fraction(1, 2)]),
    lambda: disc_census(1, 3, [2], [Fraction(1, 2)]),
    lambda: disc_census(2, 3, [0], [Fraction(1, 2)]),
    lambda: disc_census(2, 3, [4, -2], [Fraction(1, 2)]),
    lambda: disc_census(2, 4, [2], [Fraction(1, 2)]),
    lambda: disc_census(2, 3, [2], [Fraction(1, 2), Fraction(-1, 2)]),
    lambda: sep_census(2, 2, [-1], [Fraction(1)]),
    lambda: sep_census(2, 2, [1.5], [Fraction(1)]),
    lambda: sep_census(1, 2, [2], [Fraction(1)]),
    lambda: sep_census(2, 2, [2], [Fraction(1), Fraction(-1)]),
    lambda: disc_census(2, 3, [4], [1], c_exps=(Fraction(1, 2),)),
    lambda: disc_census(2, 3, [4], [1], c_exps=(0, 1.0)),
    lambda: sep_census(2, 2, [2], [Fraction(1)], c0_exp=0.5),
    lambda: _census_inputs(2, 3, [0], 1, [], [], 1, None),
    lambda: _census_inputs(1, 3, [2], 1, [], [], 1, None),
    lambda: disc_census(2, 3, [20], [Fraction(1, 2)], max_records=-1),
    lambda: sep_census(2, 2, [2], [Fraction(1)], max_records=1.5),
    lambda: disc_census(2, 3, [20], [Fraction(1, 2)], workers=2.5),
    lambda: disc_census(2, 3, [20], [Fraction(1, 2)], workers="2"),
    lambda: sep_census(2, 2, [4], [Fraction(1)], workers=0),
    lambda: disc_census(2, 3, [4, 4], [Fraction(1, 2)]),
    lambda: disc_census(2, 3, [4], [Fraction(1, 2), Fraction(2, 4)]),
    lambda: disc_census(2, 3, [4], [1], c_exps=(0, 0)),
    lambda: sep_census(2, 2, [2, 2], [Fraction(1)]),
    lambda: sep_census(2, 2, [2], [1, Fraction(1)]),
], ids=["disc-n-negative", "disc-n-1", "disc-Q-0", "disc-Q-negative", "disc-p-composite",
        "disc-nu-negative", "sep-t-negative", "sep-t-float", "sep-n-1", "sep-theta-negative",
        "disc-c-exp-half", "disc-c-exp-float", "sep-c0-exp-float", "inputs-Q-0", "inputs-n-1",
        "disc-max-records-negative", "sep-max-records-float", "disc-workers-float",
        "disc-workers-str", "sep-workers-0", "disc-Q-repeated", "disc-nu-repeated",
        "disc-c-exp-repeated", "sep-t-repeated", "sep-theta-repeated"])
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


@pytest.fixture
def forks(monkeypatch):
    """The children forked in this test, by pid: os.fork still forks, and is counted."""
    pids: list[int] = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def test_worker_pool_never_exceeds_shard_count(forks):
    res = disc_census(2, 3, [20], [Fraction(1, 2)], c_exps=(0,), workers=10**6)
    assert len(forks) == 3  # a_n in 1..20 makes three shards of eight
    assert res.rows == disc_census(2, 3, [20], [Fraction(1, 2)], c_exps=(0,)).rows


def test_census_results_record_the_processes_started(forks):
    nu, theta = [Fraction(1, 2)], [Fraction(1)]
    # Q = 8 is one shard (no fork), Q = 16 two shards, Q = 20 three; one round of forks runs them all
    calls = [
        (lambda: disc_census(2, 3, [8], nu, workers=8), 0),
        (lambda: disc_census(2, 3, [8, 20, 16], nu, workers=8), 6),
        (lambda: disc_census(2, 3, [20], nu, workers=2), 2),
        (lambda: disc_census(2, 3, [20], nu, workers=1), 0),
        (lambda: sep_census(2, 2, [3, 4], theta, workers=8), 3),
        (lambda: sep_census(2, 2, [4], theta, workers=1), 0),
        # a level skipped by max_records starts nothing
        (lambda: disc_census(2, 3, [8, 20], nu, workers=8, max_records=10**4), 0),
        (lambda: sep_census(2, 2, [3, 8], theta, workers=8, max_records=10**4), 0),
    ]
    for call, started in calls:
        before = len(forks)
        assert call().workers_used == started
        assert len(forks) - before == started


def test_one_pool_per_census_call(forks):
    nu, theta = [Fraction(1, 2)], [Fraction(1)]
    # 1 + 3 + 2 shards over three levels share one round of six forks
    disc_census(2, 3, [8, 20, 16], nu, workers=8)
    assert len(forks) == 6
    # every level a single shard: two levels, yet no fork
    disc_census(3, 3, [4, 8], nu, workers=2)
    sep_census(3, 2, [1, 2], theta, workers=2)
    assert len(forks) == 6


def test_pool_workers_start_with_the_callers_signal_mask():
    # _run_shards holds SIGTERM and SIGINT only while it forks: its children and,
    # afterwards, the caller run with the caller's mask
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGUSR1})
    try:
        mine = signal.pthread_sigmask(signal.SIG_BLOCK, ())
        shards = [(2, 3, 16, 1, 8), (2, 3, 16, 9, 16)]
        assert _run_shards(lambda _: signal.pthread_sigmask(signal.SIG_BLOCK, ()), shards,
                           2) == [mine, mine]
        assert signal.pthread_sigmask(signal.SIG_BLOCK, ()) == mine
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


def test_plan_puts_the_heaviest_shard_first_on_the_least_loaded_worker():
    # n = 3, Q = 32 disc shards cost 80, 208, 336 and 464 times the blocks per a_3
    shards = [(3, 2, 32, lo, hi) for lo, hi in _shards(32)]
    blocks = 33 * 65
    assert [_shard_cost(a) for a in shards] == [80 * blocks, 208 * blocks, 336 * blocks,
                                                464 * blocks]
    assert _plan(shards, 2) == [[3, 0], [2, 1]]  # 544 blocks per a_3 each
    # n = 2: (a_n values) x (Q + 1) blocks; ties go to the earlier shard and the lower worker
    assert _plan([(2, 3, 20, 1, 8), (2, 3, 20, 9, 16), (2, 3, 20, 17, 20)], 2) == [[0, 2], [1]]
    assert _plan([(2, 3, 20, 1, 8)], 3) == [[0]]


SHARDS_OF_UNEQUAL_COST = [(2, 3, 20, 17, 20), (3, 2, 4, 1, 4), (2, 3, 20, 1, 8), (2, 3, 8, 1, 8),
                          (2, 3, 20, 9, 16), (3, 3, 3, 1, 3)]


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_forked_shard_results_come_back_in_shard_order(processes, forks):
    expected = [_disc_shard(a) for a in SHARDS_OF_UNEQUAL_COST]
    assert _run_shards(_disc_shard, SHARDS_OF_UNEQUAL_COST, processes) == expected
    assert len(forks) == processes


def _no_child_left(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_a_shard_error_in_a_child_is_raised_in_the_parent(forks):
    def fails_or_hangs(args):
        if args[3] == 1:
            raise ValueError(f"shard {args[3]}..{args[4]} failed")
        time.sleep(60)  # the other child is still running when the error arrives

    start = time.monotonic()
    with pytest.raises(ValueError, match=r"^shard 1\.\.8 failed$"):
        _run_shards(fails_or_hangs, [(2, 3, 16, 1, 8), (2, 3, 16, 9, 16)], 2)
    assert time.monotonic() - start < 30
    assert len(forks) == 2
    _no_child_left(forks)


def test_a_shard_that_exits_ends_only_its_child(tmp_path, forks):
    after = tmp_path / "after"

    def exits(args):
        raise SystemExit(3)

    def caller():
        try:
            _run_shards(exits, [(2, 3, 16, 1, 8), (2, 3, 16, 9, 16)], 2)
        finally:  # a child that unwound into this frame would run this too
            with open(after, "a") as log:
                log.write(f"{os.getpid()}\n")

    with pytest.raises(RuntimeError, match="ended without its results"):
        caller()
    assert after.read_text().split() == [str(os.getpid())]
    assert len(forks) == 2
    _no_child_left(forks)


def _sep_tally(counts, least, sep, irr, h):
    """The _sep_shard reduction of one shell record, done the slow way."""
    counts[sep, irr] = counts.get((sep, irr), 0) + 1
    if irr and h > 1:
        least[sep] = min(least.get(sep, h), h)


def _assert_same_shard(got, expect, label):
    assert got == expect, label
    # Fraction(2) == 2: compare the key types as well
    for g, e in zip(got, expect):
        assert {k: type(k[0] if isinstance(k, tuple) else k) for k in g} == \
            {k: type(k[0] if isinstance(k, tuple) else k) for k in e}, label


def test_n2_sep_shard_against_per_record_recount():
    # the closed-form shard against min_conjugate_separation on every quadratic
    # of every shard, reduced to (sep, irr) counts and the least H > 1 per sep
    zero_below_shell = fractional = 0
    for p, t in ((2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 0), (3, 1), (3, 2), (5, 1), (7, 1)):
        q = p**t
        for lo, hi in _shards(q):
            counts, least = {}, {}
            for a2 in range(lo, hi + 1):
                for a1 in range(-q, q + 1):
                    for a0 in range(-q, q + 1):
                        poly = IntPoly([a0, a1, a2])
                        h = poly.height
                        disc = discriminant(poly)
                        if disc == 0 or h < q // p:
                            zero_below_shell += disc == 0 and h < q // p
                            continue
                        sep = min_conjugate_separation(poly, p).val
                        # D = a_2^2 (alpha_1 - alpha_2)^2
                        assert 2 * sep + 2 * valuation(a2, p) == valuation(disc, p)
                        irr = bool(is_irreducible(content_primitive(poly)[1]))
                        _sep_tally(counts, least, sep, irr, h)
                        fractional += type(sep) is Fraction
            _assert_same_shard(_sep_shard((2, p, q, lo, hi)), (counts, least), (p, t, lo))
    assert zero_below_shell and fractional
    assert _shards(16) == [(1, 8), (9, 16)]


def test_n3_sep_shard_against_per_record_recount():
    # the closed-form shard against min_conjugate_separation record by record
    # on every shard, reduced to (sep, irr) counts and the least H > 1 per sep
    zero_u = lead_div = fractional = 0
    for p, t in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)):
        q = p**t
        for lo, hi in _shards(q):
            counts, least = {}, {}
            for a0, a1, a2, a3 in iter_coeffs(3, q, lo, hi):
                h = max(abs(a0), abs(a1), abs(a2), a3)
                if h < q // p or discriminant_coeffs((a0, a1, a2, a3)) == 0:
                    continue
                sep = min_conjugate_separation(IntPoly([a0, a1, a2, a3]), p).val
                # a cubic with D != 0 is reducible iff it has a rational root
                irr = not rational_roots(IntPoly([a0, a1, a2, a3]))
                _sep_tally(counts, least, sep, irr, h)
                zero_u += 3 * a1 * a3 == a2 * a2
                lead_div += a3 % p == 0
                fractional += type(sep) is Fraction
            _assert_same_shard(_sep_shard((3, p, q, lo, hi)), (counts, least), (p, t, lo))
    assert zero_u and lead_div and fractional


def test_n4_sep_shard_against_per_record_recount():
    # the merged record loop at n = 4 against discriminant_coeffs, is_irreducible and
    # min_conjugate_separation record by record, reduced to (sep, irr) counts and least H
    fractional = reducible = 0
    for p, q, shards in ((2, 1, _shards(1)), (2, 2, _shards(2)), (3, 3, [(1, 1)])):
        for lo, hi in shards:
            counts, least = {}, {}
            for coeffs in iter_coeffs(4, q, lo, hi):
                h = max(map(abs, coeffs))
                if discriminant_coeffs(coeffs) == 0 or h < q // p:
                    continue
                sep = min_conjugate_separation(IntPoly(coeffs), p).val
                irr = bool(is_irreducible(content_primitive(IntPoly(coeffs))[1]))
                _sep_tally(counts, least, sep, irr, h)
                fractional += type(sep) is Fraction
                reducible += not irr
            _assert_same_shard(_sep_shard((4, p, q, lo, hi)), (counts, least), (p, q, lo))
    assert fractional and reducible


def _brute_sep_block(p, t, a2, a1):
    """The n = 2 sep counts and least H of the blocks (a_2, a_1) and (a_2, -a_1),
    over a_0 in [-Q, Q] record by record, with the cases the closed form must
    handle."""
    q, s = p**t, p**t // p
    counts, least, levels = {}, {}, {}
    for b1, a0 in itertools.product(sorted({a1, -a1}), range(-q, q + 1)):
        d = b1 * b1 - 4 * a2 * a0
        h = max(a2, abs(b1), abs(a0))
        if d and h >= s:
            sep = Fraction(valuation(d, p) - 2 * valuation(a2, p), 2)
            sep = int(sep) if sep.denominator == 1 else sep
            irr = d < 0 or math.isqrt(d) ** 2 != d
            _sep_tally(counts, least, sep, irr, h)
            if h > 1:
                levels.setdefault(sep, []).append((abs(a0), irr))
    # the descent's class j is {a_0 : v_p(D) >= v_p(4 a_2) + j}, z included
    b = valuation(4 * a2, p)
    j = 0
    while True:
        members = [a0 for a0 in range(-q, q + 1)
                   if a1 * a1 == 4 * a2 * a0 or valuation(a1 * a1 - 4 * a2 * a0, p) >= b + j]
        if len(members) <= 1:
            break
        j += 1
    single_level = a1 != 0 and valuation(a1 * a1, p) < b
    tail = members[0] if len(members) == 1 and a1 * a1 != 4 * a2 * members[0] else None
    nearest = [min(recs)[0] for recs in levels.values()]
    cases = {
        "h0 < s": max(a2, abs(a1)) < s,
        "h0 >= s": max(a2, abs(a1)) >= s,
        "D = 0 in box": a1 * a1 % (4 * a2) == 0 and abs(a1 * a1 // (4 * a2)) <= q,
        # every record of the level nearest 0 is reducible: the walk must step past it
        "reducible nearest 0": any(not any(irr for x, irr in recs if x == lo)
                                   for lo, recs in zip(nearest, levels.values())),
        "one-member tail": not single_level and tail is not None
        and max(a2, abs(a1), abs(tail)) >= s,
        "v(a1^2) < v(4 a2)": single_level,
        "t = 0": t == 0,
    }
    return (counts, least), cases


def test_quadratic_sep_blocks_seeded_against_brute_force():
    # single blocks a_1 = |a_1| at Q = 2^8, 3^5 and 1 against a direct count
    # over a_0 in the blocks (a_2, a_1) and (a_2, -a_1)
    rng = random.Random(29)
    blocks = [(2, 0, 1, 0), (3, 0, 1, 1), (2, 8, 1, 0), (2, 8, 3, 5), (3, 5, 9, 0), (2, 8, 16, 8)]
    while len(blocks) < 160:
        p, t = rng.choice([(2, 8), (3, 5)])
        q = p**t
        a2 = rng.choice([rng.randint(1, q), rng.randint(1, q // p), p * rng.randint(1, q // p**2)])
        a1 = rng.choice([rng.randint(-q, q), rng.randint(-q // p, q // p), 0,
                         2 * a2 * rng.choice([-2, -1, 1, 2]), p**rng.randint(0, t)])
        if abs(a1) <= q:
            blocks.append((p, t, a2, a1))
    seen: dict = {}
    for p, t, a2, a1 in blocks:
        expect, cases = _brute_sep_block(p, t, a2, a1)
        _assert_same_shard(_quadratic_sep_blocks(p, p**t, a2, a2, [abs(a1)]), expect,
                           (p, t, a2, a1))
        for name, hit in cases.items():
            seen[name] = seen.get(name, 0) + hit
    assert all(seen.values()), seen


@pytest.mark.parametrize("p, q", [(2, 4), (3, 5), (5, 3), (2, 9)])
def test_cubic_kernel_against_per_record_oracle(p, q):
    # the product-table kernel against discriminant_coeffs, valuation and
    # is_irreducible on the primitive part, record by record on every shard
    zero_a0 = zero_disc = 0
    for lo, hi in _shards(q):
        got = _flat_records(3, p, q, lo, hi)
        expect = []
        for coeffs in iter_coeffs(3, q, lo, hi):
            disc = discriminant_coeffs(coeffs)
            if disc == 0:
                expect.append((coeffs, 0, None, False))
                continue
            irr = bool(is_irreducible(content_primitive(IntPoly(coeffs))[1]))
            expect.append((coeffs, disc, valuation(disc, p), irr))
        zero_disc += _assert_oracle_less_zero_disc(got, expect, (p, q, lo))
        assert all(type(r[3]) is bool for r in got)
        zero_a0 += sum(1 for r in got if r[0][0] == 0)
    assert zero_a0 and zero_disc
    if q == 9:
        assert _shards(q) == [(1, 8), (9, 9)]


def _cubic_products_full_c_range(a3, q):
    """The product table with c over the whole |a_2| <= Q range, kept where |a_1| <= Q."""
    nonzero = [*range(-q, 0), *range(1, q + 1)]
    reducible = {}
    for s in range(1, a3 + 1):
        if a3 % s == 0:
            b = a3 // s
            for r in nonzero:
                k = q // abs(r)
                for d in nonzero[q - k:q + k]:
                    for c in range(-((q - r * b) // s), (r * b + q) // s + 1):
                        a1 = s * d - r * c
                        if -q <= a1 <= q:
                            reducible.setdefault((s * c - r * b, a1), set()).add(-r * d)
    return reducible


def test_cubic_products_follow_the_entries_of_the_full_c_range():
    # the c range cut to 0 <= a_2 and |a_1| <= Q gives the table of the filtered
    # full range at a_2 >= 0, for every a_3 at every Q <= 16, over |a_0| <= Q
    # (the sep census) and |a_0| <= a_3 (the disc census); the table does not depend on p
    for q in range(1, 17):
        for a3 in range(1, q + 1):
            full = _cubic_products_full_c_range(a3, q)
            assert any(a2 < 0 for a2, _ in full), (a3, q)
            assert any(abs(a0) > a3 for v in full.values() for a0 in v) or a3 == q, (a3, q)
            for a0_max in {q, a3}:
                cut = {k: {a0 for a0 in v if abs(a0) <= a0_max} for k, v in full.items()}
                assert _cubic_products(a3, q, a0_max) == {
                    k: v for k, v in cut.items() if k[0] >= 0 and v}, (a3, q, a0_max)


@pytest.mark.parametrize("p, q, shards", [(2, 16, [(1, 8)]), (3, 9, _shards(9)),
                                           (5, 10, [(1, 8), (9, 10)])])
def test_cubic_kernel_against_sieve_oracle(p, q, shards):
    # the product table against the rational-root sieve it replaced, record by record
    seen = {"s > 1": 0, "r < 0": 0, "a0 = 0": 0, "D = 0": 0, "a3 with >= 4 divisors": 0}
    for lo, hi in shards:
        got = _flat_records(3, p, q, lo, hi)
        seen["D = 0"] += _assert_oracle_less_zero_disc(
            got, list(cubic_sieve_records(p, q, lo, hi)), (p, q, lo))
        for coeffs, _, _, irr in got:
            seen["a0 = 0"] += coeffs[0] == 0
            if not (seen["s > 1"] and seen["r < 0"]) and coeffs[0] and not irr:
                # a reducible product (s x - r)(b x^2 + c x + d): its root r/s is rational
                roots = rational_roots(IntPoly(coeffs))
                seen["s > 1"] += any(x.denominator > 1 for x in roots)
                seen["r < 0"] += any(x < 0 for x in roots)
        seen["a3 with >= 4 divisors"] += any(
            sum(a3 % s == 0 for s in range(1, a3 + 1)) >= 4 for a3 in range(lo, hi + 1))
    assert all(seen.values()), seen


@pytest.mark.parametrize("n, q", [(3, 2), (3, 9), (4, 2), (5, 1)])
def test_records_blocks_in_canonical_order(n, q):
    # one block per head with a_(n-1) >= 0 in iter_coeffs order, each holding
    # the a_0 = -Q..Q with D != 0
    for lo, hi in _shards(q):
        oracle = [(c, discriminant_coeffs(c)) for c in iter_coeffs(n, q, lo, hi)]
        heads = [c[1:] for c, _ in oracle[::2 * q + 1] if c[-2] >= 0]
        assert [head for head, _ in _records(n, 3, q, lo, hi)] == heads
        got = [(r[0], r[1]) for r in _flat_records(n, 3, q, lo, hi)]
        assert _assert_oracle_less_zero_disc(got, oracle, (n, q, lo))


def _brute_disc_hist(p, q, a2_values, a1_values):
    """The n = 2 disc histogram v_p(D) -> [count, count_irr, min |D|, max |D|], D != 0,
    of the blocks (a_2, a_1) over a_0 in [-Q, Q], counted directly."""
    hist = {}
    for a2 in a2_values:
        for a1 in a1_values:
            for a0 in range(-q, q + 1):
                d = a1 * a1 - 4 * a2 * a0
                if d:
                    entry = hist.setdefault(valuation(d, p), [0, 0, abs(d), abs(d)])
                    entry[0] += 1
                    entry[1] += d < 0 or math.isqrt(d) ** 2 != d
                    entry[2] = min(entry[2], abs(d))
                    entry[3] = max(entry[3], abs(d))
    return hist


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_quadratic_disc_shard_against_record_oracle(p):
    # the closed-form block counts against a direct count record by record, on every shard
    for q in [*range(1, 14), 20, 41]:
        for lo, hi in _shards(q):
            expect = _brute_disc_hist(p, q, range(lo, hi + 1), range(-q, q + 1))
            assert _disc_shard((2, p, q, lo, hi)) == expect, (p, q, lo)


def test_quadratic_disc_blocks_seeded_against_brute_force():
    # single blocks a_1 = |a_1| at Q = 300 against a direct count over a_0 in
    # the blocks (a_2, a_1) and (a_2, -a_1)
    q = 300
    rng = random.Random(13)
    blocks = [(2, 1, 0), (3, 1, 0), (2, 8, 5), (2, 16, 32), (3, 9, 18), (5, 25, 0), (7, 1, 2)]
    while len(blocks) < 200:
        p = rng.choice([2, 3, 5, 7])
        a2 = rng.choice([rng.randint(1, q), p * rng.randint(1, q // p), p**3])
        a1 = rng.choice([rng.randint(-q, q)] * 4 + [0, 2 * a2 * rng.choice([-2, -1, 1, 2])])
        if abs(a1) <= q:
            blocks.append((p, a2, a1))
    seen = {"a1 = 0": 0, "p | a2": 0, "v_2(4 a2) >= 3": 0, "D = 0 in box": 0, "tail": 0}
    for p, a2, a1 in blocks:
        expect = _brute_disc_hist(p, q, [a2], sorted({a1, -a1}))
        assert _quadratic_disc_blocks(p, q, a2, a2, [abs(a1)]) == expect, (p, a2, a1)
        has_zero = a1 * a1 % (4 * a2) == 0 and a1 * a1 // (4 * a2) <= q
        seen["a1 = 0"] += a1 == 0
        seen["p | a2"] += a2 % p == 0
        seen["v_2(4 a2) >= 3"] += p == 2 and a2 % 2 == 0
        seen["D = 0 in box"] += has_zero
        # without the D = 0 point, a top level of one record per block is the descent's tail
        seen["tail"] += not has_zero and expect[max(expect)][0] == (2 if a1 else 1)
    assert all(seen.values()), seen


@pytest.mark.parametrize("p", [2, 3, 5])
def test_quadratic_disc_shard_exact_where_extremes_are_skipped(p, monkeypatch):
    # at Q = 80 and 81 most descent levels already hold a max >= A + F Q and
    # the min p^v, so _level_extremes is skipped there; every shard, the last
    # partial one (a_2 = 81) included, still matches the direct count
    calls = {"_level_extremes": 0, "_class_count": 0}  # _class_count: once per descent level
    for name in calls:
        def spy(*args, name=name, real=getattr(census, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(census, name, spy)
    for q in (80, 81):
        for lo, hi in _shards(q):
            expect = _brute_disc_hist(p, q, range(lo, hi + 1), range(-q, q + 1))
            assert _disc_shard((2, p, q, lo, hi)) == expect, (p, q, lo)
    assert 0 < 2 * calls["_level_extremes"] < calls["_class_count"], calls


def test_quadratic_disc_blocks_any_a1_order():
    # the skip of _level_extremes reads the walk order; the histogram must not
    rng = random.Random(29)
    for p, q, lo, hi in [(2, 64, 1, 8), (3, 81, 73, 80), (5, 50, 9, 16), (7, 30, 25, 30)]:
        ascending = list(range(q + 1))
        shuffled = rng.sample(ascending, len(ascending))
        hists = [_quadratic_disc_blocks(p, q, lo, hi, a1s)
                 for a1s in (ascending, ascending[::-1], shuffled)]
        assert hists[0] == hists[1] == hists[2], (p, q, lo)


@pytest.mark.parametrize("patched, reached", [
    ("_records", {"disc n=3", "sep n=3", "disc n=4", "sep n=4"}),
    ("min_conjugate_separation", {"sep n=4"}),
    ("is_irreducible", {"disc n=4", "sep n=4"}),
    ("discriminant_coeffs", {"disc n=4", "sep n=4"}),
], ids=["records-patched", "separation-patched", "irreducible-patched", "discriminant-patched"])
def test_census_routes(patched, reached, monkeypatch):
    # at n = 2 neither census reads the record kernel or the per-record
    # separation; at n = 3 both read the kernel only, which calls neither
    # is_irreducible nor discriminant_coeffs; from n = 4 the kernel calls
    # both, and the sep census reads the per-record separation too
    def refuse(*_):
        raise RuntimeError(f"{patched} called")

    monkeypatch.setattr(f"padicsep.census.{patched}", refuse)
    nu, theta = [Fraction(1, 2)], [Fraction(1)]
    runs = {
        "disc n=2": lambda: disc_census(2, 3, [5, 9], nu),
        "sep n=2": lambda: sep_census(2, 2, [2, 3], theta),
        "disc n=3": lambda: disc_census(3, 2, [2], nu),
        "sep n=3": lambda: sep_census(3, 2, [1], theta),
        "disc n=4": lambda: disc_census(4, 2, [1], nu),
        "sep n=4": lambda: sep_census(4, 2, [1], theta),
    }
    for name, run in runs.items():
        if name in reached:
            with pytest.raises(RuntimeError, match=patched):
                run()
        else:
            assert run().rows, name


def test_quadratic_sep_blocks_walk_square_roots_once_per_block(monkeypatch):
    # the reducible a_0 of a block's set are read off one walk of the box's
    # square roots, also where the set is the box less an inner box (h_0 < s)
    calls = []
    real = census._square_roots_in
    monkeypatch.setattr(census, "_square_roots_in",
                        lambda a, f, q, roots: calls.append(q) or real(a, f, q, roots))
    for p, q in ((2, 64), (3, 81), (5, 125)):
        calls.clear()
        counts, _ = _sep_shard((2, p, q, 1, 8))
        assert calls == [q] * (8 * (q + 1)), (p, q)
        assert any(not irr for _, irr in counts)
