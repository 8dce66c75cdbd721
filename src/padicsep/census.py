"""Exhaustive censuses over integer polynomials of bounded height.

Counts polynomials whose discriminant is divisible by large powers of p, or
whose conjugate roots are p-adically close, on exact thresholds; fits power
laws to the counts; and Monte-Carlo-estimates the measure of centers x whose
coefficient lattice admits unusually short vectors.
"""

from __future__ import annotations

import itertools
import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .intpoly import IntPoly, content_primitive, discriminant_coeffs, is_irreducible
from .lattice import XiParams, _box_points, _power_of_p_exponent
from .padic import _as_p, valuation
from .roots import _first_slope, min_conjugate_separation

_WILSON_Z = 1.959963984540054  # 95% two-sided normal quantile
_SAMPLE_BLOCK = 512  # Monte-Carlo block size; fixed so results ignore worker count


@dataclass(frozen=True)
class CensusRecord:
    coeffs: tuple[int, ...]
    height: int
    disc: int
    vp_disc: Optional[int]  # None when disc = 0
    irreducible: Optional[bool]
    sep_val: Optional[Fraction]
    flag: str = ""


def poly_count(n: int, height_bound: int) -> int:
    """Total number of degree-n polynomials of height <= Q (both signs of a_n)."""
    return 2 * height_bound * (2 * height_bound + 1) ** n


def iter_coeffs(n: int, height_bound: int, an_lo: int = 1,
                an_hi: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Canonical coefficient tuples (a_0..a_n) with a_n in [an_lo, an_hi].

    Sign normalization a_n > 0: each polynomial stands for the pair {P, -P}.
    Deterministic order: a_n ascending, then a_(n-1), ..., then a_0.
    """
    hi = an_hi if an_hi is not None else height_bound
    box = range(-height_bound, height_bound + 1)
    for an in range(an_lo, hi + 1):
        for rest in itertools.product(box, repeat=n):  # (a_(n-1), ..., a_0)
            yield rest[::-1] + (an,)


def _records(n: int, p: int, height_bound: int, an_lo: int,
             an_hi: int) -> Iterator[tuple[tuple[int, ...], int, Optional[int], bool]]:
    """The census kernel: (coeffs, D, v_p(D), irreducible) in canonical order.

    This is the one place the censuses compute the discriminant, its
    valuation and the irreducibility verdict.  D = 0 yields v_p(D) = None and
    irreducible = False: a repeated root makes P reducible over Q.

    At n = 3 the verdict is a rational-root sieve, exact by three facts.
    (1) A cubic with D != 0 is irreducible over Q iff it has no rational
    root: a factorization over Q has degrees summing to 3, so one factor is
    linear and its root is rational; a rational root r gives the factor x - r.
    (2) Content does not change the roots: P = c P' with c a nonzero integer
    has the roots of P', so the verdict on P is the verdict on its primitive
    part that is_irreducible gives.  (3) Every rational root r/s in lowest
    terms, s > 0, has s | a_3 and r | a_0: s^3 P(r/s) = 0 reads
    a_3 r^3 = -s (a_2 r^2 + a_1 r s + a_0 s^2) and
    a_0 s^3 = -r (a_3 r^2 + a_2 r s + a_1 s^2), and gcd(r, s) = 1.
    So with a_0 != 0 (a_0 = 0 gives the root 0) a root has 0 < |r| <= |a_0|
    <= Q, and by Cauchy's bound |r/s| <= 1 + Q/a_3, i.e.
    |r| <= s + floor(s Q / a_3).  Each such candidate r/s is a root for
    exactly one a_0, the one with a_0 s^3 = -(a_3 r^3 + a_2 r^2 s + a_1 r s^2),
    so the a_0 in the box that make P reducible are the integral ones among
    these; every other a_0 != 0 gives an irreducible P.  D is the closed
    cubic form, written as A + a_0 (B + C a_0) for each (a_3, a_2, a_1).
    """
    rng = range(-height_bound, height_bound + 1)
    if n == 2:
        # Closed-form D with the valuation loop and the square test inline:
        # calling padic.valuation here made this loop about 1.6x slower.
        for a2 in range(an_lo, an_hi + 1):
            four_a2 = 4 * a2
            for a1 in rng:
                a1sq = a1 * a1
                for a0 in rng:
                    disc = a1sq - four_a2 * a0
                    if disc == 0:
                        yield (a0, a1, a2), 0, None, False
                        continue
                    v = 0
                    d = disc
                    while d % p == 0:
                        d //= p
                        v += 1
                    yield (a0, a1, a2), disc, v, disc < 0 or math.isqrt(disc) ** 2 != disc
        return
    if n == 3:
        for a3 in range(an_lo, an_hi + 1):
            # per root candidate r/s: (a_3 r^3, r^2 s, r s^2, s^3)
            cands = []
            for s in range(1, a3 + 1):
                if a3 % s == 0:
                    r_max = min(height_bound, s + s * height_bound // a3)
                    cands.extend((a3 * r**3, r * r * s, r * s * s, s**3)
                                 for r in range(-r_max, r_max + 1)
                                 if r and math.gcd(r, s) == 1)
            big_c = -27 * a3 * a3
            for a2 in rng:
                a2sq = a2 * a2
                b2 = -4 * a2 * a2sq
                for a1 in rng:
                    big_a = a1 * a1 * (a2sq - 4 * a3 * a1)
                    big_b = 18 * a3 * a2 * a1 + b2
                    reducible = set()
                    for t3, t2, t1, s3 in cands:
                        num = t3 + a2 * t2 + a1 * t1  # = -a_0 s^3 for the a_0 with root r/s
                        if num % s3 == 0 and -height_bound * s3 <= num <= height_bound * s3:
                            reducible.add(-num // s3)
                    for a0 in rng:
                        disc = big_a + a0 * (big_b + big_c * a0)
                        if disc == 0:
                            yield (a0, a1, a2, a3), 0, None, False
                            continue
                        v = 0
                        d = disc
                        while d % p == 0:
                            d //= p
                            v += 1
                        yield (a0, a1, a2, a3), disc, v, a0 != 0 and a0 not in reducible
        return
    for coeffs in iter_coeffs(n, height_bound, an_lo, an_hi):
        disc = discriminant_coeffs(coeffs)
        if disc == 0:
            yield coeffs, 0, None, False
        else:
            prim = content_primitive(IntPoly(coeffs))[1]
            yield coeffs, disc, valuation(disc, p), bool(is_irreducible(prim))


def _census_inputs(n: int, p, bounds: Sequence[int], least: int) -> int:
    """The census entry check: the validated p, or ValueError before any shard runs.

    n must be an integer >= 2 and every bound (a height Q, or an exponent t
    of Q = p^t) an integer >= least.
    """
    q = _as_p(p)
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"need an integer degree n >= 2, got {n!r}")
    if not all(isinstance(b, int) and b >= least for b in bounds):
        raise ValueError(f"every bound must be an integer >= {least}, got {list(bounds)}")
    return q


def record_stream(n: int, height_bound: int, p, want_sep: bool = False,
                  an_lo: int = 1, an_hi: Optional[int] = None) -> Iterator[CensusRecord]:
    """CensusRecords in canonical order, read off the census kernel.

    D, v_p(D) and irreducibility are the values the censuses count.  With
    want_sep, every record with D != 0 also carries its exact separation
    valuation from min_conjugate_separation, flagged "sep-exact".  The
    inputs are checked at the call, not at the first record.
    """
    q = _census_inputs(n, p, [height_bound], 1)
    hi = an_hi if an_hi is not None else height_bound

    def records() -> Iterator[CensusRecord]:
        for coeffs, disc, vpd, irr in _records(n, q, height_bound, an_lo, hi):
            exact = want_sep and vpd is not None
            sep = Fraction(min_conjugate_separation(IntPoly(coeffs), q).val) if exact else None
            yield CensusRecord(coeffs, max(map(abs, coeffs)), disc, vpd, irr, sep,
                               "sep-exact" if exact else "")

    return records()


# --- discriminant census ------------------------------------------------------


def disc_threshold(p: int, height_bound: int, nu: Fraction, c_exp: int) -> int:
    """Smallest k with p^(k + c_exp) >= Q^(2 nu): membership is v_p(D) >= k."""
    nu = Fraction(nu)
    if nu == 0:
        return -c_exp
    a, d = nu.numerator, nu.denominator
    rhs = height_bound ** (2 * a)
    k = 0
    while p ** (k * d) < rhs:
        k += 1
    return k - c_exp


@dataclass(frozen=True)
class DiscCensusRow:
    n: int
    p: int
    height_bound: int
    nu: Fraction
    c_exp: int  # threshold constant C = p^c_exp
    threshold: int  # count requires v_p(D) >= threshold
    count_all: int
    count_irr: int
    flagged: int = 0


@dataclass(frozen=True)
class PrimePowerStat:
    """Distribution of (v_p(D), cofactor) for the almost-prime-power table."""

    height_bound: int
    k: int
    count_all: int
    count_irr: int
    min_cofactor: Optional[int]
    max_abs_disc: Optional[int]


@dataclass
class DiscCensus:
    rows: list[DiscCensusRow]
    stats: list[PrimePowerStat]
    complete: bool
    records_seen: int
    workers_used: int  # the most worker processes any height level started


def _disc_shard(args) -> dict[int, list[int]]:
    """v_p(D) -> [count, count_irr, min |D|, max |D|] over one a_n range, D != 0.

    Within one v_p(D) the cofactor |D| / p^v is monotone in |D|, so the
    minimal cofactor follows from the minimal |D|.
    """
    n, p, height_bound, an_lo, an_hi = args
    hist: dict[int, list[int]] = {}
    for _, disc, v, irr in _records(n, p, height_bound, an_lo, an_hi):
        if v is None:
            continue
        ad = abs(disc)
        entry = hist.get(v)
        if entry is None:
            hist[v] = [1, 1 if irr else 0, ad, ad]
            continue
        entry[0] += 1
        if irr:
            entry[1] += 1
        if ad < entry[2]:
            entry[2] = ad
        elif ad > entry[3]:
            entry[3] = ad
    return hist


def _shards(height_bound: int, shard_size: int = 8) -> list[tuple[int, int]]:
    """Leading-coefficient ranges; fixed rule independent of the worker count."""
    out = []
    lo = 1
    while lo <= height_bound:
        hi = min(height_bound, lo + shard_size - 1)
        out.append((lo, hi))
        lo = hi + 1
    return out


def disc_census(n: int, p, height_grid: Sequence[int], nu_grid: Sequence[Fraction],
                c_exps: Sequence[int] = (0, 1, 2), workers: int = 1,
                max_records: Optional[int] = None) -> DiscCensus:
    """Count polynomials with 0 < |D|_p <= p^c Q^(-2 nu), exactly.

    Canonical representatives have a_n > 0; totals count each +-P pair twice
    (discriminants are invariant under P -> -P).  Counts carry both the
    unrestricted and the irreducible-only versions, plus the prime-power
    split statistic of the discriminant values.  Every row is read off the
    merged v_p(D) histogram: the count at threshold k sums the levels v >= k.
    """
    q = _census_inputs(n, p, height_grid, 1)
    rows: list[DiscCensusRow] = []
    stats: list[PrimePowerStat] = []
    complete = True
    seen_total = used = 0
    for hb in height_grid:
        if max_records is not None and seen_total + poly_count(n, hb) > max_records:
            complete = False
            break
        seen_total += poly_count(n, hb)
        hist: dict[int, list[int]] = {}
        shards, started = _run_shards(_disc_shard,
                                      [(n, q, hb, lo, hi) for lo, hi in _shards(hb)], workers)
        used = max(used, started)
        for shard in shards:
            for k, (cnt, cnt_irr, min_ad, max_ad) in shard.items():
                tgt = hist.setdefault(k, [0, 0, min_ad, max_ad])
                tgt[0] += cnt
                tgt[1] += cnt_irr
                tgt[2] = min(tgt[2], min_ad)
                tgt[3] = max(tgt[3], max_ad)
        for nu in map(Fraction, nu_grid):
            for ce in c_exps:
                thr = disc_threshold(q, hb, nu, ce)
                ca = sum(e[0] for v, e in hist.items() if v >= thr)
                ci = sum(e[1] for v, e in hist.items() if v >= thr)
                # doubled: canonical enumeration covers each {P, -P} pair once
                rows.append(DiscCensusRow(n, q, hb, nu, ce, thr, 2 * ca, 2 * ci))
        for k in sorted(hist):
            cnt, cnt_irr, min_ad, max_ad = hist[k]
            stats.append(PrimePowerStat(hb, k, 2 * cnt, 2 * cnt_irr, min_ad // q**k, max_ad))
    return DiscCensus(rows, stats, complete, seen_total, used)


def _run_shards(fn, shard_args, workers: int) -> tuple[list, int]:
    """The shard results in order, and the number of worker processes started."""
    if workers <= 1 or len(shard_args) <= 1:
        return [fn(a) for a in shard_args], 0
    # at most one process per shard: under fork the pool starts all its workers at once
    started = min(workers, len(shard_args))
    with ProcessPoolExecutor(max_workers=started) as pool:
        return list(pool.map(fn, shard_args)), started


# --- separation census ---------------------------------------------------------


@dataclass(frozen=True)
class SepCensusRow:
    n: int
    p: int
    t: int  # Q = p^t
    theta: Fraction
    c0_exp: int  # C0 = p^c0_exp slack
    count_all: int  # distinct-root P, H in [Q/p, Q], sep valuation >= theta t - c0_exp
    count_irr: int  # same, irreducible over Q only
    flagged: int
    max_exponent: Optional[float]  # max observed sep_val / log_p H, irreducible P


@dataclass
class SepCensus:
    rows: list[SepCensusRow]
    complete: bool
    records_seen: int
    workers_used: int  # the most worker processes any height level started


def _sep_shard(args) -> dict[tuple, int]:
    """(height, separation valuation, irreducible) -> count over one a_n range.

    Only distinct-root polynomials in the shell H in [Q/p, Q] are counted.
    Keys are inserted in canonical order, which sep_census relies on to break
    ties in max_exponent by the first irreducible record.  At n = 2 the loop
    keys on 2 sep = v_p(D) - 2 v_p(a_2), from D = a_2^2 (alpha_1 - alpha_2)^2;
    the one-to-one renaming at the end keeps that order.

    At n = 3 the separation is read off v_p(D), v_p(a_3) and v_p(u),
    u = 3 a_1 a_3 - a_2^2, by the slope rule of min_conjugate_separation
    (roots._first_slope), memoised per shard since it depends on nothing else.
    That rule reads R(y) = prod_(i != j) (y - beta_i + beta_j), beta_i = a_3 alpha_i,
    and for a cubic R(y) = y^6 + E_2 y^4 + E_4 y^2 + E_6 with
        E_2 = 2u,   E_4 = u^2,   E_6 = -a_3^2 D.
    Proof.  The beta_i are the roots of y^3 + a_2 y^2 + a_1 a_3 y + a_0 a_3^2, so
    e_1(beta) = -a_2 and e_2(beta) = a_1 a_3.  Put d_1 = beta_1 - beta_2,
    d_2 = beta_2 - beta_3, d_3 = beta_3 - beta_1: the six roots of R are the
    +-d_k, so R(y) = (y^2 - d_1^2)(y^2 - d_2^2)(y^2 - d_3^2), and d_1 + d_2 + d_3 = 0.
    (1) E_2 = -sum d_k^2 = -(2 e_1^2 - 6 e_2) = 6 a_1 a_3 - 2 a_2^2 = 2u.
    (2) With s = d_1 d_2 + d_2 d_3 + d_3 d_1, sum d_k^2 = (sum d_k)^2 - 2s = -2s,
    and E_4 = sum_(k<l) d_k^2 d_l^2 = s^2 - 2 d_1 d_2 d_3 (sum d_k) = s^2
    = (E_2 / 2)^2 = u^2: for three roots, e_2 of the squared differences is e_1^2 / 4.
    (3) E_6 = -(d_1 d_2 d_3)^2 = -prod_(i<j) (beta_i - beta_j)^2
    = -a_3^6 prod_(i<j) (alpha_i - alpha_j)^2 = -a_3^2 D, as D = a_3^4 prod (alpha_i - alpha_j)^2.
    So with e = v_p(E_6) = v_p(D) + 2 v_p(a_3) the rule gives
        sep = max(e/6, (e - v_p(2) - v_p(u))/4, (e - 2 v_p(u))/2) - v_p(a_3),
    the last two terms dropped when u = 0 (then E_2 = E_4 = 0).  The middle
    term never decides: v_p(E_2) >= v_p(u) puts (2, v_p(E_2)) on or above the
    chord from (0, 0) to (4, 2 v_p(u)), so it is no vertex of the Newton
    polygon, and the shard passes the rule only (0, 0) and (4, 2 v_p(u)).
    """
    n, p, t, an_lo, an_hi = args
    shell_lo = p**t // p
    hist: dict[tuple, int] = {}
    records = _records(n, p, p**t, an_lo, an_hi)
    if n == 2:
        twice_lead = {a2: 2 * valuation(a2, p) for a2 in range(an_lo, an_hi + 1)}
        for (a0, a1, a2), _, v, irr in records:
            if v is not None:
                # H = max(a_2, |a_1|, |a_0|) by comparisons: a max() call costs more
                h = a1 if a1 > a2 else -a1 if -a1 > a2 else a2
                h = a0 if a0 > h else -a0 if -a0 > h else h
                if h >= shell_lo:
                    key = (h, v - twice_lead[a2], irr)
                    hist[key] = hist.get(key, 0) + 1
        return {(h, tw // 2 if tw % 2 == 0 else Fraction(tw, 2), irr): cnt
                for (h, tw, irr), cnt in hist.items()}
    if n == 3:
        v_lead = {a3: valuation(a3, p) for a3 in range(an_lo, an_hi + 1)}
        memo: dict[tuple, dict] = {}  # (v_p(a_3), v_p(u)) -> {v_p(D): sep}
        last_a1 = None
        for (a0, a1, a2, a3), _, v, irr in records:
            if a1 != last_a1:  # in canonical order a_1 changes with every (a_3, a_2, a_1)
                last_a1 = a1
                m = max(a3, abs(a2), abs(a1))
                u = 3 * a1 * a3 - a2 * a2
                va3, vu = v_lead[a3], valuation(u, p) if u else None
                seps = memo.setdefault((va3, vu), {})
            if v is None:
                continue
            h = a0 if a0 > m else -a0 if -a0 > m else m
            if h >= shell_lo:
                sep = seps.get(v)
                if sep is None:
                    terms = [(0, 0)] if vu is None else [(0, 0), (4, 2 * vu)]
                    sep = seps[v] = _first_slope(6, v + 2 * va3, terms, va3)
                key = (h, sep, irr)
                hist[key] = hist.get(key, 0) + 1
        return hist
    for coeffs, _, v, irr in records:
        if v is not None and (h := max(map(abs, coeffs))) >= shell_lo:
            key = (h, min_conjugate_separation(IntPoly(coeffs), p).val, irr)
            hist[key] = hist.get(key, 0) + 1
    return hist


def _exp_less(a: tuple[int, int, int], b: tuple[int, int, int]) -> bool:
    """Compare sep/log(H) pairs: a < b, exactly, via cross-powers.

    sn_a/(sd_a log h_a) < sn_b/(sd_b log h_b)  <=>  h_b^(sn_a sd_b) < h_a^(sn_b sd_a)
    """
    (sn_a, sd_a, h_a), (sn_b, sd_b, h_b) = a, b
    return Fraction(h_b) ** (sn_a * sd_b) < Fraction(h_a) ** (sn_b * sd_a)


def sep_census(n: int, p, t_grid: Sequence[int], theta_grid: Sequence[Fraction],
               c0_exp: int = 0, workers: int = 1,
               max_records: Optional[int] = None) -> SepCensus:
    """Count irreducible P with close conjugate roots in the shell H in [Q/p, Q].

    Membership: separation valuation >= theta t - log_p C0 with C0 = p^c0_exp,
    compared exactly as rationals.  Counts are doubled for the sign pair.
    Rows and max_exponent are read off the merged (H, sep, irreducible)
    histogram.  A negative theta is a ValueError, raised before any shard runs.
    """
    q = _census_inputs(n, p, t_grid, 0)
    thetas = [Fraction(th) for th in theta_grid]
    if any(th < 0 for th in thetas):
        raise ValueError(f"every theta must be >= 0, got {[str(th) for th in thetas]}")
    rows: list[SepCensusRow] = []
    complete = True
    seen_total = used = 0
    for t in t_grid:
        hb = q**t
        if max_records is not None and seen_total + poly_count(n, hb) > max_records:
            complete = False
            break
        seen_total += poly_count(n, hb)
        hist: dict[tuple, int] = {}
        shards, started = _run_shards(_sep_shard,
                                      [(n, q, t, lo, hi) for lo, hi in _shards(hb)], workers)
        used = max(used, started)
        for shard in shards:
            for key, cnt in shard.items():
                hist[key] = hist.get(key, 0) + cnt
        best = None  # (sep num, sep den, height) of the largest sep / log H
        for h, sep, irr in hist:
            if irr and h > 1:
                cand = (sep.numerator, sep.denominator, h)
                if best is None or _exp_less(best, cand):
                    best = cand
        max_exp = None
        if best is not None:
            sn, sd, h = best
            max_exp = (sn / sd) / math.log(h, q)
        for theta in thetas:
            floor = theta * t - c0_exp
            ca = sum(cnt for (_, sep, _), cnt in hist.items() if sep >= floor)
            ci = sum(cnt for (_, sep, irr), cnt in hist.items() if irr and sep >= floor)
            rows.append(SepCensusRow(n, q, t, theta, c0_exp, 2 * ca, 2 * ci, 0, max_exp))
    return SepCensus(rows, complete, seen_total, used)


# --- exponent fitting -----------------------------------------------------------


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    residual_rms: float
    used: int
    dropped: list


def fit_exponent(points: Sequence[tuple[int, int]]) -> ExponentFit:
    """Least-squares slope of log(count) against log(Q); zero counts dropped."""
    clean = [(q, c) for q, c in points if c > 0]
    dropped = [(q, c) for q, c in points if c <= 0]
    if len(clean) < 2:
        raise ValueError("need at least two nonzero points to fit an exponent")
    xs = [math.log(q) for q, _ in clean]
    ys = [math.log(c) for _, c in clean]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    sxx = sum((x - xbar) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("all Q values identical")
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
    intercept = ybar - slope * xbar
    resid = [y - (intercept + slope * x) for x, y in zip(xs, ys)]
    rms = math.sqrt(sum(r * r for r in resid) / len(resid))
    return ExponentFit(slope, intercept, rms, len(clean), dropped)


# --- Monte-Carlo measure estimation ---------------------------------------------


@dataclass(frozen=True)
class MeasureEstimate:
    mode: str
    threshold_exp: int  # epsilon or delta = p^-threshold_exp
    samples: int
    hits: int
    estimate: Fraction
    wilson_low: float
    wilson_high: float
    seed: int


def _wilson(hits: int, total: int, z: float = _WILSON_Z) -> tuple[float, float]:
    if total == 0:
        return 0.0, 1.0
    phat = hits / total
    denom = 1 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    low = max(0.0, center - half)
    high = min(1.0, center + half)
    # the interval always covers the point estimate; guard the float edges
    if hits == total:
        high = 1.0
    if hits == 0:
        low = 0.0
    return low, high


def _box_has_point(p: int, b: Sequence[int], x: int, radius: int,
                   require_top: bool = False) -> bool:
    """Is there a nonzero vector, sup-norm <= radius, meeting all congruences?

    The congruences are v_p(sum_(j>=i) C(j,i) x^(j-i) a_j) >= b_i.  With
    require_top the top coefficient must be nonzero (degree exactly n); the
    first point _box_points yields has the largest a_n in the box, so it
    alone decides.
    """
    first = next(_box_points(p, b, x, radius), None)
    return first is not None and (first[-1] != 0 or not require_top)


def _measure_block(args) -> int:
    mode, p, b, t, thr_exp, pinch_extra, count, block_seed, require_top = args
    rng = random.Random(block_seed)
    hits = 0
    if mode == "short-vector":
        radius = p ** (t - thr_exp) if t >= thr_exp else 0
        bb = list(b)
    else:
        radius = pinch_extra[1]
        bb = list(b)
        bb[pinch_extra[0]] += pinch_extra[2]
    # the event is decided by x mod p^max(bb); sample with resolution to spare
    modulus = p ** (max(bb) + 4)
    for _ in range(count):
        x = rng.randrange(modulus)
        if _box_has_point(p, bb, x, radius, require_top):
            hits += 1
    return hits


def measure_estimate(params: XiParams, threshold_exp: int, mode: str = "short-vector",
                     samples: int = 10_000, seed: int = 0, workers: int = 1,
                     i_pinch: Optional[int] = None, c2: Optional[int] = None) -> MeasureEstimate:
    """Monte-Carlo measure of the exceptional set of centers x.

    mode "short-vector": the event is lambda_1 <= epsilon = p^-threshold_exp,
    i.e. a nonzero lattice vector of sup-norm <= epsilon Q exists (checked by
    exact enumeration).  mode "pinch": the event is a degree-n polynomial of
    height <= C2 Q satisfying the system with xi_(i_pinch) shrunk by
    delta^(2(n+1)) C2^-(n+1), delta = p^-threshold_exp.

    Sampling is uniform over x mod p^(max b_i + 4); blocks of 512 samples use
    seeds derived from (seed, block), so results do not depend on the worker
    count.  Returns the exact hit fraction with a 95% Wilson interval.
    """
    p = params.p
    if mode == "short-vector":
        pinch_extra = None
        require_top = False
    elif mode == "pinch":
        if i_pinch is None or c2 is None:
            raise ValueError("pinch mode needs i_pinch and c2")
        c2_exp = _power_of_p_exponent(Fraction(c2), p)
        if c2_exp is None or c2_exp < 0 or c2_exp % 2:
            raise ValueError("C2 must be a power of p^2")
        n = params.n
        extra = 2 * (n + 1) * threshold_exp + (n + 1) * c2_exp
        pinch_extra = (i_pinch, c2 * params.Q, extra)
        require_top = True
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if samples < 1:
        raise ValueError("samples must be >= 1")

    blocks = []
    done = 0
    idx = 0
    while done < samples:
        count = min(_SAMPLE_BLOCK, samples - done)
        block_seed = f"{seed}:{idx}"
        blocks.append((mode, p, params.b, params.t, threshold_exp, pinch_extra,
                       count, block_seed, require_top))
        done += count
        idx += 1
    hits = sum(_run_shards(_measure_block, blocks, workers)[0])
    lo, hi = _wilson(hits, samples)
    return MeasureEstimate(mode, threshold_exp, samples, hits,
                           Fraction(hits, samples), lo, hi, seed)
