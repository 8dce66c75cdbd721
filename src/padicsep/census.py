"""Exhaustive censuses over integer polynomials of bounded height.

Counts polynomials whose discriminant is divisible by large powers of p, or
whose conjugate roots are p-adically close, on exact thresholds; fits power
laws to the counts; and Monte-Carlo-estimates the measure of centers x whose
coefficient lattice admits unusually short vectors.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .intpoly import IntPoly, content_primitive, discriminant_coeffs, is_irreducible
from .padic import _as_int, _as_p, _as_rational, _ceil_log, valuation
from .roots import _first_slope, min_conjugate_separation

if TYPE_CHECKING:  # lattice loads with the first measure estimate; censuses never need it
    from .lattice import XiParams

_WILSON_Z = 1.959963984540054  # 95% two-sided normal quantile
_SAMPLE_BLOCK = 512  # Monte-Carlo block size; the block seeds fix the sample stream


def poly_count(n: int, height_bound: int) -> int:
    """Total number of degree-n polynomials of height <= Q (both signs of a_n)."""
    return 2 * height_bound * (2 * height_bound + 1) ** n


def _cubic_products(a3: int, q: int, a0_max: int) -> dict[tuple[int, int], set[int]]:
    """{(a_2, a_1): {a_0}} of the reducible cubics of height <= q, leading a_3, a_2 >= 0,
    0 < |a_0| <= a0_max <= q.

    A cubic is reducible over Q iff it has a linear factor, so by Gauss's
    lemma iff P = (s x - r)(b x^2 + c x + d) over Z, with s > 0 after negating
    both factors: s | a_3, b = a_3 / s and
        a_2 = s c - r b,   a_1 = s d - r c,   a_0 = -r d.
    For 0 < |a_0| <= a0_max, r, d != 0 and |d| <= a0_max/|r|.  0 <= a_2 <= Q reads
    ceil(r b/s) <= c <= floor((r b + Q)/s).  |a_1| <= Q reads
    s d - Q <= r c <= s d + Q, i.e. ceil((s d - u)/r) <= c <= floor((s d + u)/r)
    with u = Q for r > 0 and u = -Q for r < 0, since dividing by r < 0 turns
    the inequalities round.  c runs over the intersection of the two, so
    every step is a product of the box with 0 < |a_0| <= a0_max, and every
    such reducible cubic is one; a cubic met twice (content, a repeated root)
    lands in the same set.
    """
    nonzero = [*range(-q, 0), *range(1, q + 1)]
    reducible: dict[tuple[int, int], set[int]] = {}
    for s in range(1, a3 + 1):
        if a3 % s == 0:
            b = a3 // s
            for r in nonzero[q - a0_max:q + a0_max]:  # 0 < |r| <= a0_max
                k, u = a0_max // abs(r), q if r > 0 else -q
                c_lo, c_hi = -((-r * b) // s), (r * b + q) // s
                for d in nonzero[q - k:q + k]:  # 0 < |d| <= a0_max/|r|
                    sd = s * d
                    for c in range(max(c_lo, -((u - sd) // r)), min(c_hi, (sd + u) // r) + 1):
                        reducible.setdefault((s * c - r * b, sd - r * c), set()).add(-r * d)
    return reducible


def _records(n: int, p: int, height_bound: int, an_lo: int, an_hi: int,
             reversal_fold: bool = False) -> Iterator[tuple[tuple[int, ...], list[tuple]]]:
    """The census kernel: per block with a_(n-1) >= 0, (head, rows) in canonical order.

    head = (a_1, ..., a_n) fixes a block, the blocks run a_n ascending, then
    a_(n-1) = 0..Q, a_(n-2), ..., a_1, and rows = [(a_0, D, v_p(D), irreducible)]
    for the a_0 = -Q..Q with D != 0, the only records either census counts;
    with reversal_fold only for the a_0 = -a_n..a_n.  Both censuses read D,
    v_p(D) and the verdict here from n = 3 on.

    Mirror.  mu(P)(x) = (-1)^n P(-x), a_i -> (-1)^(n-i) a_i, is an involution
    fixing a_n and every |a_i|, hence H and the box; it maps a_0 to (-1)^n a_0
    and a block to the one with every a_(n-k), k odd, negated, so it swaps the
    sign of a_(n-1).  Its roots are the -alpha_i, so D(mu P) = a_n^(2n-2)
    prod (alpha_i - alpha_j)^2 = D(P) and every v_p(alpha_i - alpha_j) is kept;
    P(x) -> P(-x) is a ring automorphism of Q[x], so irreducibility is kept.
    Paired blocks thus hold equal multisets of (|D|, v_p(D), irreducible, H,
    sep): the censuses count a block with a_(n-1) > 0 twice, one with 0 once.

    Reversal.  For a_0 != 0, rho(P) = sign(a_0) x^n P(1/x), a_i -> sign(a_0) a_(n-i),
    fixes H; its constant sign(a_0) a_n has the sign of a_0, so rho is an
    involution of the records with a_0 != 0.  It swaps leading a_n and |a_0|,
    so it maps the records with 0 < |a_0| < a_n one-to-one onto those with
    |a_0| > a_n, and those with |a_0| = a_n among themselves.  Its roots are
    the 1/alpha_i, and prod alpha_i = (-1)^n a_0 / a_n, so D(rho P)
    = a_0^(2n-2) prod_(i<j) (1/alpha_i - 1/alpha_j)^2
    = a_0^(2n-2) prod_(i<j) (alpha_i - alpha_j)^2 / (prod alpha_i)^(2n-2) = D(P).
    P = F G gives rho(P) = +-rho(F) rho(G) with the degrees kept, as
    F(0) G(0) = a_0 != 0, and rho keeps the content, so the primitive parts
    are irreducible together.  So the multiset of (D, v_p(D), irreducible)
    over the box is that over |a_0| <= a_n with 0 < |a_0| < a_n counted
    twice.  That range and weight read only a_n and |a_0|, which mu fixes,
    so the mirror fold holds inside it: the disc census walks a_(n-1) >= 0
    and |a_0| <= a_n.  The sep census cannot, since
    v_p(1/alpha_i - 1/alpha_j) = v_p(alpha_i - alpha_j) - v_p(alpha_i) - v_p(alpha_j).

    At n = 3, D is the closed cubic form A + a_0 (B + C a_0) of each block,
    and a_0 = 0 gives the factor x; the other reducible cubics come from one
    _cubic_products table per a_3, over the walked |a_0|.
    """
    box = range(-height_bound, height_bound + 1)
    for an in range(an_lo, an_hi + 1):
        a0_max = an if reversal_fold else height_bound
        a0s = range(-a0_max, a0_max + 1)
        if n == 3:
            reducible = _cubic_products(an, height_bound, a0_max)
            big_c = -27 * an * an
        for rest in itertools.product(range(height_bound + 1), *[box] * (n - 2)):  # a_(n-1)..a_1
            head = rest[::-1] + (an,)
            rows = []
            if n == 3:
                a2, a1 = rest
                big_a = a1 * a1 * (a2 * a2 - 4 * an * a1)
                big_b = a2 * (18 * an * a1 - 4 * a2 * a2)
                red = reducible.get(rest, ())
                for a0 in a0s:
                    disc = big_a + a0 * (big_b + big_c * a0)
                    if disc:
                        v = 0
                        d = disc
                        while d % p == 0:
                            d //= p
                            v += 1
                        rows.append((a0, disc, v, a0 != 0 and a0 not in red))
            else:
                for a0 in a0s:
                    coeffs = (a0,) + head
                    disc = discriminant_coeffs(coeffs)
                    if disc:
                        prim = content_primitive(IntPoly(coeffs))[1]
                        rows.append((a0, disc, valuation(disc, p), bool(is_irreducible(prim))))
            yield head, rows


def _census_inputs(n: int, p, bounds: Sequence[int], least: int, rates: Sequence,
                   consts: Sequence[int], workers: int,
                   max_records: Optional[int]) -> tuple[int, list[Fraction]]:
    """The census entry check: p and the rates validated, or ValueError before any shard runs.

    n >= 2, every bound (Q, or t of Q = p^t) >= least, workers >= 1, every
    constant exponent (c_exp or c0_exp) and max_records (unless None) >= 0
    must be integers, and every rate (nu or theta) a rational >= 0.  No bound,
    rate or constant exponent may repeat: its rows would be counted twice.
    """
    _as_int(n, "n", 2)
    for b in bounds:
        _as_int(b, "every bound", least)
    for c in consts:
        _as_int(c, "every constant exponent")
    _as_int(workers, "workers", 1)
    if max_records is not None:
        _as_int(max_records, "max_records", 0)
    rates = [_as_rational(r, "every nu or theta", 0) for r in rates]
    for name, values in (("bound", bounds), ("nu or theta", rates), ("constant exponent", consts)):
        if len(set(values)) < len(values):
            raise ValueError(f"repeated {name} in {', '.join(map(str, values))}")
    return _as_p(p), rates


def _census_grid(fn, n: int, p: int, heights: Sequence[int], workers: int,
                 max_records: Optional[int]) -> tuple[list[list], int, bool, int]:
    """(Per level shard results in shard order, records seen, complete, processes started).

    Each shard gets (n, p, Q, a_n lo, a_n hi).  A level runs only if the
    running record total, that level included, stays within max_records; all
    levels that run go through one _run_shards, the only place that starts
    worker processes.
    """
    levels, seen = [], 0
    for hb in heights:
        if max_records is not None and seen + poly_count(n, hb) > max_records:
            break
        seen += poly_count(n, hb)
        levels.append([(n, p, hb, lo, hi) for lo, hi in _shards(hb)])
    args = [a for level in levels for a in level]
    # one pool per call, none unless some level has two shards to spread, and at
    # most one process per shard: under fork the pool starts all its workers at once
    spread = workers > 1 and any(len(level) > 1 for level in levels)
    started = min(workers, len(args)) if spread else 0
    it = iter(_run_shards(fn, args, started))
    return ([list(itertools.islice(it, len(level))) for level in levels], seen,
            len(levels) == len(heights), started)


# --- discriminant census ------------------------------------------------------


def disc_threshold(p: int, height_bound: int, nu: Fraction, c_exp: int) -> int:
    """Smallest k with p^(k + c_exp) >= Q^(2 nu), nu >= 0: membership is v_p(D) >= k."""
    nu = _as_rational(nu, "nu", 0)
    power = _as_int(height_bound, "height_bound", 1) ** (2 * nu.numerator)
    # with nu = a/d: p^(k d) >= Q^(2a)  <=>  k d >= ceil(log_p Q^(2a))
    return -(-_ceil_log(power, p) // nu.denominator) - _as_int(c_exp, "c_exp")


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
    workers_used: int  # the worker processes the call started, 0 when all ran in-process


def _hist_add(hist: dict[int, list[int]], v: int, cnt: int, irr: int, lo: int, hi: int) -> None:
    """Merge cnt records at level v, irr of them irreducible, with |D| in [lo, hi]."""
    entry = hist.get(v)
    if entry is None:
        hist[v] = [cnt, irr, lo, hi]
        return
    entry[0] += cnt
    entry[1] += irr
    if lo < entry[2]:
        entry[2] = lo
    if hi > entry[3]:
        entry[3] = hi


def _level_extremes(a: int, f: int, q: int, r: int, m: int, r_next: int,
                    m_next: int) -> tuple[int, int]:
    """min and max of |a - f x| over x in [-q, q], x = r mod m, x != r_next mod m_next.

    Needs a >= 0, f > 0, m_next = p m, r_next = r mod m and at least two
    members x = r mod m in the box; _quadratic_disc_blocks proves that one step
    past an excluded member suffices.
    """
    x = min(a // f, q)
    x -= (x - r) % m  # the largest member <= min(a/f, q)
    if (x - r_next) % m_next == 0:
        x -= m
    y = -(-a // f)
    y += (r - y) % m  # the smallest member >= a/f >= -q
    if (y - r_next) % m_next == 0:
        y += m
    if x < -q:
        lo = f * y - a
    elif y > q:
        lo = a - f * x
    else:
        lo = min(a - f * x, f * y - a)
    s = -q + (r + q) % m  # the smallest member
    if (s - r_next) % m_next == 0:
        s += m
    t = q - (q - r) % m  # the largest member
    if (t - r_next) % m_next == 0:
        t -= m
    return lo, max(abs(a - f * s), abs(a - f * t))


def _class_count(r: int, m: int, q: int) -> int:
    """The number of x = r mod m in [-q, q], q >= 0."""
    return (q - r) // m - (-q - 1 - r) // m


def _square_roots_in(a: int, f: int, q: int, roots: dict[int, list[int]]) -> Iterator[int]:
    """The m >= 1 with D = a - f a_0 = m^2 for an a_0 in [-q, q], one per such a_0.

    D = m^2 reads a_0 = (a - m^2)/f, an integer iff m^2 = a mod f, and in the
    box iff a - f q <= m^2 <= a + f q; roots maps s to the x mod f with x^2 = s.
    """
    low = a - f * q
    m_lo = math.isqrt(low - 1) + 1 if low > 1 else 1
    m_hi = math.isqrt(a + f * q)
    for res in roots[a % f]:
        yield from range(m_lo + (res - m_lo) % f, m_hi + 1, f)


def _quadratic_tables(p: int, q: int, a2_lo: int, a2_hi: int) -> tuple[int, list[int], list]:
    """What the n = 2 blocks over a_0 in [-Q, Q] share, a_2 in [a2_lo, a2_hi].

    top = p^J >= 2Q + 1 least; v_p(m^2) for m <= sqrt(Q^2 + 4 a_2 Q), every m
    of _square_roots_in and |a_1|; per a_2, (a_2, F = 4 a_2, b = v_p(F), p^b,
    (F / p^b)^(-1) mod p^J, the square roots mod F of _square_roots_in).
    """
    top = p ** _ceil_log(2 * q + 1, p)
    twice_v = [0] + [2 * valuation(m, p) for m in range(1, math.isqrt(q * q + 4 * a2_hi * q) + 1)]
    per_a2 = []
    for a2 in range(a2_lo, a2_hi + 1):
        f, b = 4 * a2, valuation(4 * a2, p)
        roots: dict[int, list[int]] = {}
        for x in range(f):
            roots.setdefault(x * x % f, []).append(x)
        per_a2.append((a2, f, b, p**b, pow(f // p**b, -1, top), roots))
    return top, twice_v, per_a2


def _quadratic_disc_blocks(p: int, height_bound: int, a2_lo: int, a2_hi: int,
                           a1_values) -> dict[int, list[int]]:
    """The n = 2 disc histogram of the blocks (a_2, a_1), a_2 in [a2_lo, a2_hi].

    a1_values is a subset of [0, Q]; each a_1 > 0 stands for the blocks +-a_1,
    whose records agree (D reads a_1^2), so every count it adds is weighted by
    w = 2 if a_1 else 1.  Each block is counted over a_0 in [-Q, Q] in closed
    form, with no record per a_0.  Write A = a_1^2, B = -4 a_2 and F = -B > 0,
    so D = A + B a_0 = A - F a_0, and b = v_p(B).  The box holds N = 2Q + 1 values of a_0.

    Valuation.  If v_p(A) < b, then v_p(B a_0) >= b > v_p(A) for every a_0,
    so v_p(D) = v_p(A) and D != 0.  Otherwise D = p^b (A' + B' a_0) with
    A' = A / p^b and B' = B / p^b prime to p, so v_p(D) >= b + j iff p^j
    divides A' + B' a_0, i.e. iff a_0 = r_j mod p^j with r_j = -A' B'^(-1).
    The class r mod m holds floor((Q - r)/m) - floor((-Q - 1 - r)/m) values
    of the box, and since class j + 1 lies inside class j, level b + j holds
    count(class j) - count(class j + 1) of them.  All r_j up to the first
    p^J >= N are residues of one r_J: from there on a class holds at most one
    value of the box.

    D = 0.  The point z = A/F, when it is an integer in the box, has D = 0, so
    it lies in every class.  It drops out of every level count, which is a
    difference of two class counts that both hold it; the extremes never pick
    it, since it lies in the next class; and the tail skips it.

    Extremes.  |D| = F |a_0 - A/F| is |linear| in a_0, so on the values at
    one level, |D| is least at the one nearest A/F on either side, and
    greatest at the smallest or the largest one.  The values of class j form
    a progression of step p^j, and class j + 1 takes every p-th term of it:
    two terms p^j apart cannot both be r_(j+1) mod p^(j+1).  So when the term
    nearest A/F (or the box end) lies in class j + 1, the next term one step
    further lies at the level, if it is in the box.  With two or more terms in
    class j, its smallest and largest terms differ, so the step from either
    end stays in the box.

    Extremes only where they can move.  Upper: A >= 0 and |a_0| <= Q, so a
    record has |D| <= A + F Q.  Lower: at level b + j, p^(b+j) | D != 0, so
    |D| >= p^(b+j).  A level whose stored max is >= A + F Q and min is p^(b+j)
    only adds the block's counts.  a_2 runs descending and a_1 as given
    (descending from _disc_shard): early blocks set the largest maxima.

    Tail.  The descent stops once class j holds at most one value of the box;
    that value, unless it is z, is one record whose v_p(D) is computed.

    Irreducibility.  A quadratic with D != 0 is reducible over Q iff it has
    a rational root, iff D is the square of a rational, iff D = m^2 for an
    integer m >= 1.  Distinct m >= 1 give distinct a_0, so each m that
    _square_roots_in lists takes one record at level v_p(m^2) = 2 v_p(m) out
    of count_irr.  The walk is inline here: as a generator call per block it
    cost this loop about 5%.
    """
    q = height_bound
    size = 2 * q + 1
    top, twice_v, per_a2 = _quadratic_tables(p, q, a2_lo, a2_hi)
    hist: dict[int, list[int]] = {}
    for a2, f, b, pb, inv, square_roots in reversed(per_a2):
        for a1 in a1_values:
            a, w = a1 * a1, 2 if a1 else 1
            if a1 and twice_v[a1] < b:
                # one level: |D| is least at the integer nearest A/F >= 0, greatest at a_0 = -Q
                x = a // f
                lo = a - f * q if x >= q else min(a - f * x, f * (x + 1) - a)
                _hist_add(hist, twice_v[a1], w * size, w * size, lo, a + f * q)
            else:
                r_top = (a // pb) * inv % top
                m, cnt, level = 1, size, b
                while cnt > 1:
                    m_next = m * p
                    r_next = r_top % m_next
                    cnt_next = _class_count(r_next, m_next, q)
                    c, entry = w * (cnt - cnt_next), hist.get(level)
                    if entry is not None and entry[3] >= a + f * q and entry[2] == pb * m:
                        entry[0], entry[1] = entry[0] + c, entry[1] + c
                    else:
                        lo, hi = _level_extremes(a, f, q, r_top % m, m, r_next, m_next)
                        _hist_add(hist, level, c, c, lo, hi)
                    m, cnt, level = m_next, cnt_next, level + 1
                if cnt:
                    x = -q + (r_top % m + q) % m
                    d = a - f * x
                    if d:
                        _hist_add(hist, valuation(d, p), w, w, abs(d), abs(d))
            low = a - f * q
            m_lo = math.isqrt(low - 1) + 1 if low > 1 else 1
            m_hi = math.isqrt(a + f * q)
            for res in square_roots[a % f]:
                for m in range(m_lo + (res - m_lo) % f, m_hi + 1, f):
                    hist[twice_v[m]][1] -= w
    return hist


def _disc_shard(args) -> dict[int, list[int]]:
    """v_p(D) -> [count, count_irr, min |D|, max |D|] over one a_n range, D != 0.

    Within one v_p(D) the cofactor |D| / p^v is monotone in |D|, so the
    minimal cofactor follows from the minimal |D|.  Only blocks with a_(n-1) >= 0
    are walked, those with a_(n-1) > 0 weighted w = 2 for their mirrors (see
    _records).  At n = 2 each (a_2, a_1) block is counted in closed form by
    _quadratic_disc_blocks, a_1 descending (see its "Extremes only where they
    can move"); from n = 3 the census kernel's records give the histogram,
    over |a_0| <= a_n only, each with 0 < |a_0| < a_n weighted 2 w for its
    reversal.  That partner has leading coefficient |a_0|, which may lie in
    another shard's a_n range, so a shard's histogram is not that of its own
    records: only the levels merged over all shards of a height are.
    """
    n, p, height_bound, an_lo, an_hi = args
    if n == 2:
        return _quadratic_disc_blocks(p, height_bound, an_lo, an_hi, range(height_bound, -1, -1))
    hist: dict[int, list[int]] = {}
    for head, rows in _records(n, p, height_bound, an_lo, an_hi, True):
        edge = (0, head[-1], -head[-1])  # the a_0 that have no reversal partner
        w = 2 if head[-2] else 1
        for a0, disc, v, irr in rows:
            ad = abs(disc)
            wt = w if a0 in edge else 2 * w
            entry = hist.get(v)
            if entry is None:
                hist[v] = [wt, wt if irr else 0, ad, ad]
                continue
            entry[0] += wt
            if irr:
                entry[1] += wt
            if ad < entry[2]:
                entry[2] = ad
            elif ad > entry[3]:
                entry[3] = ad
    return hist


def _shards(height_bound: int) -> list[tuple[int, int]]:
    """Leading-coefficient ranges of 8; fixed rule independent of the worker count."""
    return [(lo, min(height_bound, lo + 7)) for lo in range(1, height_bound + 1, 8)]


def disc_census(n: int, p, height_grid: Sequence[int], nu_grid: Sequence[Fraction],
                c_exps: Sequence[int] = (0, 1, 2), workers: int = 1,
                max_records: Optional[int] = None) -> DiscCensus:
    """Count polynomials with 0 < |D|_p <= p^c Q^(-2 nu), exactly.

    Canonical representatives have a_n > 0; totals count each +-P pair twice
    (discriminants are invariant under P -> -P).  Counts carry both the
    unrestricted and the irreducible-only versions, plus the prime-power
    split statistic of the discriminant values.  Every row is read off the
    merged v_p(D) histogram: the count at threshold k sums the levels v >= k.
    A bad argument (see _census_inputs) is a ValueError before any shard runs.
    """
    p, nus = _census_inputs(n, p, height_grid, 1, nu_grid, c_exps, workers, max_records)
    rows: list[DiscCensusRow] = []
    stats: list[PrimePowerStat] = []
    levels, seen, complete, used = _census_grid(_disc_shard, n, p, height_grid, workers,
                                                max_records)
    for hb, shards in zip(height_grid, levels):
        hist: dict[int, list[int]] = {}
        for shard in shards:
            for k, entry in shard.items():
                _hist_add(hist, k, *entry)
        for nu in nus:
            for ce in c_exps:
                thr = disc_threshold(p, hb, nu, ce)
                ca = sum(e[0] for v, e in hist.items() if v >= thr)
                ci = sum(e[1] for v, e in hist.items() if v >= thr)
                # doubled: canonical enumeration covers each {P, -P} pair once
                rows.append(DiscCensusRow(n, p, hb, nu, ce, thr, 2 * ca, 2 * ci))
        for k in sorted(hist):
            cnt, cnt_irr, min_ad, max_ad = hist[k]
            stats.append(PrimePowerStat(hb, k, 2 * cnt, 2 * cnt_irr, min_ad // p**k, max_ad))
    return DiscCensus(rows, stats, complete, seen, used)


def _run_shards(fn, shard_args, processes: int) -> list:
    """The shard results in order: in process when processes is 0, else in a pool of that many."""
    if not processes:
        return [fn(a) for a in shard_args]
    import signal
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: pools only

    # A SIGTERM or SIGINT handler that runs inside an at-fork hook has its exception
    # dropped, so both are held while map forks the workers and submits every shard;
    # the workers start with the caller's mask.
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
    with ProcessPoolExecutor(max_workers=processes, initializer=signal.pthread_sigmask,
                             initargs=(signal.SIG_SETMASK, mask)) as pool:
        try:
            signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGTERM, signal.SIGINT))
            try:
                results = pool.map(fn, shard_args)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)  # a held signal's handler runs here
            return list(results)
        except BaseException:
            # leaving the block would wait for the running shards: stop them now
            for proc in pool._processes.values():
                proc.kill()
            raise


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
    max_exponent: Optional[float]  # max observed sep_val / log_p H, irreducible P


@dataclass
class SepCensus:
    rows: list[SepCensusRow]
    complete: bool
    records_seen: int
    workers_used: int  # the worker processes the call started, 0 when all ran in-process


def _nearest_irreducible(a: int, f: int, q: int, w: int, r: int, m: int, r_next: int,
                         m_next: int) -> Optional[int]:
    """The least |x| >= w over x in [-q, q], x = r mod m, with a - f x neither 0 nor a square.

    x != r_next mod m_next too, unless m_next = 0.  None when there is no such x.
    """
    up = range(w + (r - w) % m, q + 1, m)  # the members >= w, ascending
    down = range(-w - (-w - r) % m, -q - 1, -m)  # the members <= -w, descending
    for x in heapq.merge(up, down, key=abs):
        d = a - f * x
        if (not m_next or (x - r_next) % m_next) and (d < 0 or d and math.isqrt(d) ** 2 != d):
            return abs(x)
    return None


def _quadratic_sep_blocks(p: int, height_bound: int, a2_lo: int, a2_hi: int,
                          a1_values) -> tuple[dict[tuple, int], dict]:
    """The n = 2 _sep_shard of the blocks (a_2, a_1), a_2 in [a2_lo, a2_hi], Q a power of p.

    a1_values is a subset of [0, Q], each a_1 > 0 counted w = 2 times for +-a_1
    as in _quadratic_disc_blocks; the least H does not change.  Each block is
    counted over a_0 by the descent of _quadratic_disc_blocks (its A, F, b,
    classes r_j mod p^j, z and tail), with no record per a_0.  Write
    h_0 = max(a_2, a_1) and s = floor(Q/p).  D = a_2^2 (alpha_1 - alpha_2)^2
    gives 2 sep = v_p(D) - 2 v_p(a_2), so within a block each level is one sep.

    Shell.  H = max(h_0, |a_0|), so H >= s iff h_0 >= s or |a_0| >= s.  The
    block's a_0 set is the box [-Q, Q] when h_0 >= s, and otherwise the box
    less the inner box [-(s - 1), s - 1] (then s > h_0 >= 1, so s - 1 >= 1).
    A class holds count(box) - count(inner box) values of the set, and a
    level the difference of two such counts: z drops out of each box that
    holds it.  The tail value counts when it is in the set and is not z.
    The reducible a_0 of the set are those of the box less those of the
    inner box.

    Least H.  A record of the set has H > 1 iff |a_0| >= x_min, where x_min = 0
    when h_0 >= max(s, 2) and x_min = max(s, 2) otherwise: then H >= s and
    H > 1 ask max(h_0, |a_0|) >= max(s, 2) > h_0.  H does not fall as |a_0|
    grows, so at one level the least H > 1 of an irreducible record comes from
    the member of class j nearest 0 with |a_0| >= x_min that is not in class
    j + 1 (those lie at higher levels), not z and not reducible:
    _nearest_irreducible walks out to it from x_min on both sides.  Every H > 1
    in the block is >= max(h_0, x_min), so a level whose running least H is
    already that small skips the walk.  Fed a_1 ascending, h_0 never falls
    within an a_2, and most blocks skip every walk.
    """
    q = height_bound
    s = q // p
    size = 2 * q + 1
    top, twice_v, per_a2 = _quadratic_tables(p, q, a2_lo, a2_hi)
    counts: dict[int, int] = {}  # 2 sep -> records
    reducible: dict[int, int] = {}  # 2 sep -> reducible records
    least: dict[int, int] = {}  # 2 sep -> least H > 1 of an irreducible record

    def add_level(tw, k, r, m, r_next, m_next):  # k records: r mod m, not r_next mod m_next
        counts[tw] = counts.get(tw, 0) + w * k
        if least.get(tw, q + 1) > max(h0, x_min):
            x = _nearest_irreducible(a, f, q, x_min, r, m, r_next, m_next)
            if x is not None:
                least[tw] = min(least.get(tw, q + 1), max(h0, x))

    for a2, f, b, pb, inv, roots in per_a2:
        lead = 2 * valuation(a2, p)
        for a1 in a1_values:
            a, w = a1 * a1, 2 if a1 else 1
            h0 = max(a2, a1)
            inner = s - 1 if h0 < s else -1  # the set is the box less |a_0| <= inner
            x_min = 0 if h0 >= max(s, 2) else max(s, 2)
            if a1 and twice_v[a1] < b:
                add_level(twice_v[a1] - lead, size - max(2 * inner + 1, 0), 0, 1, 0, 0)
            else:
                r_top = (a // pb) * inv % top
                m, cnt, cnt_in, level = 1, size, max(2 * inner + 1, 0), b
                while cnt > 1:
                    m_next = m * p
                    r_next = r_top % m_next
                    cnt_next = _class_count(r_next, m_next, q)
                    in_next = _class_count(r_next, m_next, inner) if inner > 0 else 0
                    if cnt - cnt_next - cnt_in + in_next:
                        add_level(level - lead, cnt - cnt_next - cnt_in + in_next,
                                  r_top % m, m, r_next, m_next)
                    m, cnt, cnt_in, level = m_next, cnt_next, in_next, level + 1
                if cnt:
                    x = -q + (r_top % m + q) % m
                    if a != f * x and abs(x) > inner:
                        add_level(valuation(a - f * x, p) - lead, 1, x, m, 0, 0)
            for m in _square_roots_in(a, f, q, roots):
                reducible[twice_v[m] - lead] = reducible.get(twice_v[m] - lead, 0) + w
            if inner > 0:
                for m in _square_roots_in(a, f, inner, roots):
                    reducible[twice_v[m] - lead] -= w
    half = {tw: tw // 2 if tw % 2 == 0 else Fraction(tw, 2) for tw in counts}
    shard = {(half[tw], True): c - reducible.get(tw, 0)
             for tw, c in counts.items() if c > reducible.get(tw, 0)}
    shard.update(((half[tw], False), c) for tw, c in reducible.items() if c)
    return shard, {half[tw]: h for tw, h in least.items()}


def _cubic_sep(va3: int, vu: Optional[int], v: int):
    """A cubic's separation from v_p(a_3), v_p(u) (None for u = 0) and v_p(D); see _sep_shard."""
    return _first_slope(6, v + 2 * va3, [(0, 0)] if vu is None else [(0, 0), (4, 2 * vu)], va3)


def _sep_shard(args) -> tuple[dict[tuple, int], dict]:
    """({(sep, irreducible): count}, {sep: least H > 1 of an irreducible record}).

    Over one a_n range, sep the separation valuation; only distinct-root
    polynomials in the shell H in [Q/p, Q] are counted.  sep_census reads H
    only through max_exponent, which needs no more than the least H per sep.

    Only blocks with a_(n-1) >= 0 are walked, those with a_(n-1) > 0 weighted
    w = 2 for their mirrors (see _records).  At n = 2 every (a_2, a_1) block,
    a_1 = 0..Q ascending for its walk skip, is counted by _quadratic_sep_blocks.

    From n = 3 one loop reads the blocks of _records.  Per block it takes
    m = max |head|, so a record has H = max(m, |a_0|); each shell record is
    counted w times under (key, irreducible), and each key is mapped to its
    sep once, at the end.  From n = 4 the key is the sep of min_conjugate_separation.
    At n = 3 the key is (v_p(a_3), v_p(u), v_p(D)), u = 3 a_1 a_3 - a_2^2
    fixed by the block: the separation is read off these three by the slope
    rule of min_conjugate_separation (roots._first_slope) and depends on
    nothing else.
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
    n, p, q, an_lo, an_hi = args
    if n == 2:
        return _quadratic_sep_blocks(p, q, an_lo, an_hi, range(q + 1))
    shell_lo = q // p
    v_lead = {a3: valuation(a3, p) for a3 in range(an_lo, an_hi + 1)} if n == 3 else {}
    raw: dict[tuple, int] = {}  # (key, irreducible) -> count
    raw_least: dict = {}  # key -> least H > 1 of an irreducible record
    for head, rows in _records(n, p, q, an_lo, an_hi):
        m, w = max(map(abs, head)), 2 if head[-2] else 1
        if n == 3:
            a1, a2, a3 = head
            u = 3 * a1 * a3 - a2 * a2
            va3, vu = v_lead[a3], valuation(u, p) if u else None
        for a0, _, v, irr in rows:
            h = a0 if a0 > m else -a0 if -a0 > m else m
            if h >= shell_lo:
                key = ((va3, vu, v) if n == 3
                       else min_conjugate_separation(IntPoly((a0,) + head), p).val)
                raw[key, irr] = raw.get((key, irr), 0) + w
                if irr and h > 1 and h < raw_least.get(key, h + 1):
                    raw_least[key] = h
    sep = {key: _cubic_sep(*key) if n == 3 else key for key in {key for key, _ in raw}}
    counts: dict[tuple, int] = {}
    for (key, irr), cnt in raw.items():
        counts[sep[key], irr] = counts.get((sep[key], irr), 0) + cnt
    least: dict = {}
    for key, h in raw_least.items():
        least[sep[key]] = min(least.get(sep[key], h), h)
    return counts, least


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
    Rows are read off the summed (sep, irreducible) counts of the shards.
    A bad argument (see _census_inputs) is a ValueError before any shard runs.

    max_exponent is the largest sep / log_p H over irreducible shell records
    with H > 1, found exactly by _exp_less over the seps in ascending order
    from the least H per sep (the minimum over the shards), an exact tie
    going to the smaller sep; the float is then (sep num / sep den) / log(H, p).
    For sep > 0 the least H gives the largest sep / log_p H.  Seps <= 0 never
    decide: for t >= 1 the first shard holds x^n + Q x + p, Eisenstein at p
    with H = Q, whose roots all have valuation 1/n, so sep >= 1/n > 0; and
    t = 0 has no H > 1.
    """
    p, thetas = _census_inputs(n, p, t_grid, 0, theta_grid, [c0_exp], workers, max_records)
    rows: list[SepCensusRow] = []
    levels, seen, complete, used = _census_grid(_sep_shard, n, p, [p**t for t in t_grid],
                                                workers, max_records)
    for t, shards in zip(t_grid, levels):
        counts: dict[tuple, int] = {}
        least: dict = {}
        for shard_counts, shard_least in shards:
            for key, cnt in shard_counts.items():
                counts[key] = counts.get(key, 0) + cnt
            for sep, h in shard_least.items():
                least[sep] = min(least.get(sep, h), h)
        best = None  # (sep num, sep den, height) of the largest sep / log H
        for sep in sorted(least):
            cand = (sep.numerator, sep.denominator, least[sep])
            if best is None or _exp_less(best, cand):
                best = cand
        max_exp = None
        if best is not None:
            sn, sd, h = best
            max_exp = (sn / sd) / math.log(h, p)
        for theta in thetas:
            floor = theta * t - c0_exp
            ca = sum(cnt for (sep, _), cnt in counts.items() if sep >= floor)
            ci = sum(cnt for (sep, irr), cnt in counts.items() if irr and sep >= floor)
            rows.append(SepCensusRow(n, p, t, theta, c0_exp, 2 * ca, 2 * ci, max_exp))
    return SepCensus(rows, complete, seen, used)


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


def _wilson(hits: int, total: int) -> tuple[float, float]:
    """The 95% Wilson interval; measure_estimate refuses samples < 1, so total >= 1."""
    z, phat = _WILSON_Z, hits / total
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


def measure_estimate(params: XiParams, threshold_exp: int, mode: str = "short-vector",
                     samples: int = 10_000, seed: int = 0, i_pinch: Optional[int] = None,
                     c2: Optional[int] = None) -> MeasureEstimate:
    """Monte-Carlo measure of the exceptional set of centers x.

    mode "short-vector": the event is lambda_1 <= epsilon = p^-threshold_exp,
    i.e. a nonzero lattice vector of sup-norm <= epsilon Q exists (checked by
    exact enumeration).  mode "pinch": the event is a degree-n polynomial of
    height <= C2 Q satisfying the system with xi_(i_pinch) shrunk by
    delta^(2(n+1)) C2^-(n+1), delta = p^-threshold_exp.

    Sampling is uniform over x mod p^(max b_i + 4), in process, in blocks of
    512 samples seeded by (seed, block index); those seeds fix the sample
    stream.  Returns the exact hit fraction with a 95% Wilson interval.
    threshold_exp must be an integer >= 0 (epsilon, delta <= 1) and samples an
    integer >= 1, or this is a ValueError, raised before any block runs.
    """
    from .lattice import _box_has_point, _pinch_c2_exponent

    _as_int(threshold_exp, "threshold_exp", 0)
    _as_int(samples, "samples", 1)
    p = params.p
    bb = list(params.b)
    if mode == "short-vector":
        radius = p ** (params.t - threshold_exp) if params.t >= threshold_exp else 0
        require_top = False
    elif mode == "pinch":
        c2_exp = _pinch_c2_exponent(params, i_pinch, c2)
        n = params.n
        bb[i_pinch] += 2 * (n + 1) * threshold_exp + (n + 1) * c2_exp
        radius = c2 * params.Q
        require_top = True
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # the event is decided by x mod p^max(bb): each class is decided once per
    # call, at its first sample; sample with resolution to spare
    resolution = p ** max(bb)
    modulus = resolution * p**4
    decided: dict[int, bool] = {}
    hits = 0
    for idx, done in enumerate(range(0, samples, _SAMPLE_BLOCK)):
        rng = random.Random(f"{seed}:{idx}")
        for _ in range(min(_SAMPLE_BLOCK, samples - done)):
            x = rng.randrange(modulus)
            if (r := x % resolution) not in decided:
                decided[r] = _box_has_point(p, bb, x, radius, require_top)
            hits += decided[r]
    lo, hi = _wilson(hits, samples)
    return MeasureEstimate(mode, threshold_exp, samples, hits,
                           Fraction(hits, samples), lo, hi, seed)
