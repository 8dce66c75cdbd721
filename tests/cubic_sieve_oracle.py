"""The rational-root sieve that the n = 3 branch of `census._records` replaced.

For every (a_3, a_2, a_1) block it scans all root candidates r/s with
s | a_3, gcd(r, s) = 1 and 0 < |r| <= min(Q, s + floor(s Q / a_3)), and
yields one flat record per polynomial.  Tests compare the product table of
the block kernel against it record for record.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional


def cubic_sieve_records(p: int, height_bound: int, an_lo: int,
                        an_hi: int) -> Iterator[tuple[tuple[int, ...], int, Optional[int], bool]]:
    """(coeffs, D, v_p(D), irreducible) of every cubic with a_3 in [an_lo, an_hi], canonical order.

    The verdict is exact by three facts.  (1) A cubic with D != 0 is
    irreducible over Q iff it has no rational root: a factorization over Q
    has degrees summing to 3, so one factor is linear and its root is
    rational; a rational root r gives the factor x - r.  (2) Content does not
    change the roots: P = c P' with c a nonzero integer has the roots of P'.
    (3) Every rational root r/s in lowest terms, s > 0, has s | a_3 and
    r | a_0: s^3 P(r/s) = 0 reads a_3 r^3 = -s (a_2 r^2 + a_1 r s + a_0 s^2)
    and a_0 s^3 = -r (a_3 r^2 + a_2 r s + a_1 s^2), and gcd(r, s) = 1.  So
    with a_0 != 0 (a_0 = 0 gives the root 0) a root has 0 < |r| <= |a_0|
    <= Q, and by Cauchy's bound |r/s| <= 1 + Q/a_3, i.e.
    |r| <= s + floor(s Q / a_3).  Each such candidate r/s is a root for
    exactly one a_0, the one with a_0 s^3 = -(a_3 r^3 + a_2 r^2 s + a_1 r s^2).
    """
    rng = range(-height_bound, height_bound + 1)
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
