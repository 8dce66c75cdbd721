"""The precision-doubling distance profile, kept as a test oracle.

`profile_at_zp_root` now lifts once, to a precision read off the
discriminant of the squarefree part.  The loop it replaced is here: it
recomputes the profile at centers residue mod p^N with N doubled from 8 to
512 until the entries below N - 1 repeat and those at or above N - 1, made
+inf, are as many as the root's multiplicity m (its factor S_m vanishes).
"""

from __future__ import annotations

from padicsep.intpoly import IntPoly, squarefree_decomposition, squarefree_part
from padicsep.padic import INF, valuation
from padicsep.roots import DistanceProfile, PrecisionExhausted, distance_profile, hensel_lift

START_PRECISION = 8
MAX_PRECISION = 512


def profile_by_doubling(poly: IntPoly, residue: int, p: int) -> DistanceProfile:
    decomp = squarefree_decomposition(poly)
    sqfree = squarefree_part(poly)
    n = START_PRECISION
    prev = None
    while n <= MAX_PRECISION:
        root, _ = hensel_lift(sqfree, residue, p, n)
        prof = distance_profile(poly, root.residue, p)
        finite = tuple(v for v in prof.entries if v is not INF and v < n - 1)
        large = len(prof.entries) - len(finite)
        mults = [m for s, m in decomp if valuation(s(root.residue), p) >= n]
        if prev is not None and finite == prev and mults == [large]:
            return DistanceProfile(root.residue, (INF,) * large + finite)
        prev = finite
        n *= 2
    raise PrecisionExhausted("distance profile did not stabilize")
