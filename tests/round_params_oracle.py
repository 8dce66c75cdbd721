"""The trial search that `lattice.round_params` replaced with a closed form.

The sandwich bounds lo_i <= b_i <= hi_i come from direct powers of p, not
from `_ceil_log`.  Then b_0, b_1, ... are fixed in turn, each the least value
for which the totals still reachable by the rest, [prefix + b + sum of the
later lo, prefix + b + sum of the later hi], hold a multiple of n + 1 that is
at least n + 1.  Tests compare the closed form against it, the
RoundingInfeasible messages included.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from padicsep.lattice import RoundingInfeasible


def round_params_oracle(xi: Sequence[Fraction], p: int) -> tuple[int, ...]:
    """The lexicographically least b with p^-b_i <= xi_i <= p^(n-b_i) and sum b = t(n+1), t >= 1."""
    n = len(xi) - 1
    lo, hi, bad = [], [], []
    for i, x in enumerate(xi):
        low = 0
        while x * p**low < 1:
            low += 1
        if x * p**low > p**n:
            bad.append(i)
        high = low
        while x * p ** (high + 1) <= p**n:
            high += 1
        lo.append(low)
        hi.append(high)
    if bad:
        raise RoundingInfeasible(f"xi at indices {bad} admit no b in the sandwich")
    mod = n + 1
    suffix_min = [0] * (mod + 1)
    suffix_max = [0] * (mod + 1)
    for i in range(n, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + lo[i]
        suffix_max[i] = suffix_max[i + 1] + hi[i]
    chosen: list[int] = []
    prefix = 0
    for i in range(n + 1):
        found = None
        for b in range(lo[i], hi[i] + 1):
            smin = prefix + b + suffix_min[i + 1]
            smax = prefix + b + suffix_max[i + 1]
            target = max(mod, ((smin + mod - 1) // mod) * mod)
            if target <= smax:
                found = b
                break
        if found is None:
            raise RoundingInfeasible(
                f"no admissible rounding: achievable sums [{suffix_min[0]}, {suffix_max[0]}]"
                f" miss every positive multiple of {mod}"
            )
        chosen.append(found)
        prefix += found
    return tuple(chosen)
