"""Walkthrough: the paper's headline count, discriminants with the largest power of p.

Take nu = n - 1: a polynomial of height <= Q has |D| << Q^(2n - 2), and the
census counts those with 0 < |D|_p <= p^c Q^(-(2n - 2)), i.e. D = p^k C_P with
p^k >= Q^(2n - 2) / p^c.  The paper's lower bound for the irreducible ones is
Q^(2/n); this prints count_irr per Q for c in {0, 2, 4} and the fitted slope
of log count_irr against log Q next to 2/n.  No slope is asserted: at the
heights exhaustive enumeration reaches, the fits are what they are.
"""

import time
from fractions import Fraction

from padicsep import disc_census, fit_exponent

C_EXPS = (0, 2, 4)
RUNS = [(2, 2, [2**k for k in range(3, 10)]), (3, 2, [2**k for k in range(3, 7)])]

for n, p, grid in RUNS:
    nu = Fraction(n - 1)
    started = time.perf_counter()
    result = disc_census(n, p, grid, [nu], c_exps=C_EXPS, workers=2)
    elapsed = time.perf_counter() - started
    print("=" * 70)
    print(f"degree {n}, p = {p}, nu = n - 1 = {nu}: 0 < |D|_{p} <= {p}^c Q^-{2 * nu}")
    print(f"{result.records_seen} records in {elapsed:.1f} s (both signs of a_n)")
    print("=" * 70)
    print(f"{'Q':>5} {'threshold':>10}" + "".join(f" {'c = ' + str(c):>10}" for c in C_EXPS))
    for q in grid:
        rows = {r.c_exp: r for r in result.rows if r.height_bound == q}
        print(f"{q:>5} {'k >= ' + str(rows[0].threshold):>10}"
              + "".join(f" {rows[c].count_irr:>10}" for c in C_EXPS))
    print(f"fitted slope of count_irr against log Q (paper's lower bound 2/n = {2 / n:.3f}):")
    for c in C_EXPS:
        fit = fit_exponent([(r.height_bound, r.count_irr) for r in result.rows if r.c_exp == c])
        print(f"   c = {c}: slope {fit.slope:.3f} (residual rms {fit.residual_rms:.3f},"
              f" {len(fit.dropped)} zero counts dropped)")
    print()
