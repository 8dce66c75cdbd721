"""Walkthrough: Monte-Carlo measure of centers with unusually short vectors.

Estimates the measure of x in Z_p whose coefficient lattice contains a
nonzero vector of sup-norm <= eps Q, for shrinking eps.  Each sample is an
exact enumeration decision; only the sampling itself is random, seeded per
block of samples, so a rerun prints the same numbers.  The event depends on
x only mod p^(max b), so deciding all p^(max b) classes with the box check
each sample makes gives the exact measure printed beside each estimate.
"""

from fractions import Fraction

from padicsep import XiParams, fit_exponent, measure_estimate
from padicsep.lattice import _box_has_point

params = XiParams(3, 2, (4, 2, 0))
seed = 20260809
classes = params.p ** max(params.b)
print("=" * 70)
print(f"Lattice family: p=3, Q=9, b={params.b}; event: lambda_1 <= eps")
print(f"seed {seed}, 10000 samples per eps; 95% Wilson intervals")
print(f"exact: the share of all {classes} classes x mod 3^{max(params.b)} with the event")
print("=" * 70)


def exact_measure(e):
    """The share of the classes x mod p^(max b) holding a nonzero vector of sup-norm <= eps Q."""
    radius = params.p ** (params.t - e) if params.t >= e else 0
    return Fraction(sum(_box_has_point(params.p, params.b, x, radius) for x in range(classes)),
                    classes)


rows = []
for e in (0, 1, 2, 3, 4):
    me, mu = measure_estimate(params, e, samples=10_000, seed=seed), exact_measure(e)
    rows.append((e, me, mu))
    print(f"eps = 3^-{e}: estimate {float(me.estimate):.4f} "
          f"[{me.wilson_low:.4f}, {me.wilson_high:.4f}]  ({me.hits}/{me.samples})  exact {mu}")

print("\neps = 1 is certain (Minkowski: a nonzero vector of sup-norm <= Q always exists)")
slope = fit_exponent([(3.0**-e, float(me.estimate)) for e, me, _ in rows if e > 0]).slope
exact = fit_exponent([(3.0**-e, float(mu)) for e, _, mu in rows if e > 0]).slope
print(f"decay exponent (log-log slope over nonzero estimates): {slope:.3f}")
print(f"exact decay exponent (same slope over nonzero exact measures): {exact:.3f}")
print("theoretical floor for n = 2: alpha = 1 / floor(((n+1)/2)^2) = 0.5")

print()
print("pinched variant: a degree-n polynomial with one derivative bound tightened")
for e in (1, 2):
    me = measure_estimate(params, e, mode="pinch", samples=4000, seed=seed,
                          i_pinch=0, c2=9)
    print(f"delta = 3^-{e}: estimate {float(me.estimate):.4f} "
          f"[{me.wilson_low:.4f}, {me.wilson_high:.4f}]")
