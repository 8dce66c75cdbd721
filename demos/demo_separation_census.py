"""Walkthrough: counting polynomials with p-adically close conjugate roots.

Counts irreducible quadratics, then cubics, of height in the shell [Q/p, Q]
whose conjugate roots are within Q^-theta of each other, and fits the growth
against the predicted Q^(n+1-2 theta) (Problem (A)).  Every membership
decision is an exact rational comparison of valuations.
"""

from fractions import Fraction

from padicsep import IntPoly, fit_exponent, hadamard_bound, min_conjugate_separation, sep_census
from padicsep.padic import valuation

n, p, theta = 2, 2, Fraction(1)
t_grid = [4, 5, 6, 7]

print("=" * 70)
print(f"Separation census: degree {n}, p = {p}, theta = {theta}, Q = 2^t for t in {t_grid}")
print("=" * 70)
result = sep_census(n, p, t_grid, [theta], c0_exp=0, workers=2)
print(f"{'Q':>5} {'all':>7} {'irreducible':>12} {'max observed e(P)':>19}")
for row in result.rows:
    print(f"{p**row.t:>5} {row.count_all:>7} {row.count_irr:>12} {row.max_exponent:>19.4f}")

pts = [(p**r.t, r.count_irr) for r in result.rows]
fit = fit_exponent(pts)
print(f"\nfitted exponent {fit.slope:.3f}  (predicted n+1-2 theta = {n + 1 - 2 * theta})")

print()
n3, thetas3, t_grid3 = 3, [Fraction(1), Fraction(4, 3)], [2, 3, 4, 5]
print(f"degree {n3}, p = {p}, Q = 2^t for t in {t_grid3}; theta = 4/3 = (n+1)/3 ends "
      "the proven range")
result3 = sep_census(n3, p, t_grid3, thetas3, c0_exp=0, workers=2)
print(f"{'theta':>6} " + " ".join(f"{'Q=' + str(p**t):>8}" for t in t_grid3)
      + f" {'slope':>7} {'n+1-2theta':>11}")
for th in thetas3:
    pts = [(p**r.t, r.count_irr) for r in result3.rows if r.theta == th]
    print(f"{str(th):>6} " + " ".join(f"{c:>8}" for _, c in pts)
          + f" {fit_exponent(pts).slope:>7.3f} {str(n3 + 1 - 2 * th):>11}")
print("   (count_irr per Q; four heights are few, so the slopes are read, not gated)")

print()
print("a concrete witness: close conjugate square roots")
poly = IntPoly([-(2 + 2**9), 0, 1])  # x^2 - 514: roots +-sqrt(514), close 2-adically
sep = min_conjugate_separation(poly, 2)
print(f"   {poly}: |a1 - a2|_2 = 2^-({sep.val}), height {poly.height}")

print()
print("ceiling check: no separation can beat the discriminant size")
print("   (2 sep <= v_p(D) and p^v_p(D) <= |D| <= Hadamard bound)")
violations = 0
for a2 in range(1, 31):
    for a1 in range(-30, 31):
        for a0 in range(-30, 31):
            d = a1 * a1 - 4 * a2 * a0
            if d == 0:
                continue
            v = valuation(d, p)
            if 2**v > hadamard_bound(2, max(abs(a0), abs(a1), abs(a2))):
                violations += 1
print(f"   scanned H <= 30 quadratics at p = 2: {violations} violations")
