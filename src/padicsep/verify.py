"""The verification suites of the `verify` command, each a list of (check, ok, detail).

Only `cli.cmd_verify` imports this module, so no other command compiles or
loads it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from pathlib import Path

from .cli import read_csv_artifact


def _suite_padic(quick: bool):
    from .padic import INF, valuation

    rng = random.Random(20240901)
    checks = []
    trials = 200 if quick else 2000
    ok = True
    for _ in range(trials):
        p = rng.choice([2, 3, 5, 7])
        x = rng.randint(-(2**64), 2**64) or 1
        y = rng.randint(-(2**64), 2**64) or 1
        vx, vy, vxy = valuation(x, p), valuation(y, p), valuation(x * y, p)
        if vxy != vx + vy:
            ok = False
        vs = valuation(x + y, p)
        if not (vs is INF or vs >= min(vx, vy)):
            ok = False
        if vx != vy and vs != min(vx, vy):
            ok = False
    checks.append(("valuation product/ultrametric laws", ok, f"{trials} trials"))
    ok = True
    for _ in range(50 if quick else 500):
        p = rng.choice([2, 3, 5])
        x = rng.randint(1, 2**256)
        v = valuation(x, p)
        if p**v > x or x % p**v:
            ok = False
    checks.append(("p^v divides x and p^v <= |x|", ok, "round trip"))
    return checks


def _suite_hensel(quick: bool):
    from .intpoly import IntPoly
    from .padic import INF, valuation
    from .roots import hensel_lift

    rng = random.Random(77)
    checks = []
    root, dist = hensel_lift(IntPoly([-2, 0, 1]), 3, 7, 3)
    checks.append(("sqrt(2) in Z_7: residue 108 mod 343", root.residue == 108 and dist == 1,
                   f"got {root.residue}, distance {dist}"))
    trials = 100 if quick else 1000
    good = 0
    tried = 0
    while good < trials and tried < trials * 60:
        tried += 1
        p = rng.choice([2, 3, 5, 7])
        n = rng.randint(2, 4)
        coeffs = [rng.randint(-40, 40) for _ in range(n)] + [rng.randint(1, 40)]
        poly = IntPoly(coeffs)
        x0 = rng.randint(-60, 60)
        v0 = valuation(poly(x0), p)
        v1 = valuation(poly.derivative()(x0), p)
        if not v0 > 2 * v1:
            continue
        prec = rng.randint(2, 8)
        root, dist = hensel_lift(poly, x0, p, prec)
        if poly(root.residue) % p**prec:
            break
        expect = INF if v0 is INF else v0 - v1
        observed = valuation(x0 - root.residue, p)
        lim = min(prec, expect) if expect is not INF else prec
        if not (observed is INF or observed >= lim):
            break
        good += 1
    checks.append(("Hensel contract on seeded samples", good >= trials,
                   f"{good} verified"))
    return checks


def _suite_lattice(quick: bool):
    from . import lattice as lattice_mod
    from .linalg import bareiss_det, lll_reduce

    rng = random.Random(5150)
    checks = []
    trials = 60 if quick else 500
    ok = True
    for _ in range(trials):
        n = rng.randint(1, 4)
        p = rng.choice([2, 3, 5])
        t = rng.randint(1, 2)
        b = _random_b(rng, n, t)
        params = lattice_mod.XiParams(p, t, tuple(b))
        x = rng.randrange(p ** max(b) + 1)
        lat = lattice_mod.build_gamma(x, params)
        if abs(bareiss_det(lll_reduce(lat.basis))) != lat.covolume:
            ok = False
    checks.append(("LLL keeps the covolume prod p^b_i", ok, f"{trials} instances"))
    ok, bounded = True, 0
    for _ in range(20 if quick else 100):
        n = rng.randint(1, 3)
        p = rng.choice([2, 3])
        t = 1 if quick else rng.randint(1, 2)
        b = _random_b(rng, n, t)
        params = lattice_mod.XiParams(p, t, tuple(b))
        x = rng.randrange(p ** max(b) + 1)
        lat = lattice_mod.build_gamma(x, params)
        try:
            lams = lattice_mod.successive_minima(lat)
        except RuntimeError:  # exact lambda_1; lambda_(n+1) <= M/Q by the n + 1 LLL vectors
            bounded += 1
            big = max(max(map(abs, v)) for v in lll_reduce(lat.basis))
            try:
                lams = [lattice_mod.successive_minima(lat, 1)[0], Fraction(big, lat.box_q)]
            except RuntimeError:
                lams = None  # decided neither way: fails
        ok = ok and lams is not None and lams[0] ** n * lams[-1] <= 1
    checks.append(("Minkowski lambda_1^n lambda_(n+1) <= 1", ok,
                   f"exact minima; decided by the LLL bound on lambda_(n+1): {bounded}"))
    return checks


def _random_b(rng, n, t):
    total = t * (n + 1)
    cuts = sorted(rng.randint(0, total) for _ in range(n))
    return [hi - lo for lo, hi in zip([0] + cuts, cuts + [total])]


def _suite_generator(quick: bool):
    from . import lattice as lattice_mod

    rng = random.Random(31)
    checks = []
    trials = 10 if quick else 60
    ok = True
    degenerate = 0
    for _ in range(trials):
        n = rng.choice([2, 3])
        p = rng.choice([2, 3, 5])
        t = rng.choice([2, 3])
        params = lattice_mod.preset_theorem2(n, p, t, Fraction(1))
        x = rng.randrange(p ** (max(params.b) + 2))
        try:
            out = lattice_mod.generate(x, params)
        except lattice_mod.DegenerateSample:
            degenerate += 1
            continue
        if not out.all_ok:
            ok = False
    checks.append(("generator certificates", ok and degenerate <= trials // 10,
                   f"{trials - degenerate} certified, {degenerate} degenerate"))
    return checks


def _suite_census(quick: bool):
    from . import census as census_mod
    from .padic import valuation

    checks = []
    hb = 6 if quick else 12
    res = census_mod.disc_census(2, 3, [hb], [Fraction(1, 2)], c_exps=(0,))
    cnt_all = cnt_irr = 0
    thr = census_mod.disc_threshold(3, hb, Fraction(1, 2), 0)
    for a2 in range(1, hb + 1):
        for a1 in range(-hb, hb + 1):
            for a0 in range(-hb, hb + 1):
                d = a1 * a1 - 4 * a2 * a0
                if d != 0 and valuation(d, 3) >= thr:
                    cnt_all += 1
                    if d < 0 or math.isqrt(d) ** 2 != d:
                        cnt_irr += 1
    row = res.rows[0]
    checks.append(("disc census equals direct-formula recount",
                   row.count_all == 2 * cnt_all and row.count_irr == 2 * cnt_irr,
                   f"count_all {row.count_all} vs {2*cnt_all}"))
    res2 = census_mod.disc_census(2, 3, [hb, 2 * hb], [Fraction(1, 2)], c_exps=(0,))
    by_hb = {r.height_bound: r for r in res2.rows}
    checks.append(("counts monotone in Q",
                   by_hb[2 * hb].count_all >= by_hb[hb].count_all, ""))
    return checks


def _suite_measure(quick: bool, seed):
    from . import census as census_mod
    from . import lattice as lattice_mod

    checks = []
    params = lattice_mod.XiParams(3, 2, (4, 2, 0))
    samples = 300 if quick else 2000
    ests = [census_mod.measure_estimate(params, e, samples=samples, seed=seed).estimate
            for e in (0, 1, 2, 3)]
    checks.append(("estimate(eps = 1) == 1", ests[0] == 1, str(ests[0])))
    mono = all(ests[i] >= ests[i + 1] for i in range(len(ests) - 1))
    checks.append(("estimates non-increasing in eps", mono,
                   " >= ".join(str(e) for e in ests)))
    return checks


def _suite_golden(golden_dir: Path):
    files = sorted(golden_dir.glob("*.csv"))
    if not files:
        return [(f"golden artifacts in {golden_dir}", False, "no artifacts found")]
    checks = []
    for path in files:
        try:
            _, _, _, ok = read_csv_artifact(path)
            checks.append((f"golden hash {path.name}", ok,
                           "" if ok else f"{path} content hash mismatch"))
        except ValueError as exc:
            checks.append((f"golden parse {path.name}", False, str(exc)))
    return checks


# suite -> (its checks from the parsed args, the flags it needs, whether "all" runs it)
SUITES = {
    "padic": (lambda args: _suite_padic(args.quick), (), True),
    "hensel": (lambda args: _suite_hensel(args.quick), (), True),
    "lattice": (lambda args: _suite_lattice(args.quick), (), True),
    "generator": (lambda args: _suite_generator(args.quick), (), True),
    "census": (lambda args: _suite_census(args.quick), (), True),
    "measure": (lambda args: _suite_measure(args.quick, args.seed), ("seed",), True),
    "golden": (lambda args: _suite_golden(Path(args.golden_dir)), ("golden-dir",), False),
}
