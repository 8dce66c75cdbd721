"""Command-line front end: censuses, the generator, verification suites.

All output is file-based CSV/JSON.  Every artifact embeds the run
configuration (minus runtime-only fields like the worker count) and a SHA-256
of its payload, so a rerun with the embedded config reproduces the file
byte-for-byte regardless of parallelism.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 resource cap hit (partial artifacts are flagged).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import census as census_mod
from . import lattice as lattice_mod
from .intpoly import IntPoly, discriminant
from .padic import INF, is_prime, valuation
from .roots import hensel_lift

ARTIFACT_MAGIC = "# padicsep-artifact v1"


def _config_error(field: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": message, "field": field}) + "\n")
    return 2


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_csv_artifact(path: Path, config: dict, header: str, rows: list[str]) -> str:
    """Write a CSV with embedded config and content hash; returns the hash."""
    payload = header + "\n" + "".join(r + "\n" for r in rows)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    with open(path, "w") as fh:
        fh.write(ARTIFACT_MAGIC + "\n")
        fh.write("# config: " + _canonical_json(config) + "\n")
        fh.write("# content-sha256: " + digest + "\n")
        fh.write(payload)
    return digest


def write_json_artifact(path: Path, config: dict, results) -> str:
    body = _canonical_json(results)
    digest = hashlib.sha256(body.encode()).hexdigest()
    doc = {"artifact": "padicsep-summary v1", "config": config,
           "content_sha256": digest, "results": results}
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return digest


def read_csv_artifact(path: Path) -> tuple[dict, str, list[str], bool]:
    """Returns (config, header, rows, hash_ok)."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != ARTIFACT_MAGIC:
        raise ValueError(f"{path}: not a padicsep artifact")
    config = json.loads(lines[1].removeprefix("# config: "))
    stated = lines[2].removeprefix("# content-sha256: ")
    payload = "".join(line + "\n" for line in lines[3:])
    ok = hashlib.sha256(payload.encode()).hexdigest() == stated
    return config, lines[3], lines[4:], ok


def _parse_fraction_list(text: str) -> list[Fraction]:
    return [Fraction(part) for part in text.split(",")]


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


def _default_workers(args) -> int:
    """--workers, else PADICSEP_WORKERS, else 1; ValueError unless an integer >= 1."""
    workers = args.workers
    if workers is None:
        env = os.environ.get("PADICSEP_WORKERS")
        workers = int(env) if env else 1
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    return workers


# --- disc-census ---------------------------------------------------------------


def cmd_disc_census(args) -> int:
    if args.n is None:
        return _config_error("n", "missing required option")
    if args.p is None:
        return _config_error("p", "missing required option")
    if args.q_grid is None:
        return _config_error("q-grid", "missing required option")
    if args.nu is None:
        return _config_error("nu", "missing required option")
    if not is_prime(args.p):
        return _config_error("p", f"{args.p} is not prime")
    if args.n < 2:
        return _config_error("n", "need n >= 2")
    try:
        q_grid = _parse_int_list(args.q_grid)
        nu_grid = _parse_fraction_list(args.nu)
    except ValueError as exc:
        return _config_error("q-grid/nu", str(exc))
    if min(q_grid) < 1:
        return _config_error("q-grid", "every Q must be >= 1")
    for nu in nu_grid:
        if not 0 <= nu <= args.n - 1:
            return _config_error("nu", f"nu = {nu} outside [0, n-1]")
    try:
        c_exps = _parse_int_list(args.constants) if args.constants else [0, 1, 2]
    except ValueError as exc:
        return _config_error("constants", str(exc))
    try:
        workers = _default_workers(args)
    except ValueError as exc:
        return _config_error("workers", str(exc))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    config = {"subcommand": "disc-census", "n": args.n, "p": args.p,
              "q_grid": q_grid, "nu_grid": [str(nu) for nu in nu_grid],
              "constants": c_exps, "max_records": args.max_records}
    started = time.time()
    result = census_mod.disc_census(args.n, args.p, q_grid, nu_grid, c_exps,
                                    workers=workers, max_records=args.max_records)
    header = "n,p,Q,nu_or_theta,constant,count_all,count_irr,flagged"
    rows = [
        f"{r.n},{r.p},{r.height_bound},{r.nu},{r.c_exp},{r.count_all},{r.count_irr},{r.flagged}"
        for r in result.rows
    ]
    write_csv_artifact(out_dir / "disc_census.csv", config, header, rows)

    stat_header = "Q,vpD,count_all,count_irr,min_cofactor,max_abs_disc"
    stat_rows = [
        f"{s.height_bound},{s.k},{s.count_all},{s.count_irr},{s.min_cofactor},{s.max_abs_disc}"
        for s in result.stats
    ]
    write_csv_artifact(out_dir / "disc_census_stats.csv", config, stat_header, stat_rows)

    fits = {}
    for nu in nu_grid:
        target = args.n + 1 - Fraction(args.n + 2, args.n) * nu
        for ce in c_exps:
            pts = [(r.height_bound, r.count_irr) for r in result.rows
                   if r.nu == nu and r.c_exp == ce]
            key = f"nu={nu};C=p^{ce}"
            try:
                fit = census_mod.fit_exponent(pts)
                fits[key] = {"slope": f"{fit.slope:.6f}", "residual_rms": f"{fit.residual_rms:.6f}",
                             "target": str(target), "dropped": fit.dropped}
            except ValueError as exc:
                fits[key] = {"error": str(exc), "target": str(target)}
    summary = {"complete": result.complete, "records_seen": result.records_seen,
               "fits": fits, "elapsed_s": f"{time.time() - started:.3f}",
               "workers_used": workers, "rows": len(rows)}
    write_json_artifact(out_dir / "disc_census_summary.json", config, summary)
    print(f"disc-census: {len(rows)} rows, complete={result.complete} -> {out_dir}")
    return 0 if result.complete else 3


# --- sep-census ----------------------------------------------------------------


def cmd_sep_census(args) -> int:
    if args.n is None:
        return _config_error("n", "missing required option")
    if args.p is None:
        return _config_error("p", "missing required option")
    if args.q_grid is None:
        return _config_error("q-grid", "missing required option")
    if args.theta is None:
        return _config_error("theta", "missing required option")
    if not is_prime(args.p):
        return _config_error("p", f"{args.p} is not prime")
    if args.n < 2:
        return _config_error("n", "need n >= 2")
    try:
        q_grid = _parse_int_list(args.q_grid)
        theta_grid = _parse_fraction_list(args.theta)
    except ValueError as exc:
        return _config_error("q-grid/theta", str(exc))
    if min(q_grid) < 1:
        return _config_error("q-grid", "every Q must be >= 1")
    t_grid = []
    for q in q_grid:
        t = 0
        qq = 1
        while qq < q:
            qq *= args.p
            t += 1
        if qq != q:
            return _config_error("q-grid", f"{q} is not a power of p = {args.p}")
        t_grid.append(t)
    bound = Fraction(args.n + 1, 3)
    for th in theta_grid:
        if th > bound:
            print(f"warning: theta = {th} exceeds (n+1)/3 = {bound}; "
                  "outside the proven range", file=sys.stderr)
    try:
        workers = _default_workers(args)
    except ValueError as exc:
        return _config_error("workers", str(exc))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = {"subcommand": "sep-census", "n": args.n, "p": args.p,
              "q_grid": q_grid, "theta_grid": [str(th) for th in theta_grid],
              "c0_exp": args.c0_exp, "max_records": args.max_records}
    started = time.time()
    result = census_mod.sep_census(args.n, args.p, t_grid, theta_grid, args.c0_exp,
                                   workers=workers, max_records=args.max_records)
    header = "n,p,Q,nu_or_theta,constant,count_all,count_irr,flagged"
    rows = [
        f"{r.n},{r.p},{r.p**r.t},{r.theta},{r.c0_exp},{r.count_all},{r.count_irr},{r.flagged}"
        for r in result.rows
    ]
    write_csv_artifact(out_dir / "sep_census.csv", config, header, rows)
    fits = {}
    for th in theta_grid:
        target = args.n + 1 - 2 * th
        pts = [(r.p**r.t, r.count_irr) for r in result.rows if r.theta == th]
        key = f"theta={th}"
        try:
            fit = census_mod.fit_exponent(pts)
            fits[key] = {"slope": f"{fit.slope:.6f}", "residual_rms": f"{fit.residual_rms:.6f}",
                         "target": str(target), "dropped": fit.dropped}
        except ValueError as exc:
            fits[key] = {"error": str(exc), "target": str(target)}
    max_exps = {f"Q={r.p**r.t};theta={r.theta}":
                (f"{r.max_exponent:.6f}" if r.max_exponent is not None else None)
                for r in result.rows}
    summary = {"complete": result.complete, "records_seen": result.records_seen,
               "fits": fits, "max_observed_exponent": max_exps,
               "elapsed_s": f"{time.time() - started:.3f}", "workers_used": workers}
    write_json_artifact(out_dir / "sep_census_summary.json", config, summary)
    print(f"sep-census: {len(rows)} rows, complete={result.complete} -> {out_dir}")
    return 0 if result.complete else 3


# --- generate ------------------------------------------------------------------


def cmd_generate(args) -> int:
    if args.preset is None:
        return _config_error("preset", "missing required option")
    if args.preset not in ("theorem2", "theorem3"):
        return _config_error("preset", f"unknown preset {args.preset!r}")
    for fieldname in ("n", "p", "t"):
        if getattr(args, fieldname) is None:
            return _config_error(fieldname, "missing required option")
    if args.preset == "theorem2" and args.theta is None:
        return _config_error("theta", "theorem2 preset needs --theta")
    if args.preset == "theorem3" and args.nu is None:
        return _config_error("nu", "theorem3 preset needs --nu")
    if not is_prime(args.p):
        return _config_error("p", f"{args.p} is not prime")
    if args.t < 1:
        return _config_error("t", "need t >= 1 (Q = p^t > 1)")
    if args.samples < 0:
        return _config_error("samples", f"need samples >= 0, got {args.samples}")
    descr = {"mode": args.preset, "n": args.n, "p": args.p, "t": args.t}
    if args.theta is not None:
        descr["theta"] = args.theta
    if args.nu is not None:
        descr["nu"] = args.nu
    try:
        params = lattice_mod.expand_preset(descr)
    except (ValueError, lattice_mod.RoundingInfeasible) as exc:
        return _config_error("preset", str(exc))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = {"subcommand": "generate", "preset": descr, "b": list(params.b),
              "samples": args.samples, "seed": args.seed}
    rng = random.Random(args.seed)
    modulus = args.p ** (max(params.b) + 2)
    xs = [rng.randrange(modulus) for _ in range(args.samples)]

    header = ("x,q,m,c0,C2,poly_index,coeffs,content,height,degree_ok,eisenstein_ok,"
              "membership_ok,height_ok,margins")
    rows = []
    successes = 0
    failures = []
    hensel_checks = []
    outputs = []
    for x in xs:
        try:
            out = lattice_mod.generate(x, params)
        except lattice_mod.DegenerateSample as exc:
            failures.append({"x": x, "reason": str(exc)})
            continue
        outputs.append(out)
        if out.all_ok:
            successes += 1
        for idx, (poly, cert) in enumerate(zip(out.polys, out.certificates)):
            margins = ";".join("inf" if m is INF else str(m)
                               for m in cert.membership_margins)
            rows.append(
                f"{out.x},{out.q},{out.m},{out.c0},{out.c2},{idx},"
                f"\"{poly.to_string()}\",{cert.content},{cert.height},"
                f"{int(cert.degree_ok)},{int(cert.eisenstein_ok)},"
                f"{int(cert.membership_ok)},{int(cert.height_ok)},{margins}"
            )
        if args.preset == "theorem2" and params.b[0] - params.b[1] > params.b[1]:
            # xi_0 < (xi_1)^2 up to constants: report the Hensel root distance
            try:
                _, dist = hensel_lift(out.polys[0], out.x, args.p, max(params.b) + 2)
                hensel_checks.append({"x": out.x, "distance_valuation":
                                      "inf" if dist is INF else int(dist)})
            except Exception:
                hensel_checks.append({"x": out.x, "distance_valuation": None})
    write_csv_artifact(out_dir / "generated_polys.csv", config, header, rows)
    disc_vals = {}
    if args.preset == "theorem3":
        nu = Fraction(args.nu)
        vpds = [int(valuation(d, args.p))
                for out in outputs for poly in out.polys
                if (d := discriminant(poly)) != 0]
        target = 2 * nu * args.t
        disc_vals = {"target_2nut": str(target),
                     "min_vpD": min(vpds) if vpds else None,
                     "max_vpD": max(vpds) if vpds else None,
                     "slack_max": str(target - min(vpds)) if vpds else None}
    summary = {"samples": args.samples, "successes": successes,
               "success_rate": f"{successes / args.samples:.6f}" if args.samples else None,
               "failures": failures, "hensel_distances": hensel_checks,
               "theorem3_discriminants": disc_vals, "b": list(params.b)}
    write_json_artifact(out_dir / "generate_summary.json", config, summary)
    print(f"generate: {successes}/{args.samples} samples fully certified -> {out_dir}")
    return 0


# --- verify ---------------------------------------------------------------------


def _suite_padic(quick: bool):
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
    from .linalg import bareiss_det

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
        det = abs(bareiss_det([[lat.basis[c][r] for c in range(n + 1)]
                               for r in range(n + 1)]))
        if det != lat.covolume:
            ok = False
    checks.append(("covolume = prod p^b_i", ok, f"{trials} instances"))
    ok = True
    for _ in range(20 if quick else 100):
        n = rng.randint(1, 3)
        p = rng.choice([2, 3])
        t = 1 if quick else rng.randint(1, 2)
        b = _random_b(rng, n, t)
        params = lattice_mod.XiParams(p, t, tuple(b))
        x = rng.randrange(p ** max(b) + 1)
        lat = lattice_mod.build_gamma(x, params)
        lams = lattice_mod.successive_minima(lat)
        if lams[0] ** n * lams[-1] > 1:
            ok = False
    checks.append(("Minkowski lambda_1^n lambda_(n+1) <= 1", ok, "exact minima"))
    return checks


def _random_b(rng, n, t):
    total = t * (n + 1)
    cuts = sorted(rng.randint(0, total) for _ in range(n))
    parts = []
    prev = 0
    for c in cuts + [total]:
        parts.append(c - prev)
        prev = c
    return parts


def _suite_generator(quick: bool):
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
        if not (out.m < out.q < 4 * out.m) or out.q == p:
            ok = False
    checks.append(("generator certificates", ok and degenerate <= trials // 10,
                   f"{trials - degenerate} certified, {degenerate} degenerate"))
    return checks


def _suite_census(quick: bool):
    checks = []
    hb = 6 if quick else 12
    res = census_mod.disc_census(2, 3, [hb], [Fraction(1, 2)], c_exps=(0,))
    cnt_all = cnt_irr = 0
    thr = census_mod.disc_threshold(3, hb, Fraction(1, 2), 0)
    import math as _math

    for a2 in range(1, hb + 1):
        for a1 in range(-hb, hb + 1):
            for a0 in range(-hb, hb + 1):
                d = a1 * a1 - 4 * a2 * a0
                if d == 0:
                    continue
                v = 0
                dd = d
                while dd % 3 == 0:
                    dd //= 3
                    v += 1
                if v >= thr:
                    cnt_all += 1
                    r = _math.isqrt(d) if d >= 0 else -1
                    if not (d >= 0 and r * r == d):
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
    checks = []
    params = lattice_mod.XiParams(3, 2, (4, 2, 0))
    samples = 300 if quick else 2000
    ests = []
    for e in (0, 1, 2, 3):
        me = census_mod.measure_estimate(params, e, samples=samples, seed=seed)
        ests.append(me.estimate)
    checks.append(("estimate(eps = 1) == 1", ests[0] == 1, str(ests[0])))
    mono = all(ests[i] >= ests[i + 1] for i in range(len(ests) - 1))
    checks.append(("estimates non-increasing in eps", mono,
                   " >= ".join(str(e) for e in ests)))
    return checks


def _suite_golden(golden_dir: Path):
    checks = []
    files = sorted(golden_dir.glob("*.csv"))
    if not files:
        checks.append((f"golden artifacts in {golden_dir}", False, "no artifacts found"))
        return checks
    for path in files:
        try:
            _, _, _, ok = read_csv_artifact(path)
            checks.append((f"golden hash {path.name}", ok,
                           "" if ok else f"{path} content hash mismatch"))
        except ValueError as exc:
            checks.append((f"golden parse {path.name}", False, str(exc)))
    return checks


def cmd_verify(args) -> int:
    suites = {"padic": lambda: _suite_padic(args.quick),
              "hensel": lambda: _suite_hensel(args.quick),
              "lattice": lambda: _suite_lattice(args.quick),
              "generator": lambda: _suite_generator(args.quick),
              "census": lambda: _suite_census(args.quick)}
    selected = args.suite
    if selected not in list(suites) + ["all", "measure", "golden"]:
        return _config_error("suite", f"unknown suite {selected!r}")
    if selected in ("measure", "all") and args.seed is None:
        if selected == "measure":
            return _config_error("seed", "--seed is mandatory for measure estimation")
    run = []
    if selected == "all":
        run = list(suites.items())
        if args.seed is not None:
            run.append(("measure", lambda: _suite_measure(args.quick, args.seed)))
    elif selected == "measure":
        run = [("measure", lambda: _suite_measure(args.quick, args.seed))]
    elif selected == "golden":
        if args.golden_dir is None:
            return _config_error("golden-dir", "golden suite needs --golden-dir")
        run = [("golden", lambda: _suite_golden(Path(args.golden_dir)))]
    else:
        run = [(selected, suites[selected])]

    all_ok = True
    report = {}
    for name, fn in run:
        checks = fn()
        report[name] = [{"check": c, "ok": ok, "detail": d} for c, ok, d in checks]
        for c, ok, d in checks:
            print(f"[{name}] {'PASS' if ok else 'FAIL'}: {c}" + (f" ({d})" if d else ""))
            if not ok:
                all_ok = False
    if args.report:
        write_json_artifact(Path(args.report), {"subcommand": "verify",
                                                "suite": selected, "quick": args.quick},
                            report)
    return 0 if all_ok else 1


# --- report ---------------------------------------------------------------------


def cmd_report(args) -> int:
    if not args.inputs:
        return _config_error("inputs", "need at least one census CSV")
    out_rows = []
    for src in args.inputs:
        try:
            config, header, rows, ok = read_csv_artifact(Path(src))
        except (OSError, ValueError) as exc:
            return _config_error("inputs", f"{src}: {exc}")
        if not ok:
            sys.stderr.write(json.dumps({"error": "content hash mismatch",
                                         "field": "inputs", "file": str(src)}) + "\n")
            return 1
        kind = config.get("subcommand", "unknown")
        for row in rows:
            out_rows.append(f"{Path(src).name},{kind},{row}")
    header = "source,kind,n,p,Q,nu_or_theta,constant,count_all,count_irr,flagged"
    config = {"subcommand": "report", "inputs": [Path(s).name for s in args.inputs]}
    write_csv_artifact(Path(args.out), config, header, out_rows)
    print(f"report: merged {len(args.inputs)} files, {len(out_rows)} rows -> {args.out}")
    return 0


# --- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicsep",
        description="Exact p-adic root separation and discriminant censuses.",
    )
    sub = parser.add_subparsers(dest="command")

    dc = sub.add_parser("disc-census", help="count polynomials with p-power-divisible discriminants")
    dc.add_argument("--n", type=int)
    dc.add_argument("--p", type=int)
    dc.add_argument("--q-grid", dest="q_grid")
    dc.add_argument("--nu")
    dc.add_argument("--constants", help="comma-separated exponents c for C = p^c (default 0,1,2)")
    dc.add_argument("--workers", type=int, default=None)
    dc.add_argument("--max-records", type=int, default=None)
    dc.add_argument("--out-dir", default=".")
    dc.set_defaults(func=cmd_disc_census)

    scp = sub.add_parser("sep-census", help="count irreducible polynomials with close conjugate roots")
    scp.add_argument("--n", type=int)
    scp.add_argument("--p", type=int)
    scp.add_argument("--q-grid", dest="q_grid", help="powers of p")
    scp.add_argument("--theta")
    scp.add_argument("--c0-exp", dest="c0_exp", type=int, default=0)
    scp.add_argument("--workers", type=int, default=None)
    scp.add_argument("--max-records", type=int, default=None)
    scp.add_argument("--out-dir", default=".")
    scp.set_defaults(func=cmd_sep_census)

    gen = sub.add_parser("generate", help="run the irreducible-polynomial generator")
    gen.add_argument("--preset")
    gen.add_argument("--n", type=int)
    gen.add_argument("--p", type=int)
    gen.add_argument("--t", type=int)
    gen.add_argument("--theta")
    gen.add_argument("--nu")
    gen.add_argument("--samples", type=int, default=50)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out-dir", default=".")
    gen.set_defaults(func=cmd_generate)

    ver = sub.add_parser("verify", help="run property suites")
    ver.add_argument("--suite", default="all")
    ver.add_argument("--quick", action="store_true")
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--golden-dir", dest="golden_dir", default=None)
    ver.add_argument("--report", default=None)
    ver.set_defaults(func=cmd_verify)

    rep = sub.add_parser("report", help="merge census CSVs into plot-ready long format")
    rep.add_argument("inputs", nargs="*")
    rep.add_argument("--out", default="report.csv")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
