"""Command-line front end: censuses, the generator, verification suites (in `padicsep.verify`).

All output is file-based CSV/JSON.  Every artifact embeds the run
configuration (minus runtime-only fields like the worker count) and a SHA-256
of its payload, so a rerun with the embedded config reproduces the file
byte-for-byte regardless of parallelism.  The runtime-only figures (wall
time, and the workers used by a census or the short-vector routes taken by
generate) go to an unhashed `<kind>_telemetry.json` sidecar next to the summary.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 resource cap hit (partial artifacts are flagged), 143 stopped by SIGTERM
(census workers are stopped too).  Every configuration
error is a ConfigError naming the flag at fault; main() alone turns it into
one {"error", "field"} JSON line on stderr and its exit code.

Each command imports the package modules it runs when it runs: `--help` and
`report` load no arithmetic module, `generate` never loads the census, and
only `verify` loads the suites module.
"""

from __future__ import annotations

import argparse
import json
import random
import signal
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

ARTIFACT_MAGIC = "# padicsep-artifact v1"
CENSUS_HEADER = "n,p,Q,nu_or_theta,constant,count_all,count_irr,flagged"  # flagged: reserved, 0


class ConfigError(Exception):
    """A bad flag or input file; main() reports it as {"error", "field"} and exits `code`."""

    def __init__(self, field: str, message: str, code: int = 2, **detail):
        super().__init__(message)
        self.field = field
        self.code = code
        self.detail = detail


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_csv_artifact(path: Path, config: dict, header: str, rows: list[str]) -> str:
    """Write a CSV with embedded config and content hash; returns the hash."""
    import hashlib

    payload = header + "\n" + "".join(r + "\n" for r in rows)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    with open(path, "w") as fh:
        fh.write(ARTIFACT_MAGIC + "\n")
        fh.write("# config: " + _canonical_json(config) + "\n")
        fh.write("# content-sha256: " + digest + "\n")
        fh.write(payload)
    return digest


def write_json_artifact(path: Path, config: dict, results) -> str:
    import hashlib

    body = _canonical_json(results)
    digest = hashlib.sha256(body.encode()).hexdigest()
    doc = {"artifact": "padicsep-summary v1", "config": config,
           "content_sha256": digest, "results": results}
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return digest


def read_csv_artifact(path: Path) -> tuple[dict, str, list[str], bool]:
    """Returns (config, header, rows, hash_ok); ValueError unless a whole artifact."""
    import hashlib

    lines = Path(path).read_text().splitlines()
    if len(lines) < 4 or lines[0] != ARTIFACT_MAGIC:
        raise ValueError(f"{path}: not a complete padicsep artifact")
    config = json.loads(lines[1].removeprefix("# config: "))
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config line is not a JSON object")
    stated = lines[2].removeprefix("# content-sha256: ")
    payload = "".join(line + "\n" for line in lines[3:])
    ok = hashlib.sha256(payload.encode()).hexdigest() == stated
    return config, lines[3], lines[4:], ok


# --- flag checks ------------------------------------------------------------------


def _flag(args, flag: str):
    return getattr(args, flag.replace("-", "_"))


def _require(args, *flags: str) -> None:
    """ConfigError naming the first of these flags that was not given."""
    for flag in flags:
        if _flag(args, flag) is None:
            raise ConfigError(flag, "missing required option")


def _parse_list(args, flag: str, convert=int) -> list:
    """The comma-separated values of --flag through convert; a bad or repeated one names the flag."""
    try:
        values = [convert(part) for part in _flag(args, flag).split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(flag, f"malformed value: {exc}") from None
    if len(set(values)) < len(values):
        raise ConfigError(flag, f"repeated value in {_flag(args, flag)!r}")
    return values


def _check_prime(p: int) -> None:
    from .padic import _as_p

    try:
        _as_p(p)
    except ValueError as exc:  # not prime, or beyond the deterministic Miller-Rabin range
        raise ConfigError("p", str(exc)) from None


def _out_dir(args) -> Path:
    """Create --out-dir; commands call this once every other check has passed."""
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("out-dir", str(exc)) from None
    return out_dir


def _out_file(flag: str, path: str) -> Path:
    """--flag's output file: its directory must exist and it must not be one."""
    out = Path(path)
    if out.is_dir() or not out.parent.is_dir():
        raise ConfigError(flag, f"cannot write a file at {path!r}")
    return out


# --- disc-census and sep-census ---------------------------------------------------


def _census_front_end(args, grid_flag: str) -> tuple[list[int], list[Fraction]]:
    """The checked (Q grid, --nu or --theta grid) of a census command; --workers is checked too.

    The command adds its own checks, then creates the out-dir with _out_dir.
    """
    _require(args, "n", "p", "q-grid", grid_flag)
    _check_prime(args.p)
    if args.n < 2:
        raise ConfigError("n", "need n >= 2")
    q_grid = _parse_list(args, "q-grid")
    if min(q_grid) < 1:
        raise ConfigError("q-grid", "every Q must be >= 1")
    grid = _parse_list(args, grid_flag, Fraction)
    if min(grid) < 0:
        raise ConfigError(grid_flag, f"every {grid_flag} must be >= 0")
    if args.max_records is not None and args.max_records < 0:
        raise ConfigError("max-records", f"need max-records >= 0, got {args.max_records}")
    if args.workers < 1:
        raise ConfigError("workers", f"need workers >= 1, got {args.workers}")
    return q_grid, grid


def _fit(points: list[tuple[int, int]], target: Fraction) -> dict:
    from . import census as census_mod

    try:
        fit = census_mod.fit_exponent(points)
    except ValueError as exc:
        return {"error": str(exc), "target": str(target)}
    return {"slope": f"{fit.slope:.6f}", "residual_rms": f"{fit.residual_rms:.6f}",
            "target": str(target), "dropped": fit.dropped}


def _write_telemetry(out_dir: Path, kind: str, started: float, **fields) -> None:
    telemetry = {"elapsed_s": f"{time.perf_counter() - started:.3f}", **fields}
    (out_dir / f"{kind}_telemetry.json").write_text(json.dumps(telemetry, indent=2) + "\n")


def _census_tail(out_dir: Path, kind: str, config: dict, result, tables: dict,
                 started: float, **summary) -> int:
    """Write the CSV tables, the hashed summary and the unhashed telemetry; exit 0 or 3."""
    for name, (header, rows) in tables.items():
        write_csv_artifact(out_dir / name, config, header, rows)
    summary.update(complete=result.complete, records_seen=result.records_seen)
    write_json_artifact(out_dir / f"{kind}_summary.json", config, summary)
    _write_telemetry(out_dir, kind, started, workers_used=result.workers_used)
    print(f"{kind.replace('_', '-')}: {len(result.rows)} rows, "
          f"complete={result.complete} -> {out_dir}")
    return 0 if result.complete else 3


def cmd_disc_census(args) -> int:
    from . import census as census_mod

    q_grid, nu_grid = _census_front_end(args, "nu")
    for nu in nu_grid:
        if not 0 <= nu <= args.n - 1:
            raise ConfigError("nu", f"nu = {nu} outside [0, n-1]")
    c_exps = _parse_list(args, "constants") if args.constants is not None else [0, 1, 2]
    out_dir = _out_dir(args)
    config = {"subcommand": "disc-census", "n": args.n, "p": args.p,
              "q_grid": q_grid, "nu_grid": [str(nu) for nu in nu_grid],
              "constants": c_exps, "max_records": args.max_records}
    started = time.perf_counter()
    result = census_mod.disc_census(args.n, args.p, q_grid, nu_grid, c_exps,
                                    workers=args.workers, max_records=args.max_records)
    rows = [f"{r.n},{r.p},{r.height_bound},{r.nu},{r.c_exp},{r.count_all},{r.count_irr},0"
            for r in result.rows]
    stat_rows = [
        f"{s.height_bound},{s.k},{s.count_all},{s.count_irr},{s.min_cofactor},{s.max_abs_disc}"
        for s in result.stats
    ]
    fits = {f"nu={nu};C=p^{ce}":
            _fit([(r.height_bound, r.count_irr) for r in result.rows
                  if r.nu == nu and r.c_exp == ce],
                 args.n + 1 - Fraction(args.n + 2, args.n) * nu)
            for nu in nu_grid for ce in c_exps}
    tables = {"disc_census.csv": (CENSUS_HEADER, rows),
              "disc_census_stats.csv":
                  ("Q,vpD,count_all,count_irr,min_cofactor,max_abs_disc", stat_rows)}
    return _census_tail(out_dir, "disc_census", config, result, tables, started,
                        fits=fits, rows=len(rows))


def cmd_sep_census(args) -> int:
    from . import census as census_mod
    from .padic import _power_exponent

    q_grid, theta_grid = _census_front_end(args, "theta")
    t_grid = [_power_exponent(q, args.p) for q in q_grid]
    for q, t in zip(q_grid, t_grid):
        if t is None:
            raise ConfigError("q-grid", f"{q} is not a power of p = {args.p}")
    bound = Fraction(args.n + 1, 3)
    for th in theta_grid:
        if th > bound:
            print(f"warning: theta = {th} exceeds (n+1)/3 = {bound}; "
                  "outside the proven range", file=sys.stderr)
    out_dir = _out_dir(args)
    config = {"subcommand": "sep-census", "n": args.n, "p": args.p,
              "q_grid": q_grid, "theta_grid": [str(th) for th in theta_grid],
              "c0_exp": args.c0_exp, "max_records": args.max_records}
    started = time.perf_counter()
    result = census_mod.sep_census(args.n, args.p, t_grid, theta_grid, args.c0_exp,
                                   workers=args.workers, max_records=args.max_records)
    rows = [f"{r.n},{r.p},{r.p**r.t},{r.theta},{r.c0_exp},{r.count_all},{r.count_irr},0"
            for r in result.rows]
    fits = {f"theta={th}": _fit([(r.p**r.t, r.count_irr) for r in result.rows if r.theta == th],
                                args.n + 1 - 2 * th)
            for th in theta_grid}
    max_exps = {f"Q={r.p**r.t};theta={r.theta}":
                (f"{r.max_exponent:.6f}" if r.max_exponent is not None else None)
                for r in result.rows}
    return _census_tail(out_dir, "sep_census", config, result,
                        {"sep_census.csv": (CENSUS_HEADER, rows)}, started,
                        fits=fits, max_observed_exponent=max_exps)


# --- generate ------------------------------------------------------------------


def cmd_generate(args) -> int:
    from . import lattice as lattice_mod
    from .intpoly import discriminant
    from .padic import INF, valuation
    from .roots import HenselInapplicable, hensel_lift

    _require(args, "preset")
    if args.preset not in ("theorem2", "theorem3"):
        raise ConfigError("preset", f"unknown preset {args.preset!r}")
    _require(args, "n", "p", "t", "theta" if args.preset == "theorem2" else "nu")
    _check_prime(args.p)
    if args.n < 2:
        raise ConfigError("n", "need n >= 2")
    if args.t < 1:
        raise ConfigError("t", "need t >= 1 (Q = p^t > 1)")
    if args.samples < 0:
        raise ConfigError("samples", f"need samples >= 0, got {args.samples}")
    descr = {"mode": args.preset, "n": args.n, "p": args.p, "t": args.t}
    for flag in ("theta", "nu"):
        if _flag(args, flag) is not None:
            values = _parse_list(args, flag, Fraction)
            if len(values) != 1:
                raise ConfigError(flag, "need a single value")
            if values[0] < 0 or flag == "nu" and values[0] > args.n - 1:
                span = "[0, n-1]" if flag == "nu" else "[0, oo)"
                raise ConfigError(flag, f"{flag} = {values[0]} outside {span}")
            descr[flag] = _flag(args, flag)
    try:
        params = lattice_mod.expand_preset(descr)
    except ValueError as exc:
        raise ConfigError("preset", str(exc)) from None
    out_dir = _out_dir(args)
    config = {"subcommand": "generate", "preset": descr, "b": list(params.b),
              "samples": args.samples, "seed": args.seed}
    rng = random.Random(args.seed)
    modulus = args.p ** (max(params.b) + 2)
    xs = [rng.randrange(modulus) for _ in range(args.samples)]

    header = ("x,q,m,c0,C2,poly_index,coeffs,content,height,degree_ok,eisenstein_ok,"
              "membership_ok,height_ok,margins")
    rows = []
    failures = []
    hensel_checks = []
    outputs = []
    routes = dict.fromkeys(("enumeration", "lll_after_box", "lll_dual_certificate",
                            "degenerate"), 0)
    started = time.perf_counter()
    for x in xs:
        try:
            out = lattice_mod.generate(x, params)
        except lattice_mod.DegenerateSample as exc:
            failures.append({"x": x, "reason": str(exc)})
            routes["degenerate"] += 1
            continue
        outputs.append(out)
        routes[out.route] += 1
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
            except HenselInapplicable:
                hensel_checks.append({"x": out.x, "distance_valuation": None})
    write_csv_artifact(out_dir / "generated_polys.csv", config, header, rows)
    successes = sum(out.all_ok for out in outputs)
    disc_vals = {}
    if args.preset == "theorem3":
        vpds = [int(valuation(d, args.p))
                for out in outputs for poly in out.polys
                if (d := discriminant(poly)) != 0]
        target = 2 * Fraction(args.nu) * args.t
        disc_vals = {"target_2nut": str(target),
                     "min_vpD": min(vpds) if vpds else None,
                     "max_vpD": max(vpds) if vpds else None,
                     "slack_max": str(target - min(vpds)) if vpds else None}
    summary = {"samples": args.samples, "successes": successes,
               "success_rate": f"{successes / args.samples:.6f}" if args.samples else None,
               "failures": failures, "hensel_distances": hensel_checks,
               "theorem3_discriminants": disc_vals, "b": list(params.b)}
    write_json_artifact(out_dir / "generate_summary.json", config, summary)
    _write_telemetry(out_dir, "generate", started, short_vector_routes=routes)
    print(f"generate: {successes}/{args.samples} samples fully certified -> {out_dir}")
    return 0


# --- verify ---------------------------------------------------------------------


def cmd_verify(args) -> int:
    """Run one suite, or every "all" suite whose flags are given (measure needs --seed)."""
    from .verify import SUITES

    if args.suite == "all":
        names = [name for name, (_, needs, in_all) in SUITES.items()
                 if in_all and all(_flag(args, flag) is not None for flag in needs)]
    elif args.suite in SUITES:
        names = [args.suite]
        _require(args, *SUITES[args.suite][1])
    else:
        raise ConfigError("suite", f"unknown suite {args.suite!r}")
    report_path = _out_file("report", args.report) if args.report is not None else None
    report = {}
    for name in names:
        checks = SUITES[name][0](args)
        report[name] = [{"check": c, "ok": ok, "detail": d} for c, ok, d in checks]
        for c, ok, d in checks:
            print(f"[{name}] {'PASS' if ok else 'FAIL'}: {c}" + (f" ({d})" if d else ""))
    if report_path is not None:
        write_json_artifact(report_path, {"subcommand": "verify",
                                          "suite": args.suite, "quick": args.quick},
                            report)
    return 0 if all(c["ok"] for checks in report.values() for c in checks) else 1


# --- report ---------------------------------------------------------------------


def cmd_report(args) -> int:
    if not args.inputs:
        raise ConfigError("inputs", "need at least one census CSV")
    out_rows = []
    for src in args.inputs:
        try:
            config, header, rows, ok = read_csv_artifact(Path(src))
        except (OSError, ValueError) as exc:
            raise ConfigError("inputs", f"{src}: {exc}") from None
        if not ok:
            raise ConfigError("inputs", "content hash mismatch", code=1, file=str(src))
        if header != CENSUS_HEADER:
            raise ConfigError("inputs", f"{src}: not a census table (header {header!r})")
        kind = config.get("subcommand", "unknown")
        for row in rows:
            out_rows.append(f"{Path(src).name},{kind},{row}")
    header = "source,kind," + CENSUS_HEADER
    config = {"subcommand": "report", "inputs": [Path(s).name for s in args.inputs]}
    write_csv_artifact(_out_file("out", args.out), config, header, out_rows)
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
    dc.add_argument("--workers", type=int, default=1)
    dc.add_argument("--max-records", type=int, default=None)
    dc.add_argument("--out-dir", default=".")
    dc.set_defaults(func=cmd_disc_census)

    scp = sub.add_parser("sep-census", help="count irreducible polynomials with close conjugate roots")
    scp.add_argument("--n", type=int)
    scp.add_argument("--p", type=int)
    scp.add_argument("--q-grid", dest="q_grid", help="powers of p")
    scp.add_argument("--theta")
    scp.add_argument("--c0-exp", dest="c0_exp", type=int, default=0)
    scp.add_argument("--workers", type=int, default=1)
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


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    # SIGTERM unwinds as SystemExit(143), so a census kills its workers on the way out
    on_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _exit_on_signal) if on_main else None
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(json.dumps({"error": str(exc), "field": exc.field, **exc.detail}) + "\n")
        return exc.code
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)


if __name__ == "__main__":
    sys.exit(main())
