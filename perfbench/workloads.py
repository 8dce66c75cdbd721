"""The four benchmark workloads and the checks on their outputs.

Each workload runs in passes.  ``run_pass`` does the timed work and keeps
what it produced; ``check_pass`` then re-checks those outputs outside the
timed region (and outside any tracer).  A workload splits its work into two
stages, ``a`` and ``b``, whose throughputs are reported separately:

    quadratic-census  a = disc-census polynomials, b = sep-census polynomials
    cubic-census      a = disc-census polynomials, b = sep-census polynomials
    generator         a = fully certified generator samples, b = measure samples
    poly-analysis     a = irreducibility verdicts, b = root analyses

Census inputs are exhaustive and ignore the seed.  The generator x draws,
the measure seeds and the poly-analysis draws come from ``(seed, pass)``, so
every pass of a run sees fresh inputs and a seed always gives the same ones.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path
from time import perf_counter
from typing import Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
GOLDEN = REPO_ROOT / "tests" / "golden"
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
DEFAULT_SEED = 1

# The benchmark measures the padicsep next to it, never an installed copy.
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
import padicsep  # noqa: E402
from padicsep import census, cli, intpoly, lattice, linalg, padic  # noqa: E402
from padicsep import roots as roots_mod  # noqa: E402

if Path(padicsep.__file__).resolve().parent != SRC / "padicsep":
    raise ImportError(f"padicsep imported from {padicsep.__file__}, not from {SRC}")

WORKLOADS = ("quadratic-census", "cubic-census", "generator", "poly-analysis")
STAGE_NAMES = {
    "quadratic-census": ("disc_polys_per_s", "sep_polys_per_s"),
    "cubic-census": ("disc_polys_per_s", "sep_polys_per_s"),
    "generator": ("gen_certified_per_s", "measure_samples_per_s"),
    "poly-analysis": ("irreducibility_per_s", "root_analyses_per_s"),
}

# --- sizes --------------------------------------------------------------------
# (label, stage, argv without --workers/--out-dir, golden file or None)
CENSUS_STEPS = {
    "quadratic-census": [
        ("disc-n2-golden", "a", ["disc-census", "--n", "2", "--p", "3", "--q-grid", "10,20,40",
                                 "--nu", "1/2", "--constants", "0,1"], "disc_census_n2_p3.csv"),
        ("disc-n2-grid", "a", ["disc-census", "--n", "2", "--p", "3", "--q-grid", "20,40,80",
                               "--nu", "1/4,1/2"], None),
        ("sep-n2-golden", "b", ["sep-census", "--n", "2", "--p", "2", "--q-grid", "16,32,64",
                                "--theta", "1"], "sep_census_n2_p2.csv"),
    ],
    "cubic-census": [
        ("disc-n3", "a", ["disc-census", "--n", "3", "--p", "3", "--q-grid", "4,8",
                          "--nu", "1/2,1"], None),
        ("sep-n3", "b", ["sep-census", "--n", "3", "--p", "2", "--q-grid", "2,4",
                         "--theta", "1"], None),
    ],
}
TINY_CENSUS_STEPS = {
    "quadratic-census": [
        ("tiny-disc-n2", "a", ["disc-census", "--n", "2", "--p", "3", "--q-grid", "5,10",
                               "--nu", "1/4,1/2"], None),
        ("tiny-sep-n2", "b", ["sep-census", "--n", "2", "--p", "2", "--q-grid", "4,8",
                              "--theta", "1"], None),
    ],
    "cubic-census": [
        ("tiny-disc-n3", "a", ["disc-census", "--n", "3", "--p", "3", "--q-grid", "2,3",
                               "--nu", "1/2"], None),
        ("tiny-sep-n3", "b", ["sep-census", "--n", "3", "--p", "2", "--q-grid", "2",
                              "--theta", "1"], None),
    ],
}
GENERATOR_GOLDEN = ("generate-golden", ["generate", "--preset", "theorem2", "--n", "2", "--p", "3",
                                        "--t", "2", "--theta", "1", "--samples", "8",
                                        "--seed", "20260809"], "generated_polys_th2.csv")
# One x from every residue class mod 2^k per pass, the higher digits drawn from
# the seed.  Whether a sample needs the slow LLL fallback depends on x's low
# 2-adic digits (at theorem2 n=3 p=2 t=3, on x mod 64), so uniform draws make a
# run's throughput swing by a quarter with the seed.
GENERATOR_PRESETS = (
    ("theorem2", lattice.preset_theorem2(3, 2, 3, Fraction(1)), 64),
    ("theorem3", lattice.preset_theorem3(3, 2, 4, Fraction(1)), 32),
)
TINY_GENERATOR_CLASSES = 2
# short-vector thresholds epsilon = p^-e; e = 0 must hit every sample (Minkowski)
MEASURE_PARAMS = lattice.XiParams(2, 3, (9, 3, 0, 0))  # the theorem2 n=3 p=2 t=3 lattice
MEASURE_SHORT_EXPS = (0, 1, 2)
MEASURE_PINCH = {"threshold_exp": 1, "i_pinch": 1, "c2": 4}
# A pass decides MEASURE_CHUNKS x MEASURE_CHUNK_SAMPLES samples per call, in
# chunks spread between the generate calls, so that stage b is timed across
# the whole pass rather than in one burst of a second or two.
MEASURE_CHUNKS = 8
TINY_MEASURE_CHUNKS = 2
MEASURE_CHUNK_SAMPLES = 32
ANALYSIS_BATCH = 90
TINY_ANALYSIS_BATCH = 6
ANALYSIS_HEIGHT = 10  # random polynomials
ANALYSIS_FACTOR_HEIGHT = 3  # the quadratics multiplied together
ANALYSIS_PRIMES = (2, 3, 5)
ANALYSIS_PRECISION = 6  # plus 2 v_p(D), so each residue isolates its root for the profile


@dataclass
class Context:
    out_dir: Path
    workers: int
    seed: int
    tiny: bool = False
    tracer: Optional[object] = None  # a tracer.Tracer during the traced pass

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()


@dataclass
class PassResult:
    index: int
    seconds: float = 0.0
    census_seconds: float = 0.0
    stage_items: list = field(default_factory=lambda: [0, 0])
    stage_seconds: list = field(default_factory=lambda: [0.0, 0.0])
    attempted: int = 0
    failures: dict = field(default_factory=dict)  # operation label -> problems
    records_seen: int = 0
    pending: list = field(default_factory=list)  # (label, check callable) run by check_pass
    artifacts: list = field(default_factory=list)  # files this pass wrote

    def add_stage(self, stage: str, items: int, seconds: float) -> None:
        i = 0 if stage == "a" else 1
        self.stage_items[i] += items
        self.stage_seconds[i] += seconds

    def fail(self, label: str, message: str) -> None:
        self.failures.setdefault(label, []).append(message)

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)


def load_expected() -> dict:
    if EXPECTED_PATH.exists():
        return json.loads(EXPECTED_PATH.read_text())
    return {"census": {}, "seeded": {}}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _derived_seed(seed: int, pass_index: int, purpose: str) -> int:
    return random.Random(f"{seed}:{pass_index}:{purpose}").randrange(2**31)


def _run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


# --- census workloads ---------------------------------------------------------


def _cli_step(res: PassResult, label: str, argv: list[str], out: Path, summary_name: str):
    """Run one CLI command; (exit code, seconds, summary results), or None if it crashed."""
    res.attempted += 1
    start = perf_counter()
    try:
        rc = _run_cli(argv + ["--out-dir", str(out)])
        elapsed = perf_counter() - start
        summary = json.loads((out / summary_name).read_text())["results"]
    except Exception as exc:  # a crash or a missing summary is a failed operation
        res.fail(label, f"{type(exc).__name__}: {exc}")
        return None
    if rc != 0:
        res.fail(label, f"exit code {rc}")
    return rc, elapsed, summary


def _census_pass(ctx: Context, res: PassResult, steps) -> None:
    for label, stage, argv, golden in steps:
        kind = argv[0].replace("-", "_")
        out = ctx.out_dir / label
        step = _cli_step(res, label, argv + ["--workers", str(ctx.workers)], out,
                         f"{kind}_summary.json")
        if step is None:
            continue
        rc, elapsed, summary = step
        res.records_seen += summary["records_seen"]
        res.census_seconds += elapsed
        res.add_stage(stage, summary["records_seen"] // 2, elapsed)
        if rc != 0 or summary["complete"] is not True:
            res.fail(label, f"complete={summary['complete']}")
            continue
        files = [out / f"{kind}.csv"] + ([out / "disc_census_stats.csv"] if kind == "disc_census" else [])
        res.artifacts += files
        res.pending.append((label, lambda files=files, label=label, golden=golden:
                            _check_census(files, label, golden)))


def _check_census(files: list[Path], label: str, golden: Optional[str]) -> list[str]:
    problems = []
    frozen = load_expected()["census"].get(label)
    if frozen is None:
        problems.append("no frozen hashes for this step")
    for path in files:
        if frozen is not None and frozen.get(path.name) != sha256_file(path):
            problems.append(f"{path.name} differs from its frozen hash")
    if golden is not None and files[0].read_bytes() != (GOLDEN / golden).read_bytes():
        problems.append(f"{files[0].name} differs from tests/golden/{golden}")
    return problems


# --- generator workload -------------------------------------------------------


def draw_generator_xs(ctx: Context, pass_index: int) -> dict[str, list[int]]:
    """One x per residue class mod 2^k for each preset; the seed picks the higher digits."""
    xs = {}
    for name, params, classes in GENERATOR_PRESETS:
        if ctx.tiny:
            classes = TINY_GENERATOR_CLASSES
        rng = random.Random(f"{ctx.seed}:{pass_index}:{name}")
        modulus = params.p ** (max(params.b) + 2)  # the range the CLI draws x from
        xs[name] = [c + classes * rng.randrange(modulus // classes) for c in range(classes)]
    return xs


def _generator_pass(ctx: Context, res: PassResult, xs_by_preset: dict[str, list[int]]) -> None:
    units = [("golden", None, None)]
    units += [("sample", name, (params, x)) for name, params, _ in GENERATOR_PRESETS
              for x in xs_by_preset[name]]
    chunks = TINY_MEASURE_CHUNKS if ctx.tiny else MEASURE_CHUNKS
    n = len(units)
    for k in reversed(range(chunks)):  # chunk k goes after the first (k+1)/chunks of the units
        units.insert((k + 1) * n // chunks, ("measure", k, None))
    records = {name: [] for name, _, _ in GENERATOR_PRESETS}
    estimates = []
    for kind, key, arg in units:
        if kind == "golden":
            _generator_golden_step(ctx, res)
        elif kind == "sample":
            _generator_sample(res, key, records[key], *arg)
        else:
            estimates += _measure_chunk(ctx, res, key)
    for name, _, _ in GENERATOR_PRESETS:
        path = ctx.out_dir / f"generated_{name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(records[name], sort_keys=True, indent=1) + "\n")
        res.artifacts.append(path)
    path = ctx.out_dir / "measure_estimates.json"
    doc = [{"mode": me.mode, "threshold_exp": me.threshold_exp, "samples": me.samples,
            "hits": me.hits, "estimate": str(me.estimate), "seed": me.seed,
            "wilson": [me.wilson_low, me.wilson_high]} for me in estimates]
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    res.artifacts.append(path)


def _generator_golden_step(ctx: Context, res: PassResult) -> None:
    label, argv, golden = GENERATOR_GOLDEN
    out = ctx.out_dir / label
    step = _cli_step(res, label, argv, out, "generate_summary.json")
    if step is not None:
        rc, elapsed, summary = step
        res.add_stage("a", summary["successes"], elapsed)
        if rc == 0:
            path = out / "generated_polys.csv"
            res.artifacts.append(path)
            res.pending.append((label, lambda path=path: _check_generated_csv(path, golden, summary)))


def _generator_sample(res: PassResult, name: str, records: list, params, x: int) -> None:
    label = f"generate-{name} x={x}"
    res.attempted += 1
    start = perf_counter()
    try:
        out = lattice.generate(x, params)
    except lattice.DegenerateSample as exc:  # a documented outcome, not a failure
        res.add_stage("a", 0, perf_counter() - start)
        records.append({"x": x, "degenerate": str(exc)})
        return
    except Exception as exc:
        res.fail(label, f"raised {type(exc).__name__}: {exc}")
        return
    res.add_stage("a", int(out.all_ok), perf_counter() - start)
    sample = [{"x": out.x, "q": out.q, "coeffs": list(poly.coeffs),
               "degree_ok": cert.degree_ok, "eisenstein_ok": cert.eisenstein_ok,
               "membership_ok": cert.membership_ok, "height_ok": cert.height_ok}
              for poly, cert in zip(out.polys, out.certificates)]
    records.append({"x": x, "m": out.m, "c0": str(out.c0), "c2": out.c2,
                    "method": out.method, "polys": sample})
    res.pending.append((label, lambda: _check_sample(sample, params)))


def _measure_chunk(ctx: Context, res: PassResult, chunk: int) -> list:
    """Every measure call once, on the same seeded centres; the estimates made."""
    seed = _derived_seed(ctx.seed, res.index, f"measure:{chunk}")
    calls = [("short-vector", e, {}) for e in MEASURE_SHORT_EXPS]
    calls.append(("pinch", MEASURE_PINCH["threshold_exp"],
                  {"i_pinch": MEASURE_PINCH["i_pinch"], "c2": MEASURE_PINCH["c2"]}))
    estimates = []
    for mode, exp, extra in calls:
        label = f"measure-{mode}-{exp} chunk {chunk}"
        res.attempted += 1
        start = perf_counter()
        try:
            me = census.measure_estimate(MEASURE_PARAMS, exp, mode=mode,
                                         samples=MEASURE_CHUNK_SAMPLES, seed=seed, **extra)
        except Exception as exc:
            res.fail(label, f"raised {type(exc).__name__}: {exc}")
            continue
        res.add_stage("b", MEASURE_CHUNK_SAMPLES, perf_counter() - start)
        estimates.append(me)
    res.pending.append((f"measure chunk {chunk}", lambda: _check_measure(estimates)))
    return estimates


def _eisenstein(coeffs: list[int], q: int) -> bool:
    """The Eisenstein criterion at q, written out here so the check does not trust the program's."""
    return coeffs[-1] % q != 0 and all(a % q == 0 for a in coeffs[:-1]) and coeffs[0] % (q * q) != 0


def _check_sample(sample: list[dict], params) -> list[str]:
    """Re-check one generator sample's n+1 outputs from outside the generator."""
    problems = []
    n = params.n
    x = sample[0]["x"]
    gamma = lattice.build_gamma(x, params)
    vectors = []
    for idx, out in enumerate(sample):
        poly = intpoly.IntPoly(out["coeffs"])
        padded = tuple(out["coeffs"]) + (0,) * (n + 1 - len(out["coeffs"]))
        vectors.append(padded)
        recheck = {
            "degree_ok": poly.degree == n,
            "eisenstein_ok": _eisenstein(out["coeffs"], out["q"]),
            "membership_ok": gamma.contains(padded),
        }
        for key, value in recheck.items():
            if value != out[key]:
                problems.append(f"x={x} output {idx}: reported {key}={out[key]}, re-check says {value}")
    if len(sample) != n + 1:
        problems.append(f"x={x}: {len(sample)} outputs, expected {n + 1}")
    elif linalg.bareiss_det([list(col) for col in zip(*vectors)]) == 0:
        problems.append(f"x={x}: outputs are linearly dependent")
    return problems


def _check_generated_csv(path: Path, golden: str, summary: dict) -> list[str]:
    """Re-check the CLI generator's CSV and compare it with its golden file."""
    problems = []
    if path.read_bytes() != (GOLDEN / golden).read_bytes():
        problems.append(f"{path.name} differs from tests/golden/{golden}")
    lines = path.read_text().splitlines()
    config = json.loads(lines[1].removeprefix("# config: "))
    params = lattice.expand_preset(config["preset"])
    rows = csv.DictReader(line for line in lines if not line.startswith("#"))
    samples: list[list[dict]] = []  # a sample's rows run from poly_index 0 to n
    for row in rows:
        if row["poly_index"] == "0":
            samples.append([])
        samples[-1].append({"x": int(row["x"]), "q": int(row["q"]),
                            "coeffs": [int(c) for c in row["coeffs"].split(",")],
                            **{key: row[key] == "1" for key in
                               ("degree_ok", "eisenstein_ok", "membership_ok", "height_ok")}})
    certified = 0
    for sample in samples:
        problems += _check_sample(sample, params)
        certified += all(out[key] for out in sample for key in
                         ("degree_ok", "eisenstein_ok", "membership_ok", "height_ok"))
    if certified != summary["successes"]:
        problems.append(f"summary reports {summary['successes']} certified, the CSV {certified}")
    return problems


def _check_measure(estimates) -> list[str]:
    problems = []
    short = [me for me in estimates if me.mode == "short-vector"]
    if short and short[0].threshold_exp == 0 and short[0].hits != short[0].samples:
        problems.append(f"epsilon = 1 hit {short[0].hits}/{short[0].samples}, Minkowski says all")
    # same seed, same centers: shrinking epsilon can only lose hits
    for prev, cur in zip(short, short[1:]):
        if cur.hits > prev.hits:
            problems.append(f"hits grew from {prev.hits} to {cur.hits} as epsilon shrank")
    for me in estimates:
        if not 0 <= me.hits <= me.samples or me.estimate != Fraction(me.hits, me.samples):
            problems.append(f"{me.mode} e={me.threshold_exp}: inconsistent estimate")
        elif not me.wilson_low <= float(me.estimate) <= me.wilson_high:
            problems.append(f"{me.mode} e={me.threshold_exp}: Wilson interval misses the estimate")
    return problems


# --- poly-analysis workload ---------------------------------------------------


def _random_poly(rng: random.Random, degree: int, height: int) -> tuple[int, ...]:
    return tuple(rng.randint(-height, height) for _ in range(degree)) + (rng.randint(1, height),)


def _primitive(coeffs) -> tuple[int, ...]:
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    return tuple(c // g for c in coeffs)


def draw_analysis_batch(seed: int, pass_index: int,
                        count: int) -> list[tuple[tuple[int, ...], int, int, bool]]:
    """(coeffs, p, precision, is_product) for a seeded batch of squarefree primitive polynomials.

    Every third polynomial is a product of two random quadratics (so it is
    reducible); the others are random of degree 3, 4, 5 in turn.
    """
    rng = random.Random(f"{seed}:{pass_index}:poly-analysis")
    batch = []
    degrees = (3, 4, 5)
    while len(batch) < count:
        is_product = len(batch) % 3 == 2
        if is_product:
            f = intpoly.IntPoly(_random_poly(rng, 2, ANALYSIS_FACTOR_HEIGHT))
            g = intpoly.IntPoly(_random_poly(rng, 2, ANALYSIS_FACTOR_HEIGHT))
            coeffs = _primitive((f * g).coeffs)
        else:
            degree = degrees[(len(batch) - len(batch) // 3) % 3]
            coeffs = _primitive(_random_poly(rng, degree, ANALYSIS_HEIGHT))
        p = rng.choice(ANALYSIS_PRIMES)
        disc = intpoly.discriminant_coeffs(coeffs)
        if disc == 0:
            continue  # repeated roots: separation is undefined
        precision = ANALYSIS_PRECISION + 2 * padic.valuation(disc, p)
        batch.append((coeffs, p, precision, is_product))
    return batch


def _analysis_pass(ctx: Context, res: PassResult, batch) -> None:
    records = []
    for coeffs, p, k, is_product in batch:
        label = f"analysis {coeffs} p={p}"
        poly = intpoly.IntPoly(coeffs)
        res.attempted += 1
        try:
            with ctx.span("analysis"):
                t0 = perf_counter()
                verdict = intpoly.is_irreducible(poly)
                t1 = perf_counter()
                try:
                    found = roots_mod.zp_roots(poly, p, k)
                except roots_mod.PrecisionExhausted:
                    found = None
                profiles = [roots_mod.profile_at_zp_root(poly, r.residue, p).entries
                            for r in found or () if r.simple]
                sep = roots_mod.min_conjugate_separation(poly, p).val
                t2 = perf_counter()
        except Exception as exc:
            res.fail(label, f"raised {type(exc).__name__}: {exc}")
            continue
        res.add_stage("a", 1, t1 - t0)
        res.add_stage("b", 1, t2 - t1)
        rec = {
            "coeffs": list(coeffs), "p": p, "precision": k, "product": is_product,
            "irreducible": verdict.irreducible, "certificate": verdict.certificate,
            "roots": None if found is None else [[r.residue, r.simple] for r in found],
            "profiles": [[str(v) for v in entries] for entries in profiles],
            "separation": str(sep),
        }
        records.append(rec)
        res.pending.append((label, lambda rec=rec: _check_analysis(rec)))
    path = ctx.out_dir / "analyses.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(records, sort_keys=True, indent=1) + "\n")
    res.artifacts.append(path)


def _check_analysis(rec: dict) -> list[str]:
    problems = []
    poly = intpoly.IntPoly(rec["coeffs"])
    k = rec["precision"]
    modulus = rec["p"] ** k
    for residue, _ in rec["roots"] or ():
        if poly(residue) % modulus:
            problems.append(f"P({residue}) != 0 mod {rec['p']}^{k}")
    if rec["product"] and rec["irreducible"]:
        problems.append("a product of two quadratics reported irreducible")
    return problems


# --- entry points -------------------------------------------------------------


def prepare_pass(name: str, ctx: Context, index: int):
    """Inputs of one pass, made before its timing starts."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    if name == "poly-analysis":
        count = TINY_ANALYSIS_BATCH if ctx.tiny else ANALYSIS_BATCH
        return draw_analysis_batch(ctx.seed, index, count)
    if name == "generator":
        return draw_generator_xs(ctx, index)
    return None


def run_pass(name: str, ctx: Context, index: int, inputs) -> PassResult:
    """One timed pass of a workload; outputs are kept for check_pass."""
    res = PassResult(index)
    start = perf_counter()
    if name in CENSUS_STEPS:
        _census_pass(ctx, res, (TINY_CENSUS_STEPS if ctx.tiny else CENSUS_STEPS)[name])
    elif name == "generator":
        _generator_pass(ctx, res, inputs)
    else:
        _analysis_pass(ctx, res, inputs)
    res.seconds = perf_counter() - start
    return res


def pass_digest(res: PassResult) -> str:
    """sha256 over the bytes of every artifact the pass wrote, in order."""
    h = hashlib.sha256()
    for path in res.artifacts:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_pass(name: str, ctx: Context, res: PassResult) -> None:
    """Run the pass's output checks; every problem becomes a failure."""
    for label, check in res.pending:
        try:
            problems = check()
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        for problem in problems:
            res.fail(label, problem)
    res.pending = []
    if name in ("generator", "poly-analysis") and ctx.seed == DEFAULT_SEED and not ctx.tiny:
        frozen = load_expected()["seeded"].get(name, {}).get(str(res.index))
        if frozen is not None and frozen != pass_digest(res):
            res.fail("digest", f"pass {res.index} outputs differ from the frozen default-seed digest")
        elif frozen is None and res.index == 0:
            res.fail("digest", "no frozen default-seed digest for pass 0")
