#!/usr/bin/env python3
"""Benchmark runner for padicsep.

    python3 perfbench/run.py --workload quadratic-census --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: passes of the workload run in
a closed loop with ``--workers 2`` for about ``--seconds`` seconds; ``wall_s``
is the mean pass time and each stage throughput is the run's items over its
stage time (inputs have heavy-tailed costs, so totals are steadier than
medians of passes).  ``--trace 1`` instead runs one fixed
trace batch three times (untraced with two workers, untraced with one,
traced with one) and reports the per-layer metrics.  ``--workload all`` runs
every workload in turn.  Every output is checked; the last line of standard
output is one JSON object, and the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from hashlib import sha256
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent
OUT_ROOT = REPO_ROOT / ".perfbench_out"
E2E_WORKERS = 2  # the workload sizes were chosen on a two-core machine
SETUP_STARTS = 7
UNITS = {"setup_s": "s", "wall_s": "s", "stage_a_per_s": "1/s", "stage_b_per_s": "1/s",
         "peak_rss_mib": "MiB"}


def measure_setup_s() -> float:
    """Median time for a fresh interpreter to import padicsep.cli and build its parser."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    cmd = [sys.executable, "-c", "import padicsep.cli as c; c.build_parser()"]
    subprocess.run(cmd, env=env, cwd=REPO_ROOT, check=True)  # fills __pycache__ first
    times = []
    for _ in range(SETUP_STARTS):
        start = perf_counter()
        subprocess.run(cmd, env=env, cwd=REPO_ROOT, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest child (pool workers included)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def _commit() -> str:
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            if (git / ref).exists():
                return (git / ref).read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown (not a git checkout)"


def environment_stamp(args, workload: str, workers: int) -> dict:
    src = sha256()
    for path in sorted((REPO_ROOT / "src" / "padicsep").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "workers": workers, "commit": _commit(),
            "src_sha256": src.hexdigest(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "loadavg_start": os.getloadavg()}


def timed_passes(W, name: str, ctx, seconds: float) -> list:
    """Closed loop: start another pass while it is expected to end less than half a
    pass after ``seconds``, so that every run is timed over about ``seconds``."""
    passes = []
    start = perf_counter()
    while True:
        inputs = W.prepare_pass(name, ctx, len(passes))
        res = W.run_pass(name, ctx, len(passes), inputs)
        W.check_pass(name, ctx, res)
        passes.append(res)
        typical = statistics.median(p.seconds for p in passes)
        if perf_counter() - start + typical / 2 > seconds:
            return passes


def _rate(items: int, seconds: float) -> float:
    return items / seconds if seconds > 0 else 0.0


def end_to_end(W, name: str, args) -> dict:
    setup_s = measure_setup_s()
    ctx = W.Context(OUT_ROOT / name / "e2e", E2E_WORKERS, args.seed)
    passes = timed_passes(W, name, ctx, args.seconds)
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(p.seconds for p in passes) / len(passes),
        "stage_a_per_s": _rate(sum(p.stage_items[0] for p in passes),
                               sum(p.stage_seconds[0] for p in passes)),
        "stage_b_per_s": _rate(sum(p.stage_items[1] for p in passes),
                               sum(p.stage_seconds[1] for p in passes)),
        "peak_rss_mib": peak_rss_mib(),
    }
    return {"metrics": {k: (v, UNITS[k]) for k, v in metrics.items()},
            "passes": passes, "failures": {}, "checks": 0}


def traced(W, name: str, args) -> dict:
    """One trace batch three times: 2 workers, 1 worker, 1 worker traced."""
    from tracer import Tracer

    out = OUT_ROOT / name / "trace"
    runs = {}
    inputs = W.prepare_pass(name, W.Context(out, 1, args.seed), 0)
    for label, workers in (("w2", E2E_WORKERS), ("w1", 1), ("traced", 1)):
        tracer = Tracer() if label == "traced" else None
        ctx = W.Context(out / label, workers, args.seed, tracer=tracer)
        if tracer is None:
            res = W.run_pass(name, ctx, 0, inputs)
        else:
            with tracer:
                res = W.run_pass(name, ctx, 0, inputs)
        W.check_pass(name, ctx, res)
        runs[label] = res
    failures = {}
    digests = {label: W.pass_digest(res) for label, res in runs.items()}
    if len(set(digests.values())) != 1:
        failures["trace-artifacts"] = [f"artifacts differ between runs: {digests}"]
    if tracer.counts["census.records_seen"] != runs["traced"].records_seen:
        failures["trace-counts"] = ["census.records_seen disagrees with the census summaries"]
    metrics = tracer.metrics()
    w1, w2 = runs["w1"], runs["w2"]
    if w1.census_seconds:
        metrics["census.parallel_speedup"] = (w1.census_seconds / w2.census_seconds, "ratio")
    else:  # nothing runs in a pool: the ratio shows what --workers 2 costs
        metrics["census.parallel_speedup"] = (w1.seconds / w2.seconds, "ratio")
    metrics["trace.overhead_ratio"] = (runs["traced"].seconds / w1.seconds, "ratio")
    (out / "spans.json").write_text(json.dumps(tracer.spans) + "\n")
    return {"metrics": metrics, "passes": list(runs.values()), "failures": failures,
            "checks": 2}


def run_workload(W, name: str, args) -> dict:
    stamp = environment_stamp(args, name, 1 if args.trace else E2E_WORKERS)
    started = time.time()
    result = traced(W, name, args) if args.trace else end_to_end(W, name, args)
    passes = result["passes"]
    failures = dict(result["failures"])
    for p in passes:
        for label, problems in p.failures.items():
            failures[f"pass {p.index}: {label}"] = problems
    attempted = sum(p.attempted for p in passes) + result["checks"]
    failed = sum(p.failed for p in passes) + len(result["failures"])
    doc = {"stamp": stamp, "elapsed_s": time.time() - started, "passes": len(passes),
           "attempted": attempted, "failed": failed, "failures": failures,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}}
    out = OUT_ROOT / name / ("trace" if args.trace else "e2e")
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return doc


def report(W, name: str, doc: dict) -> None:
    print(f"# {name}: {json.dumps(doc['stamp'], sort_keys=True)}")
    aliases = dict(zip(("stage_a_per_s", "stage_b_per_s"), W.STAGE_NAMES[name]))
    for metric, entry in doc["metrics"].items():
        alias = f" ({aliases[metric]})" if metric in aliases else ""
        print(f"{name} {metric}{alias} = {entry['value']:.6g} {entry['unit']}")
    ratio = doc["failed"] / doc["attempted"] if doc["attempted"] else 1.0
    print(f"{name} error_ratio = {ratio:.6g} ({doc['failed']}/{doc['attempted']}, "
          f"{doc['passes']} passes)")
    for label, problems in doc["failures"].items():
        for problem in problems[:3]:
            print(f"{name} FAILED {label}: {problem}")


def main(argv=None) -> int:
    try:
        import workloads as W
    except ImportError as exc:
        print(f"perfbench: cannot load padicsep from {REPO_ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=W.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    docs = {}
    for name in names:
        docs[name] = run_workload(W, name, args)
        report(W, name, docs[name])
    if len(names) == 1:
        metrics = docs[names[0]]["metrics"]
    else:
        metrics = {f"{name}/{k}": v for name, doc in docs.items() for k, v in doc["metrics"].items()}
    attempted = sum(doc["attempted"] for doc in docs.values())
    failed = sum(doc["failed"] for doc in docs.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
