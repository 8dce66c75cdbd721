"""Tests of the benchmark itself: tracing must leave the program as it found
it and must not change a single output byte, its counts must repeat exactly,
and a broken output must fail the run.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys

import pytest

import run
import workloads as W
from tracer import Tracer, latency_summary

SEED = 7


def _namespaces():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if mod is not None and (name == "padicsep" or name.startswith("padicsep."))}


def _tiny_pass(name, out_dir, tracer=None):
    ctx = W.Context(out_dir, 1, SEED, tiny=True, tracer=tracer)
    inputs = W.prepare_pass(name, ctx, 0)
    if tracer is None:
        res = W.run_pass(name, ctx, 0, inputs)
    else:
        with tracer:
            res = W.run_pass(name, ctx, 0, inputs)
    W.check_pass(name, ctx, res)
    return res


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_tracing_restores_attributes_and_keeps_artifacts(name, tmp_path):
    before = _namespaces()
    plain = _tiny_pass(name, tmp_path / "plain")
    tracer = Tracer()
    traced = _tiny_pass(name, tmp_path / "traced", tracer)

    assert tracer.patched, "the tracer wrapped nothing"
    for ns_name, attr, original in tracer.patched:
        assert getattr(sys.modules[ns_name], attr) is original, f"{ns_name}.{attr}"
    after = _namespaces()
    for ns_name, attrs in before.items():
        for attr, value in attrs.items():
            assert after[ns_name][attr] is value, f"{ns_name}.{attr} not restored"

    assert not plain.failures and not traced.failures, (plain.failures, traced.failures)
    assert plain.artifacts and [p.name for p in plain.artifacts] == [p.name for p in traced.artifacts]
    for a, b in zip(plain.artifacts, traced.artifacts):
        assert a.read_bytes() == b.read_bytes(), a.name


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_traced_counts_repeat_exactly(name, tmp_path):
    first, second = Tracer(), Tracer()
    _tiny_pass(name, tmp_path / "first", first)
    _tiny_pass(name, tmp_path / "second", second)
    counts = first.exact_counts()
    assert counts == second.exact_counts()
    assert any(counts.values())
    if name in W.CENSUS_STEPS:
        assert counts["census.records_seen"] > 0


def test_tracer_counts_outcomes_and_spans(tmp_path):
    tracer = Tracer()
    res = _tiny_pass("poly-analysis", tmp_path, tracer)
    stages = sum(v for k, v in tracer.counts.items() if k.startswith("intpoly.is_irreducible.cert."))
    assert stages == tracer.stats["intpoly.is_irreducible"][0] >= res.attempted
    analyses = [s for s in tracer.spans if s[2] == "analysis"]
    assert len(analyses) == res.attempted
    calls, total, self_s = tracer.stats["intpoly.is_irreducible"]
    assert 0 <= self_s <= total


def test_latency_summary_tail_keeps_ten_samples_beyond():
    p50, tail, pct = latency_summary([float(i) for i in range(1, 41)])
    assert p50 == 20.5 and tail == 30.0 and pct == 75.0
    assert latency_summary([1.0] * 10) == (1.0, 0.0, 0.0)


def test_broken_census_output_fails_the_check(tmp_path, monkeypatch):
    original = W.census.disc_threshold
    monkeypatch.setattr(W.census, "disc_threshold", lambda *a: original(*a) + 1)
    res = _tiny_pass("cubic-census", tmp_path)
    assert any("frozen hash" in p for problems in res.failures.values() for p in problems)


def test_broken_irreducibility_fails_the_run(monkeypatch, capsys):
    def always_irreducible(poly):
        return W.intpoly.IrreducibilityResult(True, "exhaustive-factor-search")

    monkeypatch.setattr(W.intpoly, "is_irreducible", always_irreducible)
    rc = run.main(["--workload", "poly-analysis", "--seed", "1", "--seconds", "0.1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert result["correct"] is False and 0 < result["failed"] <= result["attempted"]
