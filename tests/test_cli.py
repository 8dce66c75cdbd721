import argparse
import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import padicsep.cli as cli_mod
import padicsep.lattice as lattice_mod
import padicsep.linalg as linalg_mod
from padicsep.cli import CENSUS_HEADER, build_parser, main, read_csv_artifact, write_csv_artifact
from padicsep.roots import HenselInapplicable


def run_cli(*args):
    import contextlib
    import io

    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def test_disc_census_artifact(tmp_path):
    code, out, err = run_cli("disc-census", "--n", "2", "--p", "3", "--q-grid", "6,12",
                             "--nu", "1/2", "--constants", "0", "--out-dir", str(tmp_path))
    assert code == 0
    config, header, rows, ok = read_csv_artifact(tmp_path / "disc_census.csv")
    assert ok
    assert header == "n,p,Q,nu_or_theta,constant,count_all,count_irr,flagged"
    assert len(rows) == 2
    assert config["subcommand"] == "disc-census"
    summary = json.loads((tmp_path / "disc_census_summary.json").read_text())
    assert summary["results"]["complete"] is True
    assert "nu=1/2;C=p^0" in summary["results"]["fits"]


def test_missing_field_is_machine_readable(tmp_path):
    code, out, err = run_cli("disc-census", "--n", "2", "--q-grid", "6", "--nu", "1/2")
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["field"] == "p"

    code, out, err = run_cli("disc-census", "--n", "2", "--p", "9", "--q-grid", "6",
                             "--nu", "1/2")
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["field"] == "p"


def test_sep_census_artifact_and_theta_warning(tmp_path):
    code, out, err = run_cli("sep-census", "--n", "2", "--p", "2", "--q-grid", "8,16",
                             "--theta", "3/2", "--out-dir", str(tmp_path))
    assert code == 0
    assert "exceeds (n+1)/3" in err
    config, header, rows, ok = read_csv_artifact(tmp_path / "sep_census.csv")
    assert ok and len(rows) == 2

    code, out, err = run_cli("sep-census", "--n", "2", "--p", "2", "--q-grid", "12",
                             "--theta", "1", "--out-dir", str(tmp_path))
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["field"] == "q-grid"


def test_worker_determinism_byte_identical(tmp_path):
    # (label, argv, processes started at workers 1, 2, 3); Q = 16 and Q = 9 are two shards
    runs = [
        ("disc-n2", ["disc-census", "--n", "2", "--p", "3", "--q-grid", "8,16",
                     "--nu", "1/4,1/2", "--constants", "0,1"], (0, 2, 3)),
        ("sep-n2", ["sep-census", "--n", "2", "--p", "2", "--q-grid", "16", "--theta", "1"],
         (0, 2, 2)),
        ("disc-n3", ["disc-census", "--n", "3", "--p", "3", "--q-grid", "4,9", "--nu", "1/2"],
         (0, 2, 3)),
    ]
    for label, argv, started in runs:
        kind = argv[0].replace("-", "_")
        names = [f"{kind}.csv", f"{kind}_summary.json"]
        if kind == "disc_census":
            names.append("disc_census_stats.csv")
        outputs = []
        for workers, used in zip((1, 2, 3), started):
            out_dir = tmp_path / f"{label}-w{workers}"
            code, _, _ = run_cli(*argv, "--workers", str(workers), "--out-dir", str(out_dir))
            assert code == 0
            outputs.append([(out_dir / name).read_bytes() for name in names])
            telemetry = json.loads((out_dir / f"{kind}_telemetry.json").read_text())
            assert telemetry["workers_used"] == used, (label, workers)
            assert float(telemetry["elapsed_s"]) >= 0
        assert outputs[0] == outputs[1] == outputs[2], label


def test_sep_census_negative_theta_exits_2(tmp_path):
    code, out, err = run_cli("sep-census", "--n", "2", "--p", "2", "--q-grid", "4",
                             "--theta", "1,-1", "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["field"] == "theta"
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_generate_artifact(tmp_path):
    code, out, err = run_cli("generate", "--preset", "theorem2", "--n", "2", "--p", "3",
                             "--t", "2", "--theta", "1", "--samples", "6", "--seed", "3",
                             "--out-dir", str(tmp_path))
    assert code == 0
    config, header, rows, ok = read_csv_artifact(tmp_path / "generated_polys.csv")
    assert ok
    assert header.startswith("x,q,m,c0,C2,poly_index,coeffs")
    summary = json.loads((tmp_path / "generate_summary.json").read_text())
    assert float(summary["results"]["success_rate"]) >= 0.9

    again = tmp_path / "again"
    code, _, _ = run_cli("generate", "--preset", "theorem2", "--n", "2", "--p", "3",
                         "--t", "2", "--theta", "1", "--samples", "6", "--seed", "3",
                         "--out-dir", str(again))
    assert code == 0
    assert (tmp_path / "generated_polys.csv").read_bytes() == (again / "generated_polys.csv").read_bytes()


def test_generate_telemetry_counts_every_sample(tmp_path, monkeypatch):
    # the golden config: the unhashed sidecar leaves the CSV and the summary
    # byte-identical to the goldens, and its route counts sum to --samples
    golden = Path(__file__).parent / "golden"
    config = read_csv_artifact(golden / "generated_polys_th2.csv")[0]
    preset = config["preset"]
    argv = ["generate", "--preset", preset["mode"], "--n", str(preset["n"]),
            "--p", str(preset["p"]), "--t", str(preset["t"]), "--theta", preset["theta"],
            "--samples", str(config["samples"]), "--seed", str(config["seed"])]
    assert run_cli(*argv, "--out-dir", str(tmp_path))[0] == 0
    assert (tmp_path / "generated_polys.csv").read_bytes() == \
        (golden / "generated_polys_th2.csv").read_bytes()
    assert (tmp_path / "generate_summary.json").read_bytes() == \
        (golden / "generate_summary_th2.json").read_bytes()
    telemetry = json.loads((tmp_path / "generate_telemetry.json").read_text())
    assert float(telemetry["elapsed_s"]) >= 0
    assert telemetry["short_vector_routes"] == {"enumeration": 8, "lll_after_box": 0,
                                                "lll_dual_certificate": 0, "degenerate": 0}

    # every route, and degenerate samples (every fourth call made to raise);
    # at theorem2 n=3 p=2 t=3 the dual certificate leaves no lll_after_box
    # sample, at n=2 p=5 t=4 seed 3 one box still comes up short
    real_generate = lattice_mod.generate
    calls = []

    def sometimes_degenerate(x, params):
        calls.append(x)
        if len(calls) % 4 == 0:
            raise lattice_mod.DegenerateSample("forced")
        return real_generate(x, params)

    monkeypatch.setattr(lattice_mod, "generate", sometimes_degenerate)
    out = tmp_path / "every-route"
    assert run_cli("generate", "--preset", "theorem2", "--n", "2", "--p", "5", "--t", "4",
                   "--theta", "1", "--samples", "12", "--seed", "3",
                   "--out-dir", str(out))[0] == 0
    routes = json.loads((out / "generate_telemetry.json").read_text())["short_vector_routes"]
    summary = json.loads((out / "generate_summary.json").read_text())["results"]
    assert sum(routes.values()) == 12 and routes["degenerate"] == len(summary["failures"]) == 3
    assert routes["enumeration"] and routes["lll_after_box"] and routes["lll_dual_certificate"]


def test_no_theorem2_n3_class_mod_64_falls_back_after_the_box():
    # the boxes of radius 32 at x = 15, 17, 47 and 49 hold fewer than 4
    # independent points; the equality dual certificate proves it unenumerated
    params = lattice_mod.preset_theorem2(3, 2, 3, Fraction(1))
    routes = Counter(lattice_mod.short_vectors(lattice_mod.build_gamma(x, params),
                                               lattice_mod.GENERATE_ENUM_LIMIT).route
                     for x in range(64))
    assert routes == {"enumeration": 46, "lll_dual_certificate": 18}


def test_generate_theorem3(tmp_path):
    code, out, err = run_cli("generate", "--preset", "theorem3", "--n", "2", "--p", "3",
                             "--t", "2", "--nu", "1", "--samples", "5", "--seed", "1",
                             "--out-dir", str(tmp_path))
    assert code == 0
    summary = json.loads((tmp_path / "generate_summary.json").read_text())
    t3 = summary["results"]["theorem3_discriminants"]
    assert t3["max_vpD"] is not None


def test_generate_invalid_preset(tmp_path):
    code, out, err = run_cli("generate", "--preset", "nope", "--n", "2", "--p", "3", "--t", "2")
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["field"] == "preset"


def test_generate_configuration_errors_exit_2(tmp_path):
    gen = ["generate", "--preset", "theorem2", "--n", "2", "--p", "3", "--theta", "1"]
    for argv, field in ((gen + ["--t", "2", "--samples", "-1"], "samples"),
                        (gen + ["--t", "0", "--samples", "2"], "t"),
                        (gen + ["--t=-1", "--samples", "2"], "t"),
                        (gen[:-1] + ["1/0", "--t", "2"], "theta"),
                        (gen[:-1] + ["x", "--t", "2"], "theta"),
                        (["generate", "--preset", "theorem2", "--n", "1", "--p", "3",
                          "--theta", "1", "--t", "2"], "n"),
                        (gen[:-1] + ["-1", "--t", "2"], "theta"),
                        (gen[:-2] + ["--theta=-1/2", "--t", "2"], "theta"),
                        (["generate", "--preset", "theorem3", "--n", "2", "--p", "3",
                          "--t", "2", "--nu", "2"], "nu"),
                        (["generate", "--preset", "theorem3", "--n", "3", "--p", "3",
                          "--t", "2", "--nu=-1/3"], "nu"),
                        (gen[:-1] + ["1,2", "--t", "2"], "theta"),
                        (gen[:-1] + ["3", "--t", "1"], "preset")):
        code, out, err = run_cli(*argv, "--out-dir", str(tmp_path / "out"))
        assert code == 2, argv
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["field"] == field and payload["error"], argv
        assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_generate_hensel_errors(tmp_path, monkeypatch):
    # theorem2 at b = (5, 1, 0) reports the Hensel root distance of each sample
    argv = ["generate", "--preset", "theorem2", "--n", "2", "--p", "3", "--t", "2",
            "--theta", "1/2", "--samples", "3", "--seed", "1"]
    code, _, _ = run_cli(*argv, "--out-dir", str(tmp_path / "lifted"))
    assert code == 0
    summary = json.loads((tmp_path / "lifted" / "generate_summary.json").read_text())
    assert [d["distance_valuation"] for d in summary["results"]["hensel_distances"]] == [5, 3, 5]

    def inapplicable(*args):
        raise HenselInapplicable("simple-root condition fails")

    monkeypatch.setattr("padicsep.roots.hensel_lift", inapplicable)
    code, _, _ = run_cli(*argv, "--out-dir", str(tmp_path))
    assert code == 0
    summary = json.loads((tmp_path / "generate_summary.json").read_text())
    distances = summary["results"]["hensel_distances"]
    assert len(distances) == 3
    assert all(d["distance_valuation"] is None for d in distances)

    def broken(*args):
        raise RuntimeError("defect inside hensel_lift")

    monkeypatch.setattr("padicsep.roots.hensel_lift", broken)
    with pytest.raises(RuntimeError, match="defect inside hensel_lift"):
        run_cli(*argv, "--out-dir", str(tmp_path / "again"))


def test_verify_suites_exit_codes(tmp_path):
    code, out, err = run_cli("verify", "--suite", "hensel", "--quick")
    assert code == 0 and "PASS" in out
    code, out, err = run_cli("verify", "--suite", "padic", "--quick")
    assert code == 0
    code, out, err = run_cli("verify", "--suite", "census", "--quick",
                             "--report", str(tmp_path / "report.json"))
    assert code == 0
    assert (tmp_path / "report.json").exists()
    code, out, err = run_cli("verify", "--suite", "nonsense")
    assert code == 2
    code, out, err = run_cli("verify", "--suite", "measure", "--quick")
    assert code == 2
    assert json.loads(err.strip().splitlines()[-1])["field"] == "seed"
    code, out, err = run_cli("verify", "--suite", "measure", "--quick", "--seed", "7")
    assert code == 0
    # the README's command: every suite but golden, measure included since --seed is given
    code, out, err = run_cli("verify", "--suite", "all", "--quick", "--seed", "7")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 11 and all("] PASS: " in line for line in lines)
    assert {line.split("]")[0] + "]" for line in lines} == {
        "[padic]", "[hensel]", "[lattice]", "[generator]", "[census]", "[measure]"}


def test_verify_lattice_catches_a_non_unimodular_lll(monkeypatch):
    code, out, _ = run_cli("verify", "--suite", "lattice", "--quick")
    assert code == 0 and "[lattice] PASS: LLL keeps the covolume" in out
    real_lll = linalg_mod.lll_reduce

    def doubling_lll(basis):
        reduced = real_lll(basis)
        return [[2 * x for x in reduced[0]]] + reduced[1:]

    monkeypatch.setattr(linalg_mod, "lll_reduce", doubling_lll)
    code, out, _ = run_cli("verify", "--suite", "lattice", "--quick")
    assert code == 1 and "[lattice] FAIL: LLL keeps the covolume" in out


def test_verify_lattice_full_mode_exits_cleanly():
    # one full-mode draw proves lambda_(n+1) beyond the enumeration cap; the
    # check decides it from the exact lambda_1 and the LLL bound, no traceback
    code, out, err = run_cli("verify", "--suite", "lattice")
    assert code == 0 and "Traceback" not in out + err
    assert "[lattice] PASS: Minkowski" in out
    assert "decided by the LLL bound on lambda_(n+1): 1)" in out


def test_verify_lattice_decides_minkowski_by_the_lll_bound(monkeypatch):
    real = lattice_mod.successive_minima
    calls = {"full": 0, "first": 0}

    def no_full_minima(lat, count=None):
        if count is None:
            calls["full"] += 1
            raise RuntimeError("successive minima enumeration exceeds limit")
        calls["first"] += 1
        return real(lat, count)

    monkeypatch.setattr(lattice_mod, "successive_minima", no_full_minima)
    code, out, _ = run_cli("verify", "--suite", "lattice", "--quick")
    assert calls == {"full": 20, "first": 20}
    assert code == 0 and "decided by the LLL bound on lambda_(n+1): 20)" in out

    def no_minima(lat, count=None):
        raise RuntimeError("successive minima enumeration exceeds limit")

    # an instance decided neither way fails the check
    monkeypatch.setattr(lattice_mod, "successive_minima", no_minima)
    code, out, _ = run_cli("verify", "--suite", "lattice", "--quick")
    assert code == 1 and "[lattice] FAIL: Minkowski" in out


def test_verify_golden_corruption(tmp_path):
    code, _, _ = run_cli("disc-census", "--n", "2", "--p", "3", "--q-grid", "6",
                         "--nu", "1/2", "--constants", "0", "--out-dir", str(tmp_path))
    assert code == 0
    golden = tmp_path / "golden"
    golden.mkdir()
    src = (tmp_path / "disc_census.csv").read_text()
    (golden / "good.csv").write_text(src)
    lines = src.splitlines()
    lines[-1] = lines[-1].rsplit(",", 3)[0] + ",9999,9999,0"
    (golden / "bad.csv").write_text("\n".join(lines) + "\n")
    code, out, err = run_cli("verify", "--suite", "golden", "--golden-dir", str(golden))
    assert code == 1
    assert "bad.csv" in out and "FAIL" in out
    (golden / "bad.csv").unlink()
    code, out, err = run_cli("verify", "--suite", "golden", "--golden-dir", str(golden))
    assert code == 0


def test_report_merge(tmp_path):
    run_cli("disc-census", "--n", "2", "--p", "3", "--q-grid", "6", "--nu", "1/2",
            "--constants", "0", "--out-dir", str(tmp_path))
    run_cli("sep-census", "--n", "2", "--p", "2", "--q-grid", "8", "--theta", "1",
            "--out-dir", str(tmp_path))
    merged = tmp_path / "merged.csv"
    code, out, err = run_cli("report", str(tmp_path / "disc_census.csv"),
                             str(tmp_path / "sep_census.csv"), "--out", str(merged))
    assert code == 0
    config, header, rows, ok = read_csv_artifact(merged)
    assert ok and header.startswith("source,kind,")
    assert len(rows) == 2
    code, out, err = run_cli("report")
    assert code == 2


def test_cli_module_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "padicsep.cli", "verify",
                           "--suite", "padic", "--quick"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_resource_cap_exit_code(tmp_path):
    code, out, err = run_cli("disc-census", "--n", "2", "--p", "3", "--q-grid", "6,500",
                             "--nu", "1/2", "--constants", "0", "--max-records", "10000",
                             "--out-dir", str(tmp_path))
    assert code == 3
    summary = json.loads((tmp_path / "disc_census_summary.json").read_text())
    assert summary["results"]["complete"] is False


def test_sep_census_resource_cap_exit_code(tmp_path):
    code, out, err = run_cli("sep-census", "--n", "2", "--p", "2", "--q-grid", "8,256",
                             "--theta", "1", "--max-records", "10000",
                             "--out-dir", str(tmp_path))
    assert code == 3
    summary = json.loads((tmp_path / "sep_census_summary.json").read_text())
    assert summary["results"]["complete"] is False


def test_census_configuration_errors_exit_2(tmp_path):
    disc = ["disc-census", "--n", "2", "--p", "3", "--nu", "1/2"]
    sep = ["sep-census", "--n", "2", "--p", "2", "--theta", "1"]
    cases = [
        (disc + ["--q-grid", "4", "--constants", "x"], "constants"),
        (["sep-census", "--n", "1", "--p", "2", "--q-grid", "4", "--theta", "1"], "n"),
        (disc + ["--q-grid", "0"], "q-grid"),
        (disc + ["--q-grid=6,-5"], "q-grid"),
        (sep + ["--q-grid", "0"], "q-grid"),
        (sep + ["--q-grid=-4"], "q-grid"),
        (disc + ["--q-grid", "6", "--workers", "0"], "workers"),
        (disc + ["--q-grid", "6", "--workers=-2"], "workers"),
        (sep + ["--q-grid", "4", "--workers", "0"], "workers"),
        (sep + ["--q-grid", "4", "--workers=-1"], "workers"),
        (disc[:-1] + ["1/0", "--q-grid", "4"], "nu"),
        (sep[:-1] + ["1/0", "--q-grid", "4"], "theta"),
        (disc + ["--q-grid", "4", "--max-records", "-1"], "max-records"),
        (disc[:-1] + ["2", "--q-grid", "4"], "nu"),
        (disc + ["--q-grid", "4,4"], "q-grid"),
        (disc[:-1] + ["1/2,0.5", "--q-grid", "4"], "nu"),
        (disc + ["--q-grid", "4", "--constants", "0,0"], "constants"),
        (sep[:-1] + ["1,1", "--q-grid", "4"], "theta"),
    ]
    for argv, field in cases:
        code, out, err = run_cli(*argv, "--out-dir", str(tmp_path / "out"))
        assert code == 2, argv
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["field"] == field and payload["error"], argv
        assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_report_configuration_errors_exit_2(tmp_path):
    magic_only = tmp_path / "magic_only.csv"
    magic_only.write_text("# padicsep-artifact v1\n")
    list_config = tmp_path / "list_config.csv"
    list_config.write_text("# padicsep-artifact v1\n# config: []\n# content-sha256: 0\nh\n")
    # whole, hash-checked artifacts that are not census tables
    assert run_cli("generate", "--preset", "theorem2", "--n", "2", "--p", "3", "--t", "2",
                   "--theta", "1", "--samples", "2", "--seed", "1",
                   "--out-dir", str(tmp_path / "g"))[0] == 0
    assert run_cli("disc-census", "--n", "2", "--p", "3", "--q-grid", "4", "--nu", "1/2",
                   "--out-dir", str(tmp_path / "d"))[0] == 0
    generated = tmp_path / "g" / "generated_polys.csv"
    stats = tmp_path / "d" / "disc_census_stats.csv"
    for src in (magic_only, list_config, generated, stats):
        code, out, err = run_cli("report", str(src), "--out", str(tmp_path / "merged.csv"))
        assert code == 2, src.name
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["field"] == "inputs" and payload["error"], src.name
        assert "Traceback" not in err
    assert not (tmp_path / "merged.csv").exists()


def test_unusable_out_dir_exits_2(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for argv in (["disc-census", "--n", "2", "--p", "3", "--q-grid", "4", "--nu", "1/2"],
                 ["generate", "--preset", "theorem2", "--n", "2", "--p", "3", "--t", "2",
                  "--theta", "1", "--samples", "1"]):
        code, out, err = run_cli(*argv, "--out-dir", str(blocker / "out"))
        assert code == 2, argv
        assert json.loads(err.strip().splitlines()[-1])["field"] == "out-dir"


# Every value flag gets a base value that runs in well under a second (Q <= 4,
# one sample); the sweep then feeds each flag these malformed values.
SWEEP_BASES = {
    "disc-census": {"--n": "2", "--p": "3", "--q-grid": "4", "--nu": "1/2", "--constants": "0",
                    "--workers": "1", "--max-records": "1000", "--out-dir": "out"},
    "sep-census": {"--n": "2", "--p": "2", "--q-grid": "4", "--theta": "1", "--c0-exp": "0",
                   "--workers": "1", "--max-records": "1000", "--out-dir": "out"},
    "generate": {"--preset": "theorem2", "--n": "2", "--p": "3", "--t": "2", "--theta": "1",
                 "--nu": "1", "--samples": "1", "--seed": "0", "--out-dir": "out"},
    "verify": {"--suite": "padic", "--seed": "1", "--golden-dir": "golden",
               "--report": "verify.json"},
    "report": {"inputs": "census.csv", "--out": "merged.csv"},
}
MALFORMED = ("", "x", "1/0", "-1")
# an empty list names its flag: none falls back to its default
EMPTY_LIST_FLAGS = {("disc-census", "--q-grid"), ("disc-census", "--nu"),
                    ("disc-census", "--constants"), ("sep-census", "--q-grid"),
                    ("sep-census", "--theta")}


def _value_flags(command):
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [a.option_strings[0] if a.option_strings else a.dest
            for a in subparsers.choices[command]._actions if a.nargs != 0]


SWEEP = [(command, flag, value) for command in SWEEP_BASES
         for flag in _value_flags(command) for value in MALFORMED]


def test_sweep_covers_every_value_flag():
    for command, base in SWEEP_BASES.items():
        assert sorted(_value_flags(command)) == sorted(base), command


@pytest.mark.parametrize("command,flag,value", SWEEP)
def test_malformed_flag_values_exit_cleanly(command, flag, value, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_csv_artifact(tmp_path / "census.csv", {"subcommand": "disc-census"},
                       CENSUS_HEADER, ["2,3,4,1/2,0,0,0,0"])
    before = sorted(tmp_path.iterdir())
    options = {**SWEEP_BASES[command], flag: value}
    argv = [command]
    for name, text in options.items():
        argv += [text] if name == "inputs" else [name, text]
    try:
        code, out, err = run_cli(*argv)
    except SystemExit as exc:  # argparse rejected the value itself
        assert exc.code == 2, argv
        return
    assert code in (0, 2, 3), argv
    if value == "" and (command, flag) in EMPTY_LIST_FLAGS:
        assert code == 2 and json.loads(err.splitlines()[-1])["field"] == flag[2:], argv
    if code == 2:
        errors = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
        assert len(errors) == 1 and errors[0]["field"], argv
        assert sorted(tmp_path.iterdir()) == before, argv


def _child_pids(pid: int) -> list[int]:
    """The live processes whose parent is pid, read off /proc/<pid>/stat."""
    kids = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
                kids.append(int(entry.name))
    return kids


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_sigterm_stops_census_workers(tmp_path):
    # SIGTERM to a census with a worker pool exits 143 and leaves no worker behind
    proc = subprocess.Popen([sys.executable, "-m", "padicsep.cli", "disc-census", "--n", "3",
                             "--p", "2", "--q-grid", "32", "--nu", "1/2", "--workers", "2",
                             "--out-dir", str(tmp_path)],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    kids: list[int] = []
    try:
        deadline = time.monotonic() + 30
        while len(kids) < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.02)
            kids = _child_pids(proc.pid)
        assert len(kids) == 2, "the census never started its two workers"
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=30)
        assert proc.returncode == 143, err.decode(errors="replace")
        deadline = time.monotonic() + 5
        while any(Path(f"/proc/{k}").exists() for k in kids) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not [k for k in kids if Path(f"/proc/{k}").exists()]
    finally:
        proc.kill()
        proc.wait(timeout=30)
        for k in kids:
            if Path(f"/proc/{k}").exists():
                os.kill(k, signal.SIGKILL)


# Sends SIGTERM to itself after each fork of the census pool, while the pool is still starting
_AT_FORK_CENSUS = """
import os, signal, sys
from padicsep import cli
os.register_at_fork(after_in_parent=lambda: os.kill(os.getpid(), signal.SIGTERM))
sys.exit(cli.main(["disc-census", "--n", "3", "--p", "2", "--q-grid", "16", "--nu", "1/2",
                   "--workers", "2", "--out-dir", sys.argv[1]]))
"""


def _pids_running(argv: list[str]) -> list[int]:
    """The live processes whose command line is argv, read off /proc/<pid>/cmdline."""
    want = "\0".join(argv).encode() + b"\0"
    pids = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                if (entry / "cmdline").read_bytes() == want:
                    pids.append(int(entry.name))
            except OSError:
                continue
    return pids


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_sigterm_while_the_pool_forks_stops_the_census(tmp_path):
    # a SIGTERM that lands while the pool forks its workers is not lost: the run exits
    # 143, writes no artifact and leaves no worker behind
    out_dir = tmp_path / "out"
    argv = [sys.executable, "-c", _AT_FORK_CENSUS, str(out_dir)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 143, proc.stderr
        assert not out_dir.exists() or not list(out_dir.iterdir()), proc.stderr
        deadline = time.monotonic() + 5
        while _pids_running(argv) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _pids_running(argv)
    finally:
        for pid in _pids_running(argv):
            os.kill(pid, signal.SIGKILL)


def test_main_restores_the_sigterm_handler(capsys):
    def mine(signum, frame):
        pass

    previous = signal.signal(signal.SIGTERM, mine)
    try:
        assert main(["sep-census", "--n", "1", "--p", "2", "--q-grid", "4", "--theta", "1"]) == 2
        assert signal.getsignal(signal.SIGTERM) is mine
    finally:
        signal.signal(signal.SIGTERM, previous)
