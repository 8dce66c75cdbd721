import json
import subprocess
import sys
from pathlib import Path

import pytest

import padicsep.cli as cli_mod
from padicsep.cli import main, read_csv_artifact
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
    a = tmp_path / "w1"
    b = tmp_path / "w8"
    for out_dir, workers in ((a, "1"), (b, "8")):
        code, _, _ = run_cli("disc-census", "--n", "2", "--p", "3", "--q-grid", "8,16",
                             "--nu", "1/4,1/2", "--constants", "0,1",
                             "--workers", workers, "--out-dir", str(out_dir))
        assert code == 0
    assert (a / "disc_census.csv").read_bytes() == (b / "disc_census.csv").read_bytes()
    assert (a / "disc_census_stats.csv").read_bytes() == (b / "disc_census_stats.csv").read_bytes()

    for out_dir, workers in ((a, "1"), (b, "8")):
        code, _, _ = run_cli("sep-census", "--n", "2", "--p", "2", "--q-grid", "16",
                             "--theta", "1", "--workers", workers, "--out-dir", str(out_dir))
        assert code == 0
    assert (a / "sep_census.csv").read_bytes() == (b / "sep_census.csv").read_bytes()


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
                        (gen + ["--t=-1", "--samples", "2"], "t")):
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

    def inapplicable(*args):
        raise HenselInapplicable("simple-root condition fails")

    monkeypatch.setattr(cli_mod, "hensel_lift", inapplicable)
    code, _, _ = run_cli(*argv, "--out-dir", str(tmp_path))
    assert code == 0
    summary = json.loads((tmp_path / "generate_summary.json").read_text())
    distances = summary["results"]["hensel_distances"]
    assert len(distances) == 3
    assert all(d["distance_valuation"] is None for d in distances)

    def broken(*args):
        raise RuntimeError("defect inside hensel_lift")

    monkeypatch.setattr(cli_mod, "hensel_lift", broken)
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


def test_census_configuration_errors_exit_2(tmp_path, monkeypatch):
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
    ]
    for argv, field in cases:
        code, out, err = run_cli(*argv, "--out-dir", str(tmp_path / "out"))
        assert code == 2, argv
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["field"] == field and payload["error"], argv
        assert "Traceback" not in err
    for env in ("x", "0"):
        monkeypatch.setenv("PADICSEP_WORKERS", env)
        for argv in (disc + ["--q-grid", "4"], sep + ["--q-grid", "4"]):
            code, out, err = run_cli(*argv, "--out-dir", str(tmp_path / "out"))
            assert code == 2, (env, argv)
            assert json.loads(err.strip().splitlines()[-1])["field"] == "workers"
            assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
