"""What each entry point loads: a command imports only the modules it runs.

`import padicsep` loads no submodule, and `import padicsep.cli` plus
`build_parser()` loads `padicsep.cli` alone, so `--help` pays for no
arithmetic module.  The verify suites live in `padicsep.verify`, which only
the `verify` command loads.  Each case runs in a fresh interpreter, since this
process has long since loaded everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import padicsep

SRC = Path(padicsep.__file__).resolve().parent.parent

# every public name of the package, by the module that defines it
PUBLIC = {
    "padic": ["INF", "InvariantError", "PadicMag", "Prime", "is_prime", "ultrametric_max",
              "valuation", "vp", "vp_rat"],
    "intpoly": ["IntPoly", "IrreducibilityResult", "content_primitive", "discriminant",
                "eisenstein_check", "hadamard_bound", "is_irreducible", "resultant"],
    "roots": ["DistanceProfile", "HenselInapplicable", "NewtonPolygon", "PrecisionExhausted",
              "ZpRoot", "check_ordering_lemma", "difference_poly", "distance_profile",
              "hensel_lift", "min_conjugate_separation", "newton_polygon", "profile_at_zp_root",
              "zp_roots"],
    "lattice": ["DegenerateSample", "GammaLattice", "GeneratorOutput", "Normalization",
                "RoundingInfeasible", "ShortVectors", "XiParams", "build_gamma", "choose_q",
                "eisenstein_twist", "expand_preset", "generate", "normalization",
                "preset_theorem2", "preset_theorem3", "round_params", "short_vectors",
                "successive_minima"],
    "census": ["DiscCensus", "MeasureEstimate", "SepCensus", "disc_census", "disc_threshold",
               "fit_exponent", "measure_estimate", "poly_count", "sep_census"],
}


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)


def _fresh(body: str) -> tuple[object, set[str]]:
    """Run body in a new interpreter; returns the value it leaves in `out` and the modules loaded."""
    done = _python("-c", body + "\nimport json, sys\n"
                   "print(json.dumps({'out': out, 'modules': sorted(sys.modules)}))")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    return last["out"], set(last["modules"])


SUITES_MODULE = "padicsep.verify"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _package(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "padicsep" or m.startswith("padicsep.")}


def test_cli_cold_start_loads_the_cli_alone():
    _, modules = _fresh("import padicsep.cli\npadicsep.cli.build_parser()\nout = None")
    assert _package(modules) == {"padicsep", "padicsep.cli"}
    assert "multiprocessing" not in modules


def test_bare_import_loads_no_submodule():
    _, modules = _fresh("import padicsep\nout = None")
    assert _package(modules) == {"padicsep"}


def test_module_entry_point_loads_the_cli_alone_before_dispatch():
    # runpy runs padicsep/__main__.py as `python -m padicsep --help` does
    body = ("import runpy, sys\nsys.argv = ['padicsep', '--help']\n"
            "try:\n    runpy.run_module('padicsep', run_name='__main__')\n"
            "except SystemExit as exc:\n    out = exc.code")
    code, modules = _fresh(body)
    assert code == 0
    assert _package(modules) == {"padicsep", "padicsep.cli"}


def test_python_dash_m_padicsep_runs_the_cli():
    done = _python("-m", "padicsep", "--help")
    assert done.returncode == 0, done.stderr
    assert "disc-census" in done.stdout


def _command(argv: list[str]) -> tuple[object, set[str]]:
    return _fresh(f"from padicsep.cli import main\nout = main({argv!r})")


def test_generate_never_loads_the_census(tmp_path):
    code, modules = _command(["generate", "--preset", "theorem2", "--n", "2", "--p", "3",
                              "--t", "2", "--theta", "1", "--samples", "1",
                              "--out-dir", str(tmp_path)])
    assert code == 0
    assert "padicsep.lattice" in modules and "padicsep.census" not in modules
    assert SUITES_MODULE not in modules


@pytest.mark.parametrize("argv", [
    ["disc-census", "--n", "2", "--p", "3", "--q-grid", "4", "--nu", "1/2", "--constants", "0"],
    ["sep-census", "--n", "3", "--p", "2", "--q-grid", "2", "--theta", "1"],
], ids=["disc-census", "sep-census"])
def test_in_process_census_loads_neither_lattice_nor_multiprocessing(argv, tmp_path):
    code, modules = _command(argv + ["--workers", "1", "--out-dir", str(tmp_path)])
    assert code == 0
    assert "padicsep.census" in modules
    assert "padicsep.lattice" not in modules and "multiprocessing" not in modules
    assert SUITES_MODULE not in modules


def test_report_loads_the_cli_alone(tmp_path):
    code, modules = _command(["report", str(GOLDEN / "disc_census_n2_p3.csv"),
                              "--out", str(tmp_path / "merged.csv")])
    assert code == 0
    assert _package(modules) == {"padicsep", "padicsep.cli"}


def test_only_verify_loads_the_suites_module(tmp_path):
    code, modules = _command(["verify", "--suite", "golden", "--golden-dir", str(GOLDEN)])
    assert code == 0
    assert SUITES_MODULE in modules


def test_forked_census_loads_neither_multiprocessing_nor_concurrent_futures(tmp_path):
    # Q = 20 has three shards, so --workers 2 forks two children
    code, modules = _command(["disc-census", "--n", "2", "--p", "3", "--q-grid", "20", "--nu",
                              "1/2", "--constants", "0", "--workers", "2",
                              "--out-dir", str(tmp_path)])
    assert code == 0
    [telemetry] = tmp_path.glob("*_telemetry.json")
    assert json.loads(telemetry.read_text())["workers_used"] == 2
    assert "multiprocessing" not in modules and "concurrent.futures" not in modules


def test_every_public_name_is_the_defining_modules_object():
    body = ("import importlib, padicsep\n"
            "star = {}\nexec('from padicsep import *', star)\n"
            "listed, shown = set(padicsep.__all__), set(dir(padicsep))\n"
            f"public = {PUBLIC!r}\n"
            "out = [f'{mod}.{name}' for mod, names in public.items() for name in names\n"
            "       if name not in listed or name not in shown\n"
            "       or star.get(name) is not getattr(importlib.import_module('padicsep.' + mod), name)\n"
            "       or getattr(padicsep, name) is not star[name]]")
    wrong, _ = _fresh(body)
    assert wrong == []


def test_submodules_resolve_after_a_bare_import():
    body = ("import sys, padicsep\n"
            "names = ['padic', 'linalg', 'intpoly', 'roots', 'lattice', 'census']\n"
            "out = [n for n in names if getattr(padicsep, n) is not sys.modules['padicsep.' + n]]")
    wrong, _ = _fresh(body)
    assert wrong == []


def test_unknown_attribute_raises_attribute_error():
    body = ("import padicsep\nout = []\n"
            "for name in ('no_such_name', '_as_p', 'Fraction'):\n"
            "    try:\n        getattr(padicsep, name)\n"
            "    except AttributeError:\n        out.append(name)")
    raised, modules = _fresh(body)
    assert raised == ["no_such_name", "_as_p", "Fraction"]
    assert _package(modules) == {"padicsep"}
