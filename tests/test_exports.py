import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import scaopt

MODULES = ["scaopt"] + [f"scaopt.{m.name}" for m in pkgutil.iter_modules(scaopt.__path__)
                        if m.name != "__main__"]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    """A deletion that leaves a stale ``__all__`` entry fails here, not in a user's import."""
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


# imports scaopt, then runs a quartic P-SCA run, a 2-seed sweep, a 3-target scaling study and a
# diagonal quadratic's quadratic_split run into argv[1] and, last, a Rosenbrock quadratic_split
# run; prints, as JSON, the scipy modules loaded after each of these steps
_IMPORT_PROBE = """
import json
import sys
loaded = {}

def loaded_after(step):
    loaded[step] = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import scaopt, scaopt.cli
from scaopt.cli import ExperimentConfig, run_experiment, scaling_study, sweep_experiment
loaded_after("import")
run_experiment(ExperimentConfig(problem="saddle_quartic:d=10", algo="psca", label="quartic",
                                out_dir=sys.argv[1]))
loaded_after("quartic_run")
sweep_experiment(ExperimentConfig(problem="saddle_quartic:d=2", algo="psca", seeds=2,
                                  max_iters=50, out_dir=sys.argv[1]))
loaded_after("sweep")
scaling_study("saddle_quartic:d=2", "gd", [1e-1, 3e-2, 1e-2], 2)
loaded_after("scaling")
run_experiment(ExperimentConfig(problem="quadratic_indefinite:d=3", algo="sca",
                                surrogate="quadratic_split", max_iters=20, label="quadratic",
                                out_dir=sys.argv[1]))
loaded_after("diagonal_split_run")
run_experiment(ExperimentConfig(problem="rosenbrock:d=12", algo="sca",
                                surrogate="quadratic_split", max_iters=20, label="rosenbrock",
                                out_dir=sys.argv[1]))
loaded_after("split_run")
print(json.dumps(loaded))
"""


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """The scipy modules loaded after each step of ``_IMPORT_PROBE``, run in a fresh interpreter.

    Each step's list includes what the steps before it loaded."""
    out_dir = tmp_path_factory.mktemp("probe")
    src = str(Path(scaopt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(out_dir)], env=env,
                         capture_output=True, text=True, check=True)
    written = {p.name for p in out_dir.iterdir()}
    assert {"quartic.csv", "quadratic.csv", "rosenbrock.csv"} <= written
    return json.loads(out.stdout.splitlines()[-1])


def _modules(names, prefix):
    return [m for m in names if m == prefix or m.startswith(prefix + ".")]


def test_the_package_loads_no_scipy_stats(loaded):
    """scipy.stats is the tests' reference only: nothing the package runs imports it."""
    assert [_modules(names, "scipy.stats") for names in loaded.values()] == [[]] * len(loaded)


def test_import_and_a_proximal_model_run_load_no_scipy(loaded):
    assert loaded["import"] == []
    assert loaded["quartic_run"] == []


@pytest.mark.parametrize("step", ["sweep", "scaling"])
def test_sweep_and_scaling_load_no_scipy(loaded, step):
    """The escape-rate interval and the scaling fit come from the standard library."""
    assert loaded[step] == []


def test_a_diagonal_split_model_run_loads_no_scipy(loaded):
    """A diagonal quadratic declares a zero band, which the split model solves by division."""
    assert loaded["diagonal_split_run"] == []


def test_a_banded_split_model_solve_loads_scipy_linalg(loaded):
    """The positive control: the probe sees a scipy submodule that a call loads."""
    assert _modules(loaded["split_run"], "scipy.linalg") != []


def test_readme_library_quick_start_runs(tmp_path):
    """README's library quick start runs as written against the current API."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    src = str(Path(scaopt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", block], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["returned_xtilde -0.25", "eps_sosp"]
