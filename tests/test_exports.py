import importlib
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


# imports scaopt, runs a 2-seed sweep and a 3-target scaling study into argv[1],
# and prints the scipy.stats modules then loaded
_STATS_PROBE = """
import sys
import scaopt, scaopt.cli
from scaopt.cli import ExperimentConfig, scaling_study, sweep_experiment
sweep_experiment(ExperimentConfig(problem="saddle_quartic:d=2", algo="psca", seeds=2,
                                  max_iters=50, out_dir=sys.argv[1]))
scaling_study("saddle_quartic:d=2", "gd", [1e-1, 3e-2, 1e-2], 2)
print(sorted(m for m in sys.modules if m == "scipy.stats" or m.startswith("scipy.stats.")))
"""


def test_the_package_loads_no_scipy_stats(tmp_path):
    """scipy.stats is the tests' reference only: nothing the package runs imports it."""
    src = str(Path(scaopt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", _STATS_PROBE, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[]"
    assert any(tmp_path.iterdir())


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
