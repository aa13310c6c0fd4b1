"""The benchmark tracer still finds every scaopt attribute it wraps.

``perfbench/tracer.py`` replaces public functions of scaopt from outside the
package, by module attribute. A rename in ``src/`` would break the benchmark
without failing a test; this module makes it fail here. It imports the tracer
from its file, runs one short ``quadratic_split`` run inside
``Tracer().installed()``, and checks that every wrapped attribute exists, is
restored afterwards, and that the traced run writes the bytes of an untraced one.
It also checks that ``capture_runs()``, which the benchmark's curvature check
runs ``cli.run_experiment`` in, collects each algorithm's one run, and that the
tracer counts one ``drivers.run`` span per experiment and per direct driver
call: a driver that called another would count twice.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from scaopt import certify, cli, drivers, problems
from scaopt.numerics import RngStream
from scaopt.surrogates import SurrogateSpec

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# every module attribute Tracer.installed() replaces
PATCHED = {
    cli: ("sweep_experiment", "run_experiment", "scaling_study", "validate_config",
          "write_trajectory_csv", "sample_uniform_ball"),
    problems: ("get_problem",),
    drivers: ("build_surrogate", "minimize_surrogate", "sample_uniform_ball",
              "run_sca", "run_psca", "run_gd", "run_pgd"),
    certify: ("min_eigenvalue", "certify_run"),
}

RUN = dict(problem="rosenbrock:d=12", algo="psca", surrogate="quadratic_split", max_iters=5,
           record_eigen_every=2, label="run")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_writes_the_untraced_bytes(tmp_path):
    tracer = load_tracer().Tracer()
    originals = {(mod, name): getattr(mod, name) for mod, names in PATCHED.items() for name in names}
    plain_csv, _ = cli.run_experiment(cli.ExperimentConfig(out_dir=str(tmp_path / "plain"), **RUN))

    with tracer.installed():
        for (mod, name), fn in originals.items():
            assert getattr(mod, name) is not fn, f"{mod.__name__}.{name} is not traced"
        traced_csv, _ = cli.run_experiment(
            cli.ExperimentConfig(out_dir=str(tmp_path / "traced"), **RUN))

    for (mod, name), fn in originals.items():
        assert getattr(mod, name) is fn, f"{mod.__name__}.{name} was not restored"
    assert traced_csv.read_bytes() == plain_csv.read_bytes()
    plain_eigen, traced_eigen = (csv.with_suffix(".eigen.csv") for csv in (plain_csv, traced_csv))
    assert traced_eigen.read_bytes() == plain_eigen.read_bytes()
    assert {"cli.run_experiment", "cli.validate_config", "cli.write_trajectory_csv",
            "problems.get_problem", "problems.dense_hessian", "drivers.run", "surrogates.build",
            "surrogates.minimize", "certify.min_eigenvalue", "certify.certify_run"} <= tracer.fired()


def direct_run(algo):
    """A five-step run of ``drivers.run_<algo>``, looked up when called (so a traced one)."""
    obj = problems.get_problem("saddle_quartic:d=2").objective
    x0 = np.array([0.5, 0.5])
    params = drivers.derive_params(1e-2, 0.1, 1.0, 0.5, 1.0, obj, 5)
    return {
        "sca": lambda: drivers.run_sca(obj, SurrogateSpec(), 0.05, 1e-12, 5, x0),
        "psca": lambda: drivers.run_psca(obj, SurrogateSpec(), params, x0, RngStream(0)),
        "gd": lambda: drivers.run_gd(obj, 0.05, 1e-12, 5, x0),
        "pgd": lambda: drivers.run_pgd(obj, params, x0, RngStream(0)),
    }[algo]()


@pytest.mark.parametrize("algo", ["sca", "psca", "gd", "pgd"])
def test_capture_runs_collects_the_run_of_an_experiment(tmp_path, algo):
    # the benchmark's curvature check reads the iterates of the run this captures; a driver
    # that called another driver would be collected, and traced, twice
    tracer = load_tracer()
    surrogate = "quadratic_split" if algo in ("sca", "psca") else "proximal_linear"
    cfg = dict(RUN, algo=algo, surrogate=surrogate)
    originals = {run: getattr(drivers, run) for run in tracer.DRIVER_RUNS}
    with tracer.capture_runs() as results:
        cli.run_experiment(cli.ExperimentConfig(out_dir=str(tmp_path / "captured"), **cfg))
        alone = direct_run(algo)
    result, captured_alone = results
    assert captured_alone is alone
    assert isinstance(result, drivers.RunResult)
    assert [t for t, _ in result.iterates] == [0, 2, 4]
    assert all(x.shape == (12,) for _, x in result.iterates)
    assert all(getattr(drivers, run) is fn for run, fn in originals.items())

    traced = tracer.Tracer()
    with traced.installed():
        cli.run_experiment(cli.ExperimentConfig(out_dir=str(tmp_path / "traced"), **cfg))
        direct_run(algo)
    assert traced.calls("drivers.run") == 2
