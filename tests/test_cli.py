import dataclasses
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from scaopt import certify
from scaopt.cli import (
    ConfigError,
    ExperimentConfig,
    binomial_ci,
    main,
    parse_config,
    run_experiment,
    scaling_study,
    sweep_experiment,
    validate_config,
    _parser,
)
from scaopt.problems import make_quadratic


class TestParseConfig:
    def test_happy_path_uses_defaults(self):
        cfg = parse_config(
            "--problem saddle_quartic:d=10 --algo psca --eps 0.01 --delta 0.1 --seed 7".split()
        )
        assert cfg.c == 1.0
        assert cfg.s == 0.5
        assert cfg.seed == 7

    def test_eps_zero_names_the_inequality(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("--problem saddle_quartic:d=10 --algo psca --eps 0".split())
        assert any("0 < eps <= L1^2/L2" in v for v in excinfo.value.violations)

    def test_missing_delta_u_on_unknown_optimum(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("--problem quadratic_indefinite:d=2 --algo psca".split())
        assert any("delta_u" in v for v in excinfo.value.violations)

    def test_no_flags_give_the_config_defaults(self):
        assert parse_config([]) == ExperimentConfig()

    def test_all_violations_reported(self):
        cfg = ExperimentConfig(problem="nope", algo="wat", eps=-1.0, delta=3.0, c=2.0)
        violations = validate_config(cfg)
        assert len(violations) >= 5


class TestRunExperiment:
    def test_files_and_structure(self, tmp_path):
        cfg = ExperimentConfig(
            problem="saddle_quartic:d=10",
            algo="psca",
            eps=1e-2,
            seed=7,
            max_iters=20_000,
            out_dir=str(tmp_path),
        )
        csv_path, report_path = run_experiment(cfg)
        assert csv_path.exists() and report_path.exists()
        report = json.loads(report_path.read_text())
        assert report["result"]["termination"] in ("returned_xtilde", "max_iters")
        rows = csv_path.read_text().splitlines()
        assert rows[0] == "t,f,grad_norm,step_norm,err_norm,perturbed,inner_iters,event"
        assert len(rows) - 1 == report["result"]["iterations"] + 1

    def test_replay_is_byte_identical(self, tmp_path):
        cfg = ExperimentConfig(
            problem="saddle_quartic:d=2",
            algo="psca",
            eps=1e-2,
            seed=3,
            max_iters=10_000,
            out_dir=str(tmp_path),
        )
        csv_path, _ = run_experiment(cfg)
        first = csv_path.read_bytes()
        csv_path, _ = run_experiment(cfg)
        assert csv_path.read_bytes() == first

    def test_csv_report_cross_consistency(self, tmp_path):
        cfg = ExperimentConfig(
            problem="quadratic:d=10",
            algo="psca",
            eps=0.1,
            seed=0,
            max_iters=5_000,
            out_dir=str(tmp_path),
        )
        csv_path, report_path = run_experiment(cfg)
        report = json.loads(report_path.read_text())
        rows = csv_path.read_text().splitlines()[1:]
        last_f = float(rows[-1].split(",")[1])
        assert abs(last_f - report["result"]["final_f"]) <= 1e-12
        perturbed_rows = sum(int(r.split(",")[5]) for r in rows)
        assert perturbed_rows == report["result"]["perturbation_count"]
        assert report["certificate"]["classification"] == "eps_sosp"
        assert report["scales"] is not None

    def test_invalid_config_raises_with_violations(self, tmp_path):
        cfg = ExperimentConfig(problem="saddle_quartic:d=10", algo="psca", eps=0.0,
                               out_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_eigen_sidecar(self, tmp_path):
        cfg = ExperimentConfig(
            problem="saddle_quartic:d=2",
            algo="sca",
            eps=1e-6,
            eta=0.09,
            x0=(0.0, 0.5),
            max_iters=300,
            record_eigen_every=100,
            out_dir=str(tmp_path),
            label="eigenrun",
        )
        run_experiment(cfg)
        sidecar = tmp_path / "eigenrun.eigen.csv"
        lines = sidecar.read_text().splitlines()
        assert lines[0] == "t,lambda_min"
        assert len(lines) >= 2


    def test_quadratic_split_high_dimension_jittered_start(self, tmp_path):
        # a model condition number near 1,800 once exhausted an iterative inner solve here
        cfg = ExperimentConfig(
            problem="rosenbrock:d=256", algo="psca", surrogate="quadratic_split", jitter=0.1,
            seed=1, max_iters=1, out_dir=str(tmp_path),
        )
        csv_path, report_path = run_experiment(cfg)
        assert json.loads(report_path.read_text())["result"]["termination"] == "max_iters"
        rows = csv_path.read_text().splitlines()[1:]
        assert [r.split(",")[6] for r in rows] == ["0", "0"]


class TestSweep:
    def test_aggregate_counts_and_ci(self, tmp_path):
        cfg = ExperimentConfig(
            problem="saddle_quartic:d=2",
            algo="psca",
            eps=1e-2,
            seeds=5,
            max_iters=10_000,
            out_dir=str(tmp_path),
        )
        path, agg = sweep_experiment(cfg)
        assert path.exists()
        assert agg["seeds"] == 5
        assert agg["successes"] == 5
        lo, hi = agg["binomial_ci_95"]
        assert 0.0 <= lo <= agg["success_rate"] <= hi <= 1.0
        assert len(agg["runs"]) == 5

    def test_terminations_count_every_seed(self, tmp_path):
        cfg = ExperimentConfig(problem="saddle_quartic:d=2", algo="psca", eps=1e-2, seeds=3,
                               max_iters=10_000, out_dir=str(tmp_path))
        path, agg = sweep_experiment(cfg)
        assert sum(agg["terminations"].values()) == agg["seeds"]
        assert agg["terminations"] == {"returned_xtilde": 3}
        assert json.loads(path.read_text())["terminations"] == agg["terminations"]

    def test_requires_seeds(self, tmp_path):
        cfg = ExperimentConfig(problem="saddle_quartic:d=2", out_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            sweep_experiment(cfg)


class TestBinomialCI:
    def test_degenerate_ends(self):
        lo, hi = binomial_ci(0, 10)
        assert lo == 0.0 and 0 < hi < 0.5
        lo, hi = binomial_ci(10, 10)
        assert hi == 1.0 and 0.5 < lo < 1.0

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            binomial_ci(5, 4)


class TestScalingStudy:
    def test_gd_on_diagonal_quadratic_matches_closed_form(self):
        # start aligned with the slow mode: gradient decay is exactly geometric
        inst = make_quadratic(np.diag([0.2, 1.0]))
        inst = dataclasses.replace(inst, canonical_start=np.array([3.0, 0.0]))
        eta, lam, amp = 0.5, 0.2, 0.6  # amp = lam * 3.0
        eps_list = [0.3, 0.1, 0.03, 0.01]
        res = scaling_study(inst, "gd", eps_list, seeds=2, jitter=0.0, eta=eta)
        for eps, med in zip(res.eps, res.median_iters):
            closed = math.log(amp / eps) / abs(math.log(1.0 - eta * lam))
            assert abs(med - closed) <= 1.0
        assert not res.excluded

    def test_eps_list_too_short(self):
        with pytest.raises(ValueError):
            scaling_study("rosenbrock:d=2", "gd", [0.1, 0.01], seeds=1)

    def test_eps_list_must_decrease(self):
        with pytest.raises(ValueError):
            scaling_study("rosenbrock:d=2", "gd", [0.1, 0.2, 0.01], seeds=1)

    def test_unreached_target_is_excluded(self):
        inst = make_quadratic(np.diag([0.2, 1.0]))
        inst = dataclasses.replace(inst, canonical_start=np.array([3.0, 0.0]))
        res = scaling_study(
            inst, "gd", [0.3, 0.1, 0.03, 0.01, 1e-12], seeds=1, jitter=0.0,
            eta=0.5, max_iters=50,
        )
        assert 1e-12 in res.excluded
        assert math.isnan(res.median_iters[-1])


    def test_config_violations_raise_with_every_violation(self):
        with pytest.raises(ConfigError) as excinfo:
            scaling_study("quadratic_indefinite:d=3", "psca", [1e-1, 3e-2, 1e-2], seeds=1, c=2.0)
        violations = excinfo.value.violations
        assert len(violations) == 2
        assert any("delta_u is required" in v for v in violations)
        assert any("0 < c <= 1" in v for v in violations)

    def test_validates_against_the_studied_objective(self):
        # a name outside the registry: the study checks the instance it runs, not a rebuild
        inst = make_quadratic(np.diag([0.2, 1.0]))
        inst = dataclasses.replace(inst, name="diag_quadratic", canonical_start=np.array([3.0, 0.0]))
        res = scaling_study(inst, "gd", [0.3, 0.1, 0.03], seeds=1, jitter=0.0, eta=0.5)
        assert not res.excluded
        with pytest.raises(ConfigError) as excinfo:
            scaling_study(inst, "psca", [0.3, 0.1, 0.03], seeds=1, delta_u=1.0)
        assert excinfo.value.violations == (
            "perturbed algorithms need a positive Hessian-Lipschitz declaration "
            "(this problem declares 0)",
        )


class TestMainEntry:
    def test_run_and_validate_commands(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--problem", "quadratic:d=4",
                "--algo", "sca",
                "--eps", "1e-8",
                "--eta", "0.5",
                "--max-iters", "200",
                "--out-dir", str(tmp_path),
                "--label", "smoke",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "smoke.csv" in out
        assert main(["validate", "--problem", "quadratic:d=4", "--samples", "200"]) == 0

    def test_run_rejects_bad_config(self, tmp_path, capsys):
        code = main(
            ["run", "--problem", "saddle_quartic:d=10", "--algo", "psca",
             "--eps", "0", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "0 < eps" in capsys.readouterr().err

    def test_sweep_failure_is_one_line_nonzero_exit(self, tmp_path, capsys, monkeypatch):
        def failing_eigensolve(*args, **kwargs):
            raise certify.EigenSolveError("budget exhausted", lambda_min=-1.0, residual=1.0)

        monkeypatch.setattr(certify, "min_eigenvalue", failing_eigensolve)
        code = main(
            ["sweep", "--problem", "saddle_quartic:d=2", "--algo", "psca", "--eps", "1e-2",
             "--seeds", "2", "--max-iters", "10000", "--out-dir", str(tmp_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == "sweep failed: EigenSolveError: budget exhausted\n"

    def test_scaling_defaults_are_the_study_defaults(self, tmp_path, capsys):
        eps_list = [1e-1, 3e-2, 1e-2]
        code = main(
            ["scaling", "--problem", "saddle_quartic:d=2", "--algo", "psca",
             "--eps-list", ",".join(map(str, eps_list)), "--seeds", "3", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        path = capsys.readouterr().out.splitlines()[-1]
        per_seed = json.loads(open(path).read())["per_seed"]
        expected = scaling_study("saddle_quartic:d=2", "psca", eps_list, 3).per_seed
        assert per_seed == [list(hits) for hits in expected]

    @pytest.mark.parametrize(
        "flags, settings",
        [
            (["--algo", "gd", "--jitter", "0", "--x0", "0.5,0.5"],
             dict(algo="gd", jitter=0.0, x0=(0.5, 0.5))),
            (["--algo", "psca", "--window-variant", "algorithm"],
             dict(algo="psca", window_variant="algorithm")),
        ],
        ids=["x0", "window-variant"],
    )
    def test_scaling_honours_the_run_flags(self, flags, settings, tmp_path, capsys):
        eps_list = [1e-1, 3e-2, 1e-2]
        code = main(
            ["scaling", "--problem", "saddle_quartic:d=2", "--eps-list", "1e-1,3e-2,1e-2",
             "--seeds", "2", "--out-dir", str(tmp_path), "--label", "study"] + flags
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1] == str(tmp_path / "study.json")
        per_seed = json.loads((tmp_path / "study.json").read_text())["per_seed"]
        algo = settings.pop("algo")
        expected = scaling_study("saddle_quartic:d=2", algo, eps_list, 2, **settings).per_seed
        assert per_seed == [list(hits) for hits in expected]

    def test_scaling_config_error_is_one_line(self, tmp_path, capsys):
        code = main(
            ["scaling", "--problem", "quadratic_indefinite:d=3", "--algo", "psca",
             "--eps-list", "1e-1,3e-2,1e-2", "--seeds", "1", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("scaling error: delta_u is required")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["validate", "--problem", "nope"], "validate error: unknown problem 'nope'"),
            (["validate", "--problem", "quadratic:d=4", "--samples", "5"],
             "validate error: samples must be >= 100, got 5"),
            (["run", "--x0", "1,a"], "config error: --x0 must be comma-separated numbers (got '1,a')"),
            (["sweep", "--seeds", "2", "--x0", "1,a"],
             "config error: --x0 must be comma-separated numbers (got '1,a')"),
            (["scaling", "--eps-list", "1e-1,3e-2,1e-2", "--eps", "0.9"],
             "scaling error: eps does not apply to a scaling study"),
            (["scaling", "--eps-list", "1e-1,3e-2,1e-2", "--record-eigen-every", "10"],
             "scaling error: record_eigen_every does not apply to a scaling study"),
            (["run", "--algo", "pgd", "--strong-convexity", "4", "--surrogate", "quadratic_split"],
             "config error: surrogate 'quadratic_split' with strong_convexity 4.0 does not apply "
             "to gd/pgd: their step is the unit-modulus proximal model"),
            (["sweep", "--seeds", "2", "--algo", "gd", "--surrogate", "quadratic_split"],
             "config error: surrogate 'quadratic_split' with strong_convexity 1.0 does not apply "
             "to gd/pgd"),
            (["scaling", "--eps-list", "1e-1,3e-2,1e-2", "--algo", "gd", "--strong-convexity", "2"],
             "scaling error: surrogate 'proximal_linear' with strong_convexity 2.0 does not apply "
             "to gd/pgd"),
        ],
        ids=["validate-unknown-problem", "validate-few-samples", "run-bad-x0", "sweep-bad-x0",
             "scaling-eps", "scaling-record-eigen-every", "run-pgd-surrogate", "sweep-gd-surrogate",
             "scaling-gd-strong-convexity"],
    )
    def test_bad_input_is_one_line_exit_2(self, argv, message, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SCAOPT_OUT_DIR", str(tmp_path))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1


def test_readme_commands_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    commands = [line for line in readme.read_text().splitlines() if line.startswith("scaopt ")]
    assert len(commands) >= 6
    for line in commands:
        _parser().parse_args(shlex.split(line, comments=True)[1:])
