import argparse
import dataclasses
import json
import math
import shlex
import tempfile
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

from scaopt import certify, cli
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
from scaopt.problems import make_quadratic, registry_names


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

    @pytest.mark.parametrize(
        "settings, message",
        [
            (dict(strong_convexity=math.nan), "strong_convexity must be positive (got nan)"),
            (dict(jitter=math.nan), "jitter must be nonnegative (got nan)"),
            (dict(delta_u=math.nan), "delta_u must be positive (got nan)"),
            (dict(delta_u=0.0), "delta_u must be positive (got 0.0)"),
            (dict(strong_convexity=math.inf), "strong_convexity must be finite (got inf)"),
            (dict(jitter=math.inf), "jitter must be finite (got inf)"),
            (dict(delta_u=math.inf), "delta_u must be finite (got inf)"),
            (dict(x0=(math.nan, 0.0)), "x0 must be finite"),
            (dict(x0=(0.0, 2.5)), "x0 lies outside the objective's valid region"),
            (dict(x0=(0.0, 0.0, 0.0)), "x0 has length 3, problem dimension is 2"),
            (dict(s=math.nan), "s must satisfy 0 < s < 1 (got nan)"),
            (dict(eta=1.5), "eta must satisfy 0 < eta <= 1 (got 1.5)"),
            (dict(surrogate="nope"), "unknown surrogate 'nope'"),
            (dict(max_iters=0), "max_iters must be a positive integer"),
            (dict(seeds=0), "seeds must be a positive integer"),
            (dict(record_eigen_every=0), "record_eigen_every must be a positive integer"),
            (dict(window_variant="x"), "window_variant must be 'proof' or 'algorithm' (got 'x')"),
            (dict(seed=1.5), "seed must be an integer (got 1.5)"),
            (dict(seeds=2.5), "seeds must be a positive integer"),
            (dict(max_iters=2.5), "max_iters must be a positive integer"),
            (dict(record_eigen_every=2.5), "record_eigen_every must be a positive integer"),
            (dict(x0=((0.0, 0.0),)), "x0 must be a nonempty 1-D vector, got shape (1, 2)"),
        ],
        ids=["strong-convexity-nan", "jitter-nan", "delta-u-nan", "delta-u-zero",
             "strong-convexity-inf", "jitter-inf", "delta-u-inf", "x0-nan", "x0-outside",
             "x0-length", "s-nan", "eta-above-one", "surrogate-unknown", "max-iters-zero",
             "seeds-zero", "record-eigen-every-zero", "window-variant-unknown", "seed-fraction",
             "seeds-fraction", "max-iters-fraction", "record-eigen-every-fraction", "x0-nested"],
    )
    def test_range_rules_reject_nan_and_bad_starts(self, settings, message):
        cfg = ExperimentConfig(problem="saddle_quartic:d=2", algo="sca", **settings)
        assert validate_config(cfg) == [message]

    def test_all_violations_reported(self):
        cfg = ExperimentConfig(problem="nope", algo="wat", eps=-1.0, delta=3.0, c=2.0)
        assert validate_config(cfg) == [
            f"unknown problem 'nope'; known: {', '.join(registry_names())}",
            "unknown algo 'wat'; known: sca, psca, gd, pgd",
            "delta must satisfy 0 < delta < 1 (got 3.0)",
            "c must satisfy 0 < c <= 1 (got 2.0)",
            "eps must satisfy 0 < eps <= L1^2/L2 (got -1.0)",
        ]


# Each setting's good values (which a run must accept) and bad ones, on saddle_quartic:d=2 with
# budgets of at most 5 iterations; gd/pgd refuse a modulus other than 1 and psca/pgd any eta.
_SETTINGS = {
    "algo": (("sca", "psca", "gd", "pgd"), ()),
    "eps": ((1e-2, 0.5), (0.0, -1.0, math.nan, math.inf, 11.0)),
    "delta": ((0.1, 0.9), (0.0, 1.0, math.nan)),
    "c": ((1.0, 0.5), (0.0, 2.0, math.nan, math.inf)),
    "s": ((0.5, 0.1), (0.0, 1.0, math.nan)),
    "delta_u": ((None, 1.0), (0.0, -1.0, math.nan, math.inf)),
    "eta": ((None, 0.05), (0.0, 1.5, math.nan)),
    "surrogate": (("proximal_linear", "quadratic_split"), ("nope",)),
    "strong_convexity": ((1.0, 2.0), (0.0, -1.0, math.nan, math.inf)),
    "seed": ((0, 3, -1, np.int64(2)), (1.5, 2.0)),
    "seeds": ((None, 1, 2), (0, -1, 2.5)),
    "max_iters": ((1, 5, np.int64(3)), (0, 2.5, 5.0)),
    "record_eigen_every": ((None, 1, 2), (0, 2.5)),
    "window_variant": (("proof", "algorithm"), ("x",)),
    "x0": ((None, (0.5, -0.5), [1.0, 0.25]),
           (((0.0, 0.0),), ((0.0,), (0.0,)), (), (math.nan, 0.0), (0.0, 0.0, 0.0), (0.0, 2.5))),
    "jitter": ((0.0, 0.1), (-1.0, math.nan, math.inf)),
}


@st.composite
def _config_settings(draw):
    """Good values for every setting but at most two, which get bad ones."""
    bad = draw(st.sets(st.sampled_from(sorted(_SETTINGS)), max_size=2))
    return {name: draw(st.sampled_from(pools[name in bad] or pools[0]))
            for name, pools in _SETTINGS.items()}


@given(settings=_config_settings())
@example(settings=dict(algo="sca", max_iters=2.5))
@example(settings=dict(algo="psca", max_iters=2.5))
@example(settings=dict(record_eigen_every=2.5, max_iters=5))
@example(settings=dict(seeds=2.5, max_iters=5))
@example(settings=dict(seed=1.5, max_iters=5))
@example(settings=dict(x0=((0.0, 0.0),), max_iters=5))
def test_validate_config_refuses_what_a_run_refuses(settings):
    """A config that validate_config accepts runs (or sweeps) without an error, and the report
    of each psca/pgd run names the seed its run drew from; one it refuses raises ConfigError
    with the same violations and writes nothing. The examples are configs that validate_config
    once accepted and the run then refused or misread."""
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        cfg = ExperimentConfig(problem="saddle_quartic:d=2", out_dir=str(out_dir), **settings)
        run = run_experiment if cfg.seeds is None else sweep_experiment
        errs = validate_config(cfg)
        if errs:
            with pytest.raises(ConfigError) as refused:
                run(cfg)
            assert refused.value.violations == tuple(errs)
            assert not out_dir.exists()
            return
        if cfg.seeds is None:
            reports = [run(cfg)[1]]
        else:
            reports = [Path(r["report"]) for r in run(cfg)[1]["runs"]]
        assert len(reports) == (cfg.seeds or 1)
        for path in reports:
            report = json.loads(path.read_text())
            if cfg.algo in ("psca", "pgd"):  # the runs that draw, from RngStream(seed mod 2^64)
                assert report["result"]["seed"] == report["config"]["seed"] % (1 << 64)


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

    def test_certificate_reads_the_run_gradient_norm(self, tmp_path):
        """The certificate and the report take the gradient norm the last CSV row records."""
        cfg = ExperimentConfig(problem="saddle_quartic:d=10", algo="sca", jitter=0.1, seed=0,
                               out_dir=str(tmp_path))
        csv_path, report_path = run_experiment(cfg)
        report = json.loads(report_path.read_text())
        assert report["result"]["termination"] == "gradient_below_threshold"
        last = float(csv_path.read_text().splitlines()[-1].split(",")[2])
        for grad_norm in (report["certificate"]["grad_norm"], report["result"]["final_grad_norm"]):
            assert np.float64(grad_norm).tobytes() == np.float64(last).tobytes()

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

    def test_validates_once(self, tmp_path, monkeypatch):
        configs = []

        def counted(cfg):
            configs.append(cfg.seed)
            return validate_config(cfg)

        monkeypatch.setattr(cli, "validate_config", counted)
        cfg = ExperimentConfig(problem="saddle_quartic:d=2", algo="psca", seed=4, seeds=3,
                               max_iters=20, out_dir=str(tmp_path))
        sweep_experiment(cfg)
        assert configs == [4]

    def test_requires_seeds(self, tmp_path):
        cfg = ExperimentConfig(problem="saddle_quartic:d=2", out_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            sweep_experiment(cfg)

    def test_labelled_sweeps_in_one_directory_keep_their_own_files(self, tmp_path):
        for label, max_iters in (("a", 50), ("b", 80)):
            sweep_experiment(ExperimentConfig(problem="saddle_quartic:d=2", algo="psca", seeds=2,
                                              max_iters=max_iters, label=label,
                                              out_dir=str(tmp_path)))
        for label, max_iters in (("a", 50), ("b", 80)):
            aggregate = json.loads((tmp_path / f"{label}_aggregate.json").read_text())
            csvs = [Path(run["csv"]) for run in aggregate["runs"]]
            assert [p.name for p in csvs] == [f"{label}_seed0.csv", f"{label}_seed1.csv"]
            # a header, then rows 0..max_iters
            assert [len(p.read_text().splitlines()) for p in csvs] == [max_iters + 2] * 2

    def test_unlabelled_sweep_keeps_its_file_names(self, tmp_path):
        sweep_experiment(ExperimentConfig(problem="saddle_quartic:d=2", algo="psca", seeds=2,
                                          max_iters=50, out_dir=str(tmp_path)))
        stem = "saddle_quartic-d-2_psca"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{stem}_aggregate.json", f"{stem}_seed0.csv", f"{stem}_seed0.json",
            f"{stem}_seed1.csv", f"{stem}_seed1.json"]


def _files(out_dir: Path) -> dict[str, bytes]:
    """Every file of a run directory, with the reports' wall_time_ms lines taken out."""
    return {p.name: b"".join(line for line in p.read_bytes().splitlines(keepends=True)
                             if b'"wall_time_ms"' not in line)
            for p in sorted(out_dir.iterdir())}


def _one_by_one(cfg: ExperimentConfig, seeds):
    """Move ``cfg.out_dir`` aside to ``<out_dir>.sweep``, then write into ``cfg.out_dir``
    what run_experiment writes for each seed in turn, named as a sweep names them
    (the reports echo the out_dir)."""
    out_dir = Path(cfg.out_dir)
    out_dir.rename(out_dir.with_suffix(".sweep"))
    for seed in seeds:
        sub = dataclasses.replace(cfg, seed=seed, seeds=None,
                                  label=cli._slug(f"{cfg.problem}_{cfg.algo}_seed{seed}"))
        run_experiment(sub)


def _quartic_at_zero():
    """The d=2 quartic declaring its optimum value 0, above the value -1/4 it reaches:
    ``delta_u = f(x0) - 0`` is negative from a start whose value is negative."""
    prob = cli.problems.get_problem("saddle_quartic:d=2")
    return dataclasses.replace(prob, name="quartic_at_zero",
                               objective=dataclasses.replace(prob.objective, f_star=0.0))


def _count_batches(monkeypatch) -> list:
    """The list that gets one entry per call of drivers.run_batch from now on."""
    calls = []
    run_batch = cli.drivers.run_batch

    def counted(*args, **kwargs):
        calls.append(1)
        return run_batch(*args, **kwargs)

    monkeypatch.setattr(cli.drivers, "run_batch", counted)
    return calls


class TestLockstepSweep:
    """A sweep runs its seeds as one batch and writes what running them one by one writes."""

    @pytest.mark.parametrize("algo, surrogate", [("psca", "proximal_linear"),
                                                 ("sca", "quadratic_split"), ("pgd", None)])
    def test_files_are_those_of_one_run_per_seed(self, tmp_path, algo, surrogate):
        cfg = ExperimentConfig(problem="saddle_quartic:d=4", algo=algo, eps=1e-2, seed=3, seeds=4,
                               max_iters=3_000, jitter=0.2, record_eigen_every=500,
                               out_dir=str(tmp_path / "run"),
                               **({"surrogate": surrogate} if surrogate else {}))
        path, _ = sweep_experiment(cfg)
        aggregate = path.read_bytes()
        _one_by_one(cfg, range(3, 7))
        swept = _files(tmp_path / "run.sweep")
        assert swept.pop(path.name) == aggregate
        assert swept == _files(tmp_path / "run")
        assert sum(1 for name in swept if name.endswith(".eigen.csv")) == 4

    def test_aggregate_is_the_one_built_from_the_reports(self, tmp_path):
        cfg = ExperimentConfig(problem="saddle_quartic:d=2", algo="psca", eps=1e-2, seed=11,
                               seeds=5, max_iters=10_000, jitter=0.3, out_dir=str(tmp_path))
        path, aggregate = sweep_experiment(cfg)
        runs = []
        for run in aggregate["runs"]:
            report = json.loads(Path(run["report"]).read_text())
            cert = report["certificate"]
            runs.append({"seed": report["config"]["seed"],
                         "success": bool(cert and cert["classification"] == "eps_sosp"),
                         "classification": cert["classification"] if cert else None,
                         "termination": report["result"]["termination"],
                         "f_out": report["result"]["f_out"],
                         "iterations": report["result"]["iterations"],
                         "csv": run["csv"], "report": run["report"]})
        assert runs == aggregate["runs"]
        assert json.loads(path.read_text()) == aggregate
        assert path.read_text() == json.dumps(aggregate, indent=2, sort_keys=True) + "\n"

    def test_a_failing_seed_stops_the_sweep_where_it_failed(self, tmp_path):
        # a start at x = (1.95, 0) jittered by 0.1 leaves the box |x|_inf <= 2 for some seeds
        cfg = ExperimentConfig(problem="saddle_quartic:d=2", algo="psca", eps=1e-2, seed=0,
                               seeds=12, max_iters=500, x0=(1.95, 0.0), jitter=0.1,
                               out_dir=str(tmp_path / "run"))
        prob = cli.problems.get_problem(cfg.problem)
        outside = [k for k in range(cfg.seeds) if not prob.objective.in_region(
            cli._resolve_start(dataclasses.replace(cfg, seed=k), prob))]
        bad = outside[0]
        assert 0 < bad < cfg.seeds - 1

        with pytest.raises(ValueError) as swept:
            sweep_experiment(cfg)
        with pytest.raises(ValueError) as alone:
            _one_by_one(cfg, range(bad + 1))
        assert str(swept.value) == str(alone.value) == "x0 lies outside the objective's valid region"
        files = _files(tmp_path / "run.sweep")
        assert files == _files(tmp_path / "run")
        partial = json.loads(files[cli._slug(f"{cfg.problem}_psca_seed{bad}") + ".json"])
        assert partial["error"] == "ValueError: x0 lies outside the objective's valid region"
        # the seeds before the failing one wrote a CSV and a report each, and no later seed ran
        assert len(files) == 2 * bad + 1

    def test_a_seed_without_parameters_stops_the_sweep_before_it_writes(self, tmp_path,
                                                                        monkeypatch, request):
        monkeypatch.setitem(cli.problems.REGISTRY, "quartic_at_zero", _quartic_at_zero)
        request.addfinalizer(cli.problems.get_problem.cache_clear)  # forget the instance
        batches = _count_batches(monkeypatch)
        cfg = ExperimentConfig(problem="quartic_at_zero", algo="psca", seed=3, seeds=3,
                               jitter=0.3, max_iters=50, out_dir=str(tmp_path / "run"))
        with pytest.raises(ConfigError, match="delta_u must be positive"):
            sweep_experiment(cfg)
        assert batches == []
        assert list(tmp_path.iterdir()) == []

    def test_report_times_share_the_batch(self, tmp_path):
        cfg = ExperimentConfig(problem="saddle_quartic:d=2", algo="psca", seed=0, seeds=3,
                               max_iters=200, out_dir=str(tmp_path))
        _, aggregate = sweep_experiment(cfg)
        times = [json.loads(Path(run["report"]).read_text())["result"]["wall_time_ms"]
                 for run in aggregate["runs"]]
        assert all(t > 0 for t in times)


class TestBinomialCI:
    def test_degenerate_ends(self):
        lo, hi = binomial_ci(0, 10)
        assert lo == 0.0 and 0 < hi < 0.5
        lo, hi = binomial_ci(10, 10)
        assert hi == 1.0 and 0.5 < lo < 1.0

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            binomial_ci(5, 4)

    @pytest.mark.parametrize("successes", [2.5, 2.0])
    def test_a_count_that_is_not_an_integer_is_refused(self, successes):
        with pytest.raises(ValueError, match="counts must be integers"):
            binomial_ci(successes, 10)
        with pytest.raises(ValueError, match="counts must be integers"):
            binomial_ci(2, successes + 8)

    def test_numpy_integer_counts_are_counts(self):
        assert binomial_ci(np.int64(3), np.int64(10)) == binomial_ci(3, 10)

    def test_ends_are_the_correctly_rounded_beta_quantiles(self):
        """Each end is the exact Beta quantile at the float level (a 60-digit mpmath root of
        the regularized incomplete beta), rounded once: every k up to n = 30, a sample of k
        above."""
        alpha = 1.0 - 0.95
        cases = [(k, n) for n in range(1, 31) for k in range(n + 1)]
        cases += [(k, n) for n in (50, 100, 200, 1000)
                  for k in sorted({0, 1, 2, n // 10, n // 3, n // 2, n - 1, n})]
        for k, n in cases:
            lo, hi = binomial_ci(k, n)
            assert lo == (0.0 if k == 0 else _beta_quantile(k, n - k + 1, alpha / 2, lo)), (k, n)
            assert hi == (1.0 if k == n else _beta_quantile(k + 1, n - k, 1 - alpha / 2, hi)), (
                k, n)


def _beta_quantile(a, b, q, near):
    """The root of the regularized incomplete beta ``I_x(a, b) = q`` at 60 digits by Newton's
    method from ``near``, rounded once to a float."""
    with mp.workdps(60):
        q = mp.mpf(q)
        scale = mp.beta(a, b)
        return float(mp.findroot(lambda x: mp.betainc(a, b, 0, x, regularized=True) - q,
                                 mp.mpf(near), solver="newton",
                                 df=lambda x: x ** (a - 1) * (1 - x) ** (b - 1) / scale))


def _reference_fit(res):
    """Slope, half-width and intercept of a study by scipy.stats, from its eps and medians."""
    kept = [(e, m) for e, m in zip(res.eps, res.median_iters) if e not in res.excluded]
    fit = stats.linregress(np.log([1.0 / e for e, _ in kept]),
                           np.log([max(m, 1.0) for _, m in kept]))
    return fit.slope, fit.stderr * stats.t.ppf(0.975, len(kept) - 2), fit.intercept


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

    def test_an_unknown_problem_is_a_config_error_with_every_violation(self):
        with pytest.raises(ConfigError) as info:
            scaling_study("nope", "psca", [1e-1, 3e-2, 1e-2], seeds=1, delta=-1.0)
        cfg = ExperimentConfig(problem="nope", algo="psca", delta=-1.0)
        assert list(info.value.violations) == validate_config(cfg)
        assert len(info.value.violations) == 2

    def test_a_study_without_a_seed_count_is_the_sweep_config_error(self, tmp_path):
        with pytest.raises(ConfigError) as scaling:
            scaling_study("saddle_quartic:d=2", "gd", [1e-1, 3e-2, 1e-2], None)
        with pytest.raises(ConfigError) as sweep:
            sweep_experiment(ExperimentConfig(problem="saddle_quartic:d=2", algo="gd",
                                              out_dir=str(tmp_path)))
        assert scaling.value.violations == sweep.value.violations == (
            "a sweep or scaling study requires --seeds >= 1",)

    def test_eps_list_must_decrease(self):
        with pytest.raises(ValueError):
            scaling_study("rosenbrock:d=2", "gd", [0.1, 0.2, 0.01], seeds=1)

    @pytest.mark.parametrize("eps_list", [[1e-1, math.nan, 1e-2, 3e-3],
                                          [math.inf, 1e-1, 1e-2, 3e-3]], ids=["nan", "inf"])
    def test_eps_list_must_be_positive_and_finite(self, eps_list, tmp_path, capsys):
        message = "eps_list must hold positive finite targets"
        with pytest.raises(ValueError, match=f"^{message}"):
            scaling_study("quadratic:d=2", "gd", eps_list, seeds=1)
        argv = ["scaling", "--problem", "quadratic:d=2", "--algo", "gd", "--seeds", "1",
                "--eps-list", ",".join(map(str, eps_list)), "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"scaling error: {message}") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("problem, algo, eps_list, seeds, settings", [
        ("rosenbrock:d=10", "psca", [1e-1, 3e-2, 1e-2, 3e-3], 6, {}),
        ("saddle_quartic:d=4", "gd", [1e-1, 3e-2, 1e-2, 3e-3], 3, {}),
        ("quadratic:d=2", "gd", [1e-1, 1e-2, 1e-3], 2, {"x0": (0.0, 0.0), "jitter": 0.0}),
    ], ids=["rosenbrock-psca", "quartic-gd", "constant-medians"])
    def test_fit_is_the_scipy_stats_fit_bit_for_bit(self, problem, algo, eps_list, seeds,
                                                    settings):
        res = scaling_study(problem, algo, eps_list, seeds, **settings)
        assert not res.excluded
        # assert_array_equal takes NaN for equal to NaN
        np.testing.assert_array_equal([res.slope, res.slope_half_width, res.intercept],
                                      _reference_fit(res))

    def test_unreached_target_is_excluded(self):
        inst = make_quadratic(np.diag([0.2, 1.0]))
        inst = dataclasses.replace(inst, canonical_start=np.array([3.0, 0.0]))
        res = scaling_study(
            inst, "gd", [0.3, 0.1, 0.03, 0.01, 1e-12], seeds=1, jitter=0.0,
            eta=0.5, max_iters=50,
        )
        assert 1e-12 in res.excluded
        assert math.isnan(res.median_iters[-1])

    def test_seed_is_a_config_error_that_names_base_seed(self):
        with pytest.raises(ConfigError, match="^seed is not a scaling_study setting: the first "
                                              "seed is base_seed$"):
            scaling_study("saddle_quartic:d=2", "gd", [1e-1, 3e-2, 1e-2], 2, seed=3)

    def test_a_seed_without_parameters_stops_the_study_before_it_runs(self, monkeypatch):
        batches = _count_batches(monkeypatch)
        with pytest.raises(ConfigError, match="delta_u must be positive"):
            scaling_study(_quartic_at_zero(), "psca", [1e-1, 3e-2, 1e-2], seeds=3, base_seed=3,
                          jitter=0.3)
        assert batches == []


    def test_quadratic_split_needs_a_dense_hessian(self):
        inst = make_quadratic(np.diag([0.2, 1.0]))
        inst = dataclasses.replace(inst, objective=dataclasses.replace(inst.objective,
                                                                       dense_hessian=None,
                                                                       hessian_band=None))
        with pytest.raises(ConfigError,
                           match="^quadratic_split needs a problem with a dense Hessian$"):
            scaling_study(inst, "sca", [1e-1, 3e-2, 1e-2], seeds=1, surrogate="quadratic_split")

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

    def test_a_run_without_a_stream_reports_no_seed(self, tmp_path, capsys):
        """``config.seed`` keys an sca run's start; the run draws nothing, so its result has
        no seed."""
        assert main(["run", "--problem", "saddle_quartic:d=2", "--algo", "sca", "--seed", "3",
                     "--max-iters", "20", "--out-dir", str(tmp_path), "--label", "sca"]) == 0
        report = json.loads((tmp_path / "sca.json").read_text())
        assert report["config"]["seed"] == 3 and report["result"]["seed"] is None

    def test_run_rejects_bad_config(self, tmp_path, capsys):
        code = main(
            ["run", "--problem", "saddle_quartic:d=10", "--algo", "psca",
             "--eps", "0", "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "0 < eps" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_too_small_a_registry_dim_is_a_config_error(self, command, tmp_path, capsys):
        argv = [command, "--problem", "quadratic_indefinite:d=0"]
        if command == "run":
            argv += ["--algo", "sca", "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.endswith(" error: dim must be >= 2, got 0\n") and err.count("\n") == 1

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

    def test_a_sweep_certifies_a_hessian_equal_to_l1_times_the_identity(self, tmp_path):
        """Above the dense limit ``quadratic:d=250`` certifies matrix-free on the zero operator
        ``L1 I - H``, and its sweep writes its aggregate."""
        assert main(["sweep", "--problem", "quadratic:d=250", "--algo", "gd", "--seeds", "2",
                     "--out-dir", str(tmp_path)]) == 0
        aggregate = json.loads((tmp_path / "quadratic-d-250_gd_aggregate.json").read_text())
        assert len(aggregate["runs"]) == 2
        for run in aggregate["runs"]:
            report = json.loads(Path(run["report"]).read_text())
            assert report["certificate"]["method"] == "matrix_free"
            assert abs(report["certificate"]["lambda_min"] - 1.0) <= 1e-15

    def test_a_failed_scaling_run_exits_1_as_a_failed_run_does(self, tmp_path, capsys):
        # a start at x = (1.95, 0) jittered by 0.1 leaves the box |x|_inf <= 2 for some seeds
        cfg = ExperimentConfig(problem="saddle_quartic:d=2", x0=(1.95, 0.0), jitter=0.1)
        prob = cli.problems.get_problem(cfg.problem)
        bad = next(k for k in range(12) if not prob.objective.in_region(
            cli._resolve_start(dataclasses.replace(cfg, seed=k), prob)))
        common = ["--problem", cfg.problem, "--algo", "gd", "--x0", "1.95,0", "--jitter", "0.1",
                  "--max-iters", "500"]
        failure = "ValueError: x0 lies outside the objective's valid region\n"
        assert main(["run", *common, "--seed", str(bad), "--out-dir", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == "run failed: " + failure
        assert main(["scaling", *common, "--seeds", str(bad + 1), "--eps-list", "1e-1,3e-2,1e-2",
                     "--out-dir", str(tmp_path / "scaling")]) == 1
        assert capsys.readouterr().err == "scaling failed: " + failure
        assert not (tmp_path / "scaling").exists()

    def test_a_scaling_study_short_of_three_targets_exits_1(self, tmp_path, capsys):
        code = main(["scaling", "--problem", "rosenbrock:d=10", "--algo", "sca", "--seeds", "2",
                     "--eps-list", "1e-1,3e-2,1e-2", "--max-iters", "5",
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == ("scaling failed: RuntimeError: only 0 targets were "
                                           "reached by every seed; cannot fit a slope\n")
        assert list(tmp_path.iterdir()) == []

    def test_scaling_defaults_are_the_study_defaults(self, tmp_path, capsys):
        eps_list = [1e-1, 3e-2, 1e-2]
        code = main(
            ["scaling", "--problem", "saddle_quartic:d=2", "--algo", "psca",
             "--eps-list", ",".join(map(str, eps_list)), "--seeds", "3", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        path = capsys.readouterr().out.splitlines()[-1]
        per_seed = json.loads(Path(path).read_text())["per_seed"]
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
            (["run", "--algo", "psca", "--eta", "0.5"],
             "config error: eta does not apply to psca/pgd: their step c/L1 is derived from c"),
            (["sweep", "--seeds", "2", "--algo", "pgd", "--eta", "0.5"],
             "config error: eta does not apply to psca/pgd"),
            (["scaling", "--eps-list", "1e-1,3e-2,1e-2", "--algo", "psca", "--eta", "0.5"],
             "scaling error: eta does not apply to psca/pgd"),
            (["run", "--problem", "saddle_quartic:d=2", "--algo", "psca", "--delta-u", "-1"],
             "config error: delta_u must be positive (got -1.0)"),
            (["sweep", "--seeds", "2", "--problem", "saddle_quartic:d=2", "--delta-u", "-1"],
             "config error: delta_u must be positive (got -1.0)"),
            (["scaling", "--eps-list", "1e-1,3e-2,1e-2", "--problem", "saddle_quartic:d=2",
              "--delta-u", "-1"],
             "scaling error: delta_u must be positive (got -1.0)"),
            (["run", "--problem", "rosenbrock:d=4", "--algo", "sca", "--strong-convexity", "nan",
              "--jitter", "0.1"],
             "config error: strong_convexity must be positive (got nan)"),
            (["run", "--problem", "rosenbrock:d=4", "--algo", "sca", "--jitter", "nan"],
             "config error: jitter must be nonnegative (got nan)"),
            (["run", "--problem", "saddle_quartic:d=2", "--delta-u", "nan"],
             "config error: delta_u must be positive (got nan)"),
            (["run", "--problem", "saddle_quartic:d=2", "--delta-u", "inf"],
             "config error: delta_u must be finite (got inf)"),
            (["sweep", "--seeds", "2", "--problem", "saddle_quartic:d=2", "--delta-u", "inf"],
             "config error: delta_u must be finite (got inf)"),
            (["scaling", "--eps-list", "1e-1,3e-2,1e-2", "--problem", "saddle_quartic:d=2",
              "--delta-u", "inf"],
             "scaling error: delta_u must be finite (got inf)"),
            (["run", "--problem", "rosenbrock:d=4", "--algo", "sca", "--jitter", "inf"],
             "config error: jitter must be finite (got inf)"),
            (["run", "--problem", "rosenbrock:d=4", "--algo", "sca", "--strong-convexity", "inf"],
             "config error: strong_convexity must be finite (got inf)"),
            (["run", "--problem", "saddle_quartic:d=2", "--x0", "5,5"],
             "config error: x0 lies outside the objective's valid region"),
            (["run", "--problem", "matrix_factorization:d=6,r=2", "--x0",
              "1e200,0,0,0,0,0,0,0,0,0,0,0"],
             "config error: x0 lies outside the objective's valid region"),
            (["sweep", "--seeds", "2", "--problem", "saddle_quartic:d=2", "--x0", "5,5"],
             "config error: x0 lies outside the objective's valid region"),
            (["scaling", "--eps-list", "1e-1,3e-2,1e-2", "--problem", "saddle_quartic:d=2",
              "--x0", "5,5"],
             "scaling error: x0 lies outside the objective's valid region"),
            (["run", "--problem", "saddle_quartic:d=2", "--x0", "nan,0"],
             "config error: x0 must be finite"),
            (["sweep", "--seeds", "2", "--problem", "saddle_quartic:d=2", "--x0", "nan,0"],
             "config error: x0 must be finite"),
            (["scaling", "--eps-list", "1e-1,3e-2,1e-2", "--problem", "saddle_quartic:d=2",
              "--x0", "nan,0"],
             "scaling error: x0 must be finite"),
            (["run", "--problem", "saddle_quartic:d=2", "--eps", "1e-170"],
             "config error: eps=1e-170, c=1 and delta_u=0.25 put the derived thresholds out of "
             "floating-point range: chi, f_th and the window must be finite and positive"),
            (["run", "--problem", "saddle_quartic:d=2", "--delta-u", "1e308"],
             "config error: eps=0.01, c=1 and delta_u=1e+308 put the derived thresholds out of "
             "floating-point range"),
            (["sweep", "--seeds", "2", "--problem", "saddle_quartic:d=2", "--delta-u", "1e308"],
             "config error: eps=0.01, c=1 and delta_u=1e+308 put the derived thresholds out of "
             "floating-point range"),
            (["scaling", "--eps-list", "1e-1,3e-2,1e-2", "--problem", "saddle_quartic:d=2",
              "--delta-u", "1e308"],
             "scaling error: eps=0.01, c=1 and delta_u=1e+308 put the derived thresholds out of "
             "floating-point range"),
            (["run", "--problem", "rosenbrock:d=10,d=3"],
             "config error: repeated problem parameter 'd' in 'rosenbrock:d=10,d=3'"),
            (["scaling", "--eps-list", "1e-1,3e-2,1e-2", "--problem", "rosenbrock:d=10,d=3"],
             "scaling error: repeated problem parameter 'd' in 'rosenbrock:d=10,d=3'"),
            (["scaling", "--eps-list", "1e-1,3e-2,1e-2", "--problem", "nope", "--delta", "-1"],
             f"scaling error: unknown problem 'nope'; known: {', '.join(registry_names())}; "
             "delta must satisfy 0 < delta < 1 (got -1.0)"),
            (["run", "--problem", "saddle_quartic:d=2", "--label", "../x"],
             "config error: label must be a file name, not a path, '.' or '..' (got '../x')"),
            (["sweep", "--seeds", "2", "--problem", "saddle_quartic:d=2", "--label", "a/b"],
             "config error: label must be a file name, not a path, '.' or '..' (got 'a/b')"),
            (["scaling", "--eps-list", "1e-1,3e-2,1e-2", "--problem", "saddle_quartic:d=2",
              "--label", ".."],
             "scaling error: label must be a file name, not a path, '.' or '..' (got '..')"),
        ],
        ids=["validate-unknown-problem", "validate-few-samples", "run-bad-x0", "sweep-bad-x0",
             "scaling-eps", "scaling-record-eigen-every", "run-pgd-surrogate", "sweep-gd-surrogate",
             "scaling-gd-strong-convexity", "run-psca-eta", "sweep-pgd-eta", "scaling-psca-eta",
             "run-delta-u", "sweep-delta-u", "scaling-delta-u", "run-strong-convexity-nan",
             "run-jitter-nan", "run-delta-u-nan", "run-delta-u-inf", "sweep-delta-u-inf",
             "scaling-delta-u-inf", "run-jitter-inf", "run-strong-convexity-inf", "run-x0-outside",
             "run-x0-norm-overflows", "sweep-x0-outside", "scaling-x0-outside", "run-x0-nan",
             "sweep-x0-nan", "scaling-x0-nan", "run-eps-underflow", "run-delta-u-overflow",
             "sweep-delta-u-overflow", "scaling-delta-u-overflow", "run-repeated-parameter",
             "scaling-repeated-parameter", "scaling-unknown-problem", "run-label-path",
             "sweep-label-path", "scaling-label-dot-dot"],
    )
    def test_bad_input_is_one_line_exit_2(self, argv, message, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SCAOPT_OUT_DIR", str(tmp_path))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_json_files_end_in_one_newline_and_load_back(self, tmp_path, capsys):
        common = ["--problem", "saddle_quartic:d=2", "--algo", "psca", "--out-dir", str(tmp_path)]
        assert main(["run", *common, "--max-iters", "50", "--label", "one"]) == 0
        assert main(["sweep", *common, "--max-iters", "50", "--seeds", "2", "--label", "many"]) == 0
        assert main(["scaling", *common, "--eps-list", "1e-1,3e-2,1e-2", "--seeds", "2",
                     "--label", "study"]) == 0
        for name in ("one.json", "many_aggregate.json", "study.json"):
            text = (tmp_path / name).read_text()
            assert text.endswith("}\n") and not text.endswith("\n\n"), name
            assert isinstance(json.loads(text), dict), name


def test_run_flags_are_the_config_fields():
    """Each run flag sets a config field and each field but ``seeds`` has a run flag.

    ``_config_from_args`` keeps only the flags named after a field, so a flag
    without one would be parsed and then dropped without a word.
    """
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"seeds"}
    commands = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name in ("run", "sweep", "scaling"):
        dests = {a.dest for a in commands.choices[name]._actions} - {"help", "seeds", "eps_list"}
        assert dests == fields, name


def test_readme_commands_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    commands = [line for line in readme.read_text().splitlines() if line.startswith("scaopt ")]
    assert len(commands) >= 6
    for line in commands:
        _parser().parse_args(shlex.split(line, comments=True)[1:])


def test_trajectory_row_format_matches_per_field_format(tmp_path):
    """The one-format row writer writes what formatting each field on its own wrote."""
    from scaopt.cli import CSV_HEADER, write_trajectory_csv
    from scaopt.drivers import IterateRecord, RunResult, Trajectory

    def per_field(rec, events):
        def fmt(v):
            return format(float(v), ".17g")

        return (f"{rec.t},{fmt(rec.f)},{fmt(rec.grad_norm)},{fmt(rec.step_norm)},"
                f"{fmt(rec.err_norm)},{int(rec.perturbed)},0,"
                f"{events.get(rec.t, '')}\n")

    records = [
        IterateRecord(0, math.inf, -math.inf, math.nan, -0.0, True),
        IterateRecord(1, 5e-324, -5e-324, 0.1, 1.0 / 3.0, False),
        IterateRecord(2, -0.25, 1e300, 2.2250738585072014e-308, 0.0, False),
        IterateRecord(3, float(np.float64(-1.0) / 3.0), 12345678901234567.0, 1e-17, 7.0, True),
    ]
    events = {0: "perturbed;f_before=0.5", 3: "returned_xtilde"}
    columns = np.array([(rec.f, rec.grad_norm, rec.step_norm, rec.err_norm) for rec in records])
    trajectory = Trajectory(columns, (rec.t for rec in records if rec.perturbed))
    result = RunResult(records=trajectory, termination="returned_xtilde", x_out=np.zeros(1),
                       f_out=0.0, perturbation_count=2, seed=0, events=events)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, result)
    expected = CSV_HEADER + "\n" + "".join(per_field(rec, events) for rec in records)
    assert path.read_bytes() == expected.encode()
    assert "0,inf,-inf,nan,-0,1,0,perturbed" in expected
    assert ",4.9406564584124654e-324,-4.9406564584124654e-324," in expected


# values whose rows print alike but differ in their bits, and the edges of "%.17g"
NAN_PAYLOAD = float(np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0])
CSV_VALUES = st.sampled_from([0.0, -0.0, math.nan, -math.nan, NAN_PAYLOAD, math.inf, -math.inf,
                              5e-324, -5e-324, 2.2250738585072014e-308, 0.1, 1.0 / 3.0, -0.25,
                              1e300]) | st.floats()
EVENTS = st.sampled_from(["perturbed;f_before=0.5", "returned_xtilde", "left_valid_region"])
# one trajectory line, formatted on its own: the reference for the writer's run-length,
# one-text-per-bit-pattern file
REFERENCE_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%d,0,%s\n"


def reference_csv(result) -> bytes:
    """The trajectory file of ``result`` with every row formatted by ``REFERENCE_ROW``."""
    return (cli.CSV_HEADER + "\n" + "".join(
        REFERENCE_ROW % (*row, result.events.get(row[0], "")) for row in result.records.rows())
    ).encode()


@st.composite
def trajectories(draw):
    """``(columns, perturbed, events)``: runs of repeated rows, flags and events anywhere.

    A run's row is often the row before it with one column negated, so runs of
    ``0.0`` and ``-0.0`` (or of NaNs of either sign) meet. Up to two cells of a
    row copy, or negate, a cell of its own row or of any earlier run, so one
    bit pattern recurs across columns and in rows that are not adjacent, as a
    run's ``f`` and ``err_norm`` do, and ``step_norm`` equals ``grad_norm``, or
    is its negation, as it is at unit modulus.
    """
    rows, lengths = [], []
    for _ in range(draw(st.integers(1, 8))):
        if rows and draw(st.booleans()):
            row = list(rows[-1])
            j = draw(st.integers(0, 3))
            row[j] = -row[j]
        else:
            row = draw(st.lists(CSV_VALUES, min_size=4, max_size=4))
        pool = [v for earlier in rows for v in earlier] + row
        for j in draw(st.sets(st.integers(0, 3), max_size=2)):
            v = draw(st.sampled_from(pool))
            row[j] = -v if draw(st.booleans()) else v
        rows.append(row)
        lengths.append(draw(st.integers(1, 40)))
    columns = np.repeat(np.array(rows, dtype=np.float64), lengths, axis=0)
    t = st.integers(0, len(columns) - 1)
    return columns, draw(st.sets(t, max_size=4)), draw(st.dictionaries(t, EVENTS, max_size=4))


@given(trajectories())
@example((np.array([[0.0, 0.0, 0.0, 0.0], [-0.0, 0.0, 0.0, 0.0], [-0.0, 0.0, 0.0, 0.0]]), set(), {}))
@example((np.array([[0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, -0.0, 0.0], [0.0, -0.0, 0.0, -0.0]]),
          {1}, {}))
@example((np.array([[NAN_PAYLOAD, math.nan, -NAN_PAYLOAD, -math.nan],
                    [math.nan, NAN_PAYLOAD, math.nan, NAN_PAYLOAD]]), set(), {1: "returned_xtilde"}))
@example((np.repeat([[-0.25, 0.5, 0.5, 0.0], [-0.25, 0.25, 0.25, 1.1102230246251565e-16],
                     [-0.25, 0.5, 0.5, 0.0], [-0.25, 0.5, -0.5, 0.0]], [3, 1, 2, 1], axis=0),
          {4}, {4: "perturbed;f_before=-0.25"}))
@example((np.array([[-0.25, 1e-3, 0.0, 0.0]]), {0}, {0: "perturbed;f_before=0"}))
@example((np.zeros((5, 4)), {2}, {3: "returned_xtilde"}))
def test_trajectory_csv_is_the_row_by_row_file(tmp_path_factory, trajectory):
    """The writer writes what formatting every row on its own writes."""
    from scaopt.drivers import RunResult, Trajectory

    columns, perturbed, events = trajectory
    result = RunResult(records=Trajectory(columns, perturbed), termination="returned_xtilde",
                       x_out=np.zeros(1), f_out=0.0, perturbation_count=len(perturbed), seed=0,
                       events=events)
    path = tmp_path_factory.mktemp("csv") / "traj.csv"
    cli.write_trajectory_csv(path, result)
    assert path.read_bytes() == reference_csv(result)
    assert [p.name for p in path.parent.iterdir()] == ["traj.csv"]


def test_sweep_trajectory_csv_is_the_row_by_row_file(tmp_path, monkeypatch):
    """Each per-seed file of a batched P-SCA sweep is its row-by-row file.

    Such a file holds a plateau of hundreds of identical rows at the saddle and
    hundreds of distinct rows that share their ``f``, ``err_norm`` and step
    norms with others.
    """
    written = []
    write = cli.write_trajectory_csv

    def record(path, result):
        write(path, result)
        written.append((path, result))

    monkeypatch.setattr(cli, "write_trajectory_csv", record)
    cli.sweep_experiment(cli.ExperimentConfig(problem="saddle_quartic:d=10", algo="psca",
                                              seed=0, seeds=3, out_dir=str(tmp_path)))
    assert len(written) == 3
    for path, result in written:
        bits = result.records.columns.view(np.uint64)
        changes = np.flatnonzero((bits[1:] != bits[:-1]).any(axis=1))
        assert len(changes) >= 300 and np.diff(changes).max() >= 100
        assert path.read_bytes() == reference_csv(result)


def test_reports_write_non_finite_numpy_numbers_as_null(tmp_path):
    data = {"a": 1, "b": np.float64("inf"), "c": np.array([1.0, np.nan, -np.inf]),
            "d": [np.float32("nan"), -math.inf, (np.float64(2.5),)], "e": np.int64(3)}
    path = tmp_path / "report.json"
    cli._write_json(path, data)
    assert json.loads(path.read_text()) == {"a": 1, "b": None, "c": [1.0, None, None],
                                            "d": [None, None, [2.5]], "e": 3}
    assert cli._as_jsonable(np.float64("-inf")) is None
    assert cli._as_jsonable(np.float64(0.5)) == 0.5


class TestAtomicWrites:
    """A write that raises leaves the final path as it was and no temporary file behind."""

    def test_failed_report_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "report.json"
        cli._write_json(path, {"a": 1})
        old = path.read_bytes()
        with pytest.raises(TypeError):
            cli._write_json(path, {"a": object()})
        with pytest.raises(UnicodeEncodeError):  # raises once the temporary file is open
            cli._write_text(path, '{"a": 2, "b": "\ud800"}\n')
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_failed_trajectory_leaves_no_file(self, tmp_path):
        from scaopt.drivers import RunResult, Trajectory

        result = RunResult(records=Trajectory(np.zeros((3, 4))), termination="max_iters",
                           x_out=np.zeros(1), f_out=0.0, perturbation_count=0, seed=0,
                           events={2: "\ud800"})
        with pytest.raises(UnicodeEncodeError):
            cli.write_trajectory_csv(tmp_path / "traj.csv", result)
        assert list(tmp_path.iterdir()) == []

    def test_the_temporary_name_is_neither_csv_nor_json(self, tmp_path, monkeypatch):
        seen = []
        replace = cli.os.replace

        def record(src, dst):
            seen.append(Path(src))
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", record)
        cli._write_json(tmp_path / "r.json", {})
        (src,) = seen
        assert src.parent == tmp_path and src.suffix not in (".json", ".csv")
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]
