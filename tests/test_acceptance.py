"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Statistical criteria use fixed seeds, so the suite is deterministic.
"""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

import scaopt.drivers as drv
from scaopt.certify import certify_run, classify, min_eigenvalue
from scaopt.cli import ExperimentConfig, run_experiment, scaling_study
from scaopt.numerics import RngStream, finite_diff_gradient, finite_diff_hvp, sample_uniform_ball
from scaopt.problems import Objective, Smoothness, get_problem
from scaopt.surrogates import SurrogateSpec, build_surrogate, minimize_surrogate

from conftest import rel_err, sample_in_region


def _announce(number: int, name: str) -> None:
    print(f"\nACCEPTANCE {number:>2} ({name}): PASS")


@dataclasses.dataclass
class BenchRun:
    name: str
    result: drv.RunResult
    spec: SurrogateSpec
    eta: float


def _psca(problem_spec, eps, max_iters, seed=0, modulus=1.0):
    prob = get_problem(problem_spec)
    obj = prob.objective
    delta_u = float(obj.value(prob.canonical_start)) - obj.f_star
    params = drv.derive_params(eps, 0.1, 1.0, 0.5, max(delta_u, 1e-3), obj, max_iters)
    spec = SurrogateSpec(strong_convexity=modulus)
    result = drv.run_psca(obj, spec, params, prob.canonical_start, RngStream(seed))
    return BenchRun(f"psca {problem_spec}", result, spec, params.eta), prob, params


@pytest.fixture(scope="module")
def benchmark_suite():
    """The P-SCA/SCA runs the descent/optimality criteria quantify over."""
    runs = []
    for spec_str, eps, iters in (
        ("saddle_quartic:d=2", 1e-2, 12_000),
        ("saddle_quartic:d=10", 1e-2, 12_000),
        ("quadratic:d=10", 1e-1, 5_000),
        ("matrix_factorization:d=6,r=2", 1e-2, 2_500),
    ):
        bench, _, _ = _psca(spec_str, eps, iters)
        runs.append(bench)
    for spec_str in ("rosenbrock:d=2", "rosenbrock:d=10"):
        prob = get_problem(spec_str)
        obj = prob.objective
        spec = SurrogateSpec()
        eta = 1.0 / obj.constants.grad_lipschitz
        res = drv.run_sca(obj, spec, eta, 1e-4, 3_000, prob.canonical_start)
        runs.append(BenchRun(f"sca {spec_str}", res, spec, eta))
    prob = get_problem("quadratic:d=10")
    spec = SurrogateSpec(kind="quadratic_split", strong_convexity=0.1)
    res = drv.run_sca(prob.objective, spec, 0.15, 1e-6, 2_000, prob.canonical_start)
    runs.append(BenchRun("sca quadratic_split quadratic:d=10", res, spec, 0.15))
    prob = get_problem("saddle_quartic:d=2")
    spec = SurrogateSpec(kind="quadratic_split", strong_convexity=0.5)
    res = drv.run_sca(
        prob.objective, spec, 0.08, 1e-8, 2_000, np.array([1.5, 0.5])
    )
    runs.append(BenchRun("sca quadratic_split saddle_quartic:d=2", res, spec, 0.08))
    return runs


@pytest.fixture(scope="module")
def escape_runs():
    """100 seeded perturbed runs from the exact saddle of the d=10 quartic, in one lockstep batch."""
    prob = get_problem("saddle_quartic:d=10")
    obj = prob.objective
    params = drv.derive_params(1e-2, 0.1, 1.0, 0.5, 0.25, obj, 20_000)
    runs = drv.run_batch(obj, SurrogateSpec(), [prob.canonical_start] * 100,
                         params=[params] * 100, rngs=[RngStream(seed) for seed in range(100)])
    assert all(isinstance(res, drv.RunResult) for res in runs)
    return prob, params, runs


def test_criterion_1_descent_lemma(benchmark_suite):
    for bench in benchmark_suite:
        res, spec, eta = bench.result, bench.spec, bench.eta
        modulus = spec.strong_convexity
        checked = 0
        for prev, nxt in zip(res.records[:-1], res.records[1:]):
            if nxt.perturbed:
                continue
            checked += 1
            slack = drv.descent_slack(prev, eta)
            grad_lip = _grad_lipschitz_for(bench.name)
            assert drv.descent_check(
                prev.f, nxt.f, prev.step_norm, eta, modulus, grad_lip, slack
            ), f"{bench.name}: descent failed at t={prev.t}"
        assert checked > 0, bench.name
        assert res.monitors.descent_passed == res.monitors.descent_checked == checked
    _announce(1, "descent lemma over benchmark suite")


def _grad_lipschitz_for(bench_name: str) -> float:
    spec_str = bench_name.split()[-1]
    return get_problem(spec_str).objective.constants.grad_lipschitz


def test_criterion_2_inexact_gradient_identities():
    prob = get_problem("saddle_quartic:d=10")
    obj = prob.objective
    params = drv.derive_params(1e-2, 0.1, 1.0, 0.5, 0.25, obj, 1_500)

    # unit modulus: the error vector vanishes and the trajectory equals PGD
    spec = SurrogateSpec(strong_convexity=1.0)
    a = drv.run_psca(obj, spec, params, prob.canonical_start, RngStream(21),
                     keep_iterates_every=1)
    b = drv.run_pgd(obj, params, prob.canonical_start, RngStream(21),
                    keep_iterates_every=1)
    assert all(rec.err_norm <= 1e-12 for rec in a.records)
    assert a.iterations >= 1_000 and a.iterations == b.iterations
    worst = max(
        float(np.max(np.abs(xa - xb))) for (_, xa), (_, xb) in zip(a.iterates, b.iterates)
    )
    assert worst <= 1e-10

    # non-unit modulus: the declared error bound holds at every step
    modulus = 2.0
    spec2 = SurrogateSpec(strong_convexity=modulus)
    c = drv.run_psca(obj, spec2, params, prob.canonical_start, RngStream(4))
    lip_value = obj.constants.value_lipschitz
    assert c.monitors.error_bound_checked > 0
    for rec in c.records[:-1]:
        tol = drv.monitor_slack(rec.grad_norm)
        assert rec.err_norm <= lip_value * (1 + 1 / modulus) + tol / modulus
    _announce(2, "inexact-gradient identities")


def test_criterion_3_direction_and_optimality_bounds(benchmark_suite):
    for bench in benchmark_suite:
        mon = bench.result.monitors
        assert mon.optimality_checked > 0, bench.name
        assert mon.optimality_passed == mon.optimality_checked, bench.name
        assert mon.direction_passed == mon.direction_checked, bench.name

    # recompute both bounds from scratch along a short run
    obj = get_problem("saddle_quartic:d=2").objective
    spec = SurrogateSpec(strong_convexity=1.5)
    x = np.array([1.2, 0.3])
    for _ in range(50):
        surr = build_surrogate(obj, x, spec)
        x_hat, _ = minimize_surrogate(surr)
        g = surr.anchor_grad
        tol = drv.monitor_slack(float(np.linalg.norm(g)))
        step = float(np.linalg.norm(x_hat - x))
        gap = float((x - x_hat) @ g)
        assert gap >= 1.5 * step**2 - (tol * step + 1e-9)
        assert step <= float(np.linalg.norm(g)) / 1.5 + tol / 1.5
        x = x + 0.2 * (x_hat - x)
    _announce(3, "direction/optimality bounds")


def test_criterion_4_saddle_escape_statistics(escape_runs):
    prob, params, runs = escape_runs
    obj = prob.objective
    successes = 0
    for res in runs:
        if res.termination != "returned_xtilde":
            continue
        cert = certify_run(obj, res, params.eps)
        successes += cert.classification == "eps_sosp" and res.f_out <= -0.2
    assert successes >= 90, f"only {successes}/100 certified escapes"

    # unperturbed surrogate descent from the exact saddle never moves
    spec = SurrogateSpec()
    x = prob.canonical_start.copy()
    for t in range(10_000):
        x, _ = drv.sca_step(obj, spec, x, params.eta, t)
        assert float(np.linalg.norm(x)) <= 1e-12
    _announce(4, f"saddle escape ({successes}/100 certified)")


def test_criterion_5_rate_scaling_slope():
    res = scaling_study(
        "rosenbrock:d=10",
        "psca",
        [1e-1, 3e-2, 1e-2, 3e-3],
        seeds=10,
        jitter=0.1,
        max_iters=400_000,
    )
    assert not res.excluded
    assert 1.2 <= res.slope <= 2.2, f"slope {res.slope} outside [1.2, 2.2]"
    _announce(5, f"rate scaling slope={res.slope:.3f}")


def test_criterion_6_eigen_oracle_equivalence():
    from scaopt.problems import make_quadratic

    gen = np.random.default_rng(2024)
    for _ in range(20):
        a = gen.standard_normal((50, 50))
        obj = make_quadratic(0.5 * (a + a.T)).objective
        lam_dense, _, _ = min_eigenvalue(obj, np.zeros(50), method="dense")
        lam_free, _, _ = min_eigenvalue(obj, np.zeros(50), method="matrix_free")
        assert abs(lam_dense - lam_free) <= 1e-6

    for spec_str in ("saddle_quartic:d=10", "matrix_factorization:d=6,r=2"):
        obj = get_problem(spec_str).objective
        stream = RngStream(99)
        for _ in range(20):
            x = sample_in_region(obj, stream)
            lam_dense, _, _ = min_eigenvalue(obj, x, method="dense")
            lam_free, _, _ = min_eigenvalue(obj, x, method="matrix_free")
            assert abs(lam_dense - lam_free) <= 1e-6, spec_str
    _announce(6, "eigen oracle equivalence")


def test_criterion_7_derivative_oracles():
    for spec_str in (
        "quadratic:d=10",
        "quadratic_indefinite:d=2",
        "saddle_quartic:d=10",
        "matrix_factorization:d=6,r=2",
        "rosenbrock:d=2",
        "rosenbrock:d=10",
    ):
        obj = get_problem(spec_str).objective
        stream = RngStream(123)
        for _ in range(20):
            x = sample_in_region(obj, stream, scale=1.8)
            fd_grad = finite_diff_gradient(obj.value, x)
            assert rel_err(fd_grad, obj.gradient(x)) <= 1e-5, spec_str
            v = stream.standard_normal(obj.dim)
            fd_hvp = finite_diff_hvp(obj.gradient, x, v)
            assert rel_err(fd_hvp, obj.hvp(x, v)) <= 1e-5, spec_str
    _announce(7, "derivative oracles")


def _stub_objective(dim, lip_grad, lip_hess):
    return Objective(
        dim=dim,
        value=lambda x: 0.0,
        gradient=lambda x: np.zeros(dim),
        hvp=lambda x, v: np.zeros(dim),
        constants=Smoothness(lip_grad, lip_hess),
    )


def test_criterion_8_parameter_derivation_high_precision():
    mp.mp.dps = 50
    gen = np.random.default_rng(7)
    for _ in range(50):
        dim = int(gen.integers(1, 201))
        lip_grad = float(10.0 ** gen.uniform(-1, 2))
        lip_hess = float(10.0 ** gen.uniform(-2, 2))
        delta_u = float(10.0 ** gen.uniform(-2, 2))
        c = float(gen.uniform(0.05, 1.0))
        delta = float(gen.uniform(0.01, 0.99))
        s = float(gen.uniform(0.05, 0.95))
        eps = float(gen.uniform(1e-4, 1.0)) * lip_grad**2 / lip_hess

        obj = _stub_objective(dim, lip_grad, lip_hess)
        params = drv.derive_params(eps, delta, c, s, delta_u, obj)

        d_, l1, l2 = map(mp.mpf, (dim, lip_grad, lip_hess))
        du, c_, eps_, delta_ = map(mp.mpf, (delta_u, c, eps, delta))
        chi = 3 * max(mp.log(d_ * l1 * du / (c_ * eps_**2 * delta_)), mp.mpf(4))
        expect = {
            "chi": chi,
            "eta": c_ / l1,
            "g_th": eps_ * mp.sqrt(c_) / chi**2,
            "r": eps_ * mp.sqrt(c_) / (l1 * chi**2),
            "f_th": (c_ / chi**3) * mp.sqrt(eps_**3 / l2),
        }
        for name, ref in expect.items():
            got = mp.mpf(getattr(params, name))
            assert abs(got - ref) <= mp.mpf("1e-12") * abs(ref), name
        t_ref = int(mp.ceil((chi / c_**2) * l1 / mp.sqrt(l2 * eps_)))
        assert params.t_th == max(1, t_ref)
        assert params.chi >= 12.0
        assert params.t_th >= 1

    with pytest.raises(drv.HypothesisViolationError):
        drv.derive_params(2.0 * 4.0, 0.1, 1.0, 0.5, 1.0, _stub_objective(3, 2.0, 1.0))
    _announce(8, "parameter derivation vs high-precision oracle")


def test_criterion_9_perturbation_protocol(escape_runs):
    prob, params, runs = escape_runs
    for res in runs:
        perturb_ts = [rec.t for rec in res.records if rec.perturbed]
        assert perturb_ts, "every escape run perturbs at least once"
        for a, b in zip(perturb_ts, perturb_ts[1:]):
            assert b - a > params.t_th
        # replay the stream: runs consume it only through ball draws
        replay = RngStream(res.seed)
        for _ in perturb_ts:
            xi = sample_uniform_ball(prob.objective.dim, params.r, replay)
            assert float(np.linalg.norm(xi)) <= params.r
        if res.termination == "returned_xtilde":
            decrement = res.records[-1].f - res.perturbation_state.f_tilde
            assert decrement > -(1.0 - params.s) * params.f_th
    _announce(9, "perturbation protocol")


def test_criterion_10_determinism(tmp_path):
    cfg = ExperimentConfig(
        problem="saddle_quartic:d=10",
        algo="psca",
        eps=1e-2,
        seed=7,
        max_iters=20_000,
        out_dir=str(tmp_path),
    )
    csv_path, _ = run_experiment(cfg)
    first = csv_path.read_bytes()
    csv_path, _ = run_experiment(cfg)
    assert csv_path.read_bytes() == first
    _announce(10, "byte-identical trajectory replay")


def test_criterion_11_matrix_factorization_end_to_end():
    prob = get_problem("matrix_factorization:d=6,r=2")
    obj = prob.objective
    params = drv.derive_params(
        1e-2, 0.1, 1.0, 0.5, float(obj.value(prob.canonical_start)) - obj.f_star,
        obj, 2_500,
    )
    x0s = [sample_uniform_ball(obj.dim, 0.1, RngStream(seed).substream(99)) for seed in range(100)]
    runs = drv.run_batch(obj, SurrogateSpec(), x0s, params=[params] * 100,
                         rngs=[RngStream(seed) for seed in range(100)])
    successes = 0
    for res in runs:
        successes += any(rec.f <= 1e-4 for rec in res.records)
    assert successes >= 95, f"only {successes}/100 runs reached 1e-4"
    _announce(11, f"matrix factorization end-to-end ({successes}/100)")
