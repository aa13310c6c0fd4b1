import collections
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scaopt.drivers as drv
from scaopt import numerics, surrogates
from scaopt.numerics import RngStream, sample_uniform_ball
from scaopt.problems import get_problem, make_quadratic, make_saddle_quartic
from scaopt.surrogates import SurrogateAt, SurrogateSpec, build_surrogate

from _monitor_reference import descent_check, gradient_error

# Frozen outputs of an independent 50-digit evaluation of the step-1 formulas
# for d=10, L1=11, L2=12, delta_U=1, c=1, eps=0.01, delta=0.1.
FROZEN_PARAMS = {
    "chi": 48.640217492287934,
    "eta": 0.09090909090909091,
    "g_th": 4.2267735747889925e-6,
    "r": 3.8425214316263568e-7,
    "f_th": 2.5085505236432627e-9,
    "t_th": 1545,
}
# Same source, for the landscape scales at those parameters.
FROZEN_SCALES = {
    "curvature_threshold": 0.34641016151377546,
    "condition_number": 31.754264805429417,
    "func_decrease_scale": 5.5066506932190553e-7,
    "grad_scale": 1.5381030535005554e-4,
    "length_scale": 3.5801571817223279e-3,
    "time_scale": 256.04089992095830,
}


def close12(a, b):
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


@pytest.fixture(scope="module")
def quartic10():
    return get_problem("saddle_quartic:d=10")


class TestDeriveParams:
    def test_worked_example_matches_high_precision_oracle(self, quartic10):
        params = drv.derive_params(0.01, 0.1, 1.0, 0.5, 1.0, quartic10.objective)
        assert close12(params.chi, FROZEN_PARAMS["chi"])
        assert close12(params.eta, FROZEN_PARAMS["eta"])
        assert close12(params.g_th, FROZEN_PARAMS["g_th"])
        assert close12(params.r, FROZEN_PARAMS["r"])
        assert close12(params.f_th, FROZEN_PARAMS["f_th"])
        assert params.t_th == FROZEN_PARAMS["t_th"]

    def test_log_clamp_gives_chi_12(self):
        obj = make_quadratic(np.eye(1), hessian_lipschitz=1.0, region_radius=5.0).objective
        params = drv.derive_params(0.5, 0.9, 1.0, 0.5, 0.1, obj)
        assert params.chi == 12.0

    def test_eps_above_hypothesis_rejected(self, quartic10):
        bound = 11.0**2 / 12.0
        with pytest.raises(drv.HypothesisViolationError):
            drv.derive_params(2 * bound, 0.1, 1.0, 0.5, 1.0, quartic10.objective)

    def test_c_above_one_rejected(self, quartic10):
        with pytest.raises(ValueError):
            drv.derive_params(0.01, 0.1, 1.5, 0.5, 1.0, quartic10.objective)

    @pytest.mark.parametrize("setting, message", [
        (dict(delta=1.0), r"^delta must satisfy 0 < delta < 1 \(got 1.0\)$"),
        (dict(s=0.0), r"^s must satisfy 0 < s < 1 \(got 0.0\)$"),
        (dict(window_variant="x"), r"^window_variant must be 'proof' or 'algorithm' \(got 'x'\)$"),
    ], ids=["delta", "s", "window_variant"])
    def test_delta_s_and_window_variant_rejected(self, quartic10, setting, message):
        args = dict(eps=0.01, delta=0.1, c=1.0, s=0.5, delta_u=1.0, obj=quartic10.objective)
        with pytest.raises(ValueError, match=message):
            drv.derive_params(**{**args, **setting})

    @pytest.mark.parametrize("delta_u, rule", [
        (0.0, "positive"), (-1.0, "positive"), (math.nan, "positive"), (math.inf, "finite"),
    ], ids=["0.0", "-1.0", "nan", "inf"])
    def test_delta_u_must_be_positive(self, quartic10, delta_u, rule):
        with pytest.raises(ValueError, match=rf"^delta_u must be {rule} \(got {delta_u}\)$"):
            drv.derive_params(0.01, 0.1, 1.0, 0.5, delta_u, quartic10.objective)

    @pytest.mark.parametrize("eps, c, delta_u", [(1e-170, 1.0, 1.0), (1e-120, 1.0, 1.0),
                                                 (0.01, 1e-170, 1.0), (0.01, 1.0, 1e308)],
                             ids=["eps-squared-underflows", "f_th-underflows",
                                  "c-squared-underflows", "chi-overflows"])
    def test_thresholds_out_of_float_range_rejected(self, quartic10, eps, c, delta_u):
        with pytest.raises(ValueError, match="put the derived thresholds out of floating-point"):
            drv.derive_params(eps, 0.1, c, 0.5, delta_u, quartic10.objective)

    @pytest.mark.parametrize("name", ["eps", "delta", "c", "s", "delta_u", "chi", "eta", "r",
                                      "g_th", "f_th", "t_th", "max_iters"])
    def test_params_reject_nan(self, quartic10, name):
        params = drv.derive_params(0.01, 0.1, 1.0, 0.5, 1.0, quartic10.objective)
        with pytest.raises(ValueError):
            dataclasses.replace(params, **{name: math.nan})

    def test_params_refuse_the_delta_u_derive_params_refuses(self, quartic10):
        params = drv.derive_params(0.01, 0.1, 1.0, 0.5, 1.0, quartic10.objective)
        with pytest.raises(ValueError, match=r"^delta_u must be finite \(got inf\)$"):
            dataclasses.replace(params, delta_u=math.inf)

    def test_zero_hessian_lipschitz_rejected(self):
        obj = make_quadratic(np.eye(2)).objective
        with pytest.raises(ValueError):
            drv.derive_params(0.1, 0.1, 1.0, 0.5, 1.0, obj)

    def test_algorithm_window_variant_shrinks_t_th(self, quartic10):
        proof = drv.derive_params(0.01, 0.1, 1.0, 0.5, 1.0, quartic10.objective)
        lit = drv.derive_params(
            0.01, 0.1, 1.0, 0.5, 1.0, quartic10.objective, window_variant="algorithm"
        )
        assert lit.t_th == math.ceil((1 - 0.5) * (proof.chi * 11.0 / math.sqrt(12.0 * 0.01)))
        assert lit.t_th < proof.t_th

    @given(
        eps=st.floats(1e-4, 1.0),
        delta=st.floats(0.01, 0.99),
        c=st.floats(0.05, 1.0),
        s=st.floats(0.05, 0.95),
        delta_u=st.floats(0.01, 100.0),
    )
    def test_invariants_hold(self, eps, delta, c, s, delta_u):
        obj = get_problem("saddle_quartic:d=4").objective
        eps = min(eps, 11.0**2 / 12.0)
        params = drv.derive_params(eps, delta, c, s, delta_u, obj)
        assert params.chi >= 12.0
        assert params.eta == c / 11.0
        assert params.t_th >= 1
        assert close12(params.g_th, eps * math.sqrt(c) / params.chi**2)
        assert close12(params.r, params.g_th / 11.0)


class TestDeriveScales:
    def test_error_bound_substitution(self):
        # value-Lipschitz 2 with unit modulus gives error bound 4
        obj = make_quadratic(np.eye(2), hessian_lipschitz=0.5, region_radius=2.0).objective
        assert obj.constants.value_lipschitz == 2.0
        params = drv.derive_params(0.5, 0.1, 1.0, 0.5, 1.0, obj)
        scales = drv.derive_scales(params, obj, strong_convexity=1.0)
        assert scales.grad_error_bound == 4.0

    def test_hypothesis_boundary(self):
        obj = make_quadratic(np.eye(2), hessian_lipschitz=0.5, region_radius=2.0).objective
        params = drv.derive_params(2.0, 0.1, 1.0, 0.5, 1.0, obj)  # eps = L1^2/L2
        scales = drv.derive_scales(params, obj, strong_convexity=1.0)
        assert close12(scales.curvature_threshold, 1.0)
        assert close12(scales.condition_number, 1.0)

    def test_worked_example_matches_high_precision_oracle(self, quartic10):
        params = drv.derive_params(0.01, 0.1, 1.0, 0.5, 1.0, quartic10.objective)
        scales = drv.derive_scales(params, quartic10.objective, strong_convexity=1.0)
        for name, expected in FROZEN_SCALES.items():
            assert close12(getattr(scales, name), expected), name

    def test_missing_value_lipschitz_leaves_bound_unset(self):
        obj = make_quadratic(np.eye(2), hessian_lipschitz=0.5).objective
        params = drv.derive_params(0.5, 0.1, 1.0, 0.5, 1.0, obj)
        scales = drv.derive_scales(params, obj, strong_convexity=1.0)
        assert scales.grad_error_bound is None
        assert scales.step_rule_residual is None


def one_step(obj, spec, x, eta):
    """The next iterate and the step's row of a one-iteration SCA run from ``x``."""
    with warnings.catch_warnings():
        # one step has no next step for the descent monitor to check
        warnings.filterwarnings("ignore", "eta >= 2C/L1", UserWarning)
        res = drv.run_sca(obj, spec, eta, 0.0, 1, x)
    assert res.termination == "max_iters"
    return res.x_out, res.records[0]


class TestScaStep:
    def test_unit_step_reaches_prox_point(self):
        obj = make_quadratic(np.eye(2)).objective
        x_next, rec = one_step(obj, SurrogateSpec(), np.array([1.0, 0.0]), 1.0)
        assert np.allclose(x_next, [0.0, 0.0])
        assert rec.step_norm == 1.0
        assert rec.err_norm <= 1e-15

    def test_prox_unit_modulus_is_gradient_step(self):
        gen = np.random.default_rng(0)
        a = gen.standard_normal((4, 4))
        obj = make_quadratic(0.5 * (a + a.T)).objective
        x = gen.standard_normal(4)
        for eta in (0.05, 0.3, 1.0):
            x_next, _ = one_step(obj, SurrogateSpec(), x, eta)
            assert np.allclose(x_next, x - eta * obj.gradient(x), atol=1e-12)

    def test_quadratic_split_matches_dense_solve(self):
        obj = make_quadratic(np.diag([2.0, 1.0])).objective
        spec = SurrogateSpec(kind="quadratic_split", strong_convexity=0.01)
        x = np.array([1.0, 1.0])
        x_next, _ = one_step(obj, spec, x, 1.0)
        model_h = np.diag([2.01, 1.01])
        x_hat_oracle = x + np.linalg.solve(model_h, -obj.gradient(x))
        assert np.linalg.norm(x_next - x_hat_oracle) <= 1e-7


class TestGradientError:
    def test_unit_modulus_error_vanishes(self):
        x = np.array([1.0, 0.0])
        g = np.array([1.0, 0.0])
        assert np.all(gradient_error(x, x - g, g) == 0.0)

    def test_worked_example(self):
        x = np.array([1.0, 0.0])
        x_hat = np.array([0.5, 0.0])  # prox with modulus 2 on 0.5||x||^2
        e = gradient_error(x, x_hat, np.array([1.0, 0.0]))
        assert np.allclose(e, [-0.5, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gradient_error(np.zeros(2), np.zeros(3), np.zeros(2))

    def test_inexact_gradient_update_round_trips(self):
        obj = make_saddle_quartic(5).objective
        spec = SurrogateSpec(strong_convexity=2.5)
        stream = RngStream(9)
        for _ in range(10):
            x = stream.uniform_vector(-1.5, 1.5, 5)
            eta = 0.3
            x_next, _ = one_step(obj, spec, x, eta)
            surr = build_surrogate(obj, x, spec)
            e = gradient_error(x, surr.minimizer, surr.anchor_grad)
            reconstructed = x - eta * (surr.anchor_grad + e)
            assert np.linalg.norm(reconstructed - x_next) <= 1e-12


class TestGradientShape:
    """A gradient oracle of the wrong shape is refused where the gradient is read."""

    @staticmethod
    def column_gradient_objective(dim=3):
        def gradient(x):
            return x.reshape(-1, 1)  # (d, 1) instead of (d,)

        return dataclasses.replace(
            make_quadratic(np.eye(dim)).objective, gradient=gradient
        )

    @pytest.mark.parametrize("algo", ["sca", "gd"])
    def test_column_gradient_is_refused(self, algo):
        obj = self.column_gradient_objective()
        with pytest.raises(ValueError, match=r"^gradient has shape \(3, 1\), expected \(3,\)$"):
            if algo == "sca":
                drv.run_sca(obj, SurrogateSpec(), 0.5, 1e-8, 10, np.ones(3))
            else:
                drv.run_gd(obj, 0.5, 1e-8, 10, np.ones(3))


class TestNoNormOnTheHotPath:
    """The loop takes its 2-norms through ``row_dots``, never through ``np.linalg.norm``."""

    @pytest.mark.parametrize("algo", ["sca", "gd"])
    def test_no_linalg_norm_calls(self, algo, monkeypatch):
        prob = get_problem("saddle_quartic:d=10")
        obj = prob.objective
        x0 = prob.canonical_start + sample_uniform_ball(obj.dim, 0.1, RngStream(11))
        eta = 1.0 / obj.constants.grad_lipschitz
        calls = []
        real_norm = np.linalg.norm

        def counting_norm(*args, **kwargs):
            calls.append(1)
            return real_norm(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        if algo == "sca":
            res = drv.run_sca(obj, SurrogateSpec(), eta, 1e-300, 200, x0)
        else:
            res = drv.run_gd(obj, eta, 1e-300, 200, x0)
        monkeypatch.undo()
        assert res.termination == "max_iters"
        assert res.iterations == 200
        assert res.perturbation_count == 0
        assert calls == []


class TestDescentCheck:
    def test_tight_case_eta_half(self):
        # 0.5||x||^2 from (1,0), step to prox point: equality at eta' = 0.375
        assert descent_check(0.5, 0.125, 1.0, 0.5, 1.0, 1.0)
        assert not descent_check(0.5, 0.125 + 1e-9, 1.0, 0.5, 1.0, 1.0)

    def test_tight_case_eta_one(self):
        assert descent_check(0.5, 0.0, 1.0, 1.0, 1.0, 1.0)

    def test_hypothesis_violation(self):
        with pytest.raises(drv.HypothesisViolationError):
            descent_check(1.0, 0.5, 1.0, 2.0, 1.0, 1.0)


class TestRunSca:
    def test_geometric_iteration_count(self):
        obj = make_quadratic(np.eye(2)).objective
        res = drv.run_sca(obj, SurrogateSpec(), 0.5, 1e-6, 100, np.array([1.0, 0.0]))
        # contraction 0.5 per step: first norm <= 1e-6 at exactly 20 steps
        assert res.termination == "gradient_below_threshold"
        assert res.iterations == 20
        assert len(res.records) == 21

    def test_stalls_at_exact_saddle(self):
        prob = get_problem("saddle_quartic:d=3")
        with pytest.warns(UserWarning, match="eta >= 2C/L1"):
            res = drv.run_sca(
                prob.objective, SurrogateSpec(), 0.5, 1e-12, 100, prob.canonical_start
            )
        assert res.termination == "gradient_below_threshold"
        assert res.iterations == 0
        assert np.all(res.x_out == 0.0)

    def test_rosenbrock_reaches_target_monotonically(self):
        prob = get_problem("rosenbrock:d=2")
        obj = prob.objective
        eta = 1.0 / obj.constants.grad_lipschitz
        res = drv.run_sca(obj, SurrogateSpec(), eta, 1e-4, 400_000, prob.canonical_start)
        assert res.termination == "gradient_below_threshold"
        assert res.final_grad_norm <= 1e-4
        assert res.monitors.descent_checked == res.iterations
        assert res.monitors.descent_passed == res.monitors.descent_checked
        fs = [rec.f for rec in res.records]
        assert all(b <= a + 1e-9 * (1 + abs(a)) for a, b in zip(fs, fs[1:]))


class TestPerturbationProtocol:
    """The fire rule and the window test, seen through the drivers.

    The still model's minimizer is its anchor, so a run's iterate moves only
    when a perturbation moves it, and the model sets the value and the gradient
    norm that the two rules read at each point.
    """

    @pytest.fixture
    def params(self, quartic10):
        params = drv.derive_params(0.01, 0.1, 1.0, 0.5, 0.25, quartic10.objective)
        return dataclasses.replace(params, t_th=3, max_iters=9)

    @staticmethod
    def still(grad_norm, drop=0.0):
        """A model that stays at its anchor, with gradient norm ``grad_norm(y)`` there.

        The k-th distinct point it is built at (k = 0 for the start) has the
        value ``0.0 - k drop``, so each perturbation lowers ``f`` by ``drop``.
        """
        values = {}

        def builder(obj, y, spec):
            f = values.setdefault(y.tobytes(), 0.0 - drop * len(values))
            g = np.zeros_like(y)
            g[0] = gn = grad_norm(y)
            return SurrogateAt(f, g, gn, y.copy(), 0.0)

        return SurrogateSpec(kind="custom", builder=builder)

    @staticmethod
    def run(obj, spec, params, **kwargs):
        return drv.run_psca(obj, spec, params, np.zeros(obj.dim), RngStream(0), **kwargs)

    def test_large_gradient_skips(self, quartic10, params):
        spec = self.still(lambda y: 2 * params.g_th)
        res = self.run(quartic10.objective, spec, params)
        assert res.termination == "max_iters" and res.iterations == params.max_iters
        assert res.perturbation_count == 0 and res.events == {}

    def test_fires_at_exactly_g_th(self, quartic10, params):
        # row 0 reads grad_norm == g_th, row 1 the next float above it
        above = math.nextafter(params.g_th, math.inf)
        spec = self.still(lambda y: params.g_th if y[0] < 0.25 else above)
        at, over = drv.run_batch(quartic10.objective, spec, [np.zeros(10), np.full(10, 0.5)],
                                 params=[params] * 2, rngs=[RngStream(0), RngStream(1)])
        assert 0 in at.records.perturbed_at and over.perturbation_count == 0

    def test_window_boundary_is_strict(self, quartic10, params):
        spec = self.still(lambda y: 0.0, drop=params.f_th)
        res = self.run(quartic10.objective, spec, params)
        assert not res.records[params.t_th].perturbed
        assert not res.records[2 * params.t_th + 1].perturbed

    def test_fires_past_window(self, quartic10, params):
        spec = self.still(lambda y: 0.0, drop=params.f_th)
        res = self.run(quartic10.objective, spec, params, keep_iterates_every=1)
        t = params.t_th + 1
        assert sorted(res.records.perturbed_at) == [0, t, 2 * t]
        assert res.termination == "max_iters"
        assert res.perturbation_state.t_noise == 2 * t
        (_, x_before), (_, x_after) = res.iterates[t - 1], res.iterates[t]
        assert float(np.linalg.norm(x_after - x_before)) <= params.r * (1 + 1e-12)

    def test_termination_on_insufficient_decrease(self, quartic10, params):
        spec = self.still(lambda y: 0.0, drop=0.4 * params.f_th)
        res = self.run(quartic10.objective, spec, params)
        assert res.termination == "returned_xtilde"
        assert res.iterations == params.t_th and res.perturbation_count == 1
        assert np.all(res.x_out == 0.0) and res.f_out == 0.0
        assert res.final_f == 0.0 - 0.4 * params.f_th

    def test_no_termination_on_sufficient_decrease(self, quartic10, params):
        spec = self.still(lambda y: 0.0, drop=0.9 * params.f_th)
        res = self.run(quartic10.objective, spec, params)
        assert res.termination == "max_iters" and res.perturbation_count == 3

    def test_decrease_of_exactly_the_threshold_does_not_return(self, quartic10, params):
        drop = (1.0 - params.s) * params.f_th
        assert (0.0 - drop) - 0.0 == -(1.0 - params.s) * params.f_th
        spec = self.still(lambda y: 0.0, drop=drop)
        res = self.run(quartic10.objective, spec,
                       dataclasses.replace(params, max_iters=params.t_th + 2))
        assert res.events[0] == "perturbed;f_before=0"
        assert res.records[params.t_th].f == -drop
        assert res.termination == "max_iters"

    def test_no_termination_before_window_end(self, quartic10, params):
        spec = self.still(lambda y: 0.0)  # no decrease at all
        res = self.run(quartic10.objective, spec,
                       dataclasses.replace(params, max_iters=params.t_th))
        assert res.termination == "max_iters" and res.perturbation_count == 1


class TestRunPsca:
    def test_quadratic_terminates_at_first_window(self):
        prob = get_problem("quadratic:d=10")
        obj = prob.objective
        delta_u = obj.value(prob.canonical_start) - obj.f_star
        params = drv.derive_params(0.1, 0.1, 1.0, 0.5, delta_u, obj, 5000)
        res = drv.run_psca(
            obj, SurrogateSpec(), params, prob.canonical_start, RngStream(0)
        )
        assert res.termination == "returned_xtilde"
        assert res.perturbation_count == 1
        assert res.iterations == params.t_th + 1
        assert np.linalg.norm(obj.gradient(res.x_out)) <= params.g_th

    def test_matches_pgd_with_same_seed(self, quartic10):
        obj = quartic10.objective
        params = drv.derive_params(0.01, 0.1, 1.0, 0.5, 0.25, obj, 1500)
        a = drv.run_psca(
            obj, SurrogateSpec(), params, quartic10.canonical_start, RngStream(21),
            keep_iterates_every=1,
        )
        b = drv.run_pgd(
            obj, params, quartic10.canonical_start, RngStream(21), keep_iterates_every=1
        )
        assert a.iterations == b.iterations >= 1000
        assert a.records == b.records
        assert a.monitors == b.monitors
        assert len(a.iterates) == len(b.iterates)
        for (ta, xa), (tb, xb) in zip(a.iterates, b.iterates):
            assert ta == tb
            assert np.array_equal(xa, xb)
        assert np.array_equal(a.x_out, b.x_out)

    def test_deterministic_replay(self, quartic10):
        obj = quartic10.objective
        params = drv.derive_params(0.01, 0.1, 1.0, 0.5, 0.25, obj, 5000)
        a = drv.run_psca(obj, SurrogateSpec(), params, quartic10.canonical_start, RngStream(5))
        b = drv.run_psca(obj, SurrogateSpec(), params, quartic10.canonical_start, RngStream(5))
        assert a.termination == b.termination
        assert a.records == b.records
        assert np.array_equal(a.x_out, b.x_out)

    def test_monotone_between_perturbations(self, quartic10):
        obj = quartic10.objective
        params = drv.derive_params(0.01, 0.1, 1.0, 0.5, 0.25, obj, 20_000)
        res = drv.run_psca(obj, SurrogateSpec(), params, quartic10.canonical_start, RngStream(1))
        assert res.termination == "returned_xtilde"
        for prev, nxt in zip(res.records[:-1], res.records[1:]):
            if nxt.perturbed:
                continue
            assert nxt.f <= prev.f + 1e-9 * (1 + abs(prev.f))

    def test_region_exit_terminates_with_tag(self):
        prob = get_problem("quadratic_indefinite:d=3")
        obj = prob.objective
        params = drv.derive_params(0.1, 0.1, 1.0, 0.5, 1.0, obj, 5000)
        res = drv.run_psca(obj, SurrogateSpec(), params, prob.canonical_start, RngStream(0))
        assert res.termination == "left_valid_region"

    def test_descent_monitor_disabled_warns(self):
        prob = get_problem("quadratic:d=2")
        obj = prob.objective
        params = drv.derive_params(0.1, 0.1, 1.0, 0.5, 1.0, obj, 50)
        spec = SurrogateSpec(strong_convexity=0.3)  # eta = 1 >= 2C/L1 = 0.6
        with pytest.warns(UserWarning, match="descent monitor"):
            drv.run_psca(obj, spec, params, prob.canonical_start, RngStream(0))


class TestBaselines:
    def test_gd_equals_sca_on_quadratic(self):
        obj = make_quadratic(np.eye(2)).objective
        x0 = np.array([1.0, 0.0])
        gd = drv.run_gd(obj, 0.5, 1e-6, 100, x0)
        sca = drv.run_sca(obj, SurrogateSpec(), 0.5, 1e-6, 100, x0)
        assert gd.iterations == sca.iterations == 20
        assert np.allclose(gd.x_out, sca.x_out, atol=1e-15)

    @pytest.mark.parametrize("name", ["saddle_quartic:d=10", "rosenbrock:d=10"])
    def test_sca_unit_modulus_equals_gd(self, name):
        prob = get_problem(name)
        obj = prob.objective
        x0 = _jittered_start(prob, seed=1)
        eta = 1.0 / obj.constants.grad_lipschitz
        gd = drv.run_gd(obj, eta, 1e-3, 600, x0, keep_iterates_every=1)
        sca = drv.run_sca(obj, SurrogateSpec(), eta, 1e-3, 600, x0, keep_iterates_every=1)
        assert gd.iterations > 50
        assert sca.termination == gd.termination
        assert sca.records == gd.records
        assert sca.monitors == gd.monitors
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(sca.iterates, gd.iterates))
        assert np.array_equal(sca.x_out, gd.x_out)

    def test_gd_stalls_at_exact_saddle(self):
        prob = get_problem("saddle_quartic:d=4")
        res = drv.run_gd(prob.objective, 0.1, 1e-12, 100, prob.canonical_start)
        assert res.iterations == 0
        assert np.all(res.x_out == 0.0)

    def test_pgd_escapes_saddle(self, quartic10):
        obj = quartic10.objective
        params = drv.derive_params(0.01, 0.1, 1.0, 0.5, 0.25, obj, 20_000)
        escaped = 0
        for seed in range(10):
            res = drv.run_pgd(obj, params, quartic10.canonical_start, RngStream(seed))
            escaped += res.termination == "returned_xtilde" and res.f_out <= -0.2
        assert escaped >= 9


def _jittered_start(prob, seed=0):
    return prob.canonical_start + sample_uniform_ball(prob.objective.dim, 0.1, RngStream(seed))


class TestSharedLoop:
    """Behaviour every driver takes from the one outer loop."""

    def test_perturbation_exit_row_describes_the_injected_point(self, quartic10):
        obj = dataclasses.replace(quartic10.objective, region_radius=1e-9)
        params = drv.derive_params(0.01, 0.1, 1.0, 0.5, 1.0, obj, 100)
        spec = SurrogateSpec(strong_convexity=1.0)
        pgd = drv.run_pgd(obj, params, np.zeros(10), RngStream(3))
        psca = drv.run_psca(obj, spec, params, np.zeros(10), RngStream(3))
        for res in (pgd, psca):
            assert res.termination == "left_valid_region"
            assert res.records[-1].perturbed and res.records[-1].f > 0.0
            assert res.final_f == res.f_out
        assert pgd.records[-1] == psca.records[-1]

    def test_a_checking_builder_never_sees_a_point_outside_the_region(self):
        """A perturbation that leaves the ball ends its run on the value and gradient there;
        the run's own model, which here refuses an anchor outside the ball, is not built."""
        obj = make_quadratic(np.diag([1.0, -1.0]), [-1.0, 0.0], hessian_lipschitz=0.05,
                             region_radius=1.0).objective
        params = drv.derive_params(1e-2, 0.1, 1.0, 0.5, 1.0, obj, 2000)
        checking = SurrogateSpec(kind="custom", builder=lambda o, y, s: surrogates.build_surrogate(
            o, y, SurrogateSpec()))
        saddle = np.array([1.0, 0.0])
        for seed in range(4):
            plain = drv.run_psca(obj, SurrogateSpec(), params, saddle, RngStream(seed))
            res = drv.run_psca(obj, checking, params, saddle, RngStream(seed))
            assert res.termination == plain.termination == "left_valid_region"
            assert res.final_f == plain.final_f

    def test_a_terminal_row_builds_no_split_model(self):
        """A ``quadratic_split`` run that ends at ``max_iters`` reads one Hessian per step: its
        declared band, or, on an objective that declares none, its dense Hessian."""
        prob = get_problem("rosenbrock:d=10")

        def counted(name):
            def read(x):
                calls[name] += 1
                return getattr(prob.objective, name)(x)
            return read

        declared = dataclasses.replace(prob.objective, dense_hessian=counted("dense_hessian"),
                                       hessian_band=counted("hessian_band"))
        eta = 1.0 / declared.constants.grad_lipschitz
        for obj, oracle in ((declared, "hessian_band"),
                            (dataclasses.replace(declared, hessian_band=None), "dense_hessian")):
            calls = {"hessian_band": 0, "dense_hessian": 0}
            res = drv.run_sca(obj, SurrogateSpec(kind="quadratic_split"), eta, 1e-12, 5,
                              _jittered_start(prob))
            assert res.termination == "max_iters"
            assert calls == {"hessian_band": 0, "dense_hessian": 0, oracle: 5}

    @pytest.mark.parametrize("name", ["saddle_quartic:d=10", "rosenbrock:d=10"])
    def test_gradient_baselines_tally_every_monitor(self, name):
        prob = get_problem(name)
        obj = prob.objective
        x0 = _jittered_start(prob)
        params = drv.derive_params(1e-2, 0.1, 1.0, 0.5, 0.25, obj, 1500)
        runs = (
            drv.run_gd(obj, 1.0 / obj.constants.grad_lipschitz, 1e-2, 1500, x0),
            drv.run_pgd(obj, params, x0, RngStream(0)),
        )
        for res in runs:
            assert res.termination != "left_valid_region"
            m = res.monitors
            assert m.optimality_checked == m.direction_checked == res.iterations > 0
            assert m.error_bound_checked > 0
            assert m.all_passed()

    @staticmethod
    def serving(objective, served):
        """``objective`` with a value oracle that adds each point it serves to ``served``."""
        def value(x):
            served.update(row.tobytes() for row in np.atleast_2d(x))
            return objective.value(x)

        return dataclasses.replace(objective, value=value)

    @pytest.mark.parametrize("algo", ["sca", "psca", "gd", "pgd"])
    def test_one_value_per_row(self, algo):
        """The value of each row's point is served exactly once, alone or in a stack."""
        prob = get_problem("rosenbrock:d=10")
        served = collections.Counter()
        obj = self.serving(prob.objective, served)
        x0 = _jittered_start(prob)
        params = drv.derive_params(1e-2, 0.1, 1.0, 0.5, 0.25, obj, 30)
        eta = 1.0 / obj.constants.grad_lipschitz
        res = {
            "sca": lambda: drv.run_sca(obj, SurrogateSpec(), eta, 1e-12, 30, x0,
                                       keep_iterates_every=1),
            "psca": lambda: drv.run_psca(obj, SurrogateSpec(), params, x0, RngStream(0),
                                         keep_iterates_every=1),
            "gd": lambda: drv.run_gd(obj, eta, 1e-12, 30, x0, keep_iterates_every=1),
            "pgd": lambda: drv.run_pgd(obj, params, x0, RngStream(0), keep_iterates_every=1),
        }[algo]()
        assert res.termination == "max_iters" and res.perturbation_count == 0
        rows = [x for _, x in res.iterates] + [res.x_out]
        assert len(rows) == len(res.records) == 31
        assert served == collections.Counter(x.tobytes() for x in rows)
        assert res.f_out == res.final_f

    @pytest.mark.parametrize("algo", ["psca", "pgd"])
    def test_a_perturbed_run_reads_each_value_once(self, algo):
        """Two perturbations, a window test passed and one that returns ``x_tilde``, over about
        ten store blocks: each row's value and each ``f_tilde`` is served exactly once."""
        served = collections.Counter()
        obj = self.serving(get_problem("saddle_quartic:d=2").objective, served)
        x0 = np.zeros(2)
        params = drv.derive_params(1e-2, 0.1, 1.0, 0.5, 0.25, obj, 3000)
        if algo == "psca":
            res = drv.run_psca(obj, SurrogateSpec(), params, x0, RngStream(1),
                               keep_iterates_every=1)
        else:
            res = drv.run_pgd(obj, params, x0, RngStream(1), keep_iterates_every=1)
        assert res.termination == "returned_xtilde"
        assert sorted(res.events) == [0, params.t_th + 1, 2 * params.t_th + 1]
        rows = [x for _, x in res.iterates]  # the last is the window test's terminal row
        assert len(rows) == len(res.records)
        points = rows + [x0, res.x_out]  # and the points before the two jumps
        assert served == collections.Counter(x.tobytes() for x in points)

    @pytest.mark.parametrize("algo", ["sca", "psca", "gd", "pgd"])
    def test_region_exit_event_carries_its_message(self, algo):
        prob = get_problem("quadratic_indefinite:d=3")
        obj, x0 = prob.objective, prob.canonical_start
        params = drv.derive_params(0.1, 0.1, 1.0, 0.5, 1.0, obj, 500)
        res = {
            "sca": lambda: drv.run_sca(obj, SurrogateSpec(), 1.0, 1e-2, 500, x0),
            "psca": lambda: drv.run_psca(obj, SurrogateSpec(), params, x0, RngStream(0)),
            "gd": lambda: drv.run_gd(obj, 1.0, 1e-2, 500, x0),
            "pgd": lambda: drv.run_pgd(obj, params, x0, RngStream(0)),
        }[algo]()
        assert res.termination == "left_valid_region"
        assert res.events[res.records[-1].t].startswith(
            "left_valid_region;iterate left the valid region (norm "
        )

    @pytest.mark.parametrize("algo", ["sca", "gd", "pgd", "batch"])
    def test_descent_monitor_disabled_warns(self, algo):
        """The warning names the line that called the driver, or ``run_batch``."""
        prob = get_problem("saddle_quartic:d=4")  # L1 = 11, so eta = 0.5 >= 2C/L1
        obj, x0 = prob.objective, prob.canonical_start
        params = dataclasses.replace(drv.derive_params(0.01, 0.1, 1.0, 0.5, 0.25, obj, 5), eta=0.5)
        with pytest.warns(UserWarning, match="descent monitor") as record:
            if algo == "sca":
                drv.run_sca(obj, SurrogateSpec(), 0.5, 1e-12, 5, x0)
            elif algo == "gd":
                drv.run_gd(obj, 0.5, 1e-12, 5, x0)
            elif algo == "pgd":
                drv.run_pgd(obj, params, x0, RngStream(0))
            else:
                drv.run_batch(obj, SurrogateSpec(), [x0], eta=0.5, max_iters=5,
                              stop_grad_norm=1e-12)
        assert record[0].filename == __file__

    def test_kept_iterates_include_the_terminal_iterate(self):
        prob = get_problem("quadratic:d=10")
        obj = prob.objective
        delta_u = obj.value(prob.canonical_start) - obj.f_star
        params = drv.derive_params(0.1, 0.1, 1.0, 0.5, delta_u, obj, 5000)
        every = params.t_th + 1  # the window test fires at t = t_th + 1
        res = drv.run_psca(obj, SurrogateSpec(), params, prob.canonical_start, RngStream(0),
                           keep_iterates_every=every)
        assert res.termination == "returned_xtilde"
        assert res.records[-1].t % every == 0
        assert res.iterates[-1][0] == res.records[-1].t
        assert [t for t, _ in res.iterates] == [0, every]


class TestOneStepRule:
    """GD and PGD build the unit-modulus proximal model, and each anchor is checked once."""

    @staticmethod
    def count_as_vector(monkeypatch):
        calls = []

        def as_vector(*args, **kwargs):
            calls.append(1)
            return numerics.as_vector(*args, **kwargs)

        for module in (drv, surrogates):
            if hasattr(module, "as_vector"):
                monkeypatch.setattr(module, "as_vector", as_vector)
        return calls

    def test_a_perturbed_run_coerces_only_x0(self, quartic10, monkeypatch):
        obj = quartic10.objective
        params = drv.derive_params(0.01, 0.1, 1.0, 0.5, 1.0, obj, 200)
        runs = {
            "psca": lambda: drv.run_psca(obj, SurrogateSpec(), params, np.zeros(10), RngStream(0)),
            "pgd": lambda: drv.run_pgd(obj, params, np.zeros(10), RngStream(0)),
        }
        for algo, run in runs.items():
            calls = self.count_as_vector(monkeypatch)
            res = run()
            assert res.iterations == 200 and res.perturbation_count == 1, algo
            assert len(calls) == 1, algo

    def test_gradient_baselines_build_one_model_per_anchor(self, quartic10, monkeypatch):
        obj = quartic10.objective
        specs = []

        def build(o, y, spec):
            specs.append(spec)
            return surrogates._build(o, y, spec)

        monkeypatch.setattr(drv, "build_surrogate", build)
        gd = drv.run_gd(obj, 1.0 / obj.constants.grad_lipschitz, 1e-300, 50,
                        _jittered_start(quartic10))
        # anchors t = 0..49, and the terminal row at t = 50 is read through a model too
        assert gd.termination == "max_iters" and len(specs) == 51
        params = drv.derive_params(0.01, 0.1, 1.0, 0.5, 1.0, obj, 200)
        pgd = drv.run_pgd(obj, params, np.zeros(10), RngStream(0))
        # anchors t = 0..199, the injected point of the perturbed iteration, the terminal row
        assert pgd.perturbation_count == 1 and pgd.termination == "max_iters"
        assert len(specs) == 51 + 200 + 1 + 1
        assert all(spec == SurrogateSpec() for spec in specs)

    @pytest.mark.parametrize("radius", [math.inf, 5.0])
    def test_a_non_finite_step_is_named_as_such(self, radius):
        obj = make_quadratic(np.eye(2), hessian_lipschitz=1.0, region_radius=radius).objective

        def nan_minimizer(o, y, spec):
            surr = surrogates.build_surrogate(o, y, SurrogateSpec())
            return dataclasses.replace(surr, minimizer=np.array([np.nan, 0.0]))

        spec = SurrogateSpec(kind="custom", builder=nan_minimizer)
        res = drv.run_sca(obj, spec, 0.5, 1e-12, 10, np.array([1.0, 0.0]))
        assert res.termination == "left_valid_region"
        assert res.events == {
            0: "left_valid_region;iterate left the valid region (the step is not finite)"}

    def test_non_finite_step_leaves_an_unbounded_region(self):
        obj = make_quadratic(np.eye(2), hessian_lipschitz=1.0).objective
        assert math.isinf(obj.region_radius)

        def nan_minimizer(o, y, spec):
            surr = surrogates.build_surrogate(o, y, SurrogateSpec())
            return dataclasses.replace(surr, minimizer=np.full(2, np.nan))

        spec = SurrogateSpec(kind="custom", builder=nan_minimizer)
        res = drv.run_sca(obj, spec, 0.5, 1e-12, 10, np.array([1.0, 0.0]))
        assert res.termination == "left_valid_region"
        assert res.iterations == 0
