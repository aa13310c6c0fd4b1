import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scaopt.numerics import RngStream
from scaopt.problems import make_quadratic, make_saddle_quartic
from scaopt.surrogates import (
    InnerSolveError,
    SurrogateSpec,
    UnsupportedSurrogateError,
    build_surrogate,
    minimize_surrogate,
    resolved_inner_tol,
)

from conftest import sample_in_region


def half_norm_sq():
    return make_quadratic(np.eye(2)).objective


def iterative_split(strong_convexity, **kw):
    """The quadratic_split model as a custom model without its closed form.

    Both built-in kinds are minimized in closed form, so this is how the
    iterative inner solver is exercised on a model with a known minimizer.
    """
    base = SurrogateSpec(kind="quadratic_split", strong_convexity=strong_convexity)

    def builder(obj, y, spec):
        return dataclasses.replace(build_surrogate(obj, y, base), closed_form_minimizer=None)

    return SurrogateSpec(kind="custom", strong_convexity=strong_convexity, builder=builder, **kw)


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            SurrogateSpec(kind="cubic")

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            SurrogateSpec(strong_convexity=0.0)

    def test_tol_resolution(self):
        assert resolved_inner_tol(SurrogateSpec(inner_tol=1e-7), 100.0) == 1e-7
        assert resolved_inner_tol(SurrogateSpec(), 0.5) == 1e-10
        assert resolved_inner_tol(SurrogateSpec(), 40.0) == 1e-10 * 40.0


class TestProximalLinear:
    def test_worked_example(self):
        obj = half_norm_sq()
        y = np.array([1.0, 0.0])
        surr = build_surrogate(obj, y, SurrogateSpec(strong_convexity=2.0))
        # model value is f(y) + g'(x - y) + ||x - y||^2 here
        x = np.array([0.2, -0.4])
        expected = 0.5 + (x[0] - 1.0) + float((x - y) @ (x - y))
        assert abs(surr.value(x) - expected) <= 1e-14
        assert np.allclose(surr.closed_form_minimizer, [0.5, 0.0])

    def test_anchor_gradient_matches_objective(self):
        obj = make_saddle_quartic(4).objective
        stream = RngStream(1)
        for _ in range(20):
            y = sample_in_region(obj, stream)
            surr = build_surrogate(obj, y, SurrogateSpec(strong_convexity=0.7))
            assert np.linalg.norm(surr.gradient(y) - obj.gradient(y)) <= 1e-10

    @given(coords=st.lists(st.floats(-1.9, 1.9), min_size=2, max_size=2))
    def test_anchor_consistency_property(self, coords):
        obj = make_saddle_quartic(2).objective
        y = np.array(coords)
        surr = build_surrogate(obj, y, SurrogateSpec(strong_convexity=3.0))
        assert np.linalg.norm(surr.gradient(y) - obj.gradient(y)) <= 1e-10

    def test_strong_convexity_sampled(self):
        obj = make_saddle_quartic(3).objective
        modulus = 1.5
        surr = build_surrogate(obj, np.zeros(3), SurrogateSpec(strong_convexity=modulus))
        stream = RngStream(2)
        for _ in range(50):
            a = stream.standard_normal(3)
            b = stream.standard_normal(3)
            lhs = float((surr.gradient(a) - surr.gradient(b)) @ (a - b))
            gap = float(np.linalg.norm(a - b) ** 2)
            assert lhs >= modulus * gap * (1.0 - 1e-9)

    def test_minimize_closed_form(self):
        obj = half_norm_sq()
        surr = build_surrogate(obj, np.array([1.0, 0.0]), SurrogateSpec())
        x_hat, report = minimize_surrogate(surr, SurrogateSpec())
        assert np.allclose(x_hat, [0.0, 0.0])
        assert report.iterations == 0


class TestQuadraticSplit:
    def test_model_hessian_clamps_negative_part(self):
        obj = make_quadratic(np.diag([1.0, -1.0])).objective
        spec = SurrogateSpec(kind="quadratic_split", strong_convexity=0.1)
        y = np.array([1.0, 1.0])
        surr = build_surrogate(obj, y, spec)
        # gradient of the model is g + (H_plus + C I)(x - y)
        e1, e2 = np.eye(2)
        jump1 = surr.gradient(y + e1) - surr.gradient(y)
        jump2 = surr.gradient(y + e2) - surr.gradient(y)
        assert np.allclose(jump1, [1.1, 0.0], atol=1e-12)
        assert np.allclose(jump2, [0.0, 0.1], atol=1e-12)

    def test_iterative_matches_dense_solve(self):
        obj = make_quadratic(np.diag([1.0, -1.0])).objective
        y = np.array([1.0, 1.0])
        iterative = iterative_split(0.1)
        dense = SurrogateSpec(kind="quadratic_split", strong_convexity=0.1)
        x_iter, rep = minimize_surrogate(build_surrogate(obj, y, iterative), iterative)
        x_dense, rep_dense = minimize_surrogate(build_surrogate(obj, y, dense), dense)
        assert rep_dense.iterations == 0
        assert rep.iterations > 0
        assert np.linalg.norm(x_iter - x_dense) <= 1e-8

    def test_inner_tolerance_met_on_return(self):
        obj = make_quadratic(np.diag([1.0, -1.0])).objective
        spec = iterative_split(0.1)
        surr = build_surrogate(obj, np.array([1.0, 1.0]), spec)
        x_hat, report = minimize_surrogate(surr, spec)
        assert float(np.linalg.norm(surr.gradient(x_hat))) <= surr.inner_tol
        assert report.residual <= surr.inner_tol

    def test_residual_contract_against_dense_oracle(self):
        gen = np.random.default_rng(4)
        a = gen.standard_normal((5, 5))
        obj = make_quadratic(0.5 * (a + a.T)).objective
        modulus = 0.3
        spec = SurrogateSpec(kind="quadratic_split", strong_convexity=modulus)
        y = gen.standard_normal(5)
        surr = build_surrogate(obj, y, spec)
        x_hat, _ = minimize_surrogate(surr, spec)
        # dense oracle for the exact model minimizer
        hess = obj.dense_hessian(y)
        w, q = np.linalg.eigh(hess)
        model_h = (q * (np.maximum(w, 0.0) + modulus)) @ q.T
        x_exact = y - np.linalg.solve(model_h, obj.gradient(y))
        assert np.linalg.norm(x_hat - x_exact) <= surr.inner_tol / modulus

    def test_requires_dense_hessian(self):
        import dataclasses

        obj = dataclasses.replace(half_norm_sq(), dense_hessian=None)
        with pytest.raises(UnsupportedSurrogateError):
            build_surrogate(obj, np.zeros(2), SurrogateSpec(kind="quadratic_split"))

    def test_inner_budget_exhaustion(self):
        obj = make_quadratic(np.diag([1.0, -1.0])).objective
        spec = iterative_split(0.1, inner_max_iters=1)
        surr = build_surrogate(obj, np.array([1.0, 1.0]), spec)
        with pytest.raises(InnerSolveError) as excinfo:
            minimize_surrogate(surr, spec)
        assert excinfo.value.residual > 0
        assert excinfo.value.iterations == 1


class TestCustomKind:
    def test_requires_builder(self):
        with pytest.raises(UnsupportedSurrogateError):
            build_surrogate(half_norm_sq(), np.zeros(2), SurrogateSpec(kind="custom"))

    def test_builder_is_used(self):
        obj = half_norm_sq()
        base = SurrogateSpec(strong_convexity=2.0)

        def builder(o, y, spec):
            return build_surrogate(o, y, base)

        spec = SurrogateSpec(kind="custom", builder=builder)
        surr = build_surrogate(obj, np.array([1.0, 0.0]), spec)
        assert np.allclose(surr.closed_form_minimizer, [0.5, 0.0])


def test_anchor_outside_region_rejected():
    obj = make_saddle_quartic(2).objective
    with pytest.raises(ValueError):
        build_surrogate(obj, np.array([5.0, 0.0]), SurrogateSpec())
