import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

import scaopt.certify as certify
import scaopt.drivers as drv
from scaopt.certify import (
    DENSE_DIM_LIMIT,
    EigenSolveError,
    SpectralShiftError,
    certify_run,
    classify,
    min_eigenvalue,
    resolve_method,
)
from scaopt.numerics import NonFiniteError, RngStream
from scaopt.problems import get_problem, make_quadratic, make_saddle_quartic
from scaopt.surrogates import SurrogateSpec


class TestMinEigenvalue:
    def test_constant_diag_hessian_dense(self):
        obj = make_quadratic(np.diag([1.0, -1.0])).objective
        lam, vec, residual = min_eigenvalue(obj, np.array([0.3, -0.8]))
        assert lam == -1.0
        assert np.allclose(np.abs(vec), [0.0, 1.0], atol=1e-12)
        assert residual <= 1e-12

    def test_quartic_minimum_has_positive_floor(self):
        obj = make_saddle_quartic(5).objective
        p = np.zeros(5)
        p[1] = 1.0
        lam, _, _ = min_eigenvalue(obj, p)
        assert abs(lam - 1.0) <= 1e-12

    def test_matrix_free_matches_dense_random_50(self):
        gen = np.random.default_rng(17)
        for _ in range(3):
            a = gen.standard_normal((50, 50))
            obj = make_quadratic(0.5 * (a + a.T)).objective
            x = np.zeros(50)
            lam_dense, _, _ = min_eigenvalue(obj, x, method="dense")
            lam_free, _, res = min_eigenvalue(obj, x, method="matrix_free")
            assert abs(lam_dense - lam_free) <= 1e-6
            assert res <= 1e-6 * obj.constants.grad_lipschitz

    def test_understated_lipschitz_is_diagnosed(self):
        obj = make_quadratic(np.diag([2.0, 1.0])).objective
        weak = dataclasses.replace(
            obj,
            constants=dataclasses.replace(obj.constants, grad_lipschitz=0.5),
        )
        with pytest.raises(SpectralShiftError):
            min_eigenvalue(weak, np.zeros(2), method="matrix_free")

    def test_budget_exhaustion_carries_best_estimate(self):
        gen = np.random.default_rng(3)
        a = gen.standard_normal((40, 40))
        obj = make_quadratic(0.5 * (a + a.T)).objective
        with pytest.raises(EigenSolveError) as excinfo:
            min_eigenvalue(obj, np.zeros(40), method="matrix_free", max_iters=2)
        assert math.isfinite(excinfo.value.lambda_min)
        assert excinfo.value.residual > 0

    def test_one_dimensional_matrix_free(self):
        obj = make_quadratic(np.array([[-3.0]])).objective
        lam, vec, residual = min_eigenvalue(obj, np.zeros(1), method="matrix_free")
        assert lam == -3.0
        assert np.array_equal(vec, [1.0])
        assert residual == 0.0

    def test_one_dimensional_understated_lipschitz_is_diagnosed(self):
        obj = make_quadratic(np.array([[2.0]])).objective
        weak = dataclasses.replace(
            obj,
            constants=dataclasses.replace(obj.constants, grad_lipschitz=1.0),
        )
        with pytest.raises(SpectralShiftError):
            min_eigenvalue(weak, np.zeros(1), method="matrix_free")

    def test_hvp_budget_is_respected(self):
        gen = np.random.default_rng(3)
        a = gen.standard_normal((40, 40))
        obj = make_quadratic(0.5 * (a + a.T)).objective
        calls = []
        counted = dataclasses.replace(obj, hvp=lambda x, v: calls.append(1) or obj.hvp(x, v))
        with pytest.raises(EigenSolveError) as excinfo:
            min_eigenvalue(counted, np.zeros(40), method="matrix_free", max_iters=7)
        assert len(calls) == 7
        vec = excinfo.value.eigenvector
        assert abs(float(np.linalg.norm(vec)) - 1.0) <= 1e-12
        assert abs(float(vec @ obj.hvp(None, vec)) - excinfo.value.lambda_min) <= 1e-12

    def test_budget_exhaustion_reports_the_best_estimate_bit_for_bit(self):
        """Four products, of which several set a new smallest Rayleigh quotient: the error
        carries the last of them, normalized, and its residual, bit for bit. The products
        ARPACK asks for follow the BLAS kernel, so the expected bits are recomputed here
        from the products it asked for."""
        gen = np.random.default_rng(11)
        a = gen.standard_normal((6, 6))
        obj = make_quadratic(0.5 * (a + a.T)).objective
        products = []

        def hvp(x, v):
            hv = obj.hvp(x, v)
            products.append((v.copy(), hv.copy()))
            return hv

        with pytest.raises(EigenSolveError) as excinfo:
            min_eigenvalue(dataclasses.replace(obj, hvp=hvp), np.zeros(6),
                           method="matrix_free", max_iters=4)
        assert len(products) == 4
        quotient, minima = math.inf, []
        for v, hv in products:
            q = float(v @ hv) / float(v @ v)
            if q < quotient:
                quotient = q
                minima.append((q, v, hv))
        assert len(minima) >= 2
        lam, v, hv = minima[-1]
        scale = 1.0 / float(np.linalg.norm(v))
        err = excinfo.value
        assert err.lambda_min == lam
        assert err.eigenvector.tolist() == (scale * v).tolist()
        assert err.residual == scale * float(np.linalg.norm(hv - lam * v))

    def test_matrix_factorization_above_dense_limit(self):
        # the Lanczos path certifies where the former power iteration ran out of budget
        prob = get_problem("matrix_factorization:d=30,r=8")
        obj, x = prob.objective, prob.canonical_start
        assert resolve_method(obj) == "matrix_free"
        lam, _, residual = min_eigenvalue(obj, x, method="auto")
        lam_dense, _, _ = min_eigenvalue(obj, x, method="dense")
        assert abs(lam - lam_dense) <= 1e-6
        assert residual <= 100.0 * 1e-8 * obj.constants.grad_lipschitz

    def test_matrix_free_replays_bitwise(self):
        prob = get_problem("rosenbrock:d=256")
        first = min_eigenvalue(prob.objective, prob.canonical_start, method="matrix_free")
        second = min_eigenvalue(prob.objective, prob.canonical_start, method="matrix_free")
        assert first[0] == second[0]
        assert np.array_equal(first[1], second[1])

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_bad_tol_is_refused_before_any_hvp(self, tol):
        obj = make_saddle_quartic(4).objective
        calls = []

        def hvp(x, v):
            calls.append(1)
            return obj.hvp(x, v)

        with pytest.raises(ValueError, match="tol must be finite and positive"):
            min_eigenvalue(dataclasses.replace(obj, hvp=hvp), np.zeros(4), tol=tol,
                           method="matrix_free")
        assert calls == []

    @pytest.mark.parametrize("method", ["dense", "matrix_free"])
    @pytest.mark.parametrize("max_iters", [0, -3, 2.5])
    def test_a_budget_that_is_not_a_positive_integer_is_refused(self, max_iters, method):
        obj, calls = counted(make_saddle_quartic(4).objective, "hvp")
        with pytest.raises(ValueError, match="^max_iters must be a positive integer$"):
            min_eigenvalue(obj, np.zeros(4), max_iters=max_iters, method=method)
        assert calls["hvp"] == 0

    def test_an_exhausted_budget_is_named(self):
        gen = np.random.default_rng(3)
        a = gen.standard_normal((40, 40))
        obj = make_quadratic(0.5 * (a + a.T)).objective
        with pytest.raises(EigenSolveError) as excinfo:
            min_eigenvalue(obj, np.zeros(40), method="matrix_free", max_iters=np.int64(2))
        assert str(excinfo.value).startswith(
            "Lanczos stopped after 2 of 2 Hessian-vector products (budget exhausted); "
            "best estimate has residual ")

    def test_dense_requested_without_hessian(self):
        obj = make_quadratic(np.eye(2)).objective
        stripped = dataclasses.replace(obj, dense_hessian=None, hessian_band=None)
        with pytest.raises(ValueError):
            min_eigenvalue(stripped, np.zeros(2), method="dense")

    def test_auto_without_a_dense_hessian_is_matrix_free(self):
        obj = make_quadratic(np.diag([-1.0, 2.0])).objective
        stripped, calls = counted(dataclasses.replace(obj, dense_hessian=None,
                                                           hessian_band=None), "hvp")
        assert resolve_method(stripped) == "matrix_free"
        lam, _, _ = min_eigenvalue(stripped, np.zeros(2))
        assert abs(lam + 1.0) <= 1e-8 and calls["hvp"] > 0
        assert classify(stripped, np.zeros(2), eps=0.1).method == "matrix_free"

    @pytest.mark.parametrize("make", [lambda: get_problem("quadratic:d=250"),
                                      lambda: make_quadratic(3.0 * np.eye(250))],
                             ids=["registry", "3I"])
    def test_a_hessian_equal_to_l1_times_the_identity_certifies_matrix_free(self, make):
        """``L1 I - H`` is zero, so ARPACK stops at its first product: the start vector is the
        eigenvector, and the pair passes the residual bar."""
        obj = make().objective
        lip_grad = obj.constants.grad_lipschitz
        assert resolve_method(obj) == "matrix_free"
        lam, vec, residual = min_eigenvalue(obj, np.zeros(250))
        assert abs(lam - lip_grad) <= 1e-15 * lip_grad
        assert abs(float(np.linalg.norm(vec)) - 1.0) <= 1e-15
        assert residual <= 100.0 * 1e-8 * lip_grad

    @pytest.mark.parametrize("products", [1, 3])
    def test_an_arpack_error_is_an_eigen_solve_error(self, products, monkeypatch):
        """Any ARPACK error but the zero first product of ``L1 I`` carries the best estimate."""
        import scipy.sparse.linalg as linalg

        def eigsh(op, v0, **kwargs):
            for _ in range(products):
                op.matvec(v0)
            raise linalg.ArpackError(-9)

        monkeypatch.setattr(linalg, "eigsh", eigsh)
        obj = make_quadratic(np.diag(np.arange(1.0, 251.0))).objective
        with pytest.raises(EigenSolveError, match="ARPACK error -9") as excinfo:
            min_eigenvalue(obj, np.zeros(250))
        err = excinfo.value
        assert math.isfinite(err.lambda_min) and math.isfinite(err.residual) and err.residual > 0
        assert abs(float(np.linalg.norm(err.eigenvector)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("method", ["bogus", "tridiagonal"])
    def test_unknown_method_is_refused(self, method):
        obj = make_quadratic(np.eye(2)).objective
        with pytest.raises(ValueError, match=f"^unknown method '{method}'$"):
            resolve_method(obj, method)
        with pytest.raises(ValueError, match=f"^unknown method '{method}'$"):
            min_eigenvalue(obj, np.zeros(2), method=method)


def counted(obj, *names):
    """``obj`` with each named oracle wrapped to count its calls in the returned dict."""
    calls = dict.fromkeys(names, 0)

    def wrap(name):
        fn = getattr(obj, name)

        def oracle(*args):
            calls[name] += 1
            return fn(*args)
        return oracle

    return dataclasses.replace(obj, **{name: wrap(name) for name in names}), calls


def with_hessian(dim, h, **fields):
    """A ``dim``-variable objective, gradient 0 at the origin, whose dense Hessian is ``h``."""
    obj = make_quadratic(np.eye(dim)).objective
    return dataclasses.replace(obj, dense_hessian=lambda x: h, hessian_band=None, **fields)


def jittered_points(prob, count):
    """The canonical start and ``count`` uniform jitters of it inside the region."""
    obj, start = prob.objective, prob.canonical_start
    points = [start]
    for seed in range(count):
        x = np.clip(start + RngStream(seed).uniform_vector(-0.5, 0.5, obj.dim), -2.0, 2.0)
        assert obj.in_region(x)
        points.append(x)
    return points


class TestTridiagonalRoute:
    """Above ``DENSE_DIM_LIMIT``, a declared tridiagonal Hessian is diagonalized on its band."""

    @pytest.mark.parametrize("dim", [256, 300])
    def test_rosenbrock_band_matches_dense(self, dim):
        prob = get_problem(f"rosenbrock:d={dim}")
        obj, calls = counted(prob.objective, "dense_hessian", "hvp")
        tol = 1e-8 * obj.constants.grad_lipschitz
        assert resolve_method(obj) == "tridiagonal"
        for x in jittered_points(prob, 3):
            calls.update(dense_hessian=0, hvp=0)
            lam, vec, residual = min_eigenvalue(obj, x)
            assert calls == {"dense_hessian": 1, "hvp": 0}
            lam_dense, _, _ = min_eigenvalue(prob.objective, x, method="dense")
            assert abs(lam - lam_dense) <= 1e-10
            assert residual <= 100.0 * tol
            assert abs(float(np.linalg.norm(vec)) - 1.0) <= 1e-12
            h = prob.objective.dense_hessian(x)
            assert abs(float(np.linalg.norm(h @ vec - lam * vec)) - residual) <= 1e-12
            eps = 2.0 * float(np.linalg.norm(obj.gradient(x)))
            assert classify(obj, x, eps=eps).method == "tridiagonal"

    def test_declared_hessian_off_the_band_is_refused(self):
        dim = DENSE_DIM_LIMIT + 1
        gen = np.random.default_rng(5)
        sub = gen.uniform(-1.0, 1.0, dim - 1)
        h = np.diag(gen.uniform(-2.0, 2.0, dim)) + np.diag(sub, -1) + np.diag(sub, 1)
        h[7, 2] = h[2, 7] = 0.5
        declared = dataclasses.replace(make_quadratic(h).objective, tridiagonal_hessian=True)
        obj, calls = counted(declared, "dense_hessian", "hvp")
        assert resolve_method(obj) == "tridiagonal"
        refused = "declares tridiagonal_hessian, but its dense Hessian is not tridiagonal"
        for certify_point in (lambda x: min_eigenvalue(obj, x),
                              lambda x: classify(obj, x, eps=1.0)):
            calls.update(dense_hessian=0, hvp=0)
            with pytest.raises(ValueError, match=refused):
                certify_point(np.zeros(dim))
            assert calls == {"dense_hessian": 1, "hvp": 0}

    def test_dense_method_never_runs_the_band_solver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigh_tridiagonal called")

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", refuse)
        prob = get_problem("rosenbrock:d=256")
        assert resolve_method(prob.objective, "dense") == "dense"
        lam, _, _ = min_eigenvalue(prob.objective, prob.canonical_start, method="dense")
        h = prob.objective.dense_hessian(prob.canonical_start)
        assert lam == float(np.linalg.eigh(h)[0][0])

    def test_matrix_factorization_reads_no_dense_hessian(self):
        prob = get_problem("matrix_factorization:d=30,r=8")
        obj, calls = counted(prob.objective, "dense_hessian")
        assert resolve_method(obj) == "matrix_free"
        min_eigenvalue(obj, prob.canonical_start)
        assert classify(obj, prob.canonical_start, eps=1e3).method == "matrix_free"
        assert calls == {"dense_hessian": 0}


class TestExactRoutesCheckTheHessian:
    """The dense and tridiagonal routes refuse a Hessian of the wrong shape or with NaN/inf."""

    DIMS = {"dense": 3, "tridiagonal": DENSE_DIM_LIMIT + 1}

    @pytest.mark.parametrize("route", ["dense", "tridiagonal"])
    def test_wrong_shape_is_refused(self, route):
        dim = self.DIMS[route]
        obj = with_hessian(dim, -np.eye(dim + 1), tridiagonal_hessian=route == "tridiagonal")
        assert resolve_method(obj) == route
        shapes = rf"dense Hessian has shape \({dim + 1}, {dim + 1}\), expected \({dim}, {dim}\)"
        with pytest.raises(ValueError, match=shapes):
            min_eigenvalue(obj, np.zeros(dim))
        with pytest.raises(ValueError, match=shapes):
            classify(obj, np.zeros(dim), eps=0.1)

    @pytest.mark.parametrize("route", ["dense", "tridiagonal"])
    @pytest.mark.parametrize("entry", [(0, 0), (1, 0), (2, 0)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_lower_triangle_is_refused(self, route, entry, bad):
        dim = self.DIMS[route]
        h = np.diag(np.arange(1.0, dim + 1.0))
        h[entry] = bad
        obj, calls = counted(with_hessian(dim, h, tridiagonal_hessian=route == "tridiagonal"),
                             "hvp")
        with pytest.raises(NonFiniteError):
            min_eigenvalue(obj, np.zeros(dim))
        with pytest.raises(NonFiniteError):
            classify(obj, np.zeros(dim), eps=0.1)
        assert calls == {"hvp": 0}

    @pytest.mark.parametrize("route", ["dense", "tridiagonal"])
    def test_non_finite_entries_above_the_diagonal_are_ignored(self, route):
        dim = self.DIMS[route]
        h = np.diag(np.arange(1.0, dim + 1.0))
        h[0, 1] = h[0, 2] = math.nan
        obj = with_hessian(dim, h, tridiagonal_hessian=route == "tridiagonal")
        assert min_eigenvalue(obj, np.zeros(dim))[0] == 1.0
        cert = classify(obj, np.zeros(dim), eps=0.1)
        assert (cert.lambda_min, cert.method) == (1.0, route)


class TestClassify:
    def test_saddle_origin_is_strict_saddle(self):
        obj = make_saddle_quartic(4).objective
        cert = classify(obj, np.zeros(4), eps=0.01)
        assert cert.classification == "eps_fosp_strict_saddle"
        assert cert.grad_norm == 0.0
        assert abs(cert.gamma - math.sqrt(12.0 * 0.01)) <= 1e-15
        assert cert.lambda_min == -1.0
        assert cert.method == "dense"

    def test_minimum_is_sosp(self):
        obj = make_saddle_quartic(4).objective
        p = np.zeros(4)
        p[1] = -1.0
        cert = classify(obj, p, eps=0.01)
        assert cert.classification == "eps_sosp"
        assert cert.lambda_min >= -cert.gamma

    def test_large_gradient_skips_eigen_path(self):
        obj = make_saddle_quartic(4).objective
        x = np.full(4, 0.5)
        eps = float(np.linalg.norm(obj.gradient(x))) / 2.0
        cert = classify(obj, x, eps=eps)
        assert cert.classification == "not_fosp"
        assert cert.lambda_min is None
        assert cert.lambda_min_residual is None
        assert cert.method is None

    def test_classes_are_exhaustive_and_exclusive(self):
        obj = make_saddle_quartic(3).objective
        stream = RngStream(0)
        seen = set()
        for _ in range(30):
            x = stream.uniform_vector(-1.5, 1.5, 3)
            cert = classify(obj, x, eps=0.5)
            seen.add(cert.classification)
            if cert.classification == "not_fosp":
                assert cert.grad_norm > 0.5
            else:
                assert cert.grad_norm <= 0.5
                if cert.classification == "eps_sosp":
                    assert cert.lambda_min >= -cert.gamma
                else:
                    assert cert.lambda_min < -cert.gamma
        assert "not_fosp" in seen

    def test_method_reports_the_forced_solver(self):
        obj = make_saddle_quartic(4).objective
        assert classify(obj, np.zeros(4), eps=0.01).method == "dense"

    def test_method_reports_auto_above_dense_limit(self):
        prob = get_problem("matrix_factorization:d=30,r=8")
        cert = classify(prob.objective, prob.canonical_start, eps=1e3)
        assert cert.lambda_min is not None
        assert cert.method == "matrix_free"

    def test_bad_eps(self):
        obj = make_saddle_quartic(3).objective
        for eps in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^eps must be positive and finite, got "):
                classify(obj, np.zeros(3), eps=eps)

    def test_nan_gradient_is_refused(self):
        obj = dataclasses.replace(make_quadratic(np.eye(2)).objective,
                                  gradient=lambda x: np.array([np.nan, 0.0]))
        with pytest.raises(NonFiniteError, match="gradient norm is nan"):
            classify(obj, np.zeros(2), eps=0.01)

    def test_gradient_of_the_wrong_shape_is_refused(self):
        obj = dataclasses.replace(make_quadratic(np.eye(2)).objective,
                                  gradient=lambda x: np.zeros(3))
        with pytest.raises(ValueError, match=r"gradient has shape \(3,\), expected \(2,\)"):
            classify(obj, np.zeros(2), eps=0.01)


class TestCertifyRun:
    def test_escape_run_certifies_sosp(self):
        prob = get_problem("saddle_quartic:d=10")
        obj = prob.objective
        params = drv.derive_params(0.01, 0.1, 1.0, 0.5, 0.25, obj, 20_000)
        res = drv.run_psca(obj, SurrogateSpec(), params, prob.canonical_start, RngStream(2))
        cert = certify_run(obj, res, 0.01)
        assert cert.classification == "eps_sosp"
        assert res.f_out <= -0.2

    def test_stalled_run_certifies_strict_saddle(self):
        prob = get_problem("saddle_quartic:d=4")
        with pytest.warns(UserWarning, match="eta >= 2C/L1"):
            res = drv.run_sca(prob.objective, SurrogateSpec(), 0.5, 1e-12, 100,
                              prob.canonical_start)
        cert = certify_run(prob.objective, res, 0.01)
        assert cert.classification == "eps_fosp_strict_saddle"

    def test_unconverged_run_is_not_fosp(self):
        prob = get_problem("rosenbrock:d=2")
        obj = prob.objective
        eta = 1.0 / obj.constants.grad_lipschitz
        res = drv.run_sca(obj, SurrogateSpec(), eta, 1e-12, 5, prob.canonical_start)
        assert res.termination == "max_iters"
        cert = certify_run(obj, res, 1e-6)
        assert cert.classification == "not_fosp"

    def test_region_exit_refused(self):
        prob = get_problem("quadratic_indefinite:d=3")
        obj = prob.objective
        params = drv.derive_params(0.1, 0.1, 1.0, 0.5, 1.0, obj, 5000)
        res = drv.run_psca(obj, SurrogateSpec(), params, prob.canonical_start, RngStream(0))
        assert res.termination == "left_valid_region"
        with pytest.raises(ValueError):
            certify_run(obj, res, 0.1)
