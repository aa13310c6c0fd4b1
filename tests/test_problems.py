import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scaopt import problems
from scaopt.numerics import RngStream
from scaopt.problems import (
    Objective,
    Smoothness,
    get_problem,
    make_matrix_factorization,
    make_quadratic,
    make_rosenbrock,
    make_saddle_quartic,
    registry_names,
    validate_contracts,
)

from conftest import rel_err, sample_in_region


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestQuadratic:
    def test_indefinite_diag(self):
        inst = make_quadratic(np.diag([1.0, -1.0]))
        obj = inst.objective
        assert np.allclose(obj.gradient(np.zeros(2)), 0.0)
        assert np.linalg.eigvalsh(obj.dense_hessian(np.array([3.0, -2.0])))[0] == -1.0
        assert inst.known_saddles  # origin registered

    def test_identity_values(self):
        obj = make_quadratic(np.eye(2)).objective
        x = np.array([3.0, 4.0])
        assert obj.value(x) == 12.5
        assert np.allclose(obj.gradient(x), [3.0, 4.0])

    def test_declared_grad_lipschitz_is_spectral_norm(self):
        gen = np.random.default_rng(3)
        a = gen.standard_normal((10, 10))
        h = 0.5 * (a + a.T)
        obj = make_quadratic(h).objective
        # independent oracle: SVD-based spectral norm
        assert abs(obj.constants.grad_lipschitz - np.linalg.norm(h, 2)) <= 1e-10

    def test_asymmetric_rejected(self):
        h = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            make_quadratic(h)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_h_is_refused(self, bad):
        with pytest.raises(ValueError, match="^H must be finite"):
            make_quadratic(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_hvp_ignores_point(self):
        obj = make_quadratic(np.diag([2.0, 3.0])).objective
        v = np.array([1.0, -1.0])
        assert np.allclose(obj.hvp(np.array([5.0, 5.0]), v), [2.0, -3.0])


class TestSaddleQuartic:
    def test_origin_is_strict_saddle(self):
        obj = make_saddle_quartic(4).objective
        z = np.zeros(4)
        assert obj.value(z) == 0.0
        assert np.allclose(obj.gradient(z), 0.0)
        assert np.linalg.eigvalsh(obj.dense_hessian(z))[0] == -1.0

    def test_minimum(self):
        obj = make_saddle_quartic(5).objective
        p = np.zeros(5)
        p[1] = 1.0
        assert obj.value(p) == -0.25
        assert np.allclose(obj.gradient(p), 0.0)
        assert np.allclose(np.diag(obj.dense_hessian(p)), [1.0, 2.0, 1.0, 1.0, 1.0])

    def test_hessian_lipschitz_ratio_within_declared(self):
        inst = make_saddle_quartic(2)
        report = validate_contracts(inst, RngStream(1), samples=10_000)
        assert report.hessian_lipschitz_observed <= 12.0
        assert report.ok

    def test_dim_too_small(self):
        with pytest.raises(ValueError):
            make_saddle_quartic(1)

    @staticmethod
    def formula(x):
        """The quartic's value at a 1-D point, on Python floats, its powers written as products."""
        a, b = x[:2].tolist()
        tails = float(np.add.reduce(x[2:] * x[2:]))
        return 0.5 * (a * a) - 0.5 * (b * b) + 0.25 * ((b * b) * (b * b)) + 0.5 * tails

    @pytest.mark.parametrize("dim", [2, 3, 10])
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_value_rows_are_the_formula(self, dim, rows, seed):
        """Each row of a stack's value, and each 1-D call, has the bits of the formula."""
        obj = make_saddle_quartic(dim).objective
        xs = np.random.default_rng(seed).uniform(-2.0, 2.0, (rows, dim))
        expected = [self.formula(x) for x in xs]
        assert np.array_equal(bits(obj.value(xs)), bits(expected))
        assert np.array_equal(bits([obj.value(x) for x in xs]), bits(expected))
        assert all(type(obj.value(x)) is float for x in xs)

    def test_value_overflow_gives_inf_or_nan_without_raising(self):
        obj = make_saddle_quartic(4).objective
        xs = np.array([[1e200, 0, 0, 0], [0, 1e200, 0, 0], [1e200, 1e200, 0, 0],
                       [0, 0, 1e200, 0], [0, -1e100, 0, 0], [1e154, 0, 1e154, 0],
                       [1.0, 2.0, 3.0, 4.0]])
        expected = [math.inf, math.nan, math.nan, math.inf, math.inf, 1e308, 15.0]
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(obj.value(xs), expected, equal_nan=True)
            assert np.array_equal([obj.value(x) for x in xs], expected, equal_nan=True)


class TestMatrixFactorization:
    @pytest.fixture
    def instance(self):
        gen = np.random.default_rng(8)
        v_star = gen.standard_normal((6, 2))
        return make_matrix_factorization(v_star @ v_star.T, 2), v_star

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_m_is_refused(self, bad):
        with pytest.raises(ValueError, match="^M must be finite"):
            make_matrix_factorization(np.array([[bad, 0.0], [0.0, 1.0]]), 1)

    def test_asymmetric_m_is_refused_naming_the_tolerance(self):
        m = np.array([[1.0, 1e-11], [0.0, 1.0]])
        with pytest.raises(ValueError,
                           match=r"^M must be symmetric \(\|\|M - M'\|\|_inf <= 1e-12\)$"):
            make_matrix_factorization(m, 1)
        make_matrix_factorization(np.array([[1.0, 5e-13], [0.0, 1.0]]), 1)  # within the tolerance

    def test_zero_is_strict_saddle_with_top_eigenvalue(self, instance):
        inst, v_star = instance
        obj = inst.objective
        m = v_star @ v_star.T
        zero = np.zeros(obj.dim)
        assert np.allclose(obj.gradient(zero), 0.0)
        lam_min = np.linalg.eigvalsh(obj.dense_hessian(zero))[0]
        assert abs(lam_min - (-np.linalg.eigvalsh(m)[-1])) <= 1e-10

    def test_exact_factorization_is_global_minimum(self, instance):
        inst, v_star = instance
        obj = inst.objective
        x = v_star.reshape(obj.dim, order="F")
        assert obj.value(x) <= 1e-24
        assert np.linalg.norm(obj.gradient(x)) <= 1e-11
        assert obj.f_star == 0.0

    def test_gradient_matches_finite_differences(self, instance):
        from scaopt.numerics import finite_diff_gradient

        inst, _ = instance
        obj = inst.objective
        stream = RngStream(2)
        for _ in range(20):
            x = sample_in_region(obj, stream, scale=1.5)
            fd = finite_diff_gradient(obj.value, x)
            assert rel_err(fd, obj.gradient(x)) <= 1e-5

    def test_not_psd_rejected(self):
        with pytest.raises(ValueError):
            make_matrix_factorization(np.diag([1.0, -0.5]), 1)

    def test_hvp_matches_dense(self, instance):
        inst, _ = instance
        obj = inst.objective
        stream = RngStream(3)
        x = sample_in_region(obj, stream, scale=1.0)
        v = stream.standard_normal(obj.dim)
        assert np.allclose(obj.hvp(x, v), obj.dense_hessian(x) @ v, atol=1e-10)


class TestRosenbrock:
    def test_known_minimum(self):
        obj = make_rosenbrock(4).objective
        ones = np.ones(4)
        assert obj.value(ones) == 0.0
        assert np.allclose(obj.gradient(ones), 0.0)

    def test_value_at_zero(self):
        assert make_rosenbrock(2).objective.value(np.zeros(2)) == 1.0

    def test_gradient_matches_finite_differences(self):
        from scaopt.numerics import finite_diff_gradient

        obj = make_rosenbrock(5).objective
        stream = RngStream(4)
        for _ in range(20):
            x = stream.uniform_vector(-2.0, 2.0, obj.dim)
            fd = finite_diff_gradient(obj.value, x)
            assert rel_err(fd, obj.gradient(x)) <= 1e-5

    def test_hvp_matches_dense(self):
        obj = make_rosenbrock(7).objective
        stream = RngStream(5)
        x = stream.uniform_vector(-2.0, 2.0, obj.dim)
        v = stream.standard_normal(obj.dim)
        assert np.allclose(obj.hvp(x, v), obj.dense_hessian(x) @ v, atol=1e-9)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=40),
           st.lists(st.sampled_from([0.0, -0.0]), max_size=40))
    def test_dense_hessian_has_the_bits_of_the_diag_sum(self, coords, zeros):
        """The in-place fill equals the sum of three ``np.diag`` matrices byte for byte.

        ``zeros`` overwrites the leading coordinates with signed zeros, so the
        off band holds both ``+0.0`` and ``-0.0`` before the sum's ``+ 0.0``.
        """
        x = np.array(coords)
        x[: len(zeros)] = zeros[: x.size]
        obj = make_rosenbrock(x.size).objective
        with np.errstate(over="ignore", invalid="ignore"):
            off = -400.0 * x[:-1]
            diag = np.full_like(x, 200.0)
            diag[0] = 0.0
            diag[:-1] += 1200.0 * x[:-1] ** 2 - 400.0 * x[1:] + 2.0
            expected = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            got = obj.dense_hessian(x)
        assert got.tobytes() == expected.tobytes()


class TestRegistry:
    def test_names(self):
        assert set(registry_names()) >= {
            "quadratic",
            "quadratic_indefinite",
            "saddle_quartic",
            "matrix_factorization",
            "rosenbrock",
        }

    def test_parse_with_params(self):
        assert get_problem("saddle_quartic:d=7").objective.dim == 7
        assert get_problem("matrix_factorization:d=5,r=2").objective.dim == 10

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown problem"):
            get_problem("banana")

    def test_bad_param(self):
        with pytest.raises(ValueError):
            get_problem("rosenbrock:q=3")

    @pytest.mark.parametrize("item", ["d=abc", "d=2.5", "d", "=3"])
    def test_parameters_are_integers(self, item):
        spec = f"saddle_quartic:{item}"
        with pytest.raises(ValueError) as excinfo:
            get_problem(spec)
        assert str(excinfo.value) == f"bad problem parameter '{item}' in '{spec}'"

    @pytest.mark.parametrize("spec", ["rosenbrock:d=10,d=3", "matrix_factorization:d=6,r=2,d=6"])
    def test_a_repeated_parameter_is_refused(self, spec):
        with pytest.raises(ValueError, match=f"^repeated problem parameter 'd' in '{spec}'$"):
            get_problem(spec)

    @pytest.mark.parametrize("spec, least", [("quadratic:d=0", 1), ("quadratic:d=-1", 1),
                                             ("quadratic_indefinite:d=0", 2),
                                             ("quadratic_indefinite:d=1", 2)])
    def test_quadratics_refuse_too_small_a_dim(self, spec, least):
        d = spec.partition("d=")[2]
        with pytest.raises(ValueError, match=f"^dim must be >= {least}, got {d}$"):
            get_problem(spec)

    def test_a_spec_is_built_once(self):
        assert get_problem("matrix_factorization:d=5,r=2") is get_problem(
            "matrix_factorization:d=5,r=2"
        )

    @pytest.mark.parametrize("spec", ["saddle_quartic:d=3", "quadratic:d=2", "rosenbrock:d=3"])
    def test_shared_points_are_read_only(self, spec):
        inst = get_problem(spec)
        points = [inst.canonical_start, *inst.known_saddles, *(p for p, _ in inst.known_minima)]
        for p in points:
            with pytest.raises(ValueError, match="read-only"):
                p[0] = 5.0

    @pytest.mark.parametrize("spec", ["banana", "rosenbrock:q=3", "saddle_quartic:d=1"])
    def test_a_bad_spec_raises_every_time(self, spec):
        for _ in range(2):
            with pytest.raises(ValueError):
                get_problem(spec)

    def test_instances_stay_consistent(self):
        # known points were verified at build time; spot-check one invariant here
        inst = get_problem("quadratic:d=4")
        p, f = inst.known_minima[0]
        assert abs(inst.objective.value(p) - f) <= 1e-12


class TestRegion:
    @staticmethod
    def objective(order):
        return Objective(dim=2, value=lambda x: 0.0, gradient=lambda x: np.zeros(2),
                         hvp=lambda x, v: np.zeros(2), constants=Smoothness(1.0, 1.0),
                         region_radius=1.0, region_norm=order)

    @pytest.mark.parametrize("order", [1, 3, -np.inf, 0.5])
    def test_orders_other_than_2_and_inf_are_rejected(self, order):
        with pytest.raises(ValueError, match="region_norm must be 2 or inf"):
            self.objective(order)

    @pytest.mark.parametrize("order", [2, 2.0, np.inf])
    def test_orders_2_and_inf_are_accepted(self, order):
        assert self.objective(order).in_region(np.array([0.8, 0.8])) == (order == np.inf)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_unbounded_region_holds_only_finite_points(self, bad):
        obj = make_quadratic(np.eye(2), hessian_lipschitz=1.0).objective
        assert math.isinf(obj.region_radius)
        assert obj.in_region(np.array([3.0, -1e300]))
        assert not obj.in_region(np.array([bad, 0.0]))
        assert not obj.in_region(np.array([0.0, bad]))


class TestDeclaredConstants:
    @pytest.mark.parametrize("constants", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan),
                                           (1.0, 1.0, math.nan)])
    def test_nan_constants_are_rejected(self, constants):
        with pytest.raises(ValueError, match="must be"):
            Smoothness(*constants)

    def test_nan_region_radius_is_rejected(self):
        with pytest.raises(ValueError, match="region_radius must be positive"):
            Objective(dim=2, value=lambda x: 0.0, gradient=lambda x: np.zeros(2),
                      hvp=lambda x, v: np.zeros(2), constants=Smoothness(1.0, 1.0),
                      region_radius=math.nan)


class TestTridiagonalDeclaration:
    def test_declaration_without_a_dense_hessian_is_rejected(self):
        with pytest.raises(ValueError, match="it needs a dense_hessian"):
            Objective(dim=2, value=lambda x: 0.0, gradient=lambda x: np.zeros(2),
                      hvp=lambda x, v: np.zeros(2), constants=Smoothness(1.0, 1.0),
                      tridiagonal_hessian=True)

    def test_only_rosenbrock_declares_a_tridiagonal_hessian(self):
        declared = {spec: get_problem(spec).objective.tridiagonal_hessian
                    for spec in ("rosenbrock:d=5", "saddle_quartic:d=5",
                                 "matrix_factorization:d=6,r=2", "quadratic:d=4")}
        assert declared == {"rosenbrock:d=5": True, "saddle_quartic:d=5": False,
                            "matrix_factorization:d=6,r=2": False, "quadratic:d=4": False}


class TestHessianBand:
    """``hessian_band`` declares the band of ``dense_hessian`` bit for bit, with no d x d matrix."""

    BAND_PROBLEMS = {"saddle_quartic": make_saddle_quartic, "rosenbrock": make_rosenbrock}

    def test_declaration_without_a_dense_hessian_is_rejected(self):
        with pytest.raises(ValueError, match="hessian_band declares the dense Hessian's band"):
            Objective(dim=2, value=lambda x: 0.0, gradient=lambda x: np.zeros(2),
                      hvp=lambda x, v: np.zeros(2), constants=Smoothness(1.0, 1.0),
                      hessian_band=lambda x: (np.ones(2), np.zeros(1)))

    @pytest.mark.parametrize("name", sorted(BAND_PROBLEMS))
    @given(coords=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2,
                           max_size=40),
           zeros=st.lists(st.sampled_from([0.0, -0.0]), max_size=40))
    @example(coords=[0.0, 0.0, 0.0, 1.0], zeros=[])
    def test_the_band_has_the_bits_of_the_dense_band(self, name, coords, zeros):
        """``zeros`` overwrites the leading coordinates with signed zeros: where ``x_i`` is
        ``+0.0``, Rosenbrock's ``-400 x_i`` is ``-0.0`` and its dense Hessian holds ``+0.0``."""
        x = np.array(coords)
        x[: len(zeros)] = zeros[: x.size]
        obj = self.BAND_PROBLEMS[name](x.size).objective
        with np.errstate(over="ignore", invalid="ignore"):
            diag, sub = obj.hessian_band(x)
            h = obj.dense_hessian(x)
        assert diag.tobytes() == h.diagonal().tobytes()
        assert sub.tobytes() == h.diagonal(-1).tobytes()

    @given(st.integers(2, 40), st.integers(0, 2**32 - 1))
    def test_a_diagonal_band_spectrum_is_the_eigvalsh_spectrum(self, dim, seed):
        obj = make_saddle_quartic(dim).objective
        x = sample_in_region(obj, RngStream(seed))
        np.testing.assert_array_equal(problems._spectrum(obj, x),
                                      np.linalg.eigvalsh(obj.dense_hessian(x)))

    def test_a_large_quartic_is_built_from_its_band(self):
        """The build checks its known points on the band: no d x d matrix, well under a second."""
        dim = 10_000
        build = get_problem.__wrapped__  # past the cache, so the instance is built here
        start = time.perf_counter()
        build(f"saddle_quartic:d={dim}")
        assert time.perf_counter() - start < 1.0
        tracemalloc.start()
        try:
            build(f"saddle_quartic:d={dim}")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dim * dim * 8 / 100


class TestKnownPoints:
    def test_claimed_minimum_with_negative_curvature_rejected(self):
        obj = make_quadratic(np.diag([1.0, -1.0])).objective
        with pytest.raises(ValueError, match="claimed minimum has lambda_min"):
            problems._verify_known_points(obj, [], [(np.zeros(2), 0.0)])

    def test_claimed_saddle_without_negative_curvature_rejected(self):
        obj = make_quadratic(np.diag([1.0, 2.0])).objective
        with pytest.raises(ValueError, match="claimed saddle has lambda_min"):
            problems._verify_known_points(obj, [np.zeros(2)], [])

    def test_minimum_tolerance_scales_with_the_spectral_norm(self):
        # lambda_min -1e-3 is float noise next to a spectral norm of 1e6, not next to 1e3
        origin = [(np.zeros(2), 0.0)]
        problems._verify_known_points(make_quadratic(np.diag([1e6, -1e-3])).objective, [], origin)
        with pytest.raises(ValueError, match="claimed minimum has lambda_min"):
            problems._verify_known_points(make_quadratic(np.diag([1e3, -1e-3])).objective, [], origin)


class TestValidateContracts:
    def test_constant_hessian_ratios(self):
        inst = make_quadratic(np.diag([1.0, -1.0]))
        report = validate_contracts(inst, RngStream(0), samples=500)
        assert abs(report.grad_lipschitz_observed - 1.0) <= 1e-9
        assert report.hessian_lipschitz_observed <= 1e-9
        assert report.ok

    def test_understated_constant_is_flagged(self):
        inst = make_saddle_quartic(3)
        halved = Smoothness(
            grad_lipschitz=inst.objective.constants.grad_lipschitz / 2,
            hessian_lipschitz=inst.objective.constants.hessian_lipschitz,
            value_lipschitz=inst.objective.constants.value_lipschitz,
        )
        import dataclasses

        weak_obj = dataclasses.replace(inst.objective, constants=halved)
        weak = dataclasses.replace(inst, objective=weak_obj)
        report = validate_contracts(weak, RngStream(6), samples=2000)
        assert not report.ok
        assert any("gradient-Lipschitz" in v for v in report.violations)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            validate_contracts(make_saddle_quartic(2), RngStream(0), samples=99)
