import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from scaopt.numerics import (
    NonFiniteError,
    RngStream,
    finite_diff_gradient,
    finite_diff_hvp,
    sample_uniform_ball,
)
from scaopt.problems import make_saddle_quartic

from conftest import rel_err


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(1234)
        b = RngStream(1234)
        assert np.array_equal(a.standard_normal(100), b.standard_normal(100))
        assert a.uniform() == b.uniform()

    def test_substreams_differ(self):
        a = RngStream(5)
        assert not np.array_equal(
            a.substream(1).standard_normal(10), a.substream(2).standard_normal(10)
        )

    def test_seed_wraps_to_uint64(self):
        assert RngStream(-1).seed == (1 << 64) - 1


class TestUniformBall:
    def test_bad_dim(self):
        with pytest.raises(ValueError):
            sample_uniform_ball(0, 1.0, RngStream(0))

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            sample_uniform_ball(3, -0.1, RngStream(0))

    @pytest.mark.parametrize("radius", [np.nan, np.inf])
    def test_non_finite_radius_refused_before_any_draw(self, radius):
        rng = RngStream(0)
        with pytest.raises(ValueError, match="radius must be finite and nonnegative"):
            sample_uniform_ball(3, radius, rng)
        assert np.array_equal(sample_uniform_ball(3, 1.0, rng),
                              sample_uniform_ball(3, 1.0, RngStream(0)))

    def test_zero_radius_gives_zero_vector(self):
        assert np.array_equal(sample_uniform_ball(5, 0.0, RngStream(0)), np.zeros(5))

    def test_deterministic_replay(self):
        rng_a, rng_b = RngStream(7), RngStream(7)
        for _ in range(10):
            a = sample_uniform_ball(4, 1.5, rng_a)
            b = sample_uniform_ball(4, 1.5, rng_b)
            assert np.array_equal(a, b)

    @given(
        dim=st.integers(1, 40),
        radius=st.floats(0.0, 10.0),
        seed=st.integers(0, 2**32),
    )
    def test_containment_exact(self, dim, radius, seed):
        rng = RngStream(seed)
        for _ in range(5):
            xi = sample_uniform_ball(dim, radius, rng)
            assert float(np.linalg.norm(xi)) <= radius

    def test_one_dim_is_uniform_interval(self):
        # 1-D ball of radius 0.5 is the interval [-0.5, 0.5]
        rng = RngStream(42)
        draws = np.array([sample_uniform_ball(1, 0.5, rng)[0] for _ in range(100_000)])
        assert np.all(np.abs(draws) <= 0.5)
        pvalue = stats.kstest(draws, stats.uniform(loc=-0.5, scale=1.0).cdf).pvalue
        assert pvalue > 0.01

    def test_mean_squared_norm_dim3(self):
        # closed form E||xi||^2 = r^2 d/(d+2) = 0.6 for d=3, r=1, cross-checked
        # by an independent rejection-sampling implementation
        rng = RngStream(11)
        n = 100_000
        sq = np.empty(n)
        for i in range(n):
            sq[i] = float(np.sum(sample_uniform_ball(3, 1.0, rng) ** 2))
        mean_sq = float(np.mean(sq))
        assert abs(mean_sq - 0.6) <= 0.01

        gen = np.random.default_rng(0)
        accepted = []
        while len(accepted) < 20_000:
            cand = gen.uniform(-1, 1, size=(4096, 3))
            keep = np.sum(cand**2, axis=1) <= 1.0
            accepted.extend(np.sum(cand[keep] ** 2, axis=1))
        oracle = float(np.mean(accepted[:20_000]))
        assert abs(oracle - 0.6) <= 0.02
        assert abs(mean_sq - oracle) <= 0.03


class TestFiniteDiffGradient:
    def test_quadratic_exact(self):
        g = finite_diff_gradient(lambda x: 0.5 * float(x @ x), np.array([1.0, 2.0]))
        assert np.allclose(g, [1.0, 2.0], atol=1e-8)

    def test_linear_exact(self):
        c = np.array([3.0, -1.0, 0.25])
        g = finite_diff_gradient(lambda x: float(c @ x), np.array([0.3, 9.0, -2.0]))
        assert np.allclose(g, c, atol=1e-9)

    def test_saddle_quartic_matches_analytic(self, rng):
        obj = make_saddle_quartic(6).objective
        for _ in range(20):
            x = rng.uniform_vector(-2.0, 2.0, obj.dim)
            fd = finite_diff_gradient(obj.value, x)
            assert rel_err(fd, obj.gradient(x)) <= 1e-5

    def test_nonfinite_names_coordinate(self):
        def bad(x):
            return float("nan") if x[1] > 0.5 else float(x @ x)

        with pytest.raises(NonFiniteError) as excinfo:
            finite_diff_gradient(bad, np.array([0.0, 0.5]))
        assert excinfo.value.coordinate == 1

    def test_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda x: 0.0, np.array([1.0]), h=0.0)


class TestFiniteDiffHvp:
    def test_constant_hessian(self):
        h = np.diag([1.0, -1.0])
        out = finite_diff_hvp(lambda x: h @ x, np.array([0.3, 0.7]), np.array([0.0, 1.0]))
        assert np.allclose(out, [0.0, -1.0], atol=1e-8)

    def test_linearity_in_v(self):
        h = np.diag([1.0, -1.0])
        x = np.array([0.1, 0.2])
        v = np.array([0.4, -0.3])
        one = finite_diff_hvp(lambda y: h @ y, x, v)
        ten = finite_diff_hvp(lambda y: h @ y, x, 10.0 * v)
        assert np.allclose(ten, 10.0 * one, atol=1e-7)

    def test_saddle_quartic_point(self):
        obj = make_saddle_quartic(2).objective
        out = finite_diff_hvp(obj.gradient, np.array([0.0, 0.5]), np.array([0.0, 1.0]))
        assert np.allclose(out, [0.0, -0.25], atol=1e-6)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            finite_diff_hvp(lambda x: x, np.array([1.0, 1.0]), np.zeros(2))
