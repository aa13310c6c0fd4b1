import contextlib
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from scaopt import certify, drivers, surrogates
from scaopt.numerics import NonFiniteError, RngStream
from scaopt.problems import (
    Objective,
    Smoothness,
    get_problem,
    make_quadratic,
    make_rosenbrock,
    make_saddle_quartic,
)
from scaopt.surrogates import SurrogateSpec, UnsupportedSurrogateError, build_surrogate

from _monitor_reference import monitor_slack
from conftest import sample_in_region


def half_norm_sq():
    return make_quadratic(np.eye(2)).objective


def model(obj, y, spec):
    """The model's ``(value, gradient)`` functions, written out from its definition.

    ``f(y) + g'(x - y) + (x - y)' M (x - y) / 2`` with ``M = C I`` for
    ``proximal_linear`` and ``M = H_+ + C I`` (the PSD part of the dense
    Hessian plus the modulus) for ``quadratic_split``. The library keeps only
    the closed-form minimizer; these checks hold it to the model it minimizes.
    """
    f_y, g_y = float(obj.value(y)), obj.gradient(y)
    hess = spec.strong_convexity * np.eye(obj.dim)
    if spec.kind == "quadratic_split":
        w, v = np.linalg.eigh(obj.dense_hessian(y))
        hess = hess + (v * np.maximum(w, 0.0)) @ v.T

    def value(x):
        d = x - y
        return f_y + float(g_y @ d) + 0.5 * float(d @ hess @ d)

    def gradient(x):
        return g_y + hess @ (x - y)

    return value, gradient


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            SurrogateSpec(kind="cubic")

    def test_bad_modulus(self):
        for modulus, rule in ((0.0, "positive"), (-1.0, "positive"), (float("nan"), "positive"),
                              (float("inf"), "finite")):
            with pytest.raises(ValueError,
                               match=rf"^strong_convexity must be {rule} \(got {modulus}\)$"):
                SurrogateSpec(strong_convexity=modulus)

    def test_tol_resolution(self):
        assert monitor_slack(0.5) == 1e-10
        assert monitor_slack(40.0) == 1e-10 * 40.0


class TestProximalLinear:
    def test_worked_example(self):
        obj = half_norm_sq()
        y = np.array([1.0, 0.0])
        spec = SurrogateSpec(strong_convexity=2.0)
        surr = build_surrogate(obj, y, spec)
        value, _ = model(obj, y, spec)
        # model value is f(y) + g'(x - y) + ||x - y||^2 here
        x = np.array([0.2, -0.4])
        expected = 0.5 + (x[0] - 1.0) + float((x - y) @ (x - y))
        assert abs(value(x) - expected) <= 1e-14
        assert np.allclose(surr.minimizer, [0.5, 0.0])
        assert surr.step_norm == 0.5

    def test_anchor_gradient_matches_objective(self):
        obj = make_saddle_quartic(4).objective
        stream = RngStream(1)
        for _ in range(20):
            y = sample_in_region(obj, stream)
            spec = SurrogateSpec(strong_convexity=0.7)
            surr = build_surrogate(obj, y, spec)
            _, gradient = model(obj, y, spec)
            assert np.linalg.norm(surr.anchor_grad - obj.gradient(y)) <= 1e-10
            assert np.linalg.norm(gradient(y) - surr.anchor_grad) <= 1e-10

    @given(coords=st.lists(st.floats(-1.9, 1.9), min_size=2, max_size=2))
    def test_anchor_consistency_property(self, coords):
        obj = make_saddle_quartic(2).objective
        y = np.array(coords)
        surr = build_surrogate(obj, y, SurrogateSpec(strong_convexity=3.0))
        assert np.linalg.norm(surr.anchor_grad - obj.gradient(y)) <= 1e-10
        assert surr.grad_norm == math.sqrt(np.add.reduce(surr.anchor_grad * surr.anchor_grad))

    def test_strong_convexity_sampled(self):
        obj = make_saddle_quartic(3).objective
        modulus = 1.5
        _, gradient = model(obj, np.zeros(3), SurrogateSpec(strong_convexity=modulus))
        stream = RngStream(2)
        for _ in range(50):
            a = stream.standard_normal(3)
            b = stream.standard_normal(3)
            lhs = float((gradient(a) - gradient(b)) @ (a - b))
            gap = float(np.linalg.norm(a - b) ** 2)
            assert lhs >= modulus * gap * (1.0 - 1e-9)

    @given(coords=st.lists(st.floats(-1.9, 1.9), min_size=2, max_size=2),
           modulus=st.sampled_from([1.0, 1, 0.3, 2.5]))
    def test_minimizer_has_the_bits_of_the_formula(self, coords, modulus):
        """At unit modulus the division is skipped; ``y - g / 1.0`` has the same bits."""
        obj = make_saddle_quartic(2).objective
        y = np.array(coords)
        surr = build_surrogate(obj, y, SurrogateSpec(strong_convexity=modulus))
        g = obj.gradient(y)
        assert surr.minimizer.tobytes() == (y - g / modulus).tobytes()
        assert surr.step_norm == surr.grad_norm / modulus

    def test_minimize_closed_form(self):
        obj = half_norm_sq()
        surr = build_surrogate(obj, np.array([1.0, 0.0]), SurrogateSpec())
        x_hat, report = drivers.minimize_surrogate(surr)
        assert np.allclose(x_hat, [0.0, 0.0])
        assert report.iterations == 0


class TestQuadraticSplit:
    def test_model_hessian_clamps_negative_part(self):
        obj = make_quadratic(np.diag([1.0, -1.0])).objective
        spec = SurrogateSpec(kind="quadratic_split", strong_convexity=0.1)
        y = np.array([1.0, 1.0])
        _, gradient = model(obj, y, spec)
        # gradient of the model is g + (H_plus + C I)(x - y)
        e1, e2 = np.eye(2)
        jump1 = gradient(y + e1) - gradient(y)
        jump2 = gradient(y + e2) - gradient(y)
        assert np.allclose(jump1, [1.1, 0.0], atol=1e-12)
        assert np.allclose(jump2, [0.0, 0.1], atol=1e-12)
        # the minimizer solves (H_plus + C I)(x - y) = -g
        surr = build_surrogate(obj, y, spec)
        assert np.allclose(surr.minimizer, y - np.array([1.0 / 1.1, -1.0 / 0.1]), atol=1e-12)

    def test_residual_contract_against_dense_oracle(self):
        gen = np.random.default_rng(4)
        a = gen.standard_normal((5, 5))
        obj = make_quadratic(0.5 * (a + a.T)).objective
        modulus = 0.3
        spec = SurrogateSpec(kind="quadratic_split", strong_convexity=modulus)
        y = gen.standard_normal(5)
        surr = build_surrogate(obj, y, spec)
        x_hat = surr.minimizer
        # dense oracle for the exact model minimizer
        hess = obj.dense_hessian(y)
        w, q = np.linalg.eigh(hess)
        model_h = (q * (np.maximum(w, 0.0) + modulus)) @ q.T
        x_exact = y - np.linalg.solve(model_h, obj.gradient(y))
        assert np.linalg.norm(x_hat - x_exact) <= monitor_slack(surr.grad_norm) / modulus

    def test_requires_dense_hessian(self):
        import dataclasses

        obj = dataclasses.replace(half_norm_sq(), dense_hessian=None, hessian_band=None)
        with pytest.raises(UnsupportedSurrogateError):
            build_surrogate(obj, np.zeros(2), SurrogateSpec(kind="quadratic_split"))


def eigen_solve(v, w, g, modulus):
    """``V ((V' g) / (max(w, 0) + C))``, each entry of both products a 1-D numpy sum, not BLAS."""
    c = np.array([np.add.reduce(col * g) for col in v.T]) / (np.maximum(w, 0.0) + modulus)
    return np.array([np.add.reduce(row * c) for row in v])


def eigh_formula(obj, y, modulus):
    """The ``quadratic_split`` minimizer and step norm as dense ``eigh`` gives them."""
    g = obj.gradient(y)
    w, v = np.linalg.eigh(obj.dense_hessian(y))
    x_hat = y - eigen_solve(v, w, g, modulus)
    step = x_hat - y
    return x_hat, math.sqrt(np.add.reduce(step * step))


def split_model(obj, y, modulus, dense_allowed=True, forbidden=()):
    """``build_surrogate``'s ``quadratic_split`` model; fails on a dense ``eigh`` unless allowed.

    It also fails on a call of any ``scipy.linalg`` solver named in ``forbidden``, the module
    that ``scaopt.surrogates`` imports its banded solvers from when it calls them.
    """
    spec = SurrogateSpec(kind="quadratic_split", strong_convexity=modulus)
    with contextlib.ExitStack() as patches:
        if not dense_allowed:
            patches.enter_context(mock.patch.object(
                np.linalg, "eigh", side_effect=AssertionError("dense eigh called")))
        for name in forbidden:
            patches.enter_context(mock.patch.object(
                scipy.linalg, name, side_effect=AssertionError(f"{name} called")))
        return build_surrogate(obj, y, spec)


def bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


def assert_matches_eigh(obj, y, modulus, *, dense_allowed=True, rel_tol=None, forbidden=()):
    """The model's minimizer and step norm against :func:`eigh_formula`.

    Bit for bit, or within ``rel_tol`` times the step norm when it is given.
    """
    x_hat, step_norm = eigh_formula(obj, y, modulus)
    surr = split_model(obj, y, modulus, dense_allowed, forbidden)
    if rel_tol is None:
        assert bits(surr.minimizer) == bits(x_hat)
        assert bits(surr.step_norm) == bits(step_norm)
    else:
        assert np.linalg.norm(surr.minimizer - x_hat) <= rel_tol * step_norm
        assert abs(surr.step_norm - step_norm) <= rel_tol * step_norm


def fixed_hessian(h, g, banded=False):
    """An objective whose gradient is ``g`` and whose dense Hessian oracle returns ``h`` as is.

    ``banded`` also declares the band of ``h``'s lower triangle as its ``hessian_band``.
    """
    return Objective(dim=g.size, value=lambda x: 0.0, gradient=lambda x: g.copy(),
                     hvp=lambda x, v: h @ v, constants=Smoothness(1.0, 1.0),
                     dense_hessian=lambda x: h.copy(),
                     hessian_band=(lambda x: (h.diagonal(), h.diagonal(-1))) if banded else None)


MODULI = st.floats(0.01, 100.0)
SEEDS = st.integers(0, 2**32 - 1)


def signed_zeros_or(floats):
    """``floats`` with ``+0.0`` and ``-0.0`` drawn often: a diagonal Hessian must keep their bits."""
    return st.one_of(st.sampled_from([0.0, -0.0]), floats)


class TestBandedHessians:
    """``quadratic_split`` takes the banded routes on a declared band, else dense ``eigh``.

    A run that must not be dense runs with ``np.linalg.eigh`` patched to fail. A
    declared zero band (a diagonal Hessian) is solved by division, which keeps
    the bits of dense ``eigh`` (and the quartic golden hashes hold). A band
    with a nonzero subdiagonal is factored first: when the banded Cholesky
    factorization succeeds, the step is one banded solve and no eigensolver
    runs; when it fails, the tridiagonal eigensolver runs instead.
    """

    @given(st.lists(signed_zeros_or(st.floats(-2.0, 2.0)), min_size=2, max_size=100), MODULI)
    def test_diagonal_quartic_has_the_eigh_bits(self, coords, modulus):
        y = np.array(coords)
        assert_matches_eigh(make_saddle_quartic(y.size).objective, y, modulus, dense_allowed=False)

    @given(st.lists(st.tuples(signed_zeros_or(st.floats(-1.0, 1.0)),
                              signed_zeros_or(st.floats(-1.0, 1.0))), min_size=2, max_size=39),
           st.floats(-300.0, 3.0), st.floats(-300.0, 3.0), st.sampled_from([0.1, 1.0, 3.0]))
    def test_the_zero_band_division_has_the_eigensolver_bits(self, pairs, g_exp, h_exp,
                                                             modulus):
        """A declared zero band is solved by division: the bits of the eigen formula on the
        eigenpairs of ``eigh_tridiagonal``, with signed zeros in ``g`` and ``h`` and each scaled
        by a power of ten from 1e-300 to 1e3."""
        g, h = (np.array(v) * 10.0**e for v, e in zip(zip(*pairs), (g_exp, h_exp)))
        zeros = np.zeros(h.size - 1)
        expected = surrogates._eigen_solve(*eigh_tridiagonal(h, zeros), g, modulus)
        assert bits(surrogates._band_solve(h, zeros, g, modulus)) == bits(expected)

    @given(st.lists(st.tuples(signed_zeros_or(st.floats(-10.0, 10.0)),
                              signed_zeros_or(st.floats(-1e3, 1e3))), min_size=2, max_size=50),
           MODULI)
    def test_diagonal_indefinite_quadratic_has_the_eigh_bits(self, pairs, modulus):
        h, y = (np.array(v) for v in zip(*pairs))
        assume(h.any())
        assert_matches_eigh(make_quadratic(np.diag(h)).objective, y, modulus, dense_allowed=False)

    @given(st.integers(1, 30), st.data(), MODULI)
    def test_make_quadratic_declares_its_band_exactly_when_tridiagonal(self, dim, data, modulus):
        """``make_quadratic`` declares a band exactly when ``np.tril(H, -2)`` is zero, with the
        bits of ``H``'s lower band; like ``eigh``, it ignores what lies above the diagonal.

        Signed zeros are drawn on and below the band, and the upper triangle is ``H``'s
        transpose moved by up to 1e-13 per entry. The split step keeps dense ``eigh``'s bits
        on a diagonal lower triangle, is within 1e-12 of the step norm on a tridiagonal one,
        and an undeclared ``H`` takes dense ``eigh`` itself.
        """
        def draw(entries, size):
            return data.draw(st.lists(entries, min_size=size, max_size=size))

        zeros = st.sampled_from([0.0, -0.0])
        h = np.zeros((dim, dim))
        rows = np.arange(dim)
        h[rows, rows] = draw(signed_zeros_or(st.floats(-10.0, 10.0)), dim)
        h[rows[1:], rows[:-1]] = draw(data.draw(st.sampled_from(
            [zeros, signed_zeros_or(st.floats(-3.0, 3.0))])), dim - 1)
        below = [(i, j) for i in range(dim) for j in range(i - 1)]
        if below:
            for i, j in data.draw(st.lists(st.sampled_from(below), max_size=3)):
                h[i, j] = data.draw(signed_zeros_or(st.floats(-3.0, 3.0)))
        upper = np.triu_indices(dim, 1)
        h[upper] = h.T[upper] + np.array(draw(st.floats(-1e-13, 1e-13), len(upper[0])))
        assume(np.tril(h).any())
        obj = make_quadratic(h).objective
        declared = not np.tril(h, -2).any()
        assert (obj.hessian_band is not None) == declared
        y = np.array(draw(signed_zeros_or(st.floats(-10.0, 10.0)), dim))
        if declared:
            diag, sub = obj.hessian_band(y)
            assert bits(diag) == bits(h.diagonal()) and bits(sub) == bits(h.diagonal(-1))
        rel_tol = 1e-12 if declared and sub.any() else None
        assert_matches_eigh(obj, y, modulus, dense_allowed=not declared, rel_tol=rel_tol)

    @given(st.integers(2, 300), SEEDS, MODULI)
    def test_tridiagonal_rosenbrock_agrees_with_eigh(self, dim, seed, modulus):
        obj = make_rosenbrock(dim).objective
        y = sample_in_region(obj, RngStream(seed))
        assert_matches_eigh(obj, y, modulus, dense_allowed=False, rel_tol=1e-12)

    @given(SEEDS, MODULI)
    def test_matrix_factorization_keeps_the_eigh_bits(self, seed, modulus):
        obj = get_problem("matrix_factorization:d=6,r=2").objective
        assert_matches_eigh(obj, sample_in_region(obj, RngStream(seed)), modulus)

    @given(st.integers(3, 40), SEEDS, MODULI, st.booleans())
    def test_dense_quadratic_keeps_the_eigh_bits(self, dim, seed, modulus, one_entry_off_band):
        """A full matrix, or a tridiagonal one with a single entry further below the diagonal."""
        gen = np.random.default_rng(seed)
        a = gen.standard_normal((dim, dim))
        h = a + a.T
        if one_entry_off_band:
            i = int(gen.integers(2, dim))
            j = int(gen.integers(0, i - 1))
            h = np.triu(np.tril(h, 1), -1)
            h[i, j] = h[j, i] = 1.0
        assert_matches_eigh(make_quadratic(h).objective, gen.standard_normal(dim), modulus)

    @given(st.integers(2, 40), SEEDS, MODULI, st.booleans())
    def test_an_undeclared_band_takes_dense_eigh(self, dim, seed, modulus, diagonal):
        """A diagonal or tridiagonal dense Hessian with no declared band is solved by dense
        ``np.linalg.eigh``, once per build, and by no banded solver."""
        gen = np.random.default_rng(seed)
        h = np.diag(gen.standard_normal(dim))
        if not diagonal:
            sub = gen.standard_normal(dim - 1)
            h += np.diag(sub, -1) + np.diag(sub, 1)
        obj, y = fixed_hessian(h, gen.standard_normal(dim)), gen.standard_normal(dim)
        x_hat, step_norm = eigh_formula(obj, y, modulus)
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            surr = split_model(obj, y, modulus, forbidden=("cholesky_banded", "eigh_tridiagonal"))
        assert eigh.call_count == 1
        assert bits(surr.minimizer) == bits(x_hat)
        assert bits(surr.step_norm) == bits(step_norm)

    @pytest.mark.parametrize("entry, tridiagonal", [
        (-0.0, True), (5e-324, False), (-1.0, False), (math.nan, False), (math.inf, False),
    ])
    @pytest.mark.parametrize("where", [(5, 0), (5, 3), (2, 0)])
    def test_band_test_is_exact_below_the_band(self, entry, tridiagonal, where):
        """``certify``'s band detector: any entry below the band but a zero makes ``h``
        non-tridiagonal; above it, none does."""
        off = np.full(5, 0.5)
        h = np.diag(np.arange(1.0, 7.0)) + np.diag(off, -1) + np.diag(off, 1)
        lower = h.copy()
        lower[where] = entry
        band = certify._tridiagonal_band(lower)
        assert (band is not None) == tridiagonal
        if tridiagonal:
            assert np.array_equal(band[0], h.diagonal()) and np.array_equal(band[1], h.diagonal(-1))
        upper = h.copy()
        upper[where[::-1]] = entry
        assert certify._tridiagonal_band(upper) is not None

    @pytest.mark.parametrize("band", [(np.ones(3), np.zeros(2)), (np.ones(2), np.zeros(2)),
                                      (np.ones((2, 1)), np.zeros(1))])
    def test_a_band_of_the_wrong_shape_is_refused(self, band):
        obj = dataclasses.replace(fixed_hessian(np.eye(2), np.ones(2)),
                                  hessian_band=lambda x: band)
        with pytest.raises(ValueError, match=r"Hessian band has shapes .*, expected \(2,\) and "
                                             r"\(1,\)"):
            split_model(obj, np.zeros(2), 1.0)

    def test_hessian_of_the_wrong_shape_is_refused(self):
        obj = fixed_hessian(np.eye(3), np.ones(2))
        shapes = r"dense Hessian has shape \(3, 3\), expected \(2, 2\)"
        with pytest.raises(ValueError, match=shapes):
            split_model(obj, np.zeros(2), 1.0)

    @given(st.integers(2, 300), SEEDS, MODULI)
    def test_positive_definite_band_needs_no_eigensolver(self, dim, seed, modulus):
        """A strictly diagonally dominant band with a positive diagonal is positive definite."""
        gen = np.random.default_rng(seed)
        sub = gen.uniform(-1.0, 1.0, dim - 1)
        assume(sub.any())
        reach = np.abs(np.concatenate(([0.0], sub))) + np.abs(np.concatenate((sub, [0.0])))
        h = np.diag(reach + gen.uniform(0.01, 10.0, dim)) + np.diag(sub, -1) + np.diag(sub, 1)
        assert_matches_eigh(fixed_hessian(h, gen.standard_normal(dim), banded=True),
                            gen.standard_normal(dim), modulus, dense_allowed=False, rel_tol=1e-12,
                            forbidden=("eigh_tridiagonal",))

    @given(st.integers(2, 300), MODULI)
    def test_rosenbrock_canonical_start_needs_no_eigensolver(self, dim, modulus):
        prob = make_rosenbrock(dim)
        assert_matches_eigh(prob.objective, prob.canonical_start, modulus, dense_allowed=False,
                            rel_tol=1e-12, forbidden=("eigh_tridiagonal",))

    @given(st.integers(2, 300), SEEDS, MODULI)
    def test_indefinite_band_keeps_the_eigensolver_bits(self, dim, seed, modulus):
        """A negative diagonal entry makes the band indefinite: the Cholesky attempt fails.

        The minimizer then has the bits of the ``eigh_tridiagonal`` formula, and no
        banded solve runs.
        """
        gen = np.random.default_rng(seed)
        diag, sub = gen.uniform(-1.0, 10.0, dim), gen.uniform(-3.0, 3.0, dim - 1)
        assume(sub.any())
        diag[gen.integers(dim)] = -gen.uniform(0.01, 10.0)
        h = np.diag(diag) + np.diag(sub, -1) + np.diag(sub, 1)
        g, y = gen.standard_normal(dim), gen.standard_normal(dim)
        w, v = eigh_tridiagonal(diag, sub)
        x_hat = y - eigen_solve(v, w, g, modulus)
        surr = split_model(fixed_hessian(h, g, banded=True), y, modulus, dense_allowed=False,
                           forbidden=("solveh_banded",))
        assert bits(surr.minimizer) == bits(x_hat)
        step = x_hat - y
        assert bits(surr.step_norm) == bits(math.sqrt(np.add.reduce(step * step)))

    @given(st.lists(st.tuples(st.integers(1, 10), st.sampled_from([-1, 1])), min_size=1,
                    max_size=100),
           SEEDS, MODULI)
    def test_singular_semidefinite_band_agrees_with_eigh(self, edges, seed, modulus):
        """A weighted path-graph Laplacian, edge signs drawn: PSD with lambda_min exactly 0.

        Its entries are small integers, so the matrix is exactly singular. The
        Cholesky attempt may succeed or fail in rounding; either path agrees with
        the eigen formula.
        """
        weight, sign = (np.array(v, dtype=np.float64) for v in zip(*edges))
        diag = np.concatenate((weight, [0.0])) + np.concatenate(([0.0], weight))
        h = np.diag(diag) + np.diag(sign * weight, -1) + np.diag(sign * weight, 1)
        gen = np.random.default_rng(seed)
        assert_matches_eigh(fixed_hessian(h, gen.standard_normal(diag.size), banded=True),
                            gen.standard_normal(diag.size), modulus, dense_allowed=False,
                            rel_tol=1e-12)


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
        assert np.allclose(surr.minimizer, [0.5, 0.0])

    @pytest.mark.parametrize("field", ["anchor_grad", "minimizer"])
    def test_builder_output_of_wrong_shape_is_refused(self, field):
        def builder(o, y, spec):
            surr = build_surrogate(o, y, SurrogateSpec())
            return dataclasses.replace(surr, **{field: getattr(surr, field)[:, None]})

        spec = SurrogateSpec(kind="custom", builder=builder)
        with pytest.raises(ValueError, match=rf"custom surrogate {field} has shape \(2, 1\)"):
            build_surrogate(half_norm_sq(), np.array([1.0, 0.0]), spec)


def test_anchor_outside_region_rejected():
    obj = make_saddle_quartic(2).objective
    with pytest.raises(ValueError):
        build_surrogate(obj, np.array([5.0, 0.0]), SurrogateSpec())


def test_nan_anchor_rejected():
    obj = make_saddle_quartic(2).objective
    with pytest.raises(NonFiniteError):
        build_surrogate(obj, np.array([np.nan, 0.0]), SurrogateSpec())


@pytest.mark.parametrize("kind", ["proximal_linear", "quadratic_split"])
def test_model_gradient_vanishes_at_minimizer(kind):
    obj = make_saddle_quartic(4).objective
    stream = RngStream(3)
    for modulus in (0.3, 1.0, 2.5):
        spec = SurrogateSpec(kind=kind, strong_convexity=modulus)
        for _ in range(10):
            y = sample_in_region(obj, stream)
            surr = build_surrogate(obj, y, spec)
            _, gradient = model(obj, y, spec)
            assert float(np.linalg.norm(gradient(surr.minimizer))) <= 1e-10
            step = float(np.linalg.norm(surr.minimizer - y))
            assert abs(surr.step_norm - step) <= 1e-12 * max(1.0, step)
