"""Strongly convex local models of an objective and their exact/inexact minimization.

A surrogate anchored at ``y`` is strongly convex with a uniform modulus and its
gradient matches the objective's gradient at the anchor. Two families are
built in, and both are minimized in closed form: a proximal-linear model
(reducing to a gradient step when the modulus is 1) and a curvature-aware
model built from the positive part of the dense Hessian, whose minimizer is
read off the Hessian's eigendecomposition. A ``custom`` model without a
closed-form minimizer is minimized inexactly by an iterative inner solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from scaopt.numerics import as_vector
from scaopt.problems import Objective

__all__ = [
    "SurrogateSpec",
    "SurrogateAt",
    "InnerReport",
    "InnerSolveError",
    "UnsupportedSurrogateError",
    "resolved_inner_tol",
    "build_surrogate",
    "minimize_surrogate",
]

KINDS = ("proximal_linear", "quadratic_split", "custom")


class UnsupportedSurrogateError(ValueError):
    """The requested surrogate family cannot be built for this objective."""


class InnerSolveError(RuntimeError):
    """The inner solver exhausted its budget before reaching tolerance."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class SurrogateSpec:
    """Configuration of the surrogate family and its inner solver.

    ``inner_tol=None`` resolves per anchor to ``1e-10 * max(1, ||grad||)``; it
    is the inner solver's stopping tolerance and the slack of the per-step
    monitors. ``inner_max_iters`` bounds the iterative inner solver, which runs
    only for a ``custom`` model that has no closed-form minimizer.
    """

    kind: str = "proximal_linear"
    strong_convexity: float = 1.0
    inner_tol: float | None = None
    inner_max_iters: int = 10_000
    builder: Callable | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown surrogate kind '{self.kind}'; known: {KINDS}")
        if self.strong_convexity <= 0:
            raise ValueError("strong_convexity must be positive")
        if self.inner_tol is not None and self.inner_tol <= 0:
            raise ValueError("inner_tol must be positive when given")
        if self.inner_max_iters < 1:
            raise ValueError("inner_max_iters must be positive")


@dataclass(frozen=True)
class SurrogateAt:
    """A strongly convex model anchored at a point.

    ``anchor_value``/``anchor_grad`` cache the objective's value and gradient at
    the anchor (the model's gradient equals ``anchor_grad`` there, exactly).
    ``smoothness`` is the Lipschitz constant of the model gradient, which fixes
    the inner solver's step size.
    """

    anchor: np.ndarray
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    strong_convexity: float
    smoothness: float
    inner_tol: float
    anchor_value: float
    anchor_grad: np.ndarray
    closed_form_minimizer: np.ndarray | None = None


@dataclass(frozen=True)
class InnerReport:
    iterations: int
    residual: float


def resolved_inner_tol(spec: SurrogateSpec, grad_norm: float) -> float:
    """Effective inner tolerance for an anchor with the given gradient norm."""
    if spec.inner_tol is not None:
        return spec.inner_tol
    return 1e-10 * max(1.0, grad_norm)


def build_surrogate(obj: Objective, y, spec: SurrogateSpec) -> SurrogateAt:
    """Construct the configured surrogate anchored at ``y``."""
    y = as_vector(y, obj.dim)
    if not obj.in_region(y):
        raise ValueError("anchor lies outside the objective's valid region")
    if spec.kind == "custom":
        if spec.builder is None:
            raise UnsupportedSurrogateError("custom surrogate requires a builder")
        return spec.builder(obj, y, spec)

    f_y = float(obj.value(y))
    g_y = np.asarray(obj.gradient(y), dtype=np.float64)
    tol = resolved_inner_tol(spec, float(np.linalg.norm(g_y)))
    modulus = spec.strong_convexity

    if spec.kind == "proximal_linear":

        def value(x):
            d = x - y
            return f_y + float(g_y @ d) + 0.5 * modulus * float(d @ d)

        def gradient(x):
            return g_y + modulus * (x - y)

        return SurrogateAt(
            anchor=y,
            value=value,
            gradient=gradient,
            strong_convexity=modulus,
            smoothness=modulus,
            inner_tol=tol,
            anchor_value=f_y,
            anchor_grad=g_y,
            closed_form_minimizer=y - g_y / modulus,
        )

    # quadratic_split: keep the PSD part of the local Hessian, add modulus * I.
    # The model Hessian is V diag(curv) V^T on eigh's eigenpairs (V, lambda).
    if obj.dense_hessian is None:
        raise UnsupportedSurrogateError(
            "quadratic_split needs an objective with a dense Hessian"
        )
    eigvals, eigvecs = np.linalg.eigh(obj.dense_hessian(y))
    curv = np.maximum(eigvals, 0.0) + modulus

    def value(x):
        d = x - y
        z = eigvecs.T @ d
        return f_y + float(g_y @ d) + 0.5 * float(curv @ (z * z))

    def gradient(x):
        return g_y + eigvecs @ (curv * (eigvecs.T @ (x - y)))

    return SurrogateAt(
        anchor=y,
        value=value,
        gradient=gradient,
        strong_convexity=modulus,
        smoothness=float(curv[-1]),
        inner_tol=tol,
        anchor_value=f_y,
        anchor_grad=g_y,
        closed_form_minimizer=y - eigvecs @ ((eigvecs.T @ g_y) / curv),
    )


def minimize_surrogate(surr: SurrogateAt, spec: SurrogateSpec):
    """Minimize a surrogate, returning ``(x_hat, InnerReport)``.

    The model decides the solver. A closed-form minimizer (both built-in kinds
    have one) is returned with zero inner iterations. A model without one (a
    ``custom`` builder's) is minimized by gradient descent with step
    ``1/smoothness`` until the model gradient norm falls below the resolved
    tolerance; strong convexity guarantees the loop terminates, and exhausting
    ``inner_max_iters`` first raises :class:`InnerSolveError` carrying the
    final residual.
    """
    if surr.closed_form_minimizer is not None:
        x_hat = surr.closed_form_minimizer
        residual = float(np.linalg.norm(surr.gradient(x_hat)))
        return x_hat, InnerReport(iterations=0, residual=residual)

    x = surr.anchor.copy()
    step = 1.0 / surr.smoothness
    g = surr.gradient(x)
    residual = float(np.linalg.norm(g))
    iterations = 0
    while residual > surr.inner_tol:
        if iterations >= spec.inner_max_iters:
            raise InnerSolveError(
                f"inner solver reached {iterations} iterations with residual "
                f"{residual:.3e} > tol {surr.inner_tol:.3e}",
                residual=residual,
                iterations=iterations,
            )
        x = x - step * g
        iterations += 1
        g = surr.gradient(x)
        residual = float(np.linalg.norm(g))
    return x, InnerReport(iterations=iterations, residual=residual)
