"""Strongly convex local models of an objective and their closed-form minimizers.

A surrogate anchored at ``y`` is strongly convex with a uniform modulus and its
gradient matches the objective's gradient at the anchor. The outer loop uses a
model only through its anchor value and gradient, its minimizer and the norm
of the step to it, so that is what a :class:`SurrogateAt` carries. Two
families are built in, both minimized in closed form: a proximal-linear model
(minimizer ``y - g/C``, the gradient step when the modulus is 1) and a
curvature-aware model built from the positive part of the dense Hessian, whose
minimizer is read off the Hessian's eigendecomposition. A ``custom`` builder
supplies all of these fields itself.
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
    "UnsupportedSurrogateError",
    "resolved_inner_tol",
    "build_surrogate",
    "minimize_surrogate",
]

KINDS = ("proximal_linear", "quadratic_split", "custom")


class UnsupportedSurrogateError(ValueError):
    """The requested surrogate family cannot be built for this objective."""


@dataclass(frozen=True)
class SurrogateSpec:
    """Configuration of the surrogate family.

    ``inner_tol=None`` resolves per anchor to ``1e-10 * max(1, ||grad||)``; it
    is the slack of the per-step monitors and of the descent check.
    ``builder(obj, y, spec)`` builds a ``custom`` model.
    """

    kind: str = "proximal_linear"
    strong_convexity: float = 1.0
    inner_tol: float | None = None
    builder: Callable | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown surrogate kind '{self.kind}'; known: {KINDS}")
        if self.strong_convexity <= 0:
            raise ValueError("strong_convexity must be positive")
        if self.inner_tol is not None and self.inner_tol <= 0:
            raise ValueError("inner_tol must be positive when given")


@dataclass(frozen=True)
class SurrogateAt:
    """A strongly convex model anchored at a point, as the outer loop uses it.

    ``anchor_value``/``anchor_grad`` are the objective's value and gradient at
    the anchor (the model's gradient equals ``anchor_grad`` there, exactly) and
    ``grad_norm`` is ``||anchor_grad||``. ``minimizer`` is the model's exact
    minimizer and ``step_norm`` its distance ``||minimizer - anchor||``.
    """

    anchor: np.ndarray
    anchor_value: float
    anchor_grad: np.ndarray
    grad_norm: float
    minimizer: np.ndarray
    step_norm: float


@dataclass(frozen=True)
class InnerReport:
    iterations: int


def resolved_inner_tol(spec: SurrogateSpec, grad_norm: float) -> float:
    """Effective monitor slack for an anchor with the given gradient norm."""
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
    gn = float(np.linalg.norm(g_y))
    modulus = spec.strong_convexity

    if spec.kind == "proximal_linear":
        # f(y) + g'(x - y) + (C/2)||x - y||^2
        return SurrogateAt(y, f_y, g_y, gn, y - g_y / modulus, gn / modulus)

    # quadratic_split: keep the PSD part of the local Hessian, add modulus * I.
    # The model Hessian is V diag(curv) V^T on eigh's eigenpairs (V, lambda).
    if obj.dense_hessian is None:
        raise UnsupportedSurrogateError(
            "quadratic_split needs an objective with a dense Hessian"
        )
    eigvals, eigvecs = np.linalg.eigh(obj.dense_hessian(y))
    curv = np.maximum(eigvals, 0.0) + modulus
    x_hat = y - eigvecs @ ((eigvecs.T @ g_y) / curv)
    return SurrogateAt(y, f_y, g_y, gn, x_hat, float(np.linalg.norm(x_hat - y)))


def minimize_surrogate(surr: SurrogateAt):
    """``(surr.minimizer, InnerReport(iterations=0))``: every model is minimized exactly.

    Kept as a function, rather than read off ``surr`` inline, because the
    benchmark tracer (``perfbench/tracer.py``) patches
    ``drivers.minimize_surrogate`` and reads ``.iterations`` off its report.
    """
    return surr.minimizer, InnerReport(iterations=0)
