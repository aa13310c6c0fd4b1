"""Strongly convex local models of an objective and their closed-form minimizers.

A surrogate anchored at ``y`` is strongly convex with a uniform modulus and its
gradient matches the objective's gradient at the anchor. The outer loop uses a
model only through its anchor value, gradient and gradient norm, its minimizer
and the norm of the step to it, so that is what a :class:`SurrogateAt`
carries; the anchor itself stays with the caller. Two families are built in,
both minimized in closed form: a proximal-linear model (minimizer ``y - g/C``;
at modulus 1 that is the gradient step, and GD and PGD are this model) and a
curvature-aware model built from the positive part of the dense Hessian. That
model's minimizer is found factor first: a tridiagonal Hessian with a nonzero
subdiagonal (chained Rosenbrock's) that a banded Cholesky factorization shows
positive definite is its own positive part, so the step is one banded solve;
an indefinite, singular or diagonal one (the quartic's) goes through the
tridiagonal eigensolver, and any other Hessian through dense
``np.linalg.eigh``. A ``custom`` builder supplies all of these fields itself.
:func:`build_surrogate` checks its anchor first; the outer loop, which checks
each anchor where it is made, calls the unchecked ``_build`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# scipy is imported inside the functions that call it, so `import scaopt` loads numpy only

from scaopt.numerics import as_vector, row_dots
from scaopt.problems import Objective

__all__ = [
    "SurrogateSpec",
    "SurrogateAt",
    "UnsupportedSurrogateError",
    "checked_gradient",
    "checked_anchor",
    "build_surrogate",
]

KINDS = ("proximal_linear", "quadratic_split", "custom")


class UnsupportedSurrogateError(ValueError):
    """The requested surrogate family cannot be built for this objective."""


@dataclass(frozen=True)
class SurrogateSpec:
    """Configuration of the surrogate family.

    ``strong_convexity`` is the model's modulus ``C``; ``builder(obj, y, spec)``
    builds a ``custom`` model.
    """

    kind: str = "proximal_linear"
    strong_convexity: float = 1.0
    builder: Callable | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown surrogate kind '{self.kind}'; known: {KINDS}")
        if not self.strong_convexity > 0:
            raise ValueError("strong_convexity must be positive")


@dataclass(slots=True)
class SurrogateAt:
    """A strongly convex model anchored at a point, as the outer loop uses it.

    ``anchor_value``/``anchor_grad`` are the objective's value and gradient at
    the anchor (the model's gradient equals ``anchor_grad`` there, exactly) and
    ``grad_norm`` is ``||anchor_grad||``. ``minimizer`` is the model's exact
    minimizer and ``step_norm`` its distance ``||minimizer - anchor||``. The
    anchor itself is not kept: the caller built the model there. The models of
    a ``(B, d)`` stack of anchors hold each field for every row: ``B`` values
    and norms, ``(B, d)`` gradients and minimizers; but the proximal model,
    when built on the whole stack at once, reads no value and holds
    ``anchor_value`` None. (Not frozen: a frozen dataclass costs three times
    as much to construct, once per iteration of a run.)
    """

    anchor_value: float  # None for a proximal model built on a stack: its values are unread
    anchor_grad: np.ndarray
    grad_norm: float
    minimizer: np.ndarray
    step_norm: float


@dataclass(frozen=True)
class InnerReport:
    iterations: int


_FLOAT64 = np.dtype(np.float64)


def checked_gradient(obj: Objective, x: np.ndarray) -> np.ndarray:
    """The gradient at ``x`` as float64, checked to have the shape of ``x``."""
    g = obj.gradient(x)
    if type(g) is not np.ndarray or g.dtype is not _FLOAT64:  # np.asarray is a no-op otherwise
        g = np.asarray(g, dtype=np.float64)
    if g.shape != x.shape:
        raise ValueError(f"gradient has shape {g.shape}, expected {x.shape}")
    return g


def checked_anchor(obj: Objective, y, name: str = "anchor") -> np.ndarray:
    """``y`` as a finite float64 vector of the objective's dimension inside its valid region."""
    y = as_vector(y, obj.dim)
    if not obj.in_region(y):
        raise ValueError(f"{name} lies outside the objective's valid region")
    return y


def build_surrogate(obj: Objective, y, spec: SurrogateSpec) -> SurrogateAt:
    """Construct the configured surrogate anchored at ``y``, checked by :func:`checked_anchor`."""
    return _build(obj, checked_anchor(obj, y), spec)


def _build(obj: Objective, y: np.ndarray, spec: SurrogateSpec) -> SurrogateAt:
    """:func:`build_surrogate` on an anchor that has passed :func:`checked_anchor` or its checks.

    ``y`` may also be a ``(B, d)`` stack of such anchors when the model is
    ``proximal_linear`` and ``obj.batched``: the model of every row is built at
    once, each with the bits of its one-row build, except that the values are
    not read: ``anchor_value`` is None, and the caller reads them.
    """
    if spec.kind == "custom":
        if spec.builder is None:
            raise UnsupportedSurrogateError("custom surrogate requires a builder")
        surr = spec.builder(obj, y, spec)
        for name in ("anchor_grad", "minimizer"):
            shape = np.shape(getattr(surr, name))
            if shape != y.shape:
                raise ValueError(f"custom surrogate {name} has shape {shape}, expected {y.shape}")
        return surr

    f_y = float(obj.value(y)) if y.ndim == 1 else None
    g_y = checked_gradient(obj, y)
    gn = np.sqrt(row_dots(g_y, g_y))
    modulus = spec.strong_convexity

    if spec.kind == "proximal_linear":
        # f(y) + g'(x - y) + (C/2)||x - y||^2
        if modulus == 1.0:  # g/1.0 is g, bit for bit
            return SurrogateAt(f_y, g_y, gn, y - g_y, gn)
        return SurrogateAt(f_y, g_y, gn, y - g_y / modulus, gn / modulus)

    # quadratic_split: keep the PSD part of the local Hessian, add modulus * I.
    if obj.dense_hessian is None:
        raise UnsupportedSurrogateError(
            "quadratic_split needs an objective with a dense Hessian"
        )
    x_hat = y - _split_model_solve(_checked_hessian(obj, y), g_y, modulus)
    step = x_hat - y
    return SurrogateAt(f_y, g_y, gn, x_hat, np.sqrt(row_dots(step, step)))


def _checked_hessian(obj: Objective, y: np.ndarray) -> np.ndarray:
    """``obj.dense_hessian(y)`` as float64, checked to be ``d x d`` for the ``d``-vector ``y``."""
    h = np.asarray(obj.dense_hessian(y), dtype=np.float64)
    if h.shape != (y.size, y.size):
        raise ValueError(f"dense Hessian has shape {h.shape}, expected {(y.size, y.size)}")
    return h


def _tridiagonal_band(h: np.ndarray):
    """``(diag, sub)`` of ``h``'s lower triangle if it is tridiagonal with a finite band, else None.

    ``h`` is a float64 matrix. The test is exact and, on a tridiagonal ``h``,
    makes no ``d x d`` temporary: the entries of ``h`` with a nonzero bit
    pattern, counted in place, equal those of its three central diagonals
    exactly when every entry off the band is ``+0.0``. Only when the counts
    differ (an entry above the diagonal, which is ignored as ``eigh`` ignores
    it, or a ``-0.0``) is the lower triangle below the band read. Counting
    bits rather than floats halves the time of the count. ``diag`` and
    ``sub`` are read-only views of ``h``.
    """
    diag, sub = h.diagonal(), h.diagonal(-1)
    if not (np.isfinite(diag).all() and np.isfinite(sub).all()):
        return None
    bits = h.view(np.uint64)
    on_band = sum(np.count_nonzero(bits.diagonal(k)) for k in (-1, 0, 1))
    if np.count_nonzero(bits) != on_band and np.tril(h, -2).any():
        return None
    return diag, sub


def _split_model_solve(h: np.ndarray, g: np.ndarray, modulus: float) -> np.ndarray:
    """``(H_+ + C I)^{-1} g``, with ``H`` the symmetric matrix of ``h``'s lower triangle.

    ``H_+`` is ``H`` with its negative eigenvalues set to 0. On eigenpairs
    ``(V, lambda)`` of ``H`` the solve is ``V ((V' g) / (max(lambda, 0) + C))``,
    its two matrix-vector products taken by :func:`~scaopt.numerics.row_dots`
    rather than BLAS.
    ``np.linalg.eigh`` reads only the lower triangle, so the band is read off
    it too (by :func:`_tridiagonal_band`), and the cheapest exact route is
    taken:

    - a tridiagonal ``H`` with a nonzero subdiagonal is first factored by
      ``scipy.linalg.cholesky_banded``; when that succeeds ``H`` is positive
      definite, ``H_+ = H``, and the solve is ``solveh_banded(H + C I, g)``
      on the two bands, O(d);
    - when the factorization fails (``H`` is indefinite or singular), or the
      subdiagonal is zero (a diagonal ``H``, whose eigenvectors are exact
      signed unit vectors, so the minimizer keeps the bits of dense ``eigh``),
      the eigenpairs come from ``scipy.linalg.eigh_tridiagonal``;
    - anything else, or a band holding NaN or inf, goes through dense
      ``np.linalg.eigh``.
    """
    band = _tridiagonal_band(h)
    if band is None:
        eigvals, eigvecs = np.linalg.eigh(h)
    else:
        from scipy.linalg import cholesky_banded, eigh_tridiagonal, solveh_banded

        diag, sub = band
        if sub.any():
            ab = np.zeros((2, diag.size))  # lower banded storage
            ab[0] = diag
            ab[1, :-1] = sub
            try:
                cholesky_banded(ab, lower=True, check_finite=False)
                ab[0] += modulus
                return solveh_banded(ab, g, lower=True, check_finite=False)
            except np.linalg.LinAlgError:
                pass
        eigvals, eigvecs = eigh_tridiagonal(diag, sub)
    return row_dots(eigvecs, row_dots(eigvecs.T, g) / (np.maximum(eigvals, 0.0) + modulus))


_EXACT = InnerReport(iterations=0)


def minimize_surrogate(surr: SurrogateAt):
    """``(surr.minimizer, InnerReport(iterations=0))``: every model is minimized exactly.

    Kept as a function, rather than read off ``surr`` inline, because the
    benchmark tracer (``perfbench/tracer.py``) patches
    ``drivers.minimize_surrogate`` and reads ``.iterations`` off its report.
    """
    return surr.minimizer, _EXACT
