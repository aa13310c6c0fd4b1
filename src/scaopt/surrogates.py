"""Strongly convex local models of an objective and their closed-form minimizers.

A surrogate anchored at ``y`` is strongly convex with a uniform modulus and its
gradient matches the objective's gradient at the anchor. The outer loop uses a
model only through its anchor value, gradient and gradient norm, its minimizer
and the norm of the step to it, so that is what a :class:`SurrogateAt`
carries; the anchor itself stays with the caller. Two families are built in,
both minimized in closed form: a proximal-linear model (minimizer ``y - g/C``;
at modulus 1 that is the gradient step, and GD and PGD are this model) and a
curvature-aware model built from the positive part of the local Hessian. That
model reads the Hessian's band where the objective declares one
(``Objective.hessian_band``), with no ``d x d`` matrix: a zero band (the
quartic's diagonal Hessian, or a diagonal quadratic's) is its own eigenbasis,
and the step is elementwise, ``g / (max(diag, 0) + C)``, O(d); a tridiagonal
band with a nonzero subdiagonal (chained Rosenbrock's) that a banded Cholesky
factorization shows positive definite is its own positive part, so the step is
one banded solve, and an indefinite or singular one goes through the
tridiagonal eigensolver. Without a declared band the model reads the dense
Hessian and calls dense ``np.linalg.eigh``, whatever its shape. Every banded
route gives the bits of the dense one. A ``custom`` builder supplies all of
these fields itself. :func:`build_surrogate` checks its anchor first; the outer
loop, which checks each anchor where it is made, calls the unchecked ``_build``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# scipy is imported inside the functions that call it, so `import scaopt` loads numpy only

from scaopt.numerics import as_vector, require, row_dots
from scaopt.problems import Objective

__all__ = [
    "SurrogateSpec",
    "SurrogateAt",
    "UnsupportedSurrogateError",
    "unsupported",
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

    ``strong_convexity`` is the model's modulus ``C`` (its rule is
    :func:`~scaopt.numerics.require`'s); ``builder(obj, y, spec)`` builds a ``custom`` model.
    """

    kind: str = "proximal_linear"
    strong_convexity: float = 1.0
    builder: Callable | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown surrogate kind '{self.kind}'; known: {KINDS}")
        require(strong_convexity=self.strong_convexity)


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
    when built on the whole stack at once, forms only its gradients and
    minimizers, and holds ``anchor_value``, ``grad_norm`` and ``step_norm``
    None until the caller forms them. (Not frozen: a frozen dataclass costs
    three times as much to construct, once per iteration of a run.)
    """

    anchor_value: float  # None on a proximal model built on a stack, until its caller forms it
    anchor_grad: np.ndarray
    grad_norm: float  # likewise
    minimizer: np.ndarray
    step_norm: float  # likewise


@dataclass(frozen=True)
class InnerReport:
    iterations: int


_FLOAT64 = np.dtype(np.float64)


def unsupported(kind: str, obj: Objective) -> str | None:
    """Why a ``kind`` model cannot be built for ``obj``, or None if it can."""
    if kind == "quadratic_split" and obj.dense_hessian is None:
        return "quadratic_split needs a problem with a dense Hessian"
    return None


def checked_gradient(obj: Objective, x: np.ndarray) -> np.ndarray:
    """The gradient at ``x`` as float64, checked to have the shape of ``x``."""
    g = obj.gradient(x)
    if type(g) is not np.ndarray or g.dtype is not _FLOAT64:  # np.asarray is a no-op otherwise
        g = np.asarray(g, dtype=np.float64)
    if g.shape != x.shape:
        raise ValueError(f"gradient has shape {g.shape}, expected {x.shape}")
    return g


def checked_anchor(obj: Objective, y, name: str = "anchor") -> np.ndarray:
    """``y`` (named ``name``) as a finite float64 vector of ``obj``'s dimension in its region."""
    y = as_vector(y, obj.dim, name)
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
    once, its gradient and minimizer with the bits of its one-row build, but
    neither the values nor the norms are formed: ``anchor_value``,
    ``grad_norm`` and ``step_norm`` are None, and the caller forms what it
    reads (the norms as ``sqrt(g'g)`` by :func:`~scaopt.numerics.row_dots`,
    and that over ``C``).
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
    gn = np.sqrt(row_dots(g_y, g_y)) if y.ndim == 1 else None
    modulus = spec.strong_convexity

    if spec.kind == "proximal_linear":
        # f(y) + g'(x - y) + (C/2)||x - y||^2
        if modulus == 1.0:  # g/1.0 is g, bit for bit
            return SurrogateAt(f_y, g_y, gn, y - g_y, gn)
        return SurrogateAt(f_y, g_y, gn, y - g_y / modulus, None if gn is None else gn / modulus)

    # quadratic_split: keep the PSD part of the local Hessian, add modulus * I.
    if (why := unsupported(spec.kind, obj)) is not None:
        raise UnsupportedSurrogateError(why)
    if obj.hessian_band is None:
        x_hat = y - _eigen_solve(*np.linalg.eigh(_checked_hessian(obj, y)), g_y, modulus)
    else:
        x_hat = y - _band_solve(*_checked_band(obj, y), g_y, modulus)
    step = x_hat - y
    return SurrogateAt(f_y, g_y, gn, x_hat, np.sqrt(row_dots(step, step)))


def _checked_hessian(obj: Objective, y: np.ndarray) -> np.ndarray:
    """``obj.dense_hessian(y)`` as float64, checked to be ``d x d`` for the ``d``-vector ``y``."""
    h = np.asarray(obj.dense_hessian(y), dtype=np.float64)
    if h.shape != (y.size, y.size):
        raise ValueError(f"dense Hessian has shape {h.shape}, expected {(y.size, y.size)}")
    return h


def _checked_band(obj: Objective, y: np.ndarray):
    """``obj.hessian_band(y)`` as float64, checked to be the ``d`` and ``d - 1`` entries of a
    band for the ``d``-vector ``y``."""
    diag, sub = (np.asarray(b, dtype=np.float64) for b in obj.hessian_band(y))
    if diag.shape != y.shape or sub.shape != (y.size - 1,):
        raise ValueError(f"Hessian band has shapes {diag.shape} and {sub.shape}, "
                         f"expected {y.shape} and {(y.size - 1,)}")
    return diag, sub


def _band_solve(diag, sub, g, modulus):
    """``(H_+ + C I)^{-1} g`` for the symmetric tridiagonal ``H`` of the bands ``diag`` and ``sub``.

    A zero ``sub`` (a diagonal ``H``, its own eigenbasis) is a division, O(d)
    and with no scipy import; its ``+ 0.0`` turns a ``-0.0`` into the ``+0.0``
    of the eigensolver's route, so the step keeps dense ``eigh``'s bits. A
    nonzero ``sub`` is first factored by ``scipy.linalg.cholesky_banded``; when
    that succeeds ``H`` is positive definite, ``H_+ = H``, and the solve is
    ``solveh_banded(H + C I, g)``, O(d). When it fails (``H`` is indefinite or
    singular), the eigenpairs come from ``scipy.linalg.eigh_tridiagonal``.
    """
    if not sub.any():
        return g / (np.maximum(diag, 0.0) + modulus) + 0.0
    from scipy.linalg import cholesky_banded, eigh_tridiagonal, solveh_banded

    ab = np.zeros((2, diag.size))  # lower banded storage
    ab[0] = diag
    ab[1, :-1] = sub
    try:
        cholesky_banded(ab, lower=True, check_finite=False)
        ab[0] += modulus
        return solveh_banded(ab, g, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        pass
    return _eigen_solve(*eigh_tridiagonal(diag, sub), g, modulus)


def _eigen_solve(eigvals, eigvecs, g, modulus):
    """``V ((V' g) / (max(lambda, 0) + C))`` on the eigenpairs ``(lambda, V)``, without BLAS."""
    return row_dots(eigvecs, row_dots(eigvecs.T, g) / (np.maximum(eigvals, 0.0) + modulus))


_EXACT = InnerReport(iterations=0)


def minimize_surrogate(surr: SurrogateAt):
    """``(surr.minimizer, InnerReport(iterations=0))``: every model is minimized exactly.

    Kept as a function, rather than read off ``surr`` inline, because the
    benchmark tracer (``perfbench/tracer.py``) patches
    ``drivers.minimize_surrogate`` and reads ``.iterations`` off its report.
    """
    return surr.minimizer, _EXACT
