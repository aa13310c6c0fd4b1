"""Stationarity certification: gradient-norm test and minimum Hessian eigenvalue.

A point is classified against the three-way taxonomy: not first-order
stationary (gradient above the target), an approximate second-order stationary
point (small gradient, minimum Hessian eigenvalue above ``-sqrt(L2 eps)``), or
a strict-saddle candidate (small gradient, eigenvalue below the cut). Which
eigensolver runs depends on the objective:

- up to ``DENSE_DIM_LIMIT`` variables, an objective with a dense Hessian gets
  an exact symmetric eigendecomposition (``np.linalg.eigh``);
- above it, an objective declaring ``tridiagonal_hessian`` (chained
  Rosenbrock) gets the exact lowest eigenpair of the Hessian's band
  (``scipy.linalg.eigh_tridiagonal``);
- every other objective gets implicitly restarted Lanczos (ARPACK through
  ``scipy.sparse.linalg.eigsh``), matrix-free on the shifted operator
  ``L1 I - H`` through Hessian-vector products. Its ``max_iters`` is a budget
  of Hessian-vector products and its Lanczos start vector is fixed, so a
  certificate replays bit for bit.

:func:`resolve_method` makes this choice from the objective alone, before any
Hessian is read, so a certificate's ``method`` depends only on the objective.
A declared tridiagonal Hessian that is not tridiagonal at the point is a
broken declaration and is refused, as is a dense Hessian of the wrong shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from scaopt.numerics import NonFiniteError, RngStream, as_vector
from scaopt.problems import Objective
from scaopt.surrogates import _checked_hessian, _tridiagonal_band, checked_gradient

__all__ = [
    "Certificate",
    "EigenSolveError",
    "SpectralShiftError",
    "min_eigenvalue",
    "resolve_method",
    "classify",
    "certify_run",
    "DENSE_DIM_LIMIT",
]

DENSE_DIM_LIMIT = 200
_START_SEED = 0x5CA1AB1E


class EigenSolveError(RuntimeError):
    """The matrix-free eigensolver could not certify its estimate.

    Carries the best estimate found: ``lambda_min``, its ``residual`` and,
    when one was computed, its unit ``eigenvector``.
    """

    def __init__(self, message: str, lambda_min: float, residual: float,
                 eigenvector: np.ndarray | None = None):
        super().__init__(message)
        self.lambda_min = lambda_min
        self.residual = residual
        self.eigenvector = eigenvector


class SpectralShiftError(RuntimeError):
    """The shifted operator came out indefinite, diagnosing an understated
    gradient-Lipschitz declaration."""


@dataclass(frozen=True)
class Certificate:
    """Evidence classifying a point.

    ``lambda_min``/``lambda_min_residual``/``method`` are None when the
    gradient test already failed and eigenvalue estimation was skipped.
    ``gamma`` is the curvature threshold ``sqrt(L2 eps)``.
    """

    grad_norm: float
    lambda_min: Optional[float]
    lambda_min_residual: Optional[float]
    eps: float
    gamma: float
    classification: str  # eps_sosp | eps_fosp_strict_saddle | not_fosp
    method: Optional[str]  # dense | tridiagonal | matrix_free


def resolve_method(obj: Objective, method: str = "auto") -> str:
    """The eigensolver ``min_eigenvalue`` runs for ``method``: dense, tridiagonal or matrix_free.

    ``auto`` picks ``dense`` for an objective with a dense Hessian up to
    ``DENSE_DIM_LIMIT``; above it, ``tridiagonal`` for one that declares
    ``tridiagonal_hessian`` and ``matrix_free`` otherwise. ``tridiagonal`` is
    only ever picked, never passed in. This is the one place the eigensolver
    is chosen: ``min_eigenvalue`` runs the route it names, and never another.
    """
    if method not in ("auto", "dense", "matrix_free"):
        raise ValueError(f"unknown method '{method}'")
    if method == "auto":
        if obj.dense_hessian is None:
            return "matrix_free"
        if obj.dim <= DENSE_DIM_LIMIT:
            return "dense"
        return "tridiagonal" if obj.tridiagonal_hessian else "matrix_free"
    if method == "dense" and obj.dense_hessian is None:
        raise ValueError("dense method requested but no dense Hessian available")
    return method


class _BudgetExhausted(Exception):
    pass


def _check_shift(rho: float, lip_grad: float) -> None:
    if rho < -1e-9 * max(1.0, lip_grad):
        raise SpectralShiftError(
            f"shifted operator has negative top eigenvalue ({rho:.3e}); the "
            f"declared gradient-Lipschitz constant {lip_grad:.6g} is understated"
        )


def min_eigenvalue(
    obj: Objective,
    x,
    tol: float | None = None,
    max_iters: int = 20_000,
    *,
    method: str = "auto",
):
    """Estimate the minimum Hessian eigenvalue at ``x``.

    Returns ``(lambda_min, eigenvector, residual)`` with
    ``residual = ||H v - lambda v||``, from the eigensolver
    :func:`resolve_method` picks:

    - ``dense`` (a dense Hessian and dim <= ``DENSE_DIM_LIMIT``, or asked for)
      diagonalizes the Hessian's lower triangle with ``np.linalg.eigh``;
    - ``tridiagonal`` (above the limit, for an objective declaring
      ``tridiagonal_hessian``) takes the lowest eigenpair of the Hessian's
      band from ``scipy.linalg.eigh_tridiagonal`` and the residual from a
      banded product;
    - ``matrix_free`` runs implicitly restarted Lanczos (ARPACK, via
      ``scipy.sparse.linalg.eigsh``) for the largest-magnitude eigenvalue
      ``rho`` of the shifted operator ``L1 I - H``.

    Both exact routes refuse a dense Hessian of the wrong shape
    (``ValueError``) and raise :class:`~scaopt.numerics.NonFiniteError` when
    its lower triangle or ``lambda_min`` is not finite; the tridiagonal route
    also refuses (``ValueError``) a finite Hessian that is not tridiagonal at
    ``x``. Neither calls ``hvp``. The shifted operator of the matrix-free path
    is PSD whenever the declared gradient-Lipschitz constant is honest, so
    ``rho = L1 - lambda_min``; a negative ``rho`` raises
    :class:`SpectralShiftError`. The start vector is a fixed draw, so
    a call replays bit for bit. ``max_iters`` bounds the Hessian-vector
    products, including the one that measures the residual of the Ritz pair;
    the estimate must certify with a residual within ``100 tol`` (``tol``
    defaults to ``1e-8 L1``). Running out of budget or missing the bar raises
    :class:`EigenSolveError` carrying the best estimate: on exhaustion, the
    smallest Rayleigh quotient seen.
    """
    x = as_vector(x, obj.dim)
    lip_grad = obj.constants.grad_lipschitz
    if tol is None:
        tol = 1e-8 * lip_grad
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")

    route = resolve_method(obj, method)
    if route == "matrix_free":
        return _lanczos(obj, x, tol, max_iters)
    hess = _checked_hessian(obj, x)
    band = _tridiagonal_band(hess) if route == "tridiagonal" else None
    if band is None:
        if not (np.isfinite(hess).all() or np.isfinite(np.tril(hess)).all()):
            raise NonFiniteError("dense Hessian holds NaN or inf in its lower triangle")
        if route == "tridiagonal":
            raise ValueError("the objective declares tridiagonal_hessian, but its dense "
                             "Hessian is not tridiagonal at the point")
        eigvals, eigvecs = np.linalg.eigh(hess)
        lam = float(eigvals[0])
        vec = eigvecs[:, 0]
        hv = hess @ vec
    else:
        diag, sub = band
        eigvals, eigvecs = eigh_tridiagonal(diag, sub, select="i", select_range=(0, 0),
                                            check_finite=False)
        lam = float(eigvals[0])
        vec = eigvecs[:, 0]
        hv = diag * vec
        hv[:-1] += sub * vec[1:]
        hv[1:] += sub * vec[:-1]
    if not math.isfinite(lam):
        raise NonFiniteError(f"minimum eigenvalue of the dense Hessian is {lam}")
    return lam, vec, float(np.linalg.norm(hv - lam * vec))


def _lanczos(obj: Objective, x: np.ndarray, tol: float, max_iters: int):
    """The matrix-free path of :func:`min_eigenvalue`: ``(lambda_min, eigenvector, residual)``."""
    lip_grad = obj.constants.grad_lipschitz
    calls = 0
    # smallest Rayleigh quotient so far: (quotient, vector, H vector); normalized only if it is
    # the estimate an EigenSolveError reports
    best = (math.inf, None, None)

    def hvp(v):
        nonlocal calls, best
        if calls >= max_iters:
            raise _BudgetExhausted
        calls += 1
        hv = obj.hvp(x, v)
        quotient = float(v @ hv) / float(v @ v)
        if quotient < best[0]:
            best = (quotient, v.copy(), hv)
        return hv

    try:
        if obj.dim == 1:  # ARPACK needs k < n; a 1x1 Hessian is its own eigenpair
            vec = np.ones(1)
            hv = hvp(vec)
            _check_shift(lip_grad - float(hv[0]), lip_grad)
        else:
            shifted = LinearOperator(
                (obj.dim, obj.dim), matvec=lambda v: lip_grad * v - hvp(v), dtype=np.float64
            )
            v0 = RngStream(_START_SEED).standard_normal(obj.dim)
            rhos, vecs = eigsh(shifted, k=1, which="LM", v0=v0, tol=tol / (2.0 * lip_grad),
                               maxiter=max(max_iters, 1))
            _check_shift(float(rhos[0]), lip_grad)
            vec = vecs[:, 0]
            hv = hvp(vec)
        lam = float(vec @ hv)  # the Ritz value, recomputed on H to keep its relative accuracy
        residual = float(np.linalg.norm(hv - lam * vec))
    except (_BudgetExhausted, ArpackNoConvergence):
        lam, v, hv = best
        vec, residual = None, math.inf
        if v is not None:
            scale = 1.0 / float(np.linalg.norm(v))
            vec, residual = scale * v, scale * float(np.linalg.norm(hv - lam * v))
        raise EigenSolveError(
            f"Lanczos exhausted {calls} of {max_iters} Hessian-vector products; best "
            f"estimate has residual {residual:.3e}",
            lambda_min=lam,
            residual=residual,
            eigenvector=vec,
        ) from None
    if residual > 100.0 * tol:
        raise EigenSolveError(
            f"Lanczos estimate has residual {residual:.3e} > {100.0 * tol:.3e}",
            lambda_min=lam,
            residual=residual,
            eigenvector=vec,
        )
    return lam, vec, residual


def classify(obj: Objective, x, eps: float) -> Certificate:
    """Classify a point against the stationarity taxonomy at accuracy ``eps``.

    Skips eigenvalue estimation entirely when the gradient norm already exceeds
    ``eps``; otherwise ``method`` is ``resolve_method(obj)``, the eigensolver
    :func:`min_eigenvalue` ran. Classification is a pure function of the
    gradient norm, the eigenvalue estimate, ``eps``, and the declared
    Hessian-Lipschitz constant. A gradient of the wrong shape raises ``ValueError`` and one
    whose norm is not finite :class:`~scaopt.numerics.NonFiniteError`.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    x = as_vector(x, obj.dim)
    grad_norm = float(np.linalg.norm(checked_gradient(obj, x)))
    if not math.isfinite(grad_norm):
        raise NonFiniteError(f"gradient norm is {grad_norm} at the point to classify")
    gamma = math.sqrt(obj.constants.hessian_lipschitz * eps)
    lam = residual = method = None
    classification = "not_fosp"
    if grad_norm <= eps:
        lam, _, residual = min_eigenvalue(obj, x)
        method = resolve_method(obj)
        classification = "eps_sosp" if lam >= -gamma else "eps_fosp_strict_saddle"
    return Certificate(grad_norm=grad_norm, lambda_min=lam, lambda_min_residual=residual,
                       eps=eps, gamma=gamma, classification=classification, method=method)


def certify_run(obj: Objective, result, eps: float) -> Certificate:
    """Classify the point a run returned."""
    if result.termination == "left_valid_region":
        raise ValueError(
            "cannot certify a run that left the valid region; constants do not "
            "apply at its final point"
        )
    return classify(obj, result.x_out, eps)
