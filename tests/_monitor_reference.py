"""Scalar statements of the monitors, an independent reference for the loop's tallies.

The loop checks its monitors on whole trajectory columns at once
(``drivers._monitors``) and forms the error vector of each step as ``d - g``
(``drivers._step``). These functions state the same inequalities one step at a
time, from the textbook form, and the slack ``1e-10 max(1, ||grad||)`` that
the loop states once (``drivers._scales``), so a test can recheck a run's
records against them.
"""

import numpy as np

from scaopt.drivers import HypothesisViolationError, IterateRecord


def gradient_error(x_t, x_hat, grad) -> np.ndarray:
    """Error vector of the inexact-gradient view of a surrogate step.

    Returns ``e = (x_t - x_hat) - grad``, the unique vector for which
    ``x_{t+1} = x_t - eta (grad + e)`` reproduces the update
    ``x_{t+1} = x_t + eta (x_hat - x_t)`` identically.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if not x_t.shape == x_hat.shape == grad.shape:
        raise ValueError(
            f"dimension mismatch: {x_t.shape}, {x_hat.shape}, {grad.shape}"
        )
    return (x_t - x_hat) - grad


def descent_check(
    f_t: float,
    f_next: float,
    step_norm: float,
    eta: float,
    strong_convexity: float,
    grad_lipschitz: float,
    slack: float = 0.0,
) -> bool:
    """Single-step descent test ``f_next <= f_t - eta' step_norm^2 + slack``.

    ``eta' = eta C - eta^2 L1 / 2`` is positive only for ``eta < 2C/L1``;
    outside that range the test is vacuous and this raises instead.
    """
    if eta >= 2.0 * strong_convexity / grad_lipschitz:
        raise HypothesisViolationError(
            f"descent factor requires eta < 2C/L1 = "
            f"{2.0 * strong_convexity / grad_lipschitz:.6g}, got {eta}"
        )
    eta_prime = eta * strong_convexity - eta**2 * grad_lipschitz / 2.0
    return f_next <= f_t - eta_prime * step_norm**2 + slack


def monitor_slack(grad_norm: float) -> float:
    """The monitors' slack ``1e-10 max(1, ||grad||)`` at an iterate with this gradient norm."""
    return 1e-10 * max(1.0, grad_norm)


def descent_slack(rec: IterateRecord, eta: float) -> float:
    """Tolerance for the descent test: float headroom plus the monitor slack."""
    return 1e-9 * (1.0 + abs(rec.f)) + eta * monitor_slack(rec.grad_norm) * rec.step_norm
