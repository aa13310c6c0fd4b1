"""Outer solvers: surrogate descent, its perturbed saddle-escaping variant, and baselines.

All four drivers run one outer loop, configured by a step rule and a
perturbation policy. Each iteration moves a fraction ``eta`` from ``x`` toward
a point ``x_hat``:

* step rule: ``x_hat`` minimizes the surrogate built at ``x``. GD and PGD are
  SCA and P-SCA with the proximal model at unit modulus, whose minimizer is
  the gradient step ``x - grad``;
* perturbation policy: none (SCA, GD), or the perturbed protocol (P-SCA, PGD),
  which injects a uniform-ball perturbation whenever the gradient is small and
  enough iterations have passed since the last injection, and returns the
  pre-perturbation point as the second-order stationary candidate if the
  objective fails to drop by the required threshold within the window.

SCA and GD stop at the first iterate whose gradient norm is at most ``g_th``;
P-SCA and PGD stop at that threshold only when one is given. Every run records
an inexact-gradient view of its steps (the error vector that rewrites the
update as a gradient step) plus per-iteration descent, optimality, direction
and error-bound monitors.

Each anchor is checked once, where it is made (``x0`` on entry, every later
point by :meth:`Objective.in_region`), so the loop builds its models unchecked.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from scaopt.numerics import NonFiniteError, RngStream, sample_uniform_ball
from scaopt.problems import Objective
from scaopt.surrogates import SurrogateSpec, checked_anchor, checked_gradient, minimize_surrogate
# Unchecked, under the name the tracer patches; renamed after ROADMAP item 1's benchmark stage.
from scaopt.surrogates import _build as build_surrogate

__all__ = [
    "HypothesisViolationError",
    "RegionExitError",
    "PscaParams",
    "PerturbationState",
    "IterateRecord",
    "MonitorCounts",
    "RunResult",
    "DiagnosticScales",
    "derive_params",
    "derive_scales",
    "gradient_error",
    "descent_check",
    "monitor_slack",
    "descent_slack",
    "sca_step",
    "maybe_perturb",
    "check_termination",
    "run_sca",
    "run_psca",
    "run_gd",
    "run_pgd",
]

class HypothesisViolationError(ValueError):
    """A configuration violates a hypothesis the guarantees depend on."""


class RegionExitError(RuntimeError):
    """An iterate left the region on which the declared constants are valid."""


@dataclass(frozen=True)
class PscaParams:
    """Derived configuration of the perturbed driver.

    ``chi`` is the log factor ``3 max(log(d L1 dU / (c eps^2 delta)), 4)``;
    the step, perturbation radius, thresholds, and window length all follow
    from it (see :func:`derive_params`). Construct through
    :func:`derive_params`, which validates the hypotheses instead of clamping.
    """

    eps: float
    delta: float
    c: float
    s: float
    delta_u: float
    chi: float
    eta: float
    r: float
    g_th: float
    f_th: float
    t_th: int
    max_iters: int

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if not 0 < self.c <= 1:
            raise ValueError("c must lie in (0, 1]")
        if not 0 < self.s < 1:
            raise ValueError("s must lie in (0, 1)")
        if not (self.eps > 0 and self.delta_u > 0):
            raise ValueError("eps and delta_u must be positive")
        if not self.chi >= 12.0 - 1e-9:
            raise ValueError(f"chi must be >= 12, got {self.chi}")
        if not all(v > 0 for v in (self.eta, self.r, self.g_th, self.f_th)):
            raise ValueError("eta, r, g_th, f_th must be positive")
        if self.t_th < 1 or self.max_iters < 1:
            raise ValueError("t_th and max_iters must be positive integers")


@dataclass(frozen=True)
class PerturbationState:
    """Bookkeeping for the last injection: its iteration, anchor, and value."""

    t_noise: int
    x_tilde: Optional[np.ndarray] = None
    f_tilde: Optional[float] = None


@dataclass(frozen=True, slots=True)
class IterateRecord:
    """One trajectory row.

    ``f``/``grad_norm`` describe the iterate the step starts from (after any
    perturbation injected this iteration); ``step_norm``/``err_norm`` describe
    the step taken from it. Terminal rows carry zero step fields.
    """

    t: int
    f: float
    grad_norm: float
    step_norm: float
    err_norm: float
    perturbed: bool


@dataclass
class MonitorCounts:
    """Pass/checked tallies for the per-iteration inequality monitors."""

    descent_checked: int = 0
    descent_passed: int = 0
    optimality_checked: int = 0
    optimality_passed: int = 0
    direction_checked: int = 0
    direction_passed: int = 0
    error_bound_checked: int = 0
    error_bound_passed: int = 0

    def all_passed(self) -> bool:
        return (
            self.descent_passed == self.descent_checked
            and self.optimality_passed == self.optimality_checked
            and self.direction_passed == self.direction_checked
            and self.error_bound_passed == self.error_bound_checked
        )


@dataclass
class RunResult:
    """Full trajectory of a run plus its termination and returned point.

    ``records`` has one row per visited iterate (steps + 1 rows). ``x_out`` is
    the last row's iterate and ``f_out`` its ``f``, except when the perturbed
    driver returns the pre-perturbation anchor: then they are that anchor and
    its value, which generally differ from the last trajectory row.
    ``events`` maps row index to a semicolon-separated tag string (perturbation
    rows carry the pre-perturbation objective value so the window decrement is
    auditable from the trajectory alone).
    """

    records: list[IterateRecord]
    termination: str
    x_out: np.ndarray
    f_out: float
    perturbation_count: int
    seed: int
    events: dict[int, str] = field(default_factory=dict)
    perturbation_state: PerturbationState = PerturbationState(t_noise=0)
    monitors: MonitorCounts = field(default_factory=MonitorCounts)
    iterates: Optional[list[tuple[int, np.ndarray]]] = None

    @property
    def iterations(self) -> int:
        return len(self.records) - 1

    @property
    def final_f(self) -> float:
        return self.records[-1].f

    @property
    def final_grad_norm(self) -> float:
        return self.records[-1].grad_norm


@dataclass(frozen=True)
class DiagnosticScales:
    """Landscape scales of the escape analysis, plus the gradient-error bound.

    ``curvature_threshold`` is ``sqrt(L2 eps)`` (the eigenvalue cut for
    second-order stationarity) and ``condition_number`` is ``L1`` over it.
    ``grad_error_bound`` is ``L0 (1 + 1/C)`` when the objective declares a
    value-Lipschitz constant, else None. ``step_rule_residual`` reports how far
    the configured ``c`` sits from the analysis' step-selection rule
    ``16 c^3 L2 D^3 = s f_th`` (diagnostic only; the rule is circular in c).
    """

    curvature_threshold: float
    condition_number: float
    func_decrease_scale: float
    grad_scale: float
    length_scale: float
    time_scale: float
    grad_error_bound: Optional[float] = None
    step_rule_residual: Optional[float] = None


def derive_params(
    eps: float,
    delta: float,
    c: float,
    s: float,
    delta_u: float,
    obj: Objective,
    max_iters: int = 100_000,
    window_variant: str = "proof",
) -> PscaParams:
    """Derive the perturbed driver's configuration from the user inputs.

    All quantities follow the step-1 formulas exactly; violated preconditions
    raise instead of clamping, and so do inputs so extreme that ``chi``,
    ``f_th`` or the window is not a finite positive float.
    ``window_variant="proof"`` (default) sets the window length to
    ``ceil((chi/c^2) L1 / sqrt(L2 eps))``; ``"algorithm"`` multiplies in the
    extra ``(1 - s)`` factor of the alternative statement.
    """
    lip_grad = obj.constants.grad_lipschitz
    lip_hess = obj.constants.hessian_lipschitz
    if lip_hess <= 0:
        raise ValueError(
            "parameter derivation needs a positive Hessian-Lipschitz declaration"
        )
    if not 0 < c <= 1:
        raise ValueError(f"c must lie in (0, 1], got {c}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not 0 < s < 1:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    if not 0 < delta_u < math.inf:
        raise ValueError(f"delta_u must be positive and finite, got {delta_u}")
    if window_variant not in ("proof", "algorithm"):
        raise ValueError(f"unknown window_variant '{window_variant}'")
    eps_max = lip_grad**2 / lip_hess
    if not 0 < eps <= eps_max:
        raise HypothesisViolationError(
            f"eps must satisfy 0 < eps <= L1^2/L2 = {eps_max:.6g}, got {eps}"
        )

    try:
        chi = 3.0 * max(math.log(obj.dim * lip_grad * delta_u / (c * eps**2 * delta)), 4.0)
        eta = c / lip_grad
        g_th = eps * math.sqrt(c) / chi**2
        r = eps * math.sqrt(c) / (lip_grad * chi**2)
        f_th = (c / chi**3) * math.sqrt(eps**3 / lip_hess)
        window = (chi / c**2) * lip_grad / math.sqrt(lip_hess * eps)
        if window_variant == "algorithm":
            window *= 1.0 - s
        in_range = all(0 < v < math.inf for v in (chi, f_th, window))
    except (ArithmeticError, ValueError):  # a divisor or the log's argument underflowed to 0
        in_range = False
    if not in_range:
        raise ValueError(
            f"eps={eps:g}, c={c:g} and delta_u={delta_u:g} put the derived thresholds out of "
            "floating-point range: chi, f_th and the window must be finite and positive"
        )
    t_th = max(1, math.ceil(window))
    return PscaParams(
        eps=eps,
        delta=delta,
        c=c,
        s=s,
        delta_u=delta_u,
        chi=chi,
        eta=eta,
        r=r,
        g_th=g_th,
        f_th=f_th,
        t_th=t_th,
        max_iters=max_iters,
    )


def derive_scales(
    params: PscaParams, obj: Objective, strong_convexity: float
) -> DiagnosticScales:
    """Compute the diagnostic landscape scales for a derived configuration."""
    lip_grad = obj.constants.grad_lipschitz
    lip_hess = obj.constants.hessian_lipschitz
    gamma = math.sqrt(lip_hess * params.eps)
    kappa = lip_grad / gamma
    log_term = math.log(obj.dim * kappa / params.delta)
    func_scale = (params.eta * lip_grad / lip_hess**2) * gamma**3 / log_term**3
    grad_scale = (math.sqrt(params.eta * lip_grad) / lip_hess) * gamma**2 / log_term**2
    length_scale = math.sqrt(params.eta * lip_grad) * (gamma / lip_hess) / log_term
    time_scale = log_term / (params.eta * gamma)

    err_bound = None
    rule_residual = None
    lip_value = obj.constants.value_lipschitz
    if lip_value is not None:
        err_bound = lip_value * (1.0 + 1.0 / strong_convexity)
        rule_residual = (
            params.c**3 * 16.0 * lip_hess * err_bound**3 - params.s * params.f_th
        )
    return DiagnosticScales(
        curvature_threshold=gamma,
        condition_number=kappa,
        func_decrease_scale=func_scale,
        grad_scale=grad_scale,
        length_scale=length_scale,
        time_scale=time_scale,
        grad_error_bound=err_bound,
        step_rule_residual=rule_residual,
    )


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
    """Slack ``1e-10 max(1, ||grad||)`` of every monitor at an iterate with this gradient norm."""
    return 1e-10 * max(1.0, grad_norm)


def descent_slack(rec: IterateRecord, eta: float) -> float:
    """Tolerance for the descent test: float headroom plus the monitor slack."""
    return 1e-9 * (1.0 + abs(rec.f)) + eta * monitor_slack(rec.grad_norm) * rec.step_norm


def _region_exit_message(obj: Objective, x) -> str:
    return (
        f"iterate left the valid region (norm {np.linalg.norm(x, obj.region_norm):.6g}"
        f" > radius {obj.region_radius:.6g})"
    )


def _evaluate(obj, spec, x, t):
    """The surrogate at the checked anchor ``x``; raises on a non-finite value or gradient."""
    surr = build_surrogate(obj, x, spec)
    if not (math.isfinite(surr.anchor_value) and math.isfinite(surr.grad_norm)):
        raise NonFiniteError(f"non-finite objective or gradient at iteration {t}")
    return surr


def _value_and_grad_norm(obj, x):
    """``(f(x), ||grad f(x)||)`` for a terminal row."""
    f = float(obj.value(x))
    g = checked_gradient(obj, x)
    return f, math.sqrt(g @ g)


def _step(obj, spec, surr, x, eta, t, perturbed=False, counts=None):
    """The update ``x + eta (x_hat - x)`` and the trajectory row of the step.

    ``x_hat`` is the minimizer of ``surr``, the model built at ``x`` (``x - g``
    for GD and PGD), and the row takes the model's value and norms. Raises
    :class:`RegionExitError` when the update leaves the valid region, so every
    point returned is a checked anchor. With ``counts``, tallies the step's
    optimality, direction and error-bound monitors.

    The difference ``d = x - x_hat`` is formed once: the update is computed as
    ``x - eta d``, the error vector of :func:`gradient_error` as ``d - g`` and
    the optimality gap as ``d'g``. ``x - eta d`` has the same bits as
    ``x + eta (x_hat - x)`` except that a ``-0.0`` coordinate of ``x`` with a
    zero step there stays ``-0.0``.
    """
    x_hat, _ = minimize_surrogate(surr)
    g, gn, step_norm = surr.anchor_grad, surr.grad_norm, surr.step_norm
    d = x - x_hat
    x_next = x - eta * d
    if not obj.in_region(x_next):
        raise RegionExitError(_region_exit_message(obj, x_next))
    err = d - g
    err_norm = math.sqrt(err @ err)
    if counts is not None:
        _step_monitors(counts, monitor_slack(gn), float(d @ g), gn, step_norm, err_norm, obj,
                       spec.strong_convexity)
    return x_next, IterateRecord(t, surr.anchor_value, gn, step_norm, err_norm, perturbed)


def sca_step(obj: Objective, spec: SurrogateSpec, x_t, eta: float, t: int = 0):
    """One surrogate-descent update ``x_t + eta (x_hat - x_t)``.

    Returns the next iterate and its :class:`IterateRecord` (including the
    inexact-gradient error norm).
    """
    if not 0 < eta <= 1:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    x_t = checked_anchor(obj, x_t)
    return _step(obj, spec, build_surrogate(obj, x_t, spec), x_t, eta, t)


def maybe_perturb(
    params: PscaParams,
    state: PerturbationState,
    x_t: np.ndarray,
    f_t: float,
    grad_norm: float,
    t: int,
    rng: RngStream,
):
    """Inject a uniform-ball perturbation when the gradient is small and the window allows.

    Fires only when ``grad_norm <= g_th`` and strictly more than ``t_th``
    iterations have passed since the last injection. Stores the anchor and its
    value before moving, so the window test can compare against them. Returns
    ``(x, state, perturbed)``.
    """
    if grad_norm <= params.g_th and t - state.t_noise > params.t_th:
        new_state = PerturbationState(t_noise=t, x_tilde=x_t.copy(), f_tilde=f_t)
        xi = sample_uniform_ball(x_t.size, params.r, rng)
        return x_t + xi, new_state, True
    return x_t, state, False


def check_termination(
    params: PscaParams, state: PerturbationState, x_t, f_t: float, t: int
) -> Optional[np.ndarray]:
    """Window test: return the stored anchor when the decrement was insufficient.

    Exactly ``t_th`` iterations after an injection, if the objective has not
    dropped below the anchor value by more than ``(1 - s) f_th``, the anchor is
    the algorithm's output (an escape that was going to happen has happened by
    now with high probability). Exact floating comparison, no added tolerance.
    """
    if state.x_tilde is None:
        return None
    if t - state.t_noise == params.t_th and f_t - state.f_tilde > -(1.0 - params.s) * params.f_th:
        return state.x_tilde
    return None


def _finalize_monitors(records, counts, spec, eta, grad_lipschitz):
    """Descent checks between consecutive rows (skipping perturbation jumps).

    Each check is :func:`descent_check` with :func:`descent_slack`, with the
    factor ``eta'`` computed once for the run.
    """
    modulus = spec.strong_convexity
    if eta >= 2.0 * modulus / grad_lipschitz:
        return
    eta_prime = eta * modulus - eta**2 * grad_lipschitz / 2.0
    checked = passed = 0
    for prev, nxt in zip(records, records[1:]):
        if nxt.perturbed:
            continue  # nxt.f includes the injected jump, not a pure step
        checked += 1
        passed += nxt.f <= prev.f - eta_prime * prev.step_norm**2 + descent_slack(prev, eta)
    counts.descent_checked += checked
    counts.descent_passed += passed


def _step_monitors(counts, tol, gap, gn, step_norm, err_norm, obj, modulus):
    """Optimality, direction-bound, and error-bound monitors for one step.

    ``gap`` is the optimality gap ``(x - x_hat)'g``.
    """
    counts.optimality_checked += 1
    counts.optimality_passed += gap >= modulus * step_norm**2 - (tol * step_norm + 1e-9)
    counts.direction_checked += 1
    counts.direction_passed += step_norm <= gn / modulus + tol / modulus
    lip_value = obj.constants.value_lipschitz
    if lip_value is not None:
        counts.error_bound_checked += 1
        bound = lip_value * (1.0 + 1.0 / modulus) + tol / modulus
        counts.error_bound_passed += err_norm <= bound


def _stop(records, events, t, f, gn, perturbed, tag):
    """Append the terminal row at ``t``, add ``tag`` to its event, return the termination."""
    events[t] = f"{events[t]};{tag}" if t in events else tag
    records.append(IterateRecord(t, f, gn, 0.0, 0.0, perturbed))
    return tag.partition(";")[0]


# GD's and PGD's model: the proximal model at unit modulus, whose exact
# minimizer is the gradient step.
_GRADIENT_MODEL = SurrogateSpec()


def _run(
    obj: Objective,
    spec: SurrogateSpec,
    eta: float,
    max_iters: int,
    x0,
    *,
    params: PscaParams | None = None,
    rng: RngStream | None = None,
    stop_grad_norm: float | None = None,
    keep_iterates_every: int | None = None,
) -> RunResult:
    """The outer loop shared by every driver.

    Each iteration evaluates the iterate, applies the perturbation policy
    (``params`` and ``rng``; none when ``params`` is None), keeps the iterate
    every ``keep_iterates_every`` steps, runs the termination tests (window
    test, then ``grad_norm <= stop_grad_norm``) and takes one step of the
    step rule (see :func:`_step`).
    """
    modulus = spec.strong_convexity
    lip_grad = obj.constants.grad_lipschitz
    if eta >= 2.0 * modulus / lip_grad:
        warnings.warn("eta >= 2C/L1: the descent factor is nonpositive and the descent "
                      "monitor is disabled", stacklevel=3)
    x = checked_anchor(obj, x0, "x0")
    state = PerturbationState(t_noise=0 if params is None else -params.t_th - 1)
    records: list[IterateRecord] = []
    events: dict[int, str] = {}
    counts = MonitorCounts()
    iterates: list[tuple[int, np.ndarray]] | None = [] if keep_iterates_every else None
    perturbation_count = 0
    termination = "max_iters"
    x_out: np.ndarray | None = None

    for t in range(max_iters):
        surr = _evaluate(obj, spec, x, t)
        perturbed = False
        if params is not None:
            x, state, perturbed = maybe_perturb(params, state, x, surr.anchor_value,
                                                surr.grad_norm, t, rng)
        if perturbed:
            perturbation_count += 1
            events[t] = f"perturbed;f_before={state.f_tilde:.17g}"
            if not obj.in_region(x):
                # the terminal row describes the injected point, like any other row
                f, gn = _value_and_grad_norm(obj, x)
                tag = f"left_valid_region;{_region_exit_message(obj, x)}"
                termination = _stop(records, events, t, f, gn, True, tag)
                break
            surr = _evaluate(obj, spec, x, t)
        f, gn = surr.anchor_value, surr.grad_norm
        if iterates is not None and t % keep_iterates_every == 0:
            iterates.append((t, x.copy()))

        tag = None
        if params is not None and (x_out := check_termination(params, state, x, f, t)) is not None:
            tag = "returned_xtilde"
        elif stop_grad_norm is not None and gn <= stop_grad_norm:
            tag = "gradient_below_threshold"
        else:
            try:
                x_next, rec = _step(obj, spec, surr, x, eta, t, perturbed, counts)
            except RegionExitError as exc:
                tag = f"left_valid_region;{exc}"
        if tag is not None:
            termination = _stop(records, events, t, f, gn, perturbed, tag)
            break
        records.append(rec)
        x = x_next
    else:
        f, gn = _value_and_grad_norm(obj, x)
        records.append(IterateRecord(max_iters, f, gn, 0.0, 0.0, False))

    if x_out is None:
        x_out, f_out = x, records[-1].f
    else:
        f_out = float(state.f_tilde)
    _finalize_monitors(records, counts, spec, eta, lip_grad)
    return RunResult(
        records=records,
        termination=termination,
        x_out=x_out,
        f_out=f_out,
        perturbation_count=perturbation_count,
        seed=0 if rng is None else rng.seed,
        events=events,
        perturbation_state=state,
        monitors=counts,
        iterates=iterates,
    )


def run_sca(
    obj: Objective,
    spec: SurrogateSpec,
    eta: float,
    g_th: float,
    max_iters: int,
    x0,
    *,
    keep_iterates_every: int | None = None,
) -> RunResult:
    """Surrogate descent until the gradient norm falls to ``g_th``.

    Stops with ``gradient_below_threshold`` at the first iterate whose gradient
    norm is at most ``g_th``; a run that exhausts ``max_iters`` or steps out of
    the valid region terminates with the corresponding tag instead.
    """
    if not 0 < eta <= 1:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    return _run(obj, spec, eta, max_iters, x0, stop_grad_norm=g_th,
                keep_iterates_every=keep_iterates_every)


def run_psca(
    obj: Objective,
    spec: SurrogateSpec,
    params: PscaParams,
    x0,
    rng: RngStream,
    *,
    keep_iterates_every: int | None = None,
    stop_grad_norm: float | None = None,
) -> RunResult:
    """Perturbed surrogate descent (escapes strict saddles with high probability).

    Each iteration: perturbation check, window termination check, surrogate
    step. Terminates with ``returned_xtilde`` when the window test fires, else
    runs to ``max_iters``. The result is a deterministic function of
    ``(obj, spec, params, x0, rng.seed)``. ``stop_grad_norm`` is an optional
    instrumentation cutoff (first-passage studies); it is off by default and
    does not alter the protocol otherwise.
    """
    return _run(obj, spec, params.eta, params.max_iters, x0, params=params, rng=rng,
                stop_grad_norm=stop_grad_norm, keep_iterates_every=keep_iterates_every)


def run_gd(
    obj: Objective,
    eta: float,
    g_th: float,
    max_iters: int,
    x0,
    *,
    keep_iterates_every: int | None = None,
) -> RunResult:
    """Plain gradient descent baseline with the same stopping rule as :func:`run_sca`."""
    if not 0 < eta <= 1:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    return _run(obj, _GRADIENT_MODEL, eta, max_iters, x0, stop_grad_norm=g_th,
                keep_iterates_every=keep_iterates_every)


def run_pgd(
    obj: Objective,
    params: PscaParams,
    x0,
    rng: RngStream,
    *,
    keep_iterates_every: int | None = None,
    stop_grad_norm: float | None = None,
) -> RunResult:
    """Perturbed gradient descent baseline.

    :func:`run_psca` with the proximal model at unit modulus, whose minimizer
    is the gradient step ``x - grad``: the same perturbation and
    window-termination logic and the same loop, so the two coincide step for
    step in that configuration.
    """
    return _run(obj, _GRADIENT_MODEL, params.eta, params.max_iters, x0, params=params, rng=rng,
                stop_grad_norm=stop_grad_norm, keep_iterates_every=keep_iterates_every)
