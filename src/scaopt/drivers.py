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

SCA and GD stop at the first iterate whose gradient norm is at most
``stop_grad_norm``; P-SCA and PGD stop at that threshold only when one is
given. Every run records an inexact-gradient view of its steps (the error
vector that rewrites the update as a gradient step) plus per-iteration descent,
optimality, direction and error-bound monitors.

Each anchor is checked once, where it is made (``x0`` on entry, every later
point by :meth:`Objective.in_region`), so the loop builds its models unchecked.
Every point the loop reads goes through one evaluation, which builds a model
there and checks that ``f`` and the gradient are finite; a row whose point
fails it raises. The iterate and a perturbed point inside the region are read
through the run's model; a terminal point (a perturbed point outside the
region, or the iterate at ``max_iters``) through the value and gradient alone,
the unit-modulus proximal model, since its row holds nothing else.

The loop steps a ``(B, d)`` stack of runs in lockstep (:func:`run_batch`; the
four drivers are its one-row callers). Each row keeps its own perturbation
state, stream, tests and events, leaves the stack when its run ends, and gets
the result its run makes alone, bit for bit: every per-row reduction is one
that keeps the bits of its 1-D form, and the monitors are checked from the
trajectory columns when the run ends.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from scaopt.numerics import NonFiniteError, RngStream, row_dots, sample_uniform_ball, scalar_power
from scaopt.problems import Objective
from scaopt.surrogates import SurrogateAt, SurrogateSpec, checked_anchor, minimize_surrogate
# Unchecked, under the name the tracer patches; renamed after ROADMAP item 1's benchmark stage.
from scaopt.surrogates import _build as build_surrogate

__all__ = [
    "HypothesisViolationError",
    "RegionExitError",
    "PscaParams",
    "PerturbationState",
    "IterateRecord",
    "Trajectory",
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
    "run_batch",
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
        if not (self.t_th >= 1 and self.max_iters >= 1):
            raise ValueError("t_th and max_iters must be positive integers")


@dataclass(frozen=True)
class PerturbationState:
    """Bookkeeping for the last injection: its iteration, anchor, and value."""

    t_noise: int
    x_tilde: Optional[np.ndarray] = None
    f_tilde: Optional[float] = None


@dataclass(slots=True)
class IterateRecord:
    """One trajectory row.

    ``f``/``grad_norm`` describe the iterate the step starts from (after any
    perturbation injected this iteration); ``step_norm``/``err_norm`` describe
    the step taken from it. Terminal rows carry zero step fields. A
    :class:`Trajectory` makes a new record each time a row is read, so a
    record is not frozen (a frozen dataclass costs four times as much to
    construct) and changing one leaves the trajectory as it was.
    """

    t: int
    f: float
    grad_norm: float
    step_norm: float
    err_norm: float
    perturbed: bool


class Trajectory(Sequence):
    """The rows of a run as float64 columns; each :class:`IterateRecord` is made when read.

    ``columns[t]`` is ``(f, grad_norm, step_norm, err_norm)`` of row ``t``,
    the row of iteration ``t``, and ``perturbed_at`` holds the iterations that
    injected a perturbation. Equal to any sequence of the same records.
    """

    __slots__ = ("columns", "perturbed_at")

    def __init__(self, columns: np.ndarray, perturbed_at=()):
        self.columns = columns
        self.perturbed_at = frozenset(perturbed_at)

    def rows(self):
        """The rows as plain tuples ``(t, f, grad_norm, step_norm, err_norm, perturbed)``."""
        perturbed = self.perturbed_at
        for t, (f, gn, step_norm, err_norm) in enumerate(self.columns.tolist()):
            yield t, f, gn, step_norm, err_norm, t in perturbed

    def __len__(self):
        return len(self.columns)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[t] for t in range(len(self))[i]]
        t = range(len(self))[i]
        return IterateRecord(t, *self.columns[t].tolist(), t in self.perturbed_at)

    def __iter__(self):
        return (IterateRecord(*row) for row in self.rows())

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None


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

    ``records`` has one row per visited iterate (steps + 1 rows), held as a
    :class:`Trajectory`. ``x_out`` is
    the last row's iterate and ``f_out`` its ``f``, except when the perturbed
    driver returns the pre-perturbation anchor: then they are that anchor and
    its value, which generally differ from the last trajectory row.
    ``events`` maps row index to a semicolon-separated tag string (perturbation
    rows carry the pre-perturbation objective value so the window decrement is
    auditable from the trajectory alone).
    """

    records: Trajectory
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


def monitor_slack(grad_norm):
    """Slack ``1e-10 max(1, ||grad||)`` of every monitor at an iterate with this gradient norm.

    Takes one norm or an array of them.
    """
    return 1e-10 * np.maximum(1.0, grad_norm)


def descent_slack(rec: IterateRecord, eta: float) -> float:
    """Tolerance for the descent test: float headroom plus the monitor slack."""
    return 1e-9 * (1.0 + abs(rec.f)) + eta * monitor_slack(rec.grad_norm) * rec.step_norm


def _region_exit_message(obj: Objective, x) -> str:
    if not np.isfinite(x).all():
        return "iterate left the valid region (the step is not finite)"
    return (
        f"iterate left the valid region (norm {np.linalg.norm(x, obj.region_norm):.6g}"
        f" > radius {obj.region_radius:.6g})"
    )


def _stack(models, xs) -> SurrogateAt:
    """One model of stacked fields from one-row models (None for a row whose build failed)."""
    if len(models) == 1 and models[0] is not None:  # a run alone: views of its model's arrays
        (m,) = models
        scalars = np.array((m.anchor_value, m.grad_norm, m.step_norm), dtype=np.float64)
        return SurrogateAt(scalars[0:1], np.asarray(m.anchor_grad, dtype=np.float64)[None],
                           scalars[1:2], np.asarray(m.minimizer, dtype=np.float64)[None],
                           scalars[2:3])
    if any(m is None for m in models):
        blank = SurrogateAt(math.nan, np.zeros(xs.shape[1]), math.nan, np.zeros(xs.shape[1]),
                            math.nan)
        models = [blank if m is None else m for m in models]
    return SurrogateAt(*(np.array([getattr(m, name) for m in models], dtype=np.float64)
                         for name in SurrogateAt.__slots__))


def _take(surr: SurrogateAt, keep) -> SurrogateAt:
    """The rows ``keep`` (a mask or positions) of a stacked model."""
    return SurrogateAt(*(getattr(surr, name)[keep] for name in SurrogateAt.__slots__))


def _evaluate(obj, spec, xs, t):
    """The models at the checked anchors ``xs`` (a ``(B, d)`` stack) and the rows that failed.

    Returns ``(surr, failures)``: ``surr`` holds every row's model, stacked,
    and ``failures`` maps the position of each row whose build raised to its
    exception, or to a :class:`NonFiniteError` when its value or gradient is
    not finite. The proximal model of a batched objective is built on the
    whole stack; any other model is built one row at a time, and so is a stack
    whose build raised, to find the rows that raise.
    """
    failures = {}
    if spec.kind == "proximal_linear" and obj.batched:
        try:
            surr = build_surrogate(obj, xs, spec)
        except Exception:
            pass
        else:
            # a finite f'gn rules out NaN and inf in both; only then is the per-row test skipped
            if not math.isfinite(surr.anchor_value @ surr.grad_norm):
                finite = np.isfinite(surr.anchor_value) & np.isfinite(surr.grad_norm)
                for pos in np.flatnonzero(~finite).tolist():
                    failures[pos] = NonFiniteError(
                        f"non-finite objective or gradient at iteration {t}")
            return surr, failures
    models = []
    for pos, x in enumerate(xs):
        try:
            model = build_surrogate(obj, x, spec)
        except Exception as exc:
            failures[pos] = exc
            model = None
        else:
            if not (math.isfinite(model.anchor_value) and math.isfinite(model.grad_norm)):
                failures[pos] = NonFiniteError(f"non-finite objective or gradient at iteration {t}")
        models.append(model)
    return _stack(models, xs), failures


def _step(obj, spec, surr, x, eta):
    """The updates ``x + eta (x_hat - x)`` of a ``(B, d)`` stack ``x`` and what they tell.

    ``x_hat`` is the minimizer of each row's model in ``surr`` (``x - g`` for
    GD and PGD). Returns ``(x_next, inside, err_norm, gap)``: the updated
    stack, whether each updated row lies in the valid region and, for the rows
    that do, the norm of the error vector of :func:`gradient_error` and the
    optimality gap ``(x - x_hat)'g`` that :func:`_monitors` checks.

    The difference ``d = x - x_hat`` is formed once: the update is computed as
    ``x - eta d``, the error vector as ``d - g`` and the optimality gap as
    ``d'g``. ``x - eta d`` has the same bits as ``x + eta (x_hat - x)`` except
    that a ``-0.0`` coordinate of ``x`` with a zero step there stays ``-0.0``.
    """
    x_hat, _ = minimize_surrogate(surr)
    g = surr.anchor_grad
    d = x - x_hat
    x_next = x - eta * d
    inside = obj.rows_in_region(x_next)
    if not all(inside.tolist()):
        d, g = d[inside], g[inside]
    err = d - g
    return x_next, inside, np.sqrt(row_dots(err, err)), row_dots(d, g)


def sca_step(obj: Objective, spec: SurrogateSpec, x_t, eta: float, t: int = 0):
    """One surrogate-descent update ``x_t + eta (x_hat - x_t)``.

    Returns the next iterate and its :class:`IterateRecord` (including the
    inexact-gradient error norm).
    """
    if not 0 < eta <= 1:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    xs = checked_anchor(obj, x_t)[None]
    surr, failures = _evaluate(obj, spec, xs, t)
    if failures:
        raise failures[0]
    x_next, inside, err_norm, _ = _step(obj, spec, surr, xs, eta)
    if not inside[0]:
        raise RegionExitError(_region_exit_message(obj, x_next[0]))
    return x_next[0], IterateRecord(t, float(surr.anchor_value[0]), float(surr.grad_norm[0]),
                                    float(surr.step_norm[0]), float(err_norm[0]), False)


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


def _monitors(columns, perturbed_at, obj, modulus, eta) -> MonitorCounts:
    """The monitor tallies of a run from its trajectory columns and optimality gaps.

    ``columns`` are the run's :class:`Trajectory` columns with each step's
    optimality gap ``(x - x_hat)'g`` appended (0 on the terminal row). Every
    step is checked for optimality, the direction bound and (given
    ``value_lipschitz``) the error bound, with :func:`monitor_slack` and
    :func:`~scaopt.numerics.scalar_power`'s ``step_norm**2``; consecutive rows
    are checked by :func:`descent_check` with :func:`descent_slack` (``eta'``
    computed once for the run), skipping a row reached by a perturbation's jump.
    """
    f, gn, step_norm, err_norm, gap = columns[:-1].T
    steps = len(f)
    step_sq = scalar_power(step_norm, 2)
    tol = monitor_slack(gn)
    optimality = gap >= modulus * step_sq - (tol * step_norm + 1e-9)
    direction = step_norm <= gn / modulus + tol / modulus
    counts = MonitorCounts(optimality_checked=steps, optimality_passed=int(optimality.sum()),
                           direction_checked=steps, direction_passed=int(direction.sum()))
    lip_value = obj.constants.value_lipschitz
    if lip_value is not None:
        error_bound = err_norm <= lip_value * (1.0 + 1.0 / modulus) + tol / modulus
        counts.error_bound_checked, counts.error_bound_passed = steps, int(error_bound.sum())
    lip_grad = obj.constants.grad_lipschitz
    if eta < 2.0 * modulus / lip_grad:
        eta_prime = eta * modulus - eta**2 * lip_grad / 2.0
        slack = 1e-9 * (1.0 + np.abs(f)) + eta * tol * step_norm
        passed = columns[1:, 0] <= f - eta_prime * step_sq + slack
        checked = np.ones(steps, dtype=bool)
        checked[[t - 1 for t in perturbed_at if t >= 1]] = False
        counts.descent_checked = int(checked.sum())
        counts.descent_passed = int((passed & checked).sum())
    return counts


# GD's and PGD's model: the proximal model at unit modulus, whose exact
# minimizer is the gradient step. Every run reads its terminal points through
# it, since a terminal row holds only f and the gradient norm.
_GRADIENT_MODEL = SurrogateSpec()


@dataclass(slots=True, eq=False)
class _Row:
    """One run of a batch: its settings, and what the loop has found out about it so far."""

    params: Optional[PscaParams]
    rng: Optional[RngStream]
    state: PerturbationState
    iterates: Optional[list]
    events: dict = field(default_factory=dict)
    perturbed_at: list = field(default_factory=list)
    end: Optional[tuple] = None  # (f, grad_norm) of the terminal row
    termination: str = "max_iters"
    x_out: Optional[np.ndarray] = None
    f_out: Optional[float] = None
    error: Optional[Exception] = None

    def stop(self, t, f, gn, tag, x_out, f_out=None):
        """End the run at ``t`` with a terminal row ``(f, gn)``; ``tag`` joins the row's event."""
        if tag is not None:
            self.events[t] = f"{self.events[t]};{tag}" if t in self.events else tag
            self.termination = tag.partition(";")[0]
        self.end = (f, gn)
        self.x_out = x_out
        self.f_out = f if f_out is None else f_out


class _Rows:
    """The trajectory rows of a batch's running rows, kept as float64 arrays until it ends.

    Each iteration adds its ``f, grad_norm, step_norm, err_norm, gap`` arrays
    over the running rows, in the order of ``ids``; every ``FLUSH``
    iterations, and whenever the running rows change, those arrays become one
    block of shape ``(iterations, 5, rows)``. A run's columns are its slices
    of the blocks.
    """

    FLUSH = 1024

    def __init__(self, ids):
        self.ids = ids
        self.blocks: list[tuple[tuple, np.ndarray]] = []
        self.pending: list[tuple] = []

    def add(self, *cols):
        self.pending.append(cols)
        if len(self.pending) == self.FLUSH:
            self.regroup(self.ids)

    def regroup(self, ids):
        if self.pending:
            steps = len(self.pending)
            columns = [np.concatenate(col).reshape(steps, -1) for col in zip(*self.pending)]
            self.blocks.append((self.ids, np.stack(columns, axis=1)))
            self.pending = []
        self.ids = ids

    def columns(self, row, end) -> np.ndarray:
        """The ``(steps + 1, 5)`` columns of ``row``, closed by its terminal row ``end``."""
        self.regroup(self.ids)
        parts = [block[:, :, ids.index(row)] for ids, block in self.blocks if row in ids]
        return np.concatenate(parts + [np.array([[*end, 0.0, 0.0, 0.0]])])


def _lockstep(obj, spec, rows, ids, xs, eta, max_iters, stop_grad_norm, keep_every) -> _Rows:
    """Run the rows ``ids`` of :func:`run_batch` from the checked starts ``xs`` until each one ends.

    The running rows are stacked by position: ``x`` holds their iterates and
    ``next_perturb``, the one schedule list, the first iteration at which each
    row may perturb again (never, for a row without perturbation). A row is
    due to perturb at ``t >= next_perturb``, and runs the window test of its
    last injection at ``t == next_perturb - 1``. A row that ends or raises is
    taken out of the stack; its trajectory rows stay in the returned store.
    """
    store = _Rows(tuple(ids))
    if not ids:
        return store
    x = np.array(xs)
    next_perturb = [math.inf if rows[i].params is None else 0 for i in ids]

    def drop(gone):
        """Take the rows at the positions ``gone`` out of the stack."""
        nonlocal ids, x, next_perturb, surr
        keep = np.ones(len(ids), dtype=bool)
        keep[list(gone)] = False
        kept = keep.tolist()
        ids = [i for i, k in zip(ids, kept) if k]
        next_perturb = [due for due, k in zip(next_perturb, kept) if k]
        x = x[keep]
        surr = _take(surr, keep)
        store.regroup(tuple(ids))

    for t in range(max_iters):
        surr, failures = _evaluate(obj, spec, x, t)
        gone = list(failures)
        for pos, exc in failures.items():
            rows[ids[pos]].error = exc

        if t >= min(next_perturb):
            grad_norms = surr.grad_norm.tolist()
            fire = [pos for pos, due in enumerate(next_perturb)
                    if due <= t and pos not in failures
                    and grad_norms[pos] <= rows[ids[pos]].params.g_th]
            for pos in fire:
                row = rows[ids[pos]]
                x[pos], row.state, _ = maybe_perturb(row.params, row.state, x[pos],
                                                     float(surr.anchor_value[pos]),
                                                     grad_norms[pos], t, row.rng)
                row.perturbed_at.append(t)
                row.events[t] = f"perturbed;f_before={row.state.f_tilde:.17g}"
                next_perturb[pos] = t + row.params.t_th + 1
            if fire:
                inside = obj.rows_in_region(x[fire]).tolist()
                stay = [pos for pos, ins in zip(fire, inside) if ins]
                left = [pos for pos, ins in zip(fire, inside) if not ins]
                if stay:
                    again, failures = _evaluate(obj, spec, x[stay], t)
                    for name in SurrogateAt.__slots__:
                        getattr(surr, name)[stay] = getattr(again, name)
                    for k, exc in failures.items():
                        rows[ids[stay[k]]].error = exc
                        gone.append(stay[k])
                if left:  # the terminal row describes the injected point, like any other row
                    end, failures = _evaluate(obj, _GRADIENT_MODEL, x[left], t)
                    for k, pos in enumerate(left):
                        row = rows[ids[pos]]
                        if k in failures:
                            row.error = failures[k]
                        else:
                            tag = f"left_valid_region;{_region_exit_message(obj, x[pos])}"
                            row.stop(t, float(end.anchor_value[k]), float(end.grad_norm[k]), tag,
                                     x[pos].copy())
                        gone.append(pos)
        if gone:
            drop(gone)
            if not ids:
                break

        gone = []
        if keep_every and t % keep_every == 0:
            for pos, i in enumerate(ids):
                rows[i].iterates.append((t, x[pos].copy()))

        if t + 1 in next_perturb:  # the window tests due now
            for pos in [pos for pos, due in enumerate(next_perturb) if due == t + 1]:
                row = rows[ids[pos]]
                f = float(surr.anchor_value[pos])
                x_tilde = check_termination(row.params, row.state, x[pos], f, t)
                if x_tilde is not None:
                    row.stop(t, f, float(surr.grad_norm[pos]), "returned_xtilde", x_tilde,
                             float(row.state.f_tilde))
                    gone.append(pos)
        if stop_grad_norm is not None:
            for pos, gn in enumerate(surr.grad_norm.tolist()):
                if gn <= stop_grad_norm and pos not in gone:
                    rows[ids[pos]].stop(t, float(surr.anchor_value[pos]), gn,
                                        "gradient_below_threshold", x[pos].copy())
                    gone.append(pos)
        if gone:
            drop(gone)
            if not ids:
                break

        x_next, inside, err_norm, gap = _step(obj, spec, surr, x, eta)
        if not all(inside.tolist()):
            gone = np.flatnonzero(~inside).tolist()
            for pos in gone:
                tag = f"left_valid_region;{_region_exit_message(obj, x_next[pos])}"
                rows[ids[pos]].stop(t, float(surr.anchor_value[pos]), float(surr.grad_norm[pos]),
                                    tag, x[pos].copy())
            x_next = x_next[inside]
            drop(gone)
            if not ids:
                break
        store.add(surr.anchor_value, surr.grad_norm, surr.step_norm, err_norm, gap)
        x = x_next
    else:  # the rows that ran out of iterations
        surr, failures = _evaluate(obj, _GRADIENT_MODEL, x, max_iters)
        for pos, i in enumerate(ids):
            if pos in failures:
                rows[i].error = failures[pos]
            else:
                rows[i].stop(max_iters, float(surr.anchor_value[pos]), float(surr.grad_norm[pos]),
                             None, x[pos].copy())
    return store


def _one(results):
    """The result of a batch of one run, or the exception that run raised."""
    (result,) = results
    if isinstance(result, Exception):
        raise result
    return result


def run_sca(
    obj: Objective,
    spec: SurrogateSpec,
    eta: float,
    stop_grad_norm: float,
    max_iters: int,
    x0,
    *,
    keep_iterates_every: int | None = None,
) -> RunResult:
    """Surrogate descent until the gradient norm falls to ``stop_grad_norm``.

    Stops with ``gradient_below_threshold`` at the first iterate whose gradient
    norm is at most ``stop_grad_norm``; a run that exhausts ``max_iters`` or
    steps out of the valid region terminates with the corresponding tag instead.
    """
    return _one(run_batch(obj, spec, [x0], eta=eta, max_iters=max_iters,
                          stop_grad_norm=stop_grad_norm, keep_iterates_every=keep_iterates_every))


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
    return _one(run_batch(obj, spec, [x0], params=[params], rngs=[rng],
                          stop_grad_norm=stop_grad_norm, keep_iterates_every=keep_iterates_every))


def run_gd(
    obj: Objective,
    eta: float,
    stop_grad_norm: float,
    max_iters: int,
    x0,
    *,
    keep_iterates_every: int | None = None,
) -> RunResult:
    """Plain gradient descent baseline with the same stopping rule as :func:`run_sca`."""
    return _one(run_batch(obj, _GRADIENT_MODEL, [x0], eta=eta, max_iters=max_iters,
                          stop_grad_norm=stop_grad_norm, keep_iterates_every=keep_iterates_every))


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
    return _one(run_batch(obj, _GRADIENT_MODEL, [x0], params=[params], rngs=[rng],
                          stop_grad_norm=stop_grad_norm, keep_iterates_every=keep_iterates_every))


def run_batch(
    obj: Objective,
    spec: SurrogateSpec,
    x0s,
    *,
    params=None,
    rngs=None,
    eta: float | None = None,
    max_iters: int | None = None,
    stop_grad_norm: float | None = None,
    keep_iterates_every: int | None = None,
) -> list:
    """One run per start in ``x0s``, all through the one loop in lockstep.

    Without ``params``, a batch needs ``eta``, ``max_iters`` and
    ``stop_grad_norm``, and row ``i`` is ``run_sca(obj, spec, eta,
    stop_grad_norm, max_iters, x0s[i])``. With ``params`` it needs ``rngs``
    (one :class:`PscaParams` and one stream per row, the params alike in
    ``eta`` and ``max_iters``) and takes an optional ``stop_grad_norm``; row
    ``i`` is ``run_psca(obj, spec, params[i], x0s[i], rngs[i],
    stop_grad_norm=stop_grad_norm)``. Any other setting raises ValueError, and
    so do a ``max_iters`` below 1 and one stream object passed for two rows
    (the rows would draw from it in turn, so none would be its serial run).
    GD and PGD are these with the default ``SurrogateSpec()``.

    Each iteration evaluates the iterates, applies the perturbation policy,
    keeps the iterates every ``keep_iterates_every`` steps, runs the
    termination tests (window test, then ``grad_norm <= stop_grad_norm``) and
    takes one step of the step rule (see :func:`_step`), all on the stack of
    the rows still running. A row leaves the stack when its run ends; only the
    rows that perturb draw from their streams. Returns one entry per row, in
    order: the :class:`RunResult` of its run, equal to the serial run's bit
    for bit, or the exception that run raised (a failing row drops out; the
    rest run on).
    """
    given = {"eta": eta, "max_iters": max_iters, "stop_grad_norm": stop_grad_norm, "rngs": rngs}
    if params is None:
        kind, needed, refused = "without params", ("eta", "max_iters", "stop_grad_norm"), ("rngs",)
    else:
        kind, needed, refused = "with params", ("rngs",), ("eta", "max_iters")
    for name in needed:
        if given[name] is None:
            raise ValueError(f"a batch {kind} needs {name}")
    for name in refused:
        if given[name] is not None:
            raise ValueError(f"a batch {kind} takes no {name}")
    if stop_grad_norm is not None and math.isnan(stop_grad_norm):
        raise ValueError("stop_grad_norm must not be NaN")
    if keep_iterates_every is not None and keep_iterates_every < 1:
        raise ValueError(
            f"keep_iterates_every must be a positive integer, got {keep_iterates_every}")
    if params is None and not max_iters >= 1:
        raise ValueError(f"max_iters must be a positive integer, got {max_iters}")
    n = len(x0s)
    if params is not None:
        if not len(params) == len(rngs) == n:
            raise ValueError(f"need one params and one rng per start, got {len(params)}, "
                             f"{len(rngs)} for {n} starts")
        if len({id(rng) for rng in rngs}) < n:
            raise ValueError("a stream object is passed for more than one row; "
                             "each row needs its own RngStream")
    if n == 0:
        return []
    if params is None:
        if not 0 < eta <= 1:
            raise ValueError(f"eta must lie in (0, 1], got {eta}")
        params = rngs = [None] * n
    else:
        if len({(p.eta, p.max_iters) for p in params}) > 1:
            raise ValueError("the params of a batch must share eta and max_iters")
        eta, max_iters = params[0].eta, params[0].max_iters
    modulus = spec.strong_convexity
    if eta >= 2.0 * modulus / obj.constants.grad_lipschitz:
        frame, level = sys._getframe(1), 2  # name the first caller outside this module
        while frame.f_globals.get("__name__") == __name__:
            frame, level = frame.f_back, level + 1
        warnings.warn("eta >= 2C/L1: the descent factor is nonpositive and the descent "
                      "monitor is disabled", stacklevel=level)
    rows = [
        _Row(p, rng, PerturbationState(t_noise=0 if p is None else -p.t_th - 1),
             [] if keep_iterates_every else None)
        for p, rng in zip(params, rngs)
    ]
    ids, xs = [], []
    for i, (row, x0) in enumerate(zip(rows, x0s)):
        try:
            xs.append(checked_anchor(obj, x0, "x0"))
            ids.append(i)
        except Exception as exc:
            row.error = exc
    store = _lockstep(obj, spec, rows, ids, xs, eta, max_iters, stop_grad_norm,
                      keep_iterates_every)

    results = []
    for i, row in enumerate(rows):
        if row.error is not None:
            results.append(row.error)
            continue
        columns = store.columns(i, row.end)
        results.append(RunResult(
            records=Trajectory(columns[:, :4].copy(), row.perturbed_at),
            termination=row.termination,
            x_out=row.x_out,
            f_out=row.f_out,
            perturbation_count=len(row.perturbed_at),
            seed=0 if row.rng is None else row.rng.seed,
            events=row.events,
            perturbation_state=row.state,
            monitors=_monitors(columns, row.perturbed_at, obj, modulus, eta),
            iterates=row.iterates,
        ))
    return results
