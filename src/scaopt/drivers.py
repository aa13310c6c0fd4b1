"""Outer solvers: surrogate descent, its perturbed saddle-escaping variant, and baselines.

All four drivers run one outer loop, configured by a step rule and a
perturbation policy. Each iteration moves a fraction ``eta`` from ``x`` toward
a point ``x_hat``:

* step rule: ``x_hat`` minimizes the surrogate built at ``x``. GD and PGD are
  SCA and P-SCA with the proximal model at unit modulus, whose minimizer is
  the gradient step ``x - grad``;
* perturbation policy: none (SCA, GD), or the perturbed protocol (P-SCA, PGD)
  of perturbed gradient descent (Jin et al., arXiv:1703.00887). It has two
  rules, both exact float comparisons with no added tolerance, and
  :func:`_lockstep` is their one statement:

  - fire rule: at iteration ``t``, if ``grad_norm <= g_th`` and
    ``t - t_noise > t_th`` (strictly more than ``t_th`` iterations since the
    last injection at ``t_noise``; the first may come at ``t = 0``), keep the
    iterate as ``x_tilde`` and its value as ``f_tilde``, set ``t_noise = t``
    and add a draw from the uniform ball of radius ``r``;
  - window test: at the iteration with ``t - t_noise == t_th``, if
    ``f - f_tilde > -(1 - s) f_th``, i.e. the objective has not dropped below
    ``f_tilde`` by more than ``(1 - s) f_th``, the run ends with
    ``returned_xtilde`` and returns ``x_tilde`` and ``f_tilde``, the
    second-order stationary candidate.

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
four drivers are its one-row callers). Each run is one object, its
:class:`_Row`, which holds its perturbation state, stream, events, trajectory
parts and optimality tally, and gets the result its run makes alone, bit
for bit: every per-row reduction is one that keeps the bits of its 1-D form,
and the monitors are tallied per row. A row keeps its position in the stack
for the whole iteration; the rows that end or fail there leave it together at
the iteration's one exit, after the step, where the row store also flushes.

Every dot and 2-norm the loop takes (gradient, step and error norms, gaps,
the region test) is :func:`~scaopt.numerics.row_dots`, the products summed by
numpy with no BLAS call, and every power is a product. So a trajectory's bits
do not depend on the BLAS kernel unless its objective or model calls BLAS or
LAPACK itself.

Each iteration computes only what the protocol reads there: the gradients,
the step and the region test, and the gradient norms where a row may fire or
stop. The proximal model of a batched objective is built on the stack
without its values and norms. A row reads ``f`` where the protocol does
(``f_tilde`` at a perturbation, the window test, a terminal row) through
:func:`_read`, the one read of a value its model did not read, and every
terminal row goes through one end path. An iteration where no row may fire
or stop forms no norm: a step that stays in the region bounds the gradient
(:func:`_quiet`), so the region test, which raises nothing, finds a row whose
gradient is NaN, inf or too large for its norm, and the end path fails it
alone with its evaluation's error. For every model, the row store
(:class:`_Rows`) forms every other value and norm, and every error norm and
optimality gap of the trajectory columns, a block of iterations at a time,
and tallies the optimality monitor from those gaps, which it then drops; it
writes each block's columns and tally onto the runs' rows and keeps only the
pending block. A value found bad there fails its row with the error of that
iterate, ahead of anything the row met at a later iterate; the other rows run
on.

A run's diagnostics never raise. Its error norms, gaps and monitors are formed
under ``np.errstate(all="ignore")``, so one whose arithmetic overflows reads
inf or NaN, a failed check of its monitor, under any warnings filter, and the
run ends as it does under the default filter. The loop's own reads (the
models, the gradient norms that the fire and stop tests read, the step, the
values) raise as the filter says.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from scaopt.numerics import NonFiniteError, RngStream, require, row_dots, sample_uniform_ball
from scaopt.problems import Objective
from scaopt.surrogates import SurrogateAt, SurrogateSpec, checked_anchor, minimize_surrogate
# the loop builds every model through this name, which the benchmark tracer patches
from scaopt.surrogates import _build as build_surrogate

__all__ = [
    "HypothesisViolationError",
    "PscaParams",
    "PerturbationState",
    "IterateRecord",
    "Trajectory",
    "MonitorCounts",
    "RunResult",
    "DiagnosticScales",
    "hypothesis_violations",
    "derive_params",
    "derive_scales",
    "run_sca",
    "run_psca",
    "run_gd",
    "run_pgd",
    "run_batch",
]

class HypothesisViolationError(ValueError):
    """A configuration violates a hypothesis the guarantees depend on."""


@dataclass(frozen=True)
class PscaParams:
    """Derived configuration of the perturbed driver.

    ``chi`` is the log factor ``3 max(log(d L1 dU / (c eps^2 delta)), 4)``;
    the step, perturbation radius, thresholds, and window length all follow
    from it (see :func:`derive_params`). Construct through
    :func:`derive_params`, which validates the hypotheses instead of clamping;
    the settings' rules are :func:`~scaopt.numerics.require`'s.
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
        require(delta=self.delta, c=self.c, s=self.s, delta_u=self.delta_u, t_th=self.t_th,
                max_iters=self.max_iters)
        if not self.chi >= 12.0 - 1e-9:
            raise ValueError(f"chi must be >= 12, got {self.chi}")
        if not all(v > 0 for v in (self.eps, self.eta, self.r, self.g_th, self.f_th)):
            raise ValueError("eps, eta, r, g_th, f_th must be positive")


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

    ``columns`` is a C-ordered ``(steps + 1, 4)`` array, and ``columns[t]`` is
    ``(f, grad_norm, step_norm, err_norm)`` of row ``t``, the row of iteration
    ``t``; a run's trajectory holds the array that :func:`run_batch` joined
    from its row store parts, no copy. ``perturbed_at`` holds the iterations
    that injected a perturbation. Equal to any sequence of the same records.
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
    auditable from the trajectory alone). ``seed`` is the seed of the
    perturbed run's stream, which replays it, and None for a run without one.
    """

    records: Trajectory
    termination: str
    x_out: np.ndarray
    f_out: float
    perturbation_count: int
    seed: int | None
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


def hypothesis_violations(eps: float, obj: Objective | None, perturbed: bool = True) -> list[str]:
    """The message of each failing hypothesis: ``L2 > 0`` for a ``perturbed`` run, and
    ``0 < eps <= L1^2/L2`` (no upper end when ``L2 = 0`` or ``obj`` is None, not resolved)."""
    errs, eps_max, bound = [], math.inf, ""
    if obj is not None:
        lip_grad, lip_hess = obj.constants.grad_lipschitz, obj.constants.hessian_lipschitz
        if perturbed and not lip_hess > 0:
            errs.append("perturbed algorithms need a positive Hessian-Lipschitz declaration "
                        f"(this problem declares {lip_hess:g})")
        eps_max = math.inf if lip_hess == 0 else lip_grad**2 / lip_hess
        bound = f" = {eps_max:.6g}"
    if not 0 < eps <= eps_max:
        errs.append(f"eps must satisfy 0 < eps <= L1^2/L2{bound} (got {eps})")
    return errs


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

    All quantities follow the step-1 formulas exactly. A violated precondition
    (:func:`~scaopt.numerics.require`'s or :func:`hypothesis_violations`')
    raises instead of clamping, the eps bound as :class:`HypothesisViolationError`,
    and so do inputs so extreme that ``chi``, ``f_th`` or the window is not a
    finite positive float.
    ``window_variant="proof"`` (default) sets the window length to
    ``ceil((chi/c^2) L1 / sqrt(L2 eps))``; ``"algorithm"`` multiplies in the
    extra ``(1 - s)`` factor of the alternative statement.
    """
    require(c=c, delta=delta, s=s, delta_u=delta_u, window_variant=window_variant)
    errs = hypothesis_violations(eps, obj)
    lip_grad, lip_hess = obj.constants.grad_lipschitz, obj.constants.hessian_lipschitz
    if errs:  # the first is the missing L2 where there is one, else the eps bound
        raise (HypothesisViolationError if lip_hess > 0 else ValueError)(errs[0])

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


def _region_exit_message(obj: Objective, x) -> str:
    if not np.isfinite(x).all():
        return "iterate left the valid region (the step is not finite)"
    return (
        f"iterate left the valid region (norm {obj.region_norms(x):.6g}"
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
    """The rows ``keep`` (a mask or positions) of a stacked model; fields not formed stay None."""
    columns = (getattr(surr, name) for name in SurrogateAt.__slots__)
    return SurrogateAt(*(None if column is None else column[keep] for column in columns))


def _non_finite(t) -> NonFiniteError:
    """The error of a row whose value or gradient at iteration ``t`` is not finite."""
    return NonFiniteError(f"non-finite objective or gradient at iteration {t}")


def _values(obj, xs, iteration):
    """``obj.value`` at each point of the ``(N, d)`` stack ``xs`` of a batched objective.

    One stacked call reads every value; only when it raises is each point
    read alone. Returns ``(values, failures)``: ``failures`` maps, in index
    order, each point whose value raised to its exception and each whose value
    is not finite to the :func:`_non_finite` error at ``iteration(k)``, the
    iteration of point ``k``: the error its one-row evaluation raises there.
    """
    try:
        values, raised = np.asarray(obj.value(xs), dtype=np.float64), {}
    except Exception:
        values, raised = np.full(len(xs), math.nan), {}
        for k, x in enumerate(xs):
            try:
                values[k] = obj.value(x)
            except Exception as exc:
                raised[k] = exc
    if not raised and math.isfinite(np.add.reduce(values)):
        return values, {}
    bad = np.flatnonzero(~np.isfinite(values)).tolist()
    return values, {k: raised[k] if k in raised else _non_finite(iteration(k)) for k in bad}


def _read(obj, surr, xs, positions, t):
    """Read the values at ``xs[positions]`` that ``surr``, the models at ``xs``, left unread.

    The one read of such a value: only the proximal model of a batched
    objective, built on a stack, leaves its values unread (``anchor_value``
    None), and the first read makes its column, NaN where not read yet; a
    value read as NaN fails its row. Maps each position whose value failed to
    the error its one-row evaluation at iteration ``t`` raises (:func:`_values`).
    """
    f = surr.anchor_value
    unread = list(positions) if f is None else [pos for pos in positions if math.isnan(f[pos])]
    if not unread:
        return {}
    if f is None:
        f = surr.anchor_value = np.full(len(xs), math.nan)
    f[unread], found = _values(obj, xs[unread], lambda k: t)
    return {unread[k]: exc for k, exc in found.items()}


def _stacked(obj, spec) -> bool:
    """Whether the loop builds ``spec``'s models of ``obj`` on a whole stack of anchors."""
    return spec.kind == "proximal_linear" and obj.batched


def _evaluate(obj, spec, xs, t, stacked, norms=True):
    """The models at the checked anchors ``xs`` (a ``(B, d)`` stack) and the rows that failed.

    ``stacked`` is :func:`_stacked` of ``obj`` and ``spec``. Returns ``(surr,
    grad_norms, failures)``: ``surr`` holds every row's model, stacked,
    ``grad_norms`` its gradient norms as a list, and ``failures`` maps the
    position of each row whose evaluation failed to the error its one-row
    evaluation raises: the exception of its model build, or a
    :class:`NonFiniteError` when its value or gradient is not finite.

    The proximal model of a batched objective is built on the whole stack,
    gradients only: the caller reads its values through :func:`_read`, and
    its norms are formed and checked by :func:`_norms`, unless ``norms`` is
    false: then they stay unformed (``grad_norms`` None, no row checked), and
    the caller forms them where it reads them. Any other model is built one
    row at a time, value first, and so is a stack whose build raised, to find
    the rows that raise (:func:`_one_by_one`). A terminal point is evaluated
    like any other, through the gradient model, and the loop's one end path
    writes its row.
    """
    if stacked:
        try:
            surr = build_surrogate(obj, xs, spec)
        except Exception:
            pass
        else:
            if not norms:
                return surr, None, {}
            return (surr, *_norms(obj, spec, surr, xs, t))
    return _one_by_one(obj, spec, xs, t)


def _norms(obj, spec, surr, xs, t):
    """Form and check the norms of ``surr``, the stacked proximal models of ``spec`` at ``xs``.

    Returns ``(grad_norms, failures)`` as :func:`_evaluate` does. The norms
    are ``sqrt(g'g)`` and that over the modulus, with the bits of the one-row
    builds. A row whose gradient norm is not finite fails with its value's
    error (:func:`_read`), else the :func:`_non_finite` one. When forming them
    raises (a floating-point warning made an error), every row is built alone
    (:func:`_one_by_one`), as its one-row build raises in that order, and
    ``surr`` takes those models' fields.
    """
    g, modulus = surr.anchor_grad, spec.strong_convexity
    try:
        gn = np.sqrt(row_dots(g, g))
        # formed here, as a one-row build forms it: a quotient that overflows raises here
        # under an error filter, as in that build (the store's flush forms it raising nothing)
        step_norm = gn if modulus == 1.0 else gn / modulus
    except Exception:
        alone, grad_norms, failures = _one_by_one(obj, spec, xs, t)
        for name in SurrogateAt.__slots__:
            setattr(surr, name, getattr(alone, name))
        return grad_norms, failures
    surr.grad_norm, surr.step_norm = gn, step_norm
    grad_norms = gn.tolist()
    # the norms are >= 0 or NaN, so their sum is finite exactly when each
    # one is; a sum that overflows only sends the stack to the exact test
    if math.isfinite(sum(grad_norms)):
        return grad_norms, {}
    bad = [pos for pos, norm in enumerate(grad_norms) if not math.isfinite(norm)]
    found = _read(obj, surr, xs, bad, t)
    return grad_norms, {pos: found[pos] if pos in found else _non_finite(t) for pos in bad}


def _one_by_one(obj, spec, xs, t):
    """:func:`_evaluate` of the stack ``xs`` one row at a time: each model built alone, value
    first."""
    models, failures = [], {}
    for pos, x in enumerate(xs):
        try:
            model = build_surrogate(obj, x, spec)
        except Exception as exc:
            failures[pos] = exc
            model = None
        else:
            if not (math.isfinite(model.anchor_value) and math.isfinite(model.grad_norm)):
                failures[pos] = _non_finite(t)
        models.append(model)
    surr = _stack(models, xs)
    return surr, surr.grad_norm.tolist(), failures


def _step(obj, surr, x, eta):
    """The updates ``x + eta (x_hat - x)`` of a ``(B, d)`` stack ``x``, and what they tell.

    ``x_hat`` is the minimizer of each row's model in ``surr`` (``x - g`` for
    GD and PGD). Returns ``(x_next, outside, d)``: the updated stack, the
    positions of the updated rows outside the valid region
    (:meth:`Objective.rows_outside`, which raises nothing), and ``d = x - x_hat``. The
    update is computed as ``x - eta d``, which has the same bits as
    ``x + eta (x_hat - x)`` except that a ``-0.0`` coordinate of ``x`` with a
    zero step there stays ``-0.0``. With the gradient ``g``, ``d`` gives the
    error vector ``e = d - g``, the one vector that writes the update as the
    inexact gradient step ``x - eta (g + e)``, and the optimality gap ``d'g``
    that :func:`_monitors` checks; the row store (:class:`_Rows`) forms both.
    """
    x_hat, _ = minimize_surrogate(surr)
    d = x - x_hat
    x_next = x - eta * d
    return x_next, obj.rows_outside(x_next), d


def _scales(gn, step_norm):
    """``(step_norm * step_norm, tol)`` of each step, ``tol = 1e-10 max(1, grad_norm)`` the
    monitors' slack: the one statement of each."""
    return step_norm * step_norm, 1e-10 * np.maximum(1.0, gn)


def _optimal(gap, step_norm, step_sq, tol, modulus):
    """The optimality test of each step: ``gap >= C step_norm**2 - (tol step_norm + 1e-9)``."""
    return gap >= modulus * step_sq - (tol * step_norm + 1e-9)


def _monitors(columns, perturbed_at, obj, modulus, eta, optimal) -> MonitorCounts:
    """The monitor tallies of a run from its trajectory columns and its optimality tally.

    ``columns`` are the run's :class:`Trajectory` columns, and ``optimal`` is
    the tally the row store wrote on the run's :class:`_Row`: its steps that
    passed the optimality test ``(x - x_hat)'g >= C step_norm**2 - (tol
    step_norm + 1e-9)`` (:func:`_optimal`), which the store checks as it forms
    each gap. Every step is checked for optimality, the direction bound and (given
    ``value_lipschitz``) the error bound, each with the slack ``tol = 1e-10
    max(1, grad_norm)``, and ``step_norm**2`` written as the product
    ``step_norm * step_norm`` (:func:`_scales`). Consecutive rows are checked by the
    descent test ``f_next <= f - eta' step_norm**2 + slack`` with ``eta' = eta
    C - eta**2 L1 / 2`` and ``slack = 1e-9 (1 + |f|) + eta tol step_norm``,
    skipping a row reached by a perturbation's jump. At ``eta >= 2C/L1`` the
    factor ``eta'`` is not positive, the test says nothing, and no row is
    checked (:func:`run_batch` warns). :func:`run_batch` calls it under
    ``np.errstate(all="ignore")``, as the store forms the gaps: arithmetic
    that overflows here reads inf or NaN and fails its check.
    """
    f, gn, step_norm, err_norm = columns[:-1].T
    steps = len(f)
    step_sq, tol = _scales(gn, step_norm)
    direction = step_norm <= gn / modulus + tol / modulus
    counts = MonitorCounts(optimality_checked=steps, optimality_passed=optimal,
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


# the bytes of the arrays that the row store of a batch keeps pending (see _Rows): blocks of
# 256 iterations up to 128 coordinates over the batch (12 rows at d = 10), shorter ones above
BUDGET = 768 * 1024


@dataclass(slots=True, eq=False)
class _Row:
    """One run of a batch: its settings, and what the loop has found out about it so far, its
    trajectory parts and optimality tally included (written by :meth:`_Rows.flush`)."""

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
    parts: Optional[list] = field(default_factory=list)  # an (iterations, 4) array a block
    passed: int = 0  # the steps that passed the optimality test


class _Rows:
    """The pending block of a batch's running :class:`_Row` s ``rows``, in stack order.

    Each iteration appends to ``pending`` one entry for every model, over
    ``rows`` by position: ``(x, f, grad_norm, step_norm, d, g)``, the
    iterates where a value may be unread (the stacked proximal model; None for
    a model built row by row, which reads every value), their values as far as
    read (None when none was, NaN where one was not yet, see :func:`_read`),
    the norms as the iteration formed them (None where it formed none), and
    the step's ``d`` and gradient ``g`` (see :func:`_step`). At the loop's one
    exit of an iteration, when rows leave the stack there or a block's height
    of iterations are pending, :meth:`flush` forms from them the columns ``f,
    grad_norm, step_norm, err_norm`` and each step's gap: the unread values by
    one stacked ``obj.value`` call, each norm column joined from the
    iterations or, where one formed none, as ``sqrt(g'g)`` and that over
    ``modulus``, and every error norm ``||d - g||`` and gap ``d'g``, all over
    the block's stacked arrays, each row with the bits of its one-row form.
    It forms them, and the optimality test, under ``np.errstate(all="ignore")``:
    a column or gap whose arithmetic overflows reads inf or NaN, and a test on
    it fails, under any warnings filter. The gap's one reader is the
    optimality monitor, so the flush tallies it there, adding each row's steps
    that passed to its ``passed``, and keeps no gap. It appends to each row's
    ``parts`` one owned ``(iterations, 4)`` array of the four columns (a view
    would keep the whole block alive), which :func:`run_batch` joins once with
    the terminal row that the loop's one end path writes, and drops. A trajectory
    row then costs its 32 bytes, and 32 more while its run is joined. A run
    keeps its ``x``, ``d`` and ``g`` until its block flushes, so the block's
    height bounds the pending arrays in bytes: :func:`_lockstep` takes
    ``FLUSH`` iterations, or fewer, at least one, when the pending arrays of
    that many iterations of the batch's first stack would pass ``BUDGET``
    bytes. A batch then holds O(B d) bytes of them, not ``3 FLUSH B d``
    floats, and a block's columns are formed while its arrays are still in
    cache. The height moves no byte of any result.
    """

    FLUSH = 256

    def __init__(self, obj, rows, modulus):
        self.obj = obj
        self.modulus = modulus
        self.rows = rows
        self.pending: list[tuple] = []

    def flush(self, t) -> dict:
        """Turn the pending iterations, those before ``t``, into each row's part and optimality
        tally; map each failed row's position to its error.

        A row's error is that of its first iterate whose value raised or is
        not finite (:func:`_values`); the columns and the test raise nothing.
        """
        if not self.pending:
            return {}
        xs, fs, grad_norms, step_norms, ds, gs = zip(*self.pending)
        self.pending.clear()
        iterations, rows = len(fs), len(self.rows)
        start = t - iterations
        f = np.full((iterations, rows), math.nan)
        for k, values in enumerate(fs):
            if values is not None:
                f[k] = values
        f = f.reshape(-1)
        failed = {}  # position: the error of its first iterate whose value failed
        unread = np.flatnonzero(np.isnan(f))
        if len(unread):  # only a stacked model leaves values unread
            points = np.concatenate(xs)
            if len(unread) < len(f):
                points = points[unread]
            f[unread], found = _values(self.obj, points, lambda k: start + int(unread[k]) // rows)
            for k, exc in found.items():  # in iteration order: a row's first failure comes first
                failed.setdefault(int(unread[k]) % rows, exc)
        d, g = np.concatenate(ds), np.concatenate(gs)
        with np.errstate(all="ignore"):  # an overflow reads inf or NaN, a failed check
            if all(norms is not None for norms in grad_norms):
                gn, step_norm = np.concatenate(grad_norms), np.concatenate(step_norms)
            else:
                gn = np.sqrt(row_dots(g, g))
                step_norm = gn / self.modulus
            err = d - g
            err_norm, gap = np.sqrt(row_dots(err, err)), row_dots(d, g)
            # err is as large as d: it goes once the gap is formed, before the block is copied
            # out. Kept to the end of the flush, it left the heap laid out so that the Rosenbrock
            # d=10 scaling study peaked about 1.2 MB higher in RSS, at the same traced peak
            del err
            optimal = _optimal(gap, step_norm, *_scales(gn, step_norm), self.modulus)
        passed = optimal.reshape(iterations, rows).sum(axis=0).tolist()
        block = np.stack((f, gn, step_norm, err_norm), axis=1).reshape(iterations, rows, 4)
        for pos, row in enumerate(self.rows):
            row.parts.append(block[:, pos].copy())
            row.passed += passed[pos]
        return failed


def _quiet(obj, spec, eta) -> bool:
    """Whether a batch of stacked proximal models may leave its norms unformed where no row reads
    them: whether a row's step that stays in the region bounds its gradient far from overflow.

    Let ``u = 2^-53``, ``R = max(r, 1)`` for the region radius ``r`` and ``K =
    max(C, 1)``. A row whose anchor ``x`` and update ``x_next`` both pass the
    region test has ``|x_i|, |x_next_i| <= r (1 + (d + 1) u)`` (exactly ``<=
    r`` in the inf norm; in the 2-norm the computed ``sqrt(x'x)``, inf without a
    warning if too large, bounds the exact one up to rounding). The step computes ``q
    = fl(g / C)`` (``q = g`` at ``C = 1``), ``x_hat = fl(x - q)``, ``d = fl(x -
    x_hat)``, ``p = fl(eta d)`` and ``x_next = fl(x - p)``. Each operation is
    exact up to a factor ``1 +- u``, or an absolute ``2^-1074`` where it
    underflows, and a NaN or an inf in ``g``, or an overflow on the way, puts a
    NaN or an inf in ``x_next``, which fails the test. Read backwards:
    ``|p_i| <~ 2 r``, ``|d_i| <~ (2 r + 2^-1022) / eta <= 2 R / eta``, ``|q_i|
    <~ 2 r + |d_i|``, and ``|g_i| <~ C |q_i|``. So ``|g_i|``, ``|g_i| / C``
    and ``|d_i|`` are each at most ``bound = 2 R K (1 + 1/eta)`` times a
    rounding factor below ``1 + (d + 8) u < 2``. While ``4 d bound^2 <
    2^1000``, such a row's ``g'g``, ``(d - g)'(d - g)`` and ``d'g`` (at most
    ``32 d bound^2`` with their rounding) are finite, and so are its gradient,
    step and error norms: no operation on them overflows or warns.
    """
    bound = 2.0 * max(obj.region_radius, 1.0) * max(spec.strong_convexity, 1.0) * (1.0 + 1.0 / eta)
    return 4.0 * obj.dim * bound * bound < 2.0**1000


def _lockstep(obj, spec, rows, xs, eta, max_iters, stop_grad_norm, keep_every) -> None:
    """Run the :class:`_Row` s ``rows`` of :func:`run_batch` from the checked starts ``xs`` until
    each one ends.

    The running rows are stacked by position: ``rows[pos]`` is the run at
    position ``pos``, ``x[pos]`` its iterate, and ``next_perturb[pos]``, in
    the one schedule list, the first iteration at which it may perturb
    again: ``t_noise + t_th + 1`` (never, for a row without perturbation).
    So a row meets the fire rule's ``t - t_noise > t_th`` at
    ``t >= next_perturb``, and the window test's ``t - t_noise == t_th`` at
    ``t == next_perturb - 1``; ``due`` is the earliest of them. A row keeps
    its position for the whole iteration: one that ends or fails joins
    ``gone``, which the later tests skip, and steps with the stack, its step
    discarded. At the one exit, after the step, the store flushes (when a row
    is gone or a block's height of iterations is pending: a full block one iteration
    late, so a row found bad there leaves then) and the rows in ``gone``
    leave the stack. Everything found about a run goes onto its
    :class:`_Row`: ``end`` writes its terminal row and result, and each flush
    of the store its trajectory parts and optimality tally.

    An iteration reads only what the protocol reads there: the gradients, the
    step and the region test. The gradient norms are read where a row may
    fire or stop (``t >= due``, or a ``stop_grad_norm`` is given); a quiet
    iteration of a stacked model, where none may, leaves them unformed when
    :func:`_quiet` shows that a step that stays in the region bounds them,
    and its region test then stands in for their check: a row whose gradient
    is NaN, inf or too large for its norm steps out, and its end finds its
    error. A batch that :func:`_quiet` refuses forms them every iteration. A
    value not read with its model, and norms not formed yet, are read by
    ``read`` when a row reads ``f``: ``f_tilde`` at a perturbation, the window
    test, a terminal row; it forms the stack's norms first and fails each row
    with its one-row error: its value's exception, then its norm's, then the
    :class:`NonFiniteError` of a value or norm not finite. Every terminal row
    (the stop test, a step out of the region, a perturbed point out of the
    region, ``max_iters``) is written by ``end``. Every iteration appends one
    entry to the store, whatever the model; every other value and norm, and
    every error norm and gap, is formed when the store flushes, and a value
    found bad there ends its row with its error, which wins over whatever the
    row met at a later iterate. What the store forms beyond the values raises
    nothing (:class:`_Rows`).
    """
    if not rows:
        return
    stacked = _stacked(obj, spec)
    store = _Rows(obj, rows, spec.strong_convexity)
    x = np.array(xs)
    # each iteration pends at most three arrays the size of x: x, d and g (see _Rows)
    pending, flush_at = store.pending, max(1, min(store.FLUSH, BUDGET // (3 * x.nbytes)))
    next_perturb = [math.inf if row.params is None else 0 for row in rows]
    due = min(next_perturb)
    stops = stop_grad_norm is not None
    loud = stops or not (stacked and _quiet(obj, spec, eta))  # norms formed every iteration
    # no row fires or stops while every gradient norm is above this
    gate = max([row.params.g_th for row in rows if row.params is not None]
               + ([stop_grad_norm] if stops else []), default=-math.inf)

    def fail(found):
        """Give the row at each position of ``found`` its error; the positions."""
        for pos, exc in found.items():
            rows[pos].error = exc
        return list(found)

    def read(positions, t):
        """Read ``f`` at ``positions``, forming the stack's norms first if not formed yet; the
        positions that failed, those of rows whose norms failed among them."""
        found = {} if surr.grad_norm is not None else _norms(obj, spec, surr, x, t)[1]
        found.update(_read(obj, surr, x, [pos for pos in positions if pos not in found], t))
        return fail(found)

    def rebuild(positions, model):
        """Evaluate ``model`` at the perturbed ``x[positions]`` into ``surr``; those that failed."""
        again, _, found = _evaluate(obj, model, x[positions], t, _stacked(obj, model))
        for name in SurrogateAt.__slots__:
            fields = getattr(again, name)
            getattr(surr, name)[positions] = math.nan if fields is None else fields
        return fail({positions[k]: exc for k, exc in found.items()})

    def end(positions, t, tag=None, outside=None):
        """End the runs at ``positions`` at ``t`` on their terminal rows in ``surr``; the positions
        that ended or failed.

        The row's ``f`` and norm are read first (``read``), and a row whose
        read fails fails instead. ``tag`` names the termination (None:
        ``max_iters``) and joins the row's event; with ``outside``, the points
        that left the region, it carries the exit's message. A run returns its
        terminal point and ``f``, or ``x_tilde`` and ``f_tilde`` when it ends
        ``returned_xtilde``.
        """
        failed = read(positions, t)
        for pos in positions:
            if pos in failed:
                continue
            row = rows[pos]
            f = float(surr.anchor_value[pos])
            row.end = (f, float(surr.grad_norm[pos]))
            row.x_out, row.f_out = x[pos].copy(), f
            if tag == "returned_xtilde":
                row.x_out, row.f_out = row.state.x_tilde, row.state.f_tilde
            if tag is not None:
                row.termination = event = tag
                if outside is not None:
                    event = f"{tag};{_region_exit_message(obj, outside[pos])}"
                row.events[t] = f"{row.events[t]};{event}" if t in row.events else event
        return positions + [pos for pos in failed if pos not in positions]

    for t in range(max_iters):
        reads = stops or t >= due  # whether a row may fire or stop
        surr, grad_norms, failures = _evaluate(obj, spec, x, t, stacked, reads or loud)
        gone = fail(failures) if failures else []  # the rows that end or fail at t
        # one gate for the fire and stop tests: any(), not min(), since min() of a list
        # holding NaN may be NaN. Only a fire changes grad_norms, and a fire passes the gate
        low = reads and any(gn <= gate for gn in grad_norms)

        if low and t >= due:
            fire = [pos for pos, at in enumerate(next_perturb)
                    if at <= t and pos not in gone
                    and grad_norms[pos] <= rows[pos].params.g_th]
            if fire:
                failed = read(fire, t)  # f_tilde, the value before perturbing
                gone += failed
                fire = [pos for pos in fire if pos not in failed]
            for pos in fire:
                row = rows[pos]
                row.state = PerturbationState(t, x[pos].copy(), float(surr.anchor_value[pos]))
                x[pos] += sample_uniform_ball(obj.dim, row.params.r, row.rng)
                row.perturbed_at.append(t)
                row.events[t] = f"perturbed;f_before={row.state.f_tilde:.17g}"
                next_perturb[pos] = t + row.params.t_th + 1
            if fire:
                due = min(next_perturb)
                left = [fire[k] for k in obj.rows_outside(x[fire])]
                stay = [pos for pos in fire if pos not in left]
                if stay:
                    gone += rebuild(stay, spec)
                    grad_norms = surr.grad_norm.tolist()
                if left:  # the terminal row describes the injected point, like any other row
                    failed = rebuild(left, _GRADIENT_MODEL)
                    gone += failed + end([pos for pos in left if pos not in failed], t,
                                         "left_valid_region", x)

        if keep_every and t % keep_every == 0:
            for pos, row in enumerate(rows):
                if pos not in gone:
                    row.iterates.append((t, x[pos].copy()))

        if t + 1 in next_perturb:  # the window tests due now
            window = [pos for pos, at in enumerate(next_perturb)
                      if at == t + 1 and pos not in gone]
            gone += read(window, t)
            for pos in window:
                row = rows[pos]
                if pos not in gone and (surr.anchor_value[pos] - row.state.f_tilde
                                        > -(1.0 - row.params.s) * row.params.f_th):
                    gone += end([pos], t, "returned_xtilde")
        if low and stops:
            below = [pos for pos, gn in enumerate(grad_norms)
                     if gn <= stop_grad_norm and pos not in gone]
            if below:
                gone += end(below, t, "gradient_below_threshold")

        # the whole stack steps; the steps of the rows in gone are discarded
        x_next, outside, d = _step(obj, surr, x, eta)
        left = [pos for pos in outside if pos not in gone]
        if left:
            gone += end(left, t, "left_valid_region", x_next)
        if gone or len(pending) == flush_at:  # the one exit
            gone = set(gone).union(fail(store.flush(t)))
            if gone:
                keep = np.ones(len(rows), dtype=bool)
                keep[list(gone)] = False
                kept = keep.tolist()
                rows = store.rows = [row for row, k in zip(rows, kept) if k]
                if not rows:
                    break
                next_perturb = [at for at, k in zip(next_perturb, kept) if k]
                due = min(next_perturb)
                x, x_next, d, surr = x[keep], x_next[keep], d[keep], _take(surr, keep)
        pending.append((x if stacked else None, surr.anchor_value, surr.grad_norm,
                        surr.step_norm, d, surr.anchor_grad))
        x = x_next
    else:  # the rows that ran out of iterations
        surr, _, failures = _evaluate(obj, _GRADIENT_MODEL, x, max_iters,
                                     _stacked(obj, _GRADIENT_MODEL))
        fail(failures)
        end([pos for pos in range(len(rows)) if pos not in failures], max_iters)
        fail(store.flush(max_iters))


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

    Each iteration: the fire rule, the window test, then the surrogate step.
    The fire rule perturbs the iterate when ``grad_norm <= g_th`` and
    ``t - t_noise > t_th``; the window test, at ``t - t_noise == t_th``,
    returns the pre-perturbation point ``x_tilde`` when
    ``f - f_tilde > -(1 - s) f_th`` (see the module docstring). Terminates
    with ``returned_xtilde`` when the window test fires, else runs to
    ``max_iters``. The result is a deterministic function of ``(obj, spec,
    params, x0)`` and ``rng.seed``: a stream that has already drawn is
    refused (:func:`run_batch`). ``stop_grad_norm`` is an optional
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
    so do a setting that breaks its rule (:func:`~scaopt.numerics.require`),
    one stream object passed for two rows (the rows would draw from it in turn,
    so none would be its serial run) and a stream that has already drawn (its
    run's ``RunResult.seed`` would not replay it).
    GD and PGD are these with the default ``SurrogateSpec()``.

    Each iteration evaluates the iterates, applies the perturbation policy,
    keeps the iterates every ``keep_iterates_every`` steps, runs the
    termination tests (window test, then ``grad_norm <= stop_grad_norm``) and
    takes one step of the step rule (see :func:`_step`), all on the stack of
    the rows still running. A row leaves the stack when its run ends; only the
    rows that perturb draw from their streams. Returns one entry per row, in
    order: the :class:`RunResult` of its run, equal to the serial run's bit
    for bit, or the exception that run raised (a failing row drops out; the
    rest run on). A run's monitors are tallied under
    ``np.errstate(all="ignore")``, so their arithmetic fails no run
    (:func:`_monitors`). Its :class:`Trajectory` holds the columns joined from
    the parts on its :class:`_Row`, which are dropped at once, so no other
    array keeps them.
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
    require(stop_grad_norm=stop_grad_norm, keep_iterates_every=keep_iterates_every,
            max_iters=max_iters, eta=eta)
    n = len(x0s)
    if params is not None:
        if not len(params) == len(rngs) == n:
            raise ValueError(f"need one params and one rng per start, got {len(params)}, "
                             f"{len(rngs)} for {n} starts")
        if len({id(rng) for rng in rngs}) < n:
            raise ValueError("a stream object is passed for more than one row; "
                             "each row needs its own RngStream")
        for i, rng in enumerate(rngs):
            if rng.drawn():
                raise ValueError(f"the stream of row {i} has already drawn, so its seed would not "
                                 "replay the run; each row needs a fresh RngStream(seed)")
    if n == 0:
        return []
    if params is None:
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
    running, xs = [], []
    for row, x0 in zip(rows, x0s):
        try:
            xs.append(checked_anchor(obj, x0, "x0"))
            running.append(row)
        except Exception as exc:
            row.error = exc
    _lockstep(obj, spec, running, xs, eta, max_iters, stop_grad_norm, keep_iterates_every)

    results = []
    for row in rows:
        if row.error is not None:
            results.append(row.error)
            continue
        columns = np.concatenate(row.parts + [np.array([[*row.end, 0.0, 0.0]])])
        row.parts = None  # the run's rows are now held once, in its columns
        with np.errstate(all="ignore"):
            monitors = _monitors(columns, row.perturbed_at, obj, modulus, eta, row.passed)
        results.append(RunResult(
            records=Trajectory(columns, row.perturbed_at), termination=row.termination,
            x_out=row.x_out, f_out=row.f_out, perturbation_count=len(row.perturbed_at),
            seed=None if row.rng is None else row.rng.seed, events=row.events,
            perturbation_state=row.state, monitors=monitors, iterates=row.iterates))
    return results
