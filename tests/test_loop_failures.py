"""Failures inside the loop: each one ends only its own row, with the error its run raises alone.

Every point the loop reads (an iterate, a perturbed point, the terminal point
of a run that ends at ``max_iters``) goes through one evaluation, which raises
for a model that cannot be built and for a non-finite value or gradient. These
tests put such points on small custom objectives, in batches where the other
rows run on, and check the failing row's exception type and that every other
row equals its serial run. They also check the two argument sets of
``run_batch``.
"""

import dataclasses
import math

import numpy as np
import pytest

import scaopt.drivers as drv
from scaopt.numerics import NonFiniteError, RngStream
from scaopt.problems import get_problem, make_quadratic
from scaopt.surrogates import SurrogateSpec
from test_lockstep import assert_same_run

SADDLE = np.array([1.0, 0.0])  # the saddle of saddle_on_rim(), on the rim of its unit ball


def rowwise(fn):
    """``fn`` of one point, also taking a ``(B, d)`` stack one row at a time."""
    def call(x):
        return np.array([fn(row) for row in x]) if np.ndim(x) == 2 else fn(x)
    return call


def batched(obj, nan_at=None, raise_at=None):
    """``obj`` as a batched objective whose value is NaN at ``nan_at`` points.

    A stack that holds a ``raise_at`` point makes the value raise ArithmeticError,
    as does that point alone.
    """
    def value(x):
        points = np.atleast_2d(x)
        if raise_at is not None and any(raise_at(p) for p in points):
            raise ArithmeticError("no value here")
        return rowwise(lambda p: math.nan if nan_at is not None and nan_at(p) else obj.value(p))(x)

    return dataclasses.replace(obj, value=value, gradient=rowwise(obj.gradient), batched=True)


def check_rows(batch, serial_runs, failing):
    """Row ``k`` equals ``serial_runs[k]``; exactly the rows ``failing`` raised."""
    for k, (row, alone) in enumerate(zip(batch, serial_runs)):
        assert_same_run(row, alone)
        assert isinstance(row, Exception) == (k in failing), (k, row)


def serial(run):
    try:
        return run()
    except Exception as exc:
        return exc


# ---------------------------------------------------------------------------
# a failing row of a stacked (batched) evaluation


@pytest.mark.parametrize("how", ["raise", "nan"])
def test_a_bad_row_of_a_stacked_evaluation_fails_alone(how):
    """One row's ``|x[1]| > 3`` makes the stacked value raise, or NaN on that row."""
    plain = make_quadratic(np.diag([1.0, -1.0]), hessian_lipschitz=0.05).objective

    def bad(p):
        return abs(p[1]) > 3.0

    obj = batched(plain, **({"raise_at": bad} if how == "raise" else {"nan_at": bad}))
    x0s = [np.array([1.0, 0.1])] + [np.array([1.0, 0.0])] * 2  # x[1] grows by 1.5 a step
    batch = drv.run_batch(obj, SurrogateSpec(), x0s, eta=0.5, stop_grad_norm=1e-12, max_iters=40)
    alone = [serial(lambda x0=x0: drv.run_sca(obj, SurrogateSpec(), 0.5, 1e-12, 40, x0))
             for x0 in x0s]
    check_rows(batch, alone, failing={0})
    assert type(batch[0]) is (ArithmeticError if how == "raise" else NonFiniteError)


# ---------------------------------------------------------------------------
# a perturbed point whose value is not finite


def saddle_on_rim():
    """``0.5 (x0^2 - x1^2) - x0`` on the unit ball: its saddle ``(1, 0)`` lies on the rim."""
    return make_quadratic(np.diag([1.0, -1.0]), [-1.0, 0.0], hessian_lipschitz=0.05,
                          region_radius=1.0).objective


@pytest.mark.parametrize("where", ["inside", "outside"])
def test_a_perturbed_point_with_a_nan_value_fails_its_row(where):
    """Perturbations from the saddle land inside or outside the ball; the value is NaN at the
    ones ``where`` says, and finite everywhere else."""
    plain = saddle_on_rim()

    def nan_at(p):
        if where == "outside":
            return not plain.in_region(p)
        return plain.in_region(p) and 0.0 < math.dist(p, SADDLE) < 1e-3

    obj = batched(plain, nan_at=nan_at)
    params = drv.derive_params(1e-2, 0.1, 1.0, 0.5, 1.0, obj, 30)
    x0s = [SADDLE] * 6 + [np.array([0.5, 0.1])]
    batch = drv.run_batch(obj, SurrogateSpec(), x0s, params=[params] * 7,
                          rngs=[RngStream(s) for s in range(7)])
    alone = [serial(lambda x0=x0, s=s: drv.run_pgd(obj, params, x0, RngStream(s)))
             for s, x0 in enumerate(x0s)]
    left = [not plain.in_region(SADDLE + drv.sample_uniform_ball(2, params.r, RngStream(s)))
            for s in range(6)]
    assert any(left) and not all(left)  # some perturbations leave the ball, some stay inside
    failing = {s for s in range(6) if left[s] == (where == "outside")}
    check_rows(batch, alone, failing)
    assert all(type(batch[s]) is NonFiniteError for s in failing)
    # a perturbation that leaves the ball ends its run there, on that point's finite row
    assert all(batch[s].termination == "left_valid_region" and batch[s].iterations == 0
               and math.isfinite(batch[s].final_f)
               for s in range(6) if left[s] and s not in failing)


# ---------------------------------------------------------------------------
# the terminal row of a run that ends at max_iters


def nan_below(threshold):
    """``0.5 x^2`` on the line, with a NaN value at ``x < threshold``; SCA at ``eta = 0.5``
    halves ``x`` each step."""
    plain = make_quadratic(np.eye(1)).objective
    return dataclasses.replace(plain, value=lambda x: math.nan if x[0] < threshold
                               else plain.value(x))


@pytest.mark.parametrize("max_iters", [2, 3])
def test_a_nan_terminal_row_raises(max_iters):
    """From 1 the iterates are 1, 0.5, 0.25: the NaN point is the terminal row at budget 2
    and a step's anchor at budget 3, and both raise at iteration 2."""
    obj = nan_below(0.3)
    with pytest.raises(NonFiniteError, match="at iteration 2"):
        drv.run_sca(obj, SurrogateSpec(), 0.5, 1e-9, max_iters, [1.0])


def test_a_nan_terminal_row_fails_only_its_row():
    obj = nan_below(0.3)
    x0s = [np.array([1.0]), np.array([4.0]), np.array([0.2])]  # the last fails at once
    batch = drv.run_batch(obj, SurrogateSpec(), x0s, eta=0.5, stop_grad_norm=1e-9, max_iters=2)
    alone = [serial(lambda x0=x0: drv.run_sca(obj, SurrogateSpec(), 0.5, 1e-9, 2, x0))
             for x0 in x0s]
    check_rows(batch, alone, failing={0, 2})
    assert batch[1].termination == "max_iters" and batch[1].final_f == 0.5


# ---------------------------------------------------------------------------
# the two argument sets of run_batch


def _batch_settings(obj):
    """The settings of a one-row batch without params, and of one with params."""
    params = drv.derive_params(1e-2, 0.1, 1.0, 0.5, 1.0, obj, 5)
    plain = {"eta": 0.05, "max_iters": 5, "stop_grad_norm": 1e-3}
    perturbed = {"params": [params], "rngs": [RngStream(0)]}
    return plain, perturbed


@pytest.mark.parametrize("kind, change, message", [
    ("plain", {"eta": None}, "a batch without params needs eta"),
    ("plain", {"max_iters": None}, "a batch without params needs max_iters"),
    ("plain", {"stop_grad_norm": None}, "a batch without params needs stop_grad_norm"),
    ("plain", {"rngs": [RngStream(0)]}, "a batch without params takes no rngs"),
    ("perturbed", {"rngs": None}, "a batch with params needs rngs"),
    ("perturbed", {"eta": 0.9}, "a batch with params takes no eta"),
    ("perturbed", {"max_iters": 3}, "a batch with params takes no max_iters"),
    ("perturbed", {"rngs": [RngStream(0), RngStream(1)]},
     r"need one params and one rng per start, got 1, 2 for [01] starts"),
    ("plain", {"max_iters": 0}, "max_iters must be a positive integer, got 0"),
    ("plain", {"max_iters": -3}, "max_iters must be a positive integer, got -3"),
    ("plain", {"stop_grad_norm": math.nan}, "stop_grad_norm must not be NaN"),
    ("perturbed", {"stop_grad_norm": math.nan}, "stop_grad_norm must not be NaN"),
    ("plain", {"keep_iterates_every": 0}, "keep_iterates_every must be a positive integer, got 0"),
    ("perturbed", {"keep_iterates_every": -7},
     "keep_iterates_every must be a positive integer, got -7"),
])
def test_run_batch_refuses_a_setting_it_would_ignore(kind, change, message):
    obj = get_problem("saddle_quartic:d=2").objective
    plain, perturbed = _batch_settings(obj)
    settings = {**(plain if kind == "plain" else perturbed), **change}
    for x0s in ([np.zeros(2)], []):
        with pytest.raises(ValueError, match=f"^{message}$"):
            drv.run_batch(obj, SurrogateSpec(), x0s, **settings)


def test_a_stream_shared_by_two_rows_is_refused():
    prob = get_problem("saddle_quartic:d=4")
    obj = prob.objective
    params = drv.derive_params(1e-2, 0.1, 1.0, 0.5, 1.0, obj, 50)
    x0s = [prob.canonical_start] * 3  # the saddle: every row perturbs at once
    with pytest.raises(ValueError, match="^a stream object is passed for more than one row"):
        drv.run_batch(obj, SurrogateSpec(), x0s, params=[params] * 3, rngs=[RngStream(5)] * 3)
    rows = drv.run_batch(obj, SurrogateSpec(), x0s, params=[params] * 3,
                         rngs=[RngStream(5) for _ in x0s])
    alone = drv.run_psca(obj, SurrogateSpec(), params, x0s[0], RngStream(5))
    assert alone.perturbation_count >= 1
    for row in rows:
        assert_same_run(row, alone)


@pytest.mark.parametrize("max_iters", [0, -3])
def test_every_run_checks_its_budget(max_iters):
    obj = get_problem("saddle_quartic:d=2").objective
    x0 = np.zeros(2)
    runs = (lambda: drv.run_sca(obj, SurrogateSpec(), 0.05, 1e-3, max_iters, x0),
            lambda: drv.run_gd(obj, 0.05, 1e-3, max_iters, x0),
            lambda: drv.derive_params(1e-2, 0.1, 1.0, 0.5, 1.0, obj, max_iters))
    for run in runs:
        with pytest.raises(ValueError, match="max_iters must be (a )?positive integer"):
            run()


@pytest.mark.parametrize("eta", [0.0, 1.5])
def test_every_run_without_params_checks_its_step(eta):
    obj = get_problem("saddle_quartic:d=2").objective
    x0 = np.zeros(2)
    runs = (lambda: drv.run_sca(obj, SurrogateSpec(), eta, 1e-3, 5, x0),
            lambda: drv.run_gd(obj, eta, 1e-3, 5, x0),
            lambda: drv.run_batch(obj, SurrogateSpec(), [x0], eta=eta, max_iters=5,
                                  stop_grad_norm=1e-3))
    for run in runs:
        with pytest.raises(ValueError, match=r"^eta must lie in \(0, 1\], got "):
            run()


def test_a_perturbed_batch_takes_an_optional_stop():
    obj = get_problem("saddle_quartic:d=2").objective
    x0 = np.array([0.5, 0.5])
    for stop in (None, 10.0):
        _, perturbed = _batch_settings(obj)
        (row,) = drv.run_batch(obj, SurrogateSpec(), [x0], stop_grad_norm=stop, **perturbed)
        assert_same_run(row, drv.run_psca(obj, SurrogateSpec(), perturbed["params"][0], x0,
                                          RngStream(0), stop_grad_norm=stop))
    assert row.termination == "gradient_below_threshold" and row.iterations == 0
