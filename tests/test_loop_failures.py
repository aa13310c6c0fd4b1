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
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import scaopt.drivers as drv
from scaopt import surrogates
from scaopt.numerics import NonFiniteError, RngStream
from scaopt.problems import get_problem, make_quadratic, make_saddle_quartic
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


@pytest.mark.parametrize("value", ["raise", "nan", "finite"])
@pytest.mark.parametrize("max_iters", [2, 3])
def test_a_stacked_row_with_a_nan_gradient_fails_alone(value, max_iters):
    """On ``0.5 x^2``, batched, the gradient is NaN at ``x < 0.3`` and the value there raises, is
    NaN or is finite. SCA at ``eta = 0.5`` halves ``x``: from 1, iterate 2 is a step's anchor at
    budget 3 and the terminal row at budget 2; from 2, iterate 3 is the terminal row at budget 3.
    A raising value fails the row with its exception, any other with the NaN gradient's error."""
    plain = make_quadratic(np.eye(1)).objective

    def bad(p):
        return p[0] < 0.3

    how = {"raise": {"raise_at": bad}, "nan": {"nan_at": bad}, "finite": {}}[value]
    obj = batched(plain, **how)
    obj = dataclasses.replace(obj, gradient=rowwise(
        lambda p: np.array([math.nan]) if bad(p) else plain.gradient(p)))
    x0s = [np.array([1.0]), np.array([4.0]), np.array([2.0])]
    batch = drv.run_batch(obj, SurrogateSpec(), x0s, eta=0.5, stop_grad_norm=1e-9,
                          max_iters=max_iters)
    alone = [serial(lambda x0=x0: drv.run_sca(obj, SurrogateSpec(), 0.5, 1e-9, max_iters, x0))
             for x0 in x0s]
    failing = {0, 2} if max_iters == 3 else {0}
    check_rows(batch, alone, failing)
    for k in failing:  # row 0 meets x < 0.3 at iteration 2, row 2 at iteration 3
        if value == "raise":
            assert type(batch[k]) is ArithmeticError and str(batch[k]) == "no value here"
        else:
            assert type(batch[k]) is NonFiniteError
            assert str(batch[k]) == f"non-finite objective or gradient at iteration {2 + k // 2}"
    assert batch[1].termination == "max_iters" and batch[1].iterations == max_iters


# ---------------------------------------------------------------------------
# a row whose error norm, gap or monitor arithmetic overflows


# (modulus, gradient norm at the bad start): at modulus 0.5 the step's gap d'g = 2 * 1.2e154^2
# overflows; at 0.6 the gap (1.67e308) is finite, but the monitors' step_norm^2 overflows
DIAGNOSTICS_OVERFLOW = {"gap": (0.5, 1.2e154), "monitor": (0.6, 1e154)}


@given(
    batched_objective=st.booleans(),
    case=st.sampled_from(sorted(DIAGNOSTICS_OVERFLOW)),
    # the number of rows, 2 to 4, and the bad row's position
    layout=st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
    max_iters=st.integers(1, 8),
    nan_at=st.sampled_from([None, 0, 1]),
)
@example(batched_objective=False, case="gap", layout=(2, 0), max_iters=5, nan_at=None)
@example(batched_objective=True, case="gap", layout=(2, 0), max_iters=5, nan_at=None)
@example(batched_objective=True, case="monitor", layout=(2, 0), max_iters=5, nan_at=None)
def test_a_row_whose_diagnostics_overflow_fails_alone(batched_objective, case, layout, max_iters,
                                                      nan_at):
    """SCA on ``0.5 ||x||^2`` over the whole plane, warnings made errors: the gradient at the bad
    row's start ``(0.3, 0)`` is scaled to a norm whose first step makes the gap or the monitors
    overflow, and its value is NaN at its iterate ``nan_at``. That row fails as its serial run
    fails, with the error of its first failing iterate (at iterate 0, the value's); the rows from
    ``(0.5, 0.1 k)`` run on and equal their serial runs."""
    rows, bad = layout
    modulus, norm = DIAGNOSTICS_OVERFLOW[case]
    plain = make_quadratic(np.eye(2)).objective
    start = np.array([0.3, 0.0])
    spec = SurrogateSpec(strong_convexity=modulus)

    def gradient(p):
        g = plain.gradient(p)
        return g * (norm / 0.3) if np.array_equal(p, start) else g

    clean = dataclasses.replace(plain, gradient=gradient)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        iterates = dict(drv.run_sca(clean, spec, 0.1, -1.0, 2, start,
                                    keep_iterates_every=1).iterates)
    nan_point = None if nan_at is None else iterates[nan_at]

    def value(p):
        return math.nan if nan_point is not None and np.array_equal(p, nan_point) else plain.value(p)

    obj = dataclasses.replace(clean, value=value)
    if batched_objective:
        obj = dataclasses.replace(obj, value=rowwise(value), gradient=rowwise(gradient),
                                  batched=True)
    x0s = [start if k == bad else np.array([0.5, 0.1 * k]) for k in range(rows)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = drv.run_batch(obj, spec, x0s, eta=0.1, max_iters=max_iters, stop_grad_norm=-1.0)
        alone = [serial(lambda x0=x0: drv.run_sca(obj, spec, 0.1, -1.0, max_iters, x0))
                 for x0 in x0s]
    check_rows(batch, alone, failing={bad})
    if nan_at == 0 or (nan_at == 1 and case == "monitor"):
        expected = (NonFiniteError, f"non-finite objective or gradient at iteration {nan_at}")
    else:
        expected = (RuntimeWarning, "overflow encountered in multiply")
    assert (type(batch[bad]), str(batch[bad])) == expected
    assert all(row.termination == "max_iters" for k, row in enumerate(batch) if k != bad)


@given(
    batched_objective=st.booleans(),
    case=st.sampled_from(["square", "product"]),
    height=st.sampled_from([1, 3, 256]),
    layout=st.integers(2, 4).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))),
    # the bad row's iterate whose value is NaN, counted from the height: in a later block
    nan_after=st.one_of(st.none(), st.integers(0, 39)),
)
@example(batched_objective=False, case="square", height=256, layout=(2, 0), nan_after=None)
@example(batched_objective=True, case="square", height=3, layout=(3, 1), nan_after=5)
@example(batched_objective=False, case="product", height=1, layout=(2, 1), nan_after=None)
@example(batched_objective=True, case="product", height=256, layout=(3, 0), nan_after=7)
def test_a_row_whose_optimality_overflows_fails_at_its_end(batched_objective, case, height,
                                                           layout, nan_after):
    """SCA on ``0.5 ||x||^2`` for ``height + 40`` iterations at a store block height of 1, 3 or
    256, set through ``BUDGET``, warnings made errors: the bad row's optimality arithmetic
    overflows at iteration 0, in its first block. In the "square" case (the "monitor" case
    above) its ``step_norm * step_norm`` overflows; in the "product" case a custom model reports
    a step norm of 1e154 there, whose finite square ``C = 2`` times overflows. A monitor fails a
    run only when the run ends, so a NaN value at the bad row's iterate ``height + nan_after``,
    in a later block, fails it with that iterate's error, and a run that reaches ``max_iters``
    fails with the overflow. Every row equals its serial run."""
    rows, bad = layout
    max_iters = height + 40
    plain = make_quadratic(np.eye(2)).objective
    start = np.array([0.3, 0.0])
    clean = plain
    if case == "square":
        modulus, norm = DIAGNOSTICS_OVERFLOW["monitor"]
        spec = SurrogateSpec(strong_convexity=modulus)

        def gradient(p):
            g = plain.gradient(p)
            return g * (norm / 0.3) if np.array_equal(p, start) else g

        clean = dataclasses.replace(plain, gradient=gradient)
    else:
        def builder(o, y, _, model=SurrogateSpec(strong_convexity=2.0)):
            surr = surrogates._build(o, y, model)
            if np.array_equal(y, start):
                surr.step_norm = 1e154
            return surr

        spec = SurrogateSpec(kind="custom", strong_convexity=2.0, builder=builder)
    nan_point = None
    if nan_after is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            nan_point = drv.run_sca(clean, spec, 0.1, -1.0, max_iters, start,
                                    keep_iterates_every=1).iterates[height + nan_after][1]

    def value(p):
        return math.nan if nan_point is not None and np.array_equal(p, nan_point) else plain.value(p)

    obj = dataclasses.replace(clean, value=value)
    if batched_objective:
        obj = dataclasses.replace(obj, value=rowwise(value), gradient=rowwise(clean.gradient),
                                  batched=True)
    x0s = [start if k == bad else np.array([0.5, 0.1 * k]) for k in range(rows)]
    # the store's block height is BUDGET // (3 x.nbytes), at most FLUSH (see drivers._lockstep)
    budget = {1: 0, 3: 3 * 3 * start.nbytes * rows, 256: drv.BUDGET}[height]
    flushed, flush = [], drv._Rows.flush

    def counted(store, t):
        flushed.append(len(store.pending))
        return flush(store, t)

    with warnings.catch_warnings(), mock.patch.object(drv, "BUDGET", budget):
        warnings.simplefilter("error")
        with mock.patch.object(drv._Rows, "flush", counted):
            batch = drv.run_batch(obj, spec, x0s, eta=0.1, max_iters=max_iters,
                                  stop_grad_norm=-1.0)
        alone = [serial(lambda x0=x0: drv.run_sca(obj, spec, 0.1, -1.0, max_iters, x0))
                 for x0 in x0s]
    assert max(flushed) == height
    check_rows(batch, alone, failing={bad})
    if nan_after is None:
        expected = (RuntimeWarning, "overflow encountered in multiply")
    else:
        expected = (NonFiniteError,
                    f"non-finite objective or gradient at iteration {height + nan_after}")
    assert (type(batch[bad]), str(batch[bad])) == expected
    assert all(row.termination == "max_iters" for k, row in enumerate(batch) if k != bad)


# ---------------------------------------------------------------------------
# a perturbed point whose value is not finite


def saddle_on_rim():
    """``0.5 (x0^2 - x1^2) - x0`` on the unit ball: its saddle ``(1, 0)`` lies on the rim."""
    return make_quadratic(np.diag([1.0, -1.0]), [-1.0, 0.0], hessian_lipschitz=0.05,
                          region_radius=1.0).objective


# every model and objective, each part at its first value left out of the case's id
@pytest.mark.parametrize("kind, objective, where", [
    pytest.param(kind, objective, where, id="-".join(
        part for part in (kind, objective, where) if part not in ("proximal_linear", "batched")))
    for kind in ("proximal_linear", "quadratic_split") for objective in ("batched", "unbatched")
    for where in ("inside", "outside")])
def test_a_perturbed_point_with_a_nan_value_fails_its_row(kind, objective, where):
    """Perturbations from the saddle land inside or outside the ball; the value is NaN at the
    ones ``where`` says, and finite everywhere else. A point inside is read through the run's
    model, one outside through the gradient model, on the stack when the objective is batched."""
    plain = saddle_on_rim()

    def nan_at(p):
        if where == "outside":
            return not plain.in_region(p)
        return plain.in_region(p) and 0.0 < math.dist(p, SADDLE) < 1e-3

    if objective == "batched":
        obj = batched(plain, nan_at=nan_at)
    else:
        obj = dataclasses.replace(plain, value=lambda p: math.nan if nan_at(p) else plain.value(p))
    spec = SurrogateSpec(kind=kind)
    params = drv.derive_params(1e-2, 0.1, 1.0, 0.5, 1.0, obj, 30)
    x0s = [SADDLE] * 6 + [np.array([0.5, 0.1])]
    batch = drv.run_batch(obj, spec, x0s, params=[params] * 7,
                          rngs=[RngStream(s) for s in range(7)])
    alone = [serial(lambda x0=x0, s=s: drv.run_psca(obj, spec, params, x0, RngStream(s)))
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
    ("plain", {"max_iters": 0}, "max_iters must be a positive integer"),
    ("plain", {"max_iters": -3}, "max_iters must be a positive integer"),
    ("plain", {"stop_grad_norm": math.nan}, "stop_grad_norm must not be NaN"),
    ("perturbed", {"stop_grad_norm": math.nan}, "stop_grad_norm must not be NaN"),
    ("plain", {"keep_iterates_every": 0}, "keep_iterates_every must be a positive integer"),
    ("perturbed", {"keep_iterates_every": -7},
     "keep_iterates_every must be a positive integer"),
    ("plain", {"keep_iterates_every": 2.5},
     "keep_iterates_every must be a positive integer"),
    ("perturbed", {"keep_iterates_every": 2.5},
     "keep_iterates_every must be a positive integer"),
    ("plain", {"max_iters": 2.5}, "max_iters must be a positive integer"),
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


def test_a_stream_that_has_drawn_is_refused():
    """A run's ``seed`` replays it only from a fresh stream, so a stream that has drawn, here in
    an earlier run from the quartic's saddle, is refused; the row it was passed for is named."""
    prob = get_problem("saddle_quartic:d=4")
    obj = prob.objective
    params = drv.derive_params(1e-2, 0.1, 1.0, 0.5, 1.0, obj, 50)
    rng = RngStream(7)
    first = drv.run_psca(obj, SurrogateSpec(), params, prob.canonical_start, rng)
    assert first.perturbation_count >= 1 and first.seed == 7
    message = "^the stream of row 0 has already drawn, so its seed would not replay the run"
    with pytest.raises(ValueError, match=message):
        drv.run_psca(obj, SurrogateSpec(), params, prob.canonical_start, rng)
    with pytest.raises(ValueError, match=message.replace("row 0", "row 1")):
        drv.run_batch(obj, SurrogateSpec(), [prob.canonical_start] * 2, params=[params] * 2,
                      rngs=[RngStream(7), rng])
    assert_same_run(drv.run_psca(obj, SurrogateSpec(), params, prob.canonical_start,
                                 RngStream(7)), first)


@pytest.mark.parametrize("max_iters", [0, -3, 2.5])
def test_every_run_checks_its_budget(max_iters):
    obj = get_problem("saddle_quartic:d=2").objective
    x0 = np.zeros(2)
    runs = (lambda: drv.run_sca(obj, SurrogateSpec(), 0.05, 1e-3, max_iters, x0),
            lambda: drv.run_gd(obj, 0.05, 1e-3, max_iters, x0),
            lambda: drv.derive_params(1e-2, 0.1, 1.0, 0.5, 1.0, obj, max_iters))
    for run in runs:
        with pytest.raises(ValueError, match="max_iters must be (a )?positive integer"):
            run()


def test_a_numpy_integer_is_a_budget():
    obj = get_problem("saddle_quartic:d=2").objective
    x0 = np.array([0.5, 0.5])
    run = drv.run_sca(obj, SurrogateSpec(), 0.05, 1e-3, np.int64(5), x0,
                      keep_iterates_every=np.int64(2))
    assert_same_run(run, drv.run_sca(obj, SurrogateSpec(), 0.05, 1e-3, 5, x0,
                                     keep_iterates_every=2))
    assert run.iterations == 5 and [t for t, _ in run.iterates] == [0, 2, 4]
    assert drv.derive_params(1e-2, 0.1, 1.0, 0.5, 1.0, obj, np.int64(5)).max_iters == 5


@pytest.mark.parametrize("eta", [0.0, 1.5])
def test_every_run_without_params_checks_its_step(eta):
    obj = get_problem("saddle_quartic:d=2").objective
    x0 = np.zeros(2)
    runs = (lambda: drv.run_sca(obj, SurrogateSpec(), eta, 1e-3, 5, x0),
            lambda: drv.run_gd(obj, eta, 1e-3, 5, x0),
            lambda: drv.run_batch(obj, SurrogateSpec(), [x0], eta=eta, max_iters=5,
                                  stop_grad_norm=1e-3))
    for run in runs:
        with pytest.raises(ValueError, match=rf"^eta must satisfy 0 < eta <= 1 \(got {eta}\)$"):
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


# ---------------------------------------------------------------------------
# values the loop reads a block at a time


def iterate_of(i, c, t):
    """Whether a point is iterate ``t`` of SCA at ``eta = 0.01`` on ``0.5 ||x||^2`` from ``c e_i``.

    Each step scales the iterate by 0.99, so coordinate ``i`` of iterate ``t``
    is ``c 0.99^t``, within rounding far inside the half-step window tested here.
    """
    return lambda p: c * 0.99 ** (t + 0.5) < p[i] <= c * 0.99 ** (t - 0.5)


def test_a_bad_value_fails_its_row_at_its_first_bad_iterate():
    """Bad values lie in the middle of store blocks, each row meeting something later in
    the same block: another bad value, its gradient raises, or it stops. The first bad
    value's error wins."""
    plain = make_quadratic(np.eye(5)).objective
    small = 0.99**160  # row 3 starts here and falls below the stop threshold near t = 560
    nan_value = [iterate_of(0, 1.0, 300), iterate_of(3, small, 520)]
    raising_value = [iterate_of(0, 1.0, 380), iterate_of(1, 1.0, 450)]
    raising_gradient = [iterate_of(0, 1.0, 400), iterate_of(1, 1.0, 500), iterate_of(2, 1.0, 600)]

    def value(x):
        if any(bad(p) for p in np.atleast_2d(x) for bad in raising_value):
            raise ArithmeticError("no value here")
        return rowwise(lambda p: math.nan if any(bad(p) for bad in nan_value)
                       else plain.value(p))(x)

    def gradient(x):
        if any(bad(p) for p in np.atleast_2d(x) for bad in raising_gradient):
            raise ArithmeticError("no gradient here")
        return rowwise(plain.gradient)(x)

    obj = dataclasses.replace(plain, value=value, gradient=gradient, batched=True)
    x0s = list(np.eye(5))
    x0s[3] = small * x0s[3]
    settings = dict(eta=0.01, stop_grad_norm=0.99**720, max_iters=700)
    batch = drv.run_batch(obj, SurrogateSpec(), x0s, **settings)
    alone = [serial(lambda x0=x0: drv.run_batch(obj, SurrogateSpec(), [x0], **settings)[0])
             for x0 in x0s]
    check_rows(batch, alone, failing={0, 1, 2, 3})
    assert [(type(row), str(row)) for row in batch[:4]] == [
        (NonFiniteError, "non-finite objective or gradient at iteration 300"),
        (ArithmeticError, "no value here"),
        (ArithmeticError, "no gradient here"),
        (NonFiniteError, "non-finite objective or gradient at iteration 520"),
    ]
    assert batch[4].termination == "max_iters" and batch[4].iterations == 700
    # without the bad values, rows 0 and 1 fail later and row 3 stops
    clean = dataclasses.replace(obj, value=rowwise(plain.value))
    rows = drv.run_batch(clean, SurrogateSpec(), x0s, **settings)
    assert [str(row) for row in rows[:2]] == ["no gradient here"] * 2
    assert rows[3].termination == "gradient_below_threshold" and rows[3].iterations > 520


def test_a_bad_value_wins_over_a_later_window_exit():
    """PGD from the quartic's saddle returns ``x_tilde`` at its second window test, t = 2521;
    a NaN value at iterate 2400, in the same store block, fails the run there instead."""
    plain = get_problem("saddle_quartic:d=2").objective
    params = drv.derive_params(1e-2, 0.1, 1.0, 0.5, 0.25, plain, 3000)
    clean = drv.run_pgd(plain, params, np.zeros(2), RngStream(1), keep_iterates_every=1)
    assert clean.termination == "returned_xtilde" and clean.iterations == 2521
    bad = dict(clean.iterates)[2400].tobytes()
    obj = batched(plain, nan_at=lambda p: p.tobytes() == bad)
    x0s, seeds = [np.zeros(2)] * 3, [1, 2, 3]
    batch = drv.run_batch(obj, SurrogateSpec(), x0s, params=[params] * 3,
                          rngs=[RngStream(s) for s in seeds])
    alone = [serial(lambda s=s: drv.run_pgd(obj, params, np.zeros(2), RngStream(s)))
             for s in seeds]
    check_rows(batch, alone, failing={0})
    assert type(batch[0]) is NonFiniteError
    assert str(batch[0]) == "non-finite objective or gradient at iteration 2400"


# ---------------------------------------------------------------------------
# a gradient that turns bad between the fire at t = 0 and the next possible one


QUIET_T_TH = 12  # the window test runs at t = 12, and no row may fire again before t = 13
BAD_GRADIENTS = {"nan": math.nan, "inf": math.inf, "1e200": 1e200, "2^513": 2.0**513}
# 2^513 squared overflows, as 1e200 squared does, but the step it makes on the quartic scaled
# by 2^510 (eta = 0.1 / 2^510) is 0.8 / C: it stays inside the ball of radius 2
LOUD_SCALE = 2.0**510


def quartic_turning_bad(scale, radius, region_norm, bad):
    """The d=4 quartic times ``scale`` on the ball of ``radius`` in ``region_norm``, batched.

    ``bad`` maps a point's bytes to ``(entry, nan_value)``: at that point
    gradient entry 1 is ``entry``, and the value is NaN when ``nan_value``.
    """
    plain = make_saddle_quartic(4).objective

    def marks(x):
        return [bad.get(p.tobytes()) for p in np.atleast_2d(x)]

    def value(x):
        v = plain.value(x) * scale
        nan = [k for k, mark in enumerate(marks(x)) if mark is not None and mark[1]]
        if x.ndim == 1:
            return math.nan if nan else v
        v[nan] = math.nan
        return v

    def gradient(x):
        g = plain.gradient(x) * scale
        rows = np.atleast_2d(g)  # a view of g
        for k, mark in enumerate(marks(x)):
            if mark is not None:
                rows[k, 1] = mark[0]
        return g

    return dataclasses.replace(plain, value=value, gradient=gradient, region_radius=radius,
                               region_norm=region_norm)


@given(
    rows=st.lists(st.one_of(st.none(), st.tuples(
        st.integers(1, QUIET_T_TH), st.sampled_from(sorted(BAD_GRADIENTS)), st.booleans())),
        min_size=1, max_size=4),
    window_row=st.tuples(st.sampled_from(sorted(BAD_GRADIENTS)), st.booleans()),
    radius=st.sampled_from([2.0, math.inf]),
    norm=st.sampled_from([2, math.inf]),
    loud=st.booleans(),
    modulus=st.sampled_from([1.0, 2.0]),
    escape=st.booleans(),
    stop=st.booleans(),
    mode=st.sampled_from(["error", "ignore"]),
)
@example(rows=[(1, "1e200", False)], window_row=("1e200", False), radius=2.0, norm=2, loud=False,
         modulus=1.0, escape=False, stop=False, mode="error")
def test_a_gradient_turning_bad_in_the_quiet_stretch_fails_its_row(
        rows, window_row, radius, norm, loud, modulus, escape, stop, mode):
    """P-SCA rows fire at t = 0 from the quartic's saddle; each bad row's gradient turns NaN, inf
    or too large for its norm at its iteration ``k`` of the stretch up to the window test, the
    last row's at the window test itself. Each row equals its serial run and fails at ``k``, with
    its norm's overflow warning when warnings are errors, else the non-finite error at ``k``.
    ``loud`` scales the objective by 2^510 and ``eta`` by 2^-510, a step so small that no bound
    on the gradient follows from a step that stays in the region."""
    rows = rows + [(QUIET_T_TH, *window_row)]
    scale = LOUD_SCALE if loud else 1.0
    params = drv.PscaParams(
        eps=1e-2, delta=0.1, c=1.0, s=0.5, delta_u=1.0, chi=12.0, eta=0.1 / scale, r=0.1,
        g_th=1e-3 * scale, f_th=(1e-12 if escape else 1.0) * scale, t_th=QUIET_T_TH,
        max_iters=QUIET_T_TH + 6)
    spec = SurrogateSpec(strong_convexity=modulus)
    x0s = [np.zeros(4)] * len(rows)
    settings = dict(params=[params] * len(rows), stop_grad_norm=1e-300 * scale if stop else None)

    def run(obj, **extra):
        return drv.run_batch(obj, spec, x0s, rngs=[RngStream(s) for s in range(len(rows))],
                             **settings, **extra)

    clean = run(quartic_turning_bad(scale, radius, norm, {}), keep_iterates_every=1)
    bad = {dict(clean[s].iterates)[row[0]].tobytes(): (BAD_GRADIENTS[row[1]], row[2])
           for s, row in enumerate(rows) if row is not None}
    obj = quartic_turning_bad(scale, radius, norm, bad)
    with warnings.catch_warnings():
        warnings.simplefilter(mode)
        batch = run(obj)
        alone = [serial(lambda s=s: drv.run_psca(obj, spec, params, x0s[s], RngStream(s),
                                                 stop_grad_norm=settings["stop_grad_norm"]))
                 for s in range(len(rows))]
    failing = {s for s, row in enumerate(rows) if row is not None}
    check_rows(batch, alone, failing)
    for s in failing:
        k, kind, _ = rows[s]
        if kind in ("1e200", "2^513") and mode == "error":
            expected = (RuntimeWarning, "overflow encountered in multiply")
        else:
            expected = (NonFiniteError, f"non-finite objective or gradient at iteration {k}")
        assert (type(batch[s]), str(batch[s])) == expected
