"""The fire and stop tests of a batch that leaves them to its row store.

A batch with a stop threshold, whose model is built on the whole stack, whose
steps bound its gradients (``drivers._quiet``) and whose every ``g_th`` is at
most that threshold forms no gradient norm in a quiet iteration: the row store
runs the fire and stop tests of those iterations when it flushes, and the batch
steps back to an iteration where a row fires. Each test here runs such a batch
and the same batch on the objective declared unbatched, whose models are built
row by row and whose loop tests every norm as it forms it, and checks that every
row is the same run, bit for bit: records, events, iterates kept at every
iteration, monitors, perturbation state and the draws of its stream.
"""

import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scaopt.drivers as drv
from scaopt.numerics import RngStream, sample_uniform_ball
from scaopt.problems import get_problem, make_quadratic
from scaopt.surrogates import SurrogateSpec
from test_lockstep import assert_same_run
from test_loop_failures import batched, quartic_turning_bad


def drawn(rng):
    """How far ``rng`` has drawn: its Philox counter and buffer."""
    state = rng._gen.bit_generator.state
    return (state["state"]["counter"].tolist(), state["buffer"].tolist(), state["buffer_pos"],
            state["has_uint32"], state["uinteger"])


def run_both(obj, spec, x0s, params=None, seeds=None, **settings):
    """The batch on ``obj`` and on ``obj`` declared unbatched, at ``keep_iterates_every=1``; each
    row of the one is the same run as that row of the other, its stream's draws included."""
    runs, streams = [], []
    for objective in (obj, dataclasses.replace(obj, batched=False)):
        if params is None:
            runs.append(drv.run_batch(objective, spec, x0s, keep_iterates_every=1, **settings))
            continue
        rngs = [RngStream(seed) for seed in seeds]
        runs.append(drv.run_batch(objective, spec, x0s, params=params, rngs=rngs,
                                  keep_iterates_every=1, **settings))
        streams.append([drawn(rng) for rng in rngs])
    batch, reference = runs
    for row, alone in zip(batch, reference):
        assert_same_run(row, alone)
    if streams:
        assert streams[0] == streams[1]
    return batch


def quartic_row(x0, eta, stop, max_iters, keep=1):
    """An SCA run alone on the quartic d=2, its gradient norm tested at every iteration."""
    obj = get_problem("saddle_quartic:d=2").objective
    return drv.run_sca(dataclasses.replace(obj, batched=False), SurrogateSpec(), eta, stop,
                       max_iters, x0, keep_iterates_every=keep)


PROBLEMS = {
    # problem spec: (start jitters to draw from, eps of the perturbed rows)
    "saddle_quartic:d=2": ((0.0, 0.05, 0.5), 0.3),
    "saddle_quartic:d=10": ((0.05, 0.5), 0.3),
    "rosenbrock:d=10": ((0.1,), 0.3),
}


@given(
    problem=st.sampled_from(sorted(PROBLEMS)),
    algo=st.sampled_from(("sca", "gd", "psca", "pgd")),
    modulus=st.sampled_from((1.0, 2.0)),
    seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=4),
    stop=st.sampled_from((3e-1, 1e-1, 3e-2, 1e-2, 3e-3)),
    max_iters=st.integers(1, 600),
    height=st.sampled_from((1, 5, 256)),
    data=st.data(),
)
def test_deferred_threshold_rows_are_their_rowwise_runs(problem, algo, modulus, seeds, stop,
                                                         max_iters, height, data):
    """Rows that stop, fire at ``t = 0`` from a saddle, or run out of iterations, at every store
    block height: the stops land inside and at the ends of blocks."""
    prob = get_problem(problem)
    obj = prob.objective
    jitters, eps = PROBLEMS[problem]
    if algo in ("gd", "pgd"):
        modulus = 1.0
    spec = SurrogateSpec(strong_convexity=modulus)
    x0s = []
    for seed in seeds:
        jitter = data.draw(st.sampled_from(jitters))
        x0 = prob.canonical_start.copy()
        if jitter:
            x0 = x0 + sample_uniform_ball(obj.dim, jitter, RngStream(seed).substream(1 << 32))
        x0s.append(x0)
    with mock.patch.object(drv._Rows, "FLUSH", height):
        if algo in ("sca", "gd"):
            eta = min(1.0, 1.0 / obj.constants.grad_lipschitz)
            run_both(obj, spec, x0s, eta=eta, stop_grad_norm=stop, max_iters=max_iters)
        else:
            params = [drv.derive_params(eps, 0.1, 1.0, 0.5, 1.0, obj, max_iters)] * len(seeds)
            assert params[0].g_th <= stop  # the batch leaves its tests to the store
            run_both(obj, spec, x0s, params=params, seeds=seeds, stop_grad_norm=stop)


def test_deferred_threshold_stop_is_met_inside_a_block():
    """SCA rows from ``(a, 0)`` on the quartic, whose gradient norm ``|x1|`` falls at every step,
    stop at iterations 22, 44 and 66 of one 256-iteration block; the last runs to ``max_iters``."""
    x0s = [np.array([a, 0.0]) for a in (0.01, 0.1, 1.0, 1.9)]
    batch = run_both(get_problem("saddle_quartic:d=2").objective, SurrogateSpec(), x0s,
                     eta=0.1, stop_grad_norm=1e-3, max_iters=70)
    assert [(r.termination, r.iterations) for r in batch] == [
        ("gradient_below_threshold", 22), ("gradient_below_threshold", 44),
        ("gradient_below_threshold", 66), ("max_iters", 70)]


def test_deferred_threshold_tests_are_exact():
    """Rows of one P-SCA batch meet their thresholds exactly: row 0's gradient norm at ``T``
    equals the stop threshold, and row 1's at ``T + 10`` equals it and its ``g_th`` too, a first
    crossing that is a fire, so the batch steps back to it. Row 0 starts where row 1 is at
    iteration 10, so their norms are the same floats ten iterations apart."""
    T, eta = 20, 0.1
    clean = quartic_row(np.array([0.5, 0.0]), eta, 1e-12, 40)
    stop = clean.records[T + 10].grad_norm
    assert clean.records[T + 9].grad_norm > stop
    obj = get_problem("saddle_quartic:d=2").objective
    base = drv.PscaParams(eps=1e-2, delta=0.1, c=1.0, s=0.5, delta_u=1.0, chi=12.0, eta=eta,
                          r=0.1, g_th=stop, f_th=1.0, t_th=5, max_iters=60)
    params = [dataclasses.replace(base, g_th=1e-9), base]
    x0s = [dict(clean.iterates)[10], np.array([0.5, 0.0])]
    batch = run_both(obj, SurrogateSpec(), x0s, params=params, seeds=[0, 1], stop_grad_norm=stop)
    assert (batch[0].termination, batch[0].iterations) == ("gradient_below_threshold", T)
    assert batch[1].records.perturbed_at == {T + 10}


def test_deferred_threshold_fire_steps_the_batch_back(monkeypatch):
    """On ``0.5 x'Hx`` with ``H = diag(1, 1/2)`` at ``eta = 1``, row 0's gradient norm drops from 1
    to 0 in one step, below ``g_th <= stop``, at iteration 1, where it may fire but forms no norm:
    the flush at the end of the budget finds the fire and the batch steps back to it, while rows
    1 and 2, whose norms halve at every step, stop at iterations 9 and 12."""
    inst = make_quadratic(np.diag([1.0, 0.5]), hessian_lipschitz=0.05, region_radius=10.0)
    obj = batched(inst.objective)
    params = drv.PscaParams(eps=1e-2, delta=0.1, c=1.0, s=0.5, delta_u=1.0, chi=12.0, eta=1.0,
                            r=0.1, g_th=1e-6, f_th=1.0, t_th=5, max_iters=40)
    backs = []
    flush = drv._Rows.flush

    def flush_seen(self, t, *tests):
        failed, stopped, back = flush(self, t, *tests)
        backs.append(None if back is None else back[0])
        return failed, stopped, back

    monkeypatch.setattr(drv._Rows, "flush", flush_seen)
    x0s = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.0, 5.0])]
    batch = run_both(obj, SurrogateSpec(), x0s, params=[params] * 3, seeds=[0, 1, 2],
                     stop_grad_norm=1e-3)
    assert 1 in backs
    assert min(batch[0].records.perturbed_at) == 1
    assert [(r.termination, r.iterations) for r in batch[1:]] == [
        ("gradient_below_threshold", 9), ("gradient_below_threshold", 12)]


# what a row meets after its stop iteration: a gradient entry that is NaN or inf, whose square
# overflows, or whose step leaves the quartic's ball of radius 2, or a gradient that raises
AFTER_STOP = {"nan": math.nan, "inf": math.inf, "1e200": 1e200, "leaves": 50.0, "raises": None}


def raising_at(obj, points):
    """``obj`` whose gradient raises at a point, or a stack holding a point, of ``points``."""
    def gradient(x):
        if any(p.tobytes() in points for p in np.atleast_2d(x)):
            raise ArithmeticError("no gradient here")
        return obj.gradient(x)

    return dataclasses.replace(obj, gradient=gradient)


@pytest.mark.parametrize("mode", ["error", "ignore"])
@given(
    rows=st.lists(st.tuples(st.sampled_from((0.02, 0.1, 0.5, 1.5)), st.integers(1, 8),
                            st.sampled_from(sorted(AFTER_STOP)), st.booleans()),
                  min_size=1, max_size=4),
    height=st.sampled_from((1, 5, 256)),
)
def test_deferred_threshold_row_bad_after_its_stop_stops(mode, rows, height):
    """SCA rows from ``(a, 0, 0, 0)`` on the d=4 quartic stop at the first iterate whose gradient
    norm is at most 1e-3; ``j`` iterations after that, on the iterate each row would reach, its
    gradient turns bad or raises, and its value is NaN when drawn. Each row stops as its serial
    run does, under warnings as errors too: nothing past its stop is read."""
    eta, stop, max_iters = 0.1, 1e-3, 200
    plain = quartic_turning_bad(1.0, 2.0, math.inf, {})
    x0s = [np.array([a, 0.0, 0.0, 0.0]) for a, *_ in rows]
    clean = drv.run_batch(plain, SurrogateSpec(), x0s, eta=eta, stop_grad_norm=1e-300,
                          max_iters=max_iters, keep_iterates_every=1)
    bad, raising = {}, set()
    for (a, j, kind, nan_value), run in zip(rows, clean):
        below = np.flatnonzero(run.records.columns[:, 1] <= stop)
        point = dict(run.iterates)[int(below[0]) + j].tobytes()
        if AFTER_STOP[kind] is None:
            raising.add(point)
        else:
            bad[point] = (AFTER_STOP[kind], nan_value)
    obj = raising_at(quartic_turning_bad(1.0, 2.0, math.inf, bad), raising)
    with warnings.catch_warnings(), mock.patch.object(drv._Rows, "FLUSH", height):
        warnings.simplefilter(mode)
        batch = run_both(obj, SurrogateSpec(), x0s, eta=eta, stop_grad_norm=stop,
                         max_iters=max_iters)
    assert all(r.termination == "gradient_below_threshold" for r in batch)


@pytest.mark.parametrize("height", [16, 256])
def test_deferred_threshold_stop_overshoots_by_at_most_one_block(monkeypatch, height):
    """The rows a stacked SCA batch builds through ``drivers.build_surrogate``, the name the
    benchmark tracer patches: each row that stops is built past its stop iteration, and for
    fewer iterations than a store block, and the batch builds no other extra row."""
    eta, stop, max_iters = 0.1, 1e-3, 70
    x0s = [np.array([a, 0.0]) for a in (0.01, 0.1, 1.0, 1.9)]
    alone = [quartic_row(x0, eta, stop, max_iters, keep=None) for x0 in x0s]
    serial_builds = sum(r.iterations + 1 for r in alone)  # iterations 0 to the terminal row
    stopping = sum(r.termination == "gradient_below_threshold" for r in alone)
    assert stopping == 3
    rows_built = []
    build = drv.build_surrogate

    def counted_build(o, y, spec):
        rows_built.append(len(y) if np.ndim(y) == 2 else 1)
        return build(o, y, spec)

    monkeypatch.setattr(drv._Rows, "FLUSH", height)
    monkeypatch.setattr(drv, "build_surrogate", counted_build)
    batch = drv.run_batch(get_problem("saddle_quartic:d=2").objective, SurrogateSpec(), x0s,
                          eta=eta, stop_grad_norm=stop, max_iters=max_iters)
    for row, single in zip(batch, alone):
        assert_same_run(row, single)
    overshoot = sum(rows_built) - serial_builds
    assert 0 < overshoot <= stopping * (height - 1)
