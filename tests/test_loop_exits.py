"""A row that ends in an iteration takes no further part in it.

Within an iteration of the lockstep loop a row keeps its position, and the
rows that end or fail leave the stack together at the iteration's one exit,
after the step. So every test that comes after a row's end in the same
iteration (the kept iterates, the window test, the stop test, the region
exit) must skip that row: its run has one termination, one event at its last
iteration, and no iterate past its terminal row.
"""

import dataclasses
import math

import numpy as np

import scaopt.drivers as drv
from scaopt.numerics import NonFiniteError, RngStream
from scaopt.problems import make_quadratic
from scaopt.surrogates import SurrogateSpec
from test_loop_failures import SADDLE, rowwise, saddle_on_rim, serial


def convex_quadratic():
    """``0.5 (x0^2 + 0.1 x1^2)``: PGD from its minimizer perturbs at t = 0, then only descends."""
    return make_quadratic(np.diag([1.0, 0.1]), hessian_lipschitz=0.05, region_radius=20.0).objective


def test_a_stopped_row_does_not_leave_the_region_too():
    """SCA on ``-0.5 ||x||^2`` stops at t = 0, where ``||grad|| = 0.9 <= 1``; the step it
    would take there reaches norm 1.35, outside the unit ball, and must not end it again."""
    obj = make_quadratic(-np.eye(2), hessian_lipschitz=0.05, region_radius=1.0).objective
    run = drv.run_sca(obj, SurrogateSpec(), 0.5, 1.0, 5, [0.9, 0.0])
    assert run.termination == "gradient_below_threshold" and run.iterations == 0
    assert run.events == {0: "gradient_below_threshold"}
    assert not obj.in_region(np.array([0.9, 0.0]) - 0.5 * obj.gradient(np.array([0.9, 0.0])))


def test_a_returned_row_does_not_meet_the_stop_test_too():
    """PGD from the minimizer of a convex quadratic perturbs at t = 0 and returns ``x_tilde``
    at its window test, t = t_th. With the stop threshold set to the gradient norm there, the
    stop test is met at that iteration too, and first there: the run still returns."""
    obj = convex_quadratic()
    params = drv.derive_params(1e-2, 0.1, 1.0, 0.5, 1.0, obj, 10_000)
    free = drv.run_pgd(obj, params, np.zeros(2), RngStream(3))
    assert free.termination == "returned_xtilde" and free.iterations == params.t_th == 1638
    norms = [record.grad_norm for record in free.records]
    assert all(later < earlier for earlier, later in zip(norms, norms[1:]))
    stopped = drv.run_pgd(obj, params, np.zeros(2), RngStream(3), stop_grad_norm=norms[-1])
    assert stopped.termination == "returned_xtilde" and stopped.iterations == params.t_th
    assert stopped.events[params.t_th] == "returned_xtilde"
    assert stopped.records == free.records


def test_a_row_perturbed_out_of_the_region_keeps_no_iterate():
    """PGD from the saddle on the rim of the unit ball: most seeds' first perturbation leaves
    the ball at t = 0 and ends the run there, on that point. No iterate is kept for such a
    run, so an eigen sidecar built from the kept iterates gets no point outside the region."""
    obj = saddle_on_rim()
    params = drv.derive_params(1e-2, 0.1, 1.0, 0.5, 1.0, obj, 30)
    seeds = range(6)
    batch = drv.run_batch(obj, SurrogateSpec(), [SADDLE] * len(seeds), params=[params] * len(seeds),
                          rngs=[RngStream(s) for s in seeds], keep_iterates_every=1)
    left = [not obj.in_region(SADDLE + drv.sample_uniform_ball(2, params.r, RngStream(s)))
            for s in seeds]
    assert any(left) and not all(left)
    for run, out in zip(batch, left):
        assert run.termination == "left_valid_region" and run.iterations == 0
        assert all(obj.in_region(x) for _, x in run.iterates)
        assert (run.iterates == []) == out
    alone = drv.run_pgd(obj, params, SADDLE, RngStream(left.index(True)), keep_iterates_every=1)
    assert alone.termination == "left_valid_region" and alone.iterates == []


def test_a_row_that_fails_at_its_window_test_is_not_read_for_it():
    """PGD from the convex quadratic's minimizer, with a NaN gradient and value at its window
    iterate t_th, fails there; the value of that point is read once, by its evaluation, and
    not again for the window test."""
    plain = convex_quadratic()
    params = drv.derive_params(1e-2, 0.1, 1.0, 0.5, 1.0, plain, 10_000)
    clean = drv.run_pgd(plain, params, np.zeros(2), RngStream(3), keep_iterates_every=1)
    bad = dict(clean.iterates)[params.t_th].tobytes()
    reads = []

    def value(x):
        reads.extend(p.tobytes() == bad for p in np.atleast_2d(x))
        return rowwise(lambda p: math.nan if p.tobytes() == bad else plain.value(p))(x)

    def gradient(p):
        return np.full(2, math.nan) if p.tobytes() == bad else plain.gradient(p)

    obj = dataclasses.replace(plain, value=value, gradient=rowwise(gradient), batched=True)
    run = serial(lambda: drv.run_pgd(obj, params, np.zeros(2), RngStream(3)))
    assert type(run) is NonFiniteError
    assert str(run) == f"non-finite objective or gradient at iteration {params.t_th}"
    assert sum(reads) == 1
