"""Lockstep batches: the batched oracles and every row of a batch keep the bits of a run alone.

``drivers.run_batch`` steps a ``(B, d)`` stack of iterates through the one
loop; its B = 1 callers are ``run_sca``, ``run_psca``, ``run_gd`` and
``run_pgd``. Every row of a batch must equal the serial run from the same
start, parameters and stream, field by field and bit for bit, whatever the
other rows do. The built-in quartic and Rosenbrock oracles take the stack at
once, so each of their rows must equal the 1-D call on that row; the
reductions the loop applies per row must equal their 1-D forms.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scaopt.drivers as drv
from scaopt import cli, surrogates
from scaopt.numerics import NonFiniteError, RngStream, row_dots, sample_uniform_ball, scalar_power
from scaopt.problems import get_problem, make_quadratic
from scaopt.surrogates import SurrogateSpec

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def _power_mismatches(p, n=100_000):
    """Values in [-2, 2] whose array ``** p`` differs from the scalar ``pow``."""
    v = np.random.default_rng(p).uniform(-2.0, 2.0, n)
    scalar = np.array([np.float64(e) ** p for e in v])
    return tuple(v[bits(v**p) != bits(scalar)][:20].tolist())


# quartic coordinates where a vectorized power would change the bits
POWER_TRAPS = tuple(sorted(set(_power_mismatches(2) + _power_mismatches(3) + _power_mismatches(4))))


# The row store reads values, error norms and gaps over a block of iterations
# at once, so the per-row identities must hold up to the height of ten blocks.
BLOCK_ROWS = 10 * drv._Rows.FLUSH


@st.composite
def stacks(draw, dim, scale=2.0):
    """A ``(B, dim)`` stack inside the box of half-width ``scale``, B from 1 to ``BLOCK_ROWS``.

    In a share of the rows (none, half or all), coordinate 1 is a value whose
    array power differs from the scalar one.
    """
    rows = draw(st.integers(1, BLOCK_ROWS))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xs = gen.uniform(-scale, scale, (rows, dim))
    traps = gen.random(rows) < draw(st.sampled_from((0.0, 0.5, 1.0)))
    if POWER_TRAPS:
        xs[traps, 1] = gen.choice(POWER_TRAPS, int(traps.sum()))
    return xs


def test_the_platform_has_power_traps():
    # not a requirement, but without such values the stack tests below are weaker
    assert len(POWER_TRAPS) > 0


@pytest.mark.parametrize("spec", ["saddle_quartic:d=2", "saddle_quartic:d=10", "rosenbrock:d=2",
                                  "rosenbrock:d=10", "rosenbrock:d=37"])
@settings(max_examples=30)
@given(data=st.data())
def test_batched_oracle_rows_are_the_one_point_calls(spec, data):
    """Each row of a stack's value and gradient has the bits of the 1-D call, on a C-ordered
    stack, a Fortran-ordered one and a strided view, and every stacked gradient is C-ordered."""
    obj = get_problem(spec).objective
    assert obj.batched
    xs = data.draw(stacks(obj.dim))
    ones = data.draw(st.lists(st.integers(0, len(xs) - 1), min_size=1, max_size=3))
    xs[ones] = 1.0
    expected = np.array([obj.value(x) for x in xs])
    assert all(type(obj.value(x)) is float for x in xs)
    fortran = np.asfortranarray(xs)
    for layout, rows in ((xs, expected), (fortran, expected), (fortran[::2], expected[::2])):
        values = obj.value(layout)
        assert values.shape == (len(layout),)
        assert np.array_equal(bits(values), bits(rows))
    grads = np.array([obj.gradient(x) for x in xs])
    if spec.startswith("rosenbrock"):  # at its minimum, the first entry of the gradient is -0.0
        assert np.signbit(grads[ones, 0]).all()
    for layout, expected in ((xs, grads), (np.asfortranarray(xs), grads), (xs[::2], grads[::2])):
        stacked = obj.gradient(layout)
        assert stacked.shape == layout.shape and stacked.flags.c_contiguous
        assert np.array_equal(bits(stacked), bits(expected))


@pytest.mark.parametrize("spec", ["quadratic:d=10", "matrix_factorization:d=6,r=2"])
def test_other_objectives_are_not_batched(spec):
    assert not get_problem(spec).objective.batched


@settings(max_examples=50)
@given(st.integers(1, BLOCK_ROWS), st.integers(1, 300), st.integers(-300, 300),
       st.integers(0, 2**32 - 1))
def test_row_dots_are_the_one_row_dots(rows, dim, scale, seed):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((rows, dim)) * 10.0**scale
    b = gen.standard_normal((rows, dim))
    with np.errstate(over="ignore", under="ignore"):
        assert np.array_equal(bits(row_dots(a, b)), bits([x @ y for x, y in zip(a, b)]))
        assert np.array_equal(bits(row_dots(a[:, 1:], a[:, 1:])),
                              bits([x[1:] @ x[1:] for x in a]))


@settings(max_examples=50)
@given(st.lists(FINITE, min_size=1, max_size=20), st.sampled_from([2, 3, 4]))
def test_scalar_power_is_the_scalar_pow(values, p):
    v = np.array(values)
    with np.errstate(over="ignore", under="ignore"):
        expected = [np.float64(e) ** p for e in v]
        assert np.array_equal(bits(scalar_power(v, p)), bits(expected))


@pytest.mark.parametrize("spec", ["saddle_quartic:d=10", "matrix_factorization:d=6,r=2",
                                  "quadratic:d=10"])
@settings(max_examples=30)
@given(data=st.data())
def test_rows_in_region_is_in_region_per_row(spec, data):
    obj = get_problem(spec).objective
    for inf in (False, True):
        o = dataclasses.replace(obj, region_radius=math.inf) if inf else obj
        xs = data.draw(stacks(o.dim, scale=2.5))
        if data.draw(st.booleans()):
            xs[data.draw(st.integers(0, len(xs) - 1)), 0] = data.draw(
                st.sampled_from([math.nan, math.inf, -math.inf]))
        assert o.rows_in_region(xs).tolist() == [o.in_region(x) for x in xs]


def test_stacked_proximal_model_rows_are_the_one_row_models():
    for spec_str in ("saddle_quartic:d=10", "rosenbrock:d=10"):
        obj = get_problem(spec_str).objective
        xs = np.random.default_rng(3).uniform(-2.0, 2.0, (6, obj.dim))
        for modulus in (1.0, 2.5):
            spec = SurrogateSpec(strong_convexity=modulus)
            stacked = surrogates._build(obj, xs, spec)
            assert stacked.anchor_value is None  # a stack's values are read apart from its models
            stacked.anchor_value = obj.value(xs)
            rows = [surrogates._build(obj, x, spec) for x in xs]
            for name in surrogates.SurrogateAt.__slots__:
                assert np.array_equal(bits(getattr(stacked, name)),
                                      bits([getattr(m, name) for m in rows])), name


# ---------------------------------------------------------------------------
# a batch equals its serial runs

MAX_ITERS = 300
PROBLEMS = {
    # problem spec: (start jitters to draw from, eps)
    "saddle_quartic:d=2": ((0.0, 0.05), 0.3),
    "saddle_quartic:d=10": ((0.0, 0.05), 0.3),
    "rosenbrock:d=10": ((0.1,), 0.3),
    "matrix_factorization:d=6,r=2": ((0.0, 0.05), 0.3),
    "quadratic_indefinite:d=2": ((0.0, 0.3), 0.5),
}


def serial(obj, algo, spec, x0, params, rng, eta, g_th, stop_grad_norm, keep):
    """The run of one row, alone, or the exception it raises."""
    try:
        if algo == "sca":
            return drv.run_sca(obj, spec, eta, g_th, MAX_ITERS, x0, keep_iterates_every=keep)
        if algo == "gd":
            return drv.run_gd(obj, eta, g_th, MAX_ITERS, x0, keep_iterates_every=keep)
        if algo == "psca":
            return drv.run_psca(obj, spec, params, x0, rng, stop_grad_norm=stop_grad_norm,
                                keep_iterates_every=keep)
        return drv.run_pgd(obj, params, x0, rng, stop_grad_norm=stop_grad_norm,
                           keep_iterates_every=keep)
    except Exception as exc:
        return exc


def assert_same_run(batched, alone):
    if isinstance(alone, Exception):
        assert type(batched) is type(alone) and str(batched) == str(alone)
        return
    assert isinstance(batched, drv.RunResult), batched
    assert batched.records == alone.records
    assert np.array_equal(bits([dataclasses.astuple(r)[1:5] for r in batched.records]),
                          bits([dataclasses.astuple(r)[1:5] for r in alone.records]))
    assert batched.events == alone.events
    assert batched.termination == alone.termination
    assert np.array_equal(bits(batched.x_out), bits(alone.x_out))
    assert bits(batched.f_out) == bits(alone.f_out)
    assert batched.perturbation_count == alone.perturbation_count
    assert batched.seed == alone.seed
    assert batched.monitors == alone.monitors
    a, b = batched.perturbation_state, alone.perturbation_state
    assert (a.t_noise, a.f_tilde) == (b.t_noise, b.f_tilde)
    assert (a.x_tilde is None) == (b.x_tilde is None)
    if a.x_tilde is not None:
        assert np.array_equal(bits(a.x_tilde), bits(b.x_tilde))
    assert (batched.iterates is None) == (alone.iterates is None)
    if alone.iterates is not None:
        assert [t for t, _ in batched.iterates] == [t for t, _ in alone.iterates]
        assert all(np.array_equal(bits(x), bits(y))
                   for (_, x), (_, y) in zip(batched.iterates, alone.iterates))


@settings(max_examples=40, deadline=None)
@given(
    problem=st.sampled_from(sorted(PROBLEMS)),
    algo=st.sampled_from(("sca", "psca", "gd", "pgd")),
    kind=st.sampled_from(("proximal_linear", "quadratic_split")),
    modulus=st.sampled_from((1.0, 2.0)),
    seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=8),
    failing=st.booleans(),
    data=st.data(),
)
def test_each_row_of_a_batch_is_its_serial_run(problem, algo, kind, modulus, seeds, failing, data):
    """With ``failing``, a custom builder raises at the start of the first row."""
    prob = get_problem(problem)
    obj = prob.objective
    jitters, eps = PROBLEMS[problem]
    if algo in ("gd", "pgd"):
        kind, modulus = "proximal_linear", 1.0
    spec = SurrogateSpec(kind=kind, strong_convexity=modulus)
    x0s, params = [], []
    for seed in seeds:
        jitter = data.draw(st.sampled_from(jitters))
        x0 = prob.canonical_start.copy()
        if jitter:
            x0 = x0 + sample_uniform_ball(obj.dim, jitter, RngStream(seed).substream(1 << 32))
        delta_u = 1.0 if obj.f_star is None else max(float(obj.value(x0)) - obj.f_star, 1e-3)
        x0s.append(x0)
        params.append(drv.derive_params(eps, 0.1, 1.0, 0.5, delta_u, obj, MAX_ITERS))
    if failing and algo in ("sca", "psca"):
        def builder(o, y, _, model=spec, bad=x0s[0]):
            if np.array_equal(y, bad):
                raise NonFiniteError("no model at this start")
            return surrogates._build(o, y, model)

        spec = SurrogateSpec(kind="custom", strong_convexity=modulus, builder=builder)
    eta = min(1.0, 1.0 / obj.constants.grad_lipschitz)
    stop = data.draw(st.one_of(st.none(), st.floats(1e-4, 1e-2)))
    keep = data.draw(st.sampled_from((None, 7)))
    if algo in ("sca", "gd"):
        batch = drv.run_batch(obj, spec, x0s, eta=eta, stop_grad_norm=eps, max_iters=MAX_ITERS,
                              keep_iterates_every=keep)
    else:
        batch = drv.run_batch(obj, spec, x0s, params=params,
                              rngs=[RngStream(seed) for seed in seeds], stop_grad_norm=stop,
                              keep_iterates_every=keep)
    assert len(batch) == len(seeds)
    for x0, p, seed, row in zip(x0s, params, seeds, batch):
        assert_same_run(row, serial(obj, algo, spec, x0, p, RngStream(seed), eta, eps, stop, keep))


def test_a_failing_row_leaves_the_others_unchanged():
    prob = get_problem("saddle_quartic:d=10")
    obj = prob.objective
    x0s = [prob.canonical_start + sample_uniform_ball(10, 0.1, RngStream(s)) for s in range(5)]
    bad = x0s[2]

    def builder(o, y, spec):
        # the bad row's run fails at its first model, every other model is the proximal one
        if np.array_equal(y, bad):
            raise NonFiniteError("no model here")
        return surrogates._build(o, y, SurrogateSpec())

    spec = SurrogateSpec(kind="custom", builder=builder)
    params = [drv.derive_params(1e-2, 0.1, 1.0, 0.5, 0.25, obj, 300)] * 5
    batch = drv.run_batch(obj, spec, x0s, params=params, rngs=[RngStream(s) for s in range(5)])
    for k, (x0, row) in enumerate(zip(x0s, batch)):
        try:
            alone = drv.run_psca(obj, spec, params[k], x0, RngStream(k))
        except NonFiniteError as exc:
            alone = exc
        assert_same_run(row, alone)
    assert isinstance(batch[2], NonFiniteError) and str(batch[2]) == "no model here"
    assert all(isinstance(r, drv.RunResult) for k, r in enumerate(batch) if k != 2)


def test_a_bad_start_fails_only_its_row():
    prob = get_problem("saddle_quartic:d=2")
    obj = prob.objective
    batch = drv.run_batch(obj, SurrogateSpec(), [np.zeros(2), np.array([3.0, 0.0]), np.zeros(3)],
                          eta=0.05, stop_grad_norm=1e-3, max_iters=20)
    assert isinstance(batch[0], drv.RunResult)
    assert str(batch[1]) == "x0 lies outside the objective's valid region"
    assert str(batch[2]) == "expected a vector of dimension 2, got 3"


def test_an_empty_batch_is_empty():
    obj = get_problem("rosenbrock:d=10").objective
    assert drv.run_batch(obj, SurrogateSpec(), [], params=[], rngs=[]) == []
    assert drv.run_batch(obj, SurrogateSpec(), [], eta=0.1, stop_grad_norm=1e-3, max_iters=5) == []


def test_a_batch_shares_its_step_and_budget():
    obj = get_problem("rosenbrock:d=10").objective
    params = [drv.derive_params(1e-2, 0.1, 1.0, 0.5, 1.0, obj, m) for m in (5, 40)]
    with pytest.raises(ValueError, match="share eta and max_iters"):
        drv.run_batch(obj, SurrogateSpec(), [np.ones(10)] * 2, params=params,
                      rngs=[RngStream(0), RngStream(1)])


def test_trajectory_reads_like_a_list_of_records():
    obj = get_problem("saddle_quartic:d=2").objective
    params = drv.derive_params(1e-2, 0.1, 1.0, 0.5, 0.25, obj, 30)
    res = drv.run_psca(obj, SurrogateSpec(), params, np.zeros(2), RngStream(1))
    records = list(res.records)
    assert isinstance(res.records, drv.Trajectory)
    assert res.records == records and records == res.records
    assert res.records[-1] == records[-1] and res.records[1:4] == records[1:4]
    assert [r.t for r in records] == list(range(len(records)))
    assert records[0].perturbed and not any(r.perturbed for r in records[1:])
    with pytest.raises(IndexError):
        res.records[len(records)]


def test_rows_that_fail_mid_run_leave_the_others_unchanged():
    """Rows whose objective turns non-finite, at different iterations, in one batch."""
    inst = make_quadratic(np.diag([1.0, -1.0]), hessian_lipschitz=0.05)
    plain = inst.objective

    def value(x):
        return math.nan if abs(x[1]) > 3.0 else plain.value(x)

    obj = dataclasses.replace(plain, value=value)
    assert math.isinf(obj.region_radius)
    x0s = [np.array([1.0, 10.0 ** -k]) for k in range(1, 7)] + [np.array([1.0, 0.0])]
    batch = drv.run_batch(obj, SurrogateSpec(), x0s, eta=0.5, stop_grad_norm=1e-12, max_iters=60)
    messages = set()
    for x0, row in zip(x0s, batch):
        try:
            alone = drv.run_sca(obj, SurrogateSpec(), 0.5, 1e-12, 60, x0)
        except NonFiniteError as exc:
            alone = exc
            messages.add(str(exc))
        assert_same_run(row, alone)
    assert len(messages) >= 3  # the rows fail at different iterations
    assert isinstance(batch[-1], drv.RunResult)


def test_a_failing_row_hides_no_threshold_test():
    """At iteration ``T`` of one P-SCA batch, row 0's gradient turns NaN, row 1 meets the
    stop test and row 2's gradient norm equals its ``g_th`` exactly, so it fires: every
    row is its serial run. A gate on the smallest norm would skip the tests: Python's
    ``min`` of a list led by NaN is NaN."""
    T = 12
    plain = get_problem("saddle_quartic:d=2").objective
    base = drv.derive_params(1e-2, 0.1, 1.0, 0.5, 0.25, plain, 60)
    # from (a, 0) the gradient norm is |x1|, which falls at every step
    x0s = [np.array([a, 0.0]) for a in (1.0, 0.5, 1.5)]
    clean = [drv.run_psca(plain, SurrogateSpec(), base, x0, RngStream(s), keep_iterates_every=1)
             for s, x0 in enumerate(x0s)]
    bad = dict(clean[0].iterates)[T].tobytes()

    def gradient(x):
        g = plain.gradient(x)
        np.atleast_2d(g)[[p.tobytes() == bad for p in np.atleast_2d(x)]] = math.nan
        return g

    obj = dataclasses.replace(plain, gradient=gradient)
    stop = clean[1].records[T].grad_norm
    params = [base, base, dataclasses.replace(base, g_th=clean[2].records[T].grad_norm)]
    alone = [serial(obj, "psca", SurrogateSpec(), x0, p, RngStream(s), None, None, stop, None)
             for s, (x0, p) in enumerate(zip(x0s, params))]
    assert str(alone[0]) == f"non-finite objective or gradient at iteration {T}"
    assert (alone[1].termination, alone[1].iterations) == ("gradient_below_threshold", T)
    assert min(alone[2].records.perturbed_at) == T
    batch = drv.run_batch(obj, SurrogateSpec(), x0s, params=params,
                          rngs=[RngStream(s) for s in range(3)], stop_grad_norm=stop)
    for row, single in zip(batch, alone):
        assert_same_run(row, single)


def test_the_store_block_height_moves_no_byte(monkeypatch, tmp_path):
    """Rows that return ``x_tilde``, fail or run out of iterations at different iterations:
    every row's result and trajectory CSV are the same at every block height of the row
    store, and each is its serial run."""
    plain = get_problem("saddle_quartic:d=2").objective
    params = drv.derive_params(3e-2, 0.1, 1.0, 0.5, 0.25, plain, 1200)
    x0s = [np.zeros(2), np.array([0.5, 0.5]), np.array([1.5, 0.01]), np.array([-1.9, 1.9]),
           np.array([0.0, 1.0])]
    clean = drv.run_psca(plain, SurrogateSpec(), params, x0s[1], RngStream(1),
                         keep_iterates_every=1)
    bad = dict(clean.iterates)[300].tobytes()

    def value(x):
        values = plain.value(x)
        if np.ndim(x) == 1:
            return math.nan if x.tobytes() == bad else values
        return np.where([p.tobytes() == bad for p in x], math.nan, values)

    obj = dataclasses.replace(plain, value=value)

    def run_batch():
        return drv.run_batch(obj, SurrogateSpec(), x0s, params=[params] * 5,
                             rngs=[RngStream(s) for s in range(5)])

    def csv_bytes(rows):
        for k, row in enumerate(rows):
            if not isinstance(row, Exception):
                cli.write_trajectory_csv(tmp_path / f"{k}.csv", row)
        return {k: (tmp_path / f"{k}.csv").read_bytes()
                for k, row in enumerate(rows) if not isinstance(row, Exception)}

    alone = [serial(obj, "psca", SurrogateSpec(), x0, params, RngStream(s), None, None, None, None)
             for s, x0 in enumerate(x0s)]
    assert str(alone[1]) == "non-finite objective or gradient at iteration 300"
    ends = [(r.termination, r.iterations) for r in alone if not isinstance(r, Exception)]
    assert len(set(ends)) == 4 and ("max_iters", 1200) in ends
    expected = csv_bytes(alone)
    for flush in (1, 3, 256):
        monkeypatch.setattr(drv._Rows, "FLUSH", flush)
        batch = run_batch()
        for row, single in zip(batch, alone):
            assert_same_run(row, single)
        assert csv_bytes(batch) == expected
