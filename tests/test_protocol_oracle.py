"""A straight-line transcription of the perturbed protocol, checked against the drivers.

The transcription below is written from the protocol as documented (the fire
rule and the window test in the ``drivers`` module docstring and in
:func:`drivers.run_psca`, and :func:`drivers.derive_params`), not from the loop
that implements it. It is perturbed gradient descent (Jin et al.,
"How to Escape Saddle Points Efficiently", arXiv:1703.00887) whose step is the
surrogate minimizer: the step comes from the public :func:`drivers.sca_step`
for sca/psca and is ``x + eta ((x - g) - x)`` for gd/pgd. Every run of the
drivers must agree with it bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import scaopt.drivers as drv
from scaopt.numerics import RngStream, sample_uniform_ball
from scaopt.problems import get_problem
from scaopt.surrogates import SurrogateSpec

PROBLEMS = ("saddle_quartic:d=10", "quadratic_indefinite:d=3", "matrix_factorization:d=6,r=2")
MAX_ITERS = 600


def transcribe(obj, algo, spec, params, eta, stop_grad_norm, x0, seed):
    """``(rows, termination, perturbation iterations, x_out, f_out)`` of the protocol.

    A row is ``(t, f, grad_norm, perturbed)`` of the iterate the step at ``t``
    starts from, after any perturbation injected at ``t``.
    """
    perturbs = params is not None
    rng = RngStream(seed)
    t_noise = -params.t_th - 1 if perturbs else None
    x_tilde = f_tilde = None
    x = np.array(x0, dtype=np.float64)
    rows, fired = [], []

    def look(x):
        # the 2-norm as the README's rule writes it: numpy's sum of the products, no BLAS
        g = obj.gradient(x)
        return float(obj.value(x)), g, float(np.sqrt(np.add.reduce(g * g)))

    for t in range(MAX_ITERS):
        f, g, gn = look(x)
        perturbed = False
        # a perturbation fires when the gradient is small and more than t_th
        # iterations have passed since the last one
        if perturbs and gn <= params.g_th and t - t_noise > params.t_th:
            t_noise, x_tilde, f_tilde = t, x.copy(), f
            x = x + sample_uniform_ball(x.size, params.r, rng)
            perturbed = True
            fired.append(t)
            f, g, gn = look(x)
            if not obj.in_region(x):
                rows.append((t, f, gn, True))
                return rows, "left_valid_region", fired, x, f
        # exactly t_th after a perturbation, too small a decrease returns its anchor
        if (x_tilde is not None and t - t_noise == params.t_th
                and f - f_tilde > -(1.0 - params.s) * params.f_th):
            rows.append((t, f, gn, perturbed))
            return rows, "returned_xtilde", fired, x_tilde, f_tilde
        if stop_grad_norm is not None and gn <= stop_grad_norm:
            rows.append((t, f, gn, perturbed))
            return rows, "gradient_below_threshold", fired, x, f
        if algo in ("sca", "psca"):
            try:
                x_next, _ = drv.sca_step(obj, spec, x, eta, t)
            except drv.RegionExitError:
                x_next = None
        else:
            x_next = x + eta * ((x - g) - x)
            x_next = x_next if obj.in_region(x_next) else None
        rows.append((t, f, gn, perturbed))
        if x_next is None:
            return rows, "left_valid_region", fired, x, f
        x = x_next
    f, _, gn = look(x)
    rows.append((MAX_ITERS, f, gn, False))
    return rows, "max_iters", fired, x, f


@settings(max_examples=100, deadline=None)
@given(
    problem=st.sampled_from(PROBLEMS),
    algo=st.sampled_from(("sca", "psca", "gd", "pgd")),
    seed=st.integers(0, 2**16),
    eps=st.floats(0.3, 2.0),
    c=st.floats(0.5, 1.0),
    s=st.floats(0.1, 0.9),
    window_variant=st.sampled_from(("proof", "algorithm")),
    jitter=st.sampled_from((0.0, 0.05, 0.3)),
    stop_grad_norm=st.one_of(st.none(), st.floats(1e-4, 1e-2)),
    kind=st.sampled_from(("proximal_linear", "quadratic_split")),
    modulus=st.sampled_from((1.0, 2.0)),
)
def test_drivers_follow_the_transcribed_protocol(
    problem, algo, seed, eps, c, s, window_variant, jitter, stop_grad_norm, kind, modulus
):
    prob = get_problem(problem)
    obj = prob.objective
    x0 = prob.canonical_start.copy()
    if jitter:
        x0 = x0 + sample_uniform_ball(obj.dim, jitter, RngStream(seed).substream(1 << 32))
    delta_u = 1.0 if obj.f_star is None else max(float(obj.value(x0)) - obj.f_star, 1e-3)
    params = drv.derive_params(eps, 0.1, c, s, delta_u, obj, MAX_ITERS, window_variant)
    spec = SurrogateSpec(kind=kind, strong_convexity=modulus)
    eta = min(1.0, c / obj.constants.grad_lipschitz)

    if algo == "sca":
        res = drv.run_sca(obj, spec, eta, eps, MAX_ITERS, x0)
    elif algo == "gd":
        res = drv.run_gd(obj, eta, eps, MAX_ITERS, x0)
    elif algo == "psca":
        res = drv.run_psca(obj, spec, params, x0, RngStream(seed), stop_grad_norm=stop_grad_norm)
    else:
        res = drv.run_pgd(obj, params, x0, RngStream(seed), stop_grad_norm=stop_grad_norm)

    perturbs = algo in ("psca", "pgd")
    rows, termination, fired, x_out, f_out = transcribe(
        obj, algo, spec, params if perturbs else None, params.eta if perturbs else eta,
        stop_grad_norm if perturbs else eps, x0, seed,
    )
    assert res.termination == termination
    assert sorted(t for t, e in res.events.items() if e.startswith("perturbed")) == fired
    assert np.array_equal(res.x_out, x_out)
    assert res.f_out == f_out
    assert [(r.t, r.f, r.grad_norm, r.perturbed) for r in res.records] == rows
