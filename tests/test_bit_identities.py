"""Floating-point identities the one loop relies on to keep every trajectory byte-identical.

The loop spells out a few numpy expressions in cheaper but equal forms: the
region test without ``np.linalg.norm``'s dispatch, the update as
``x - eta (x - x_hat)`` and sums as ``a.sum()``. Each form must give
the same bits as the one it replaces, for any finite float64 input; a numpy
release that breaks one fails here by name, not through a golden hash.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from scaopt.problems import Objective, Smoothness

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def vectors(draw, min_dim=1):
    """A finite float64 vector of 1 to 1000 entries at a drawn scale, with a few drawn values.

    The bulk is seeded normal noise scaled by ``10**k`` (k from -320 to 300, so
    subnormal, ordinary and overflowing squares all occur); up to five entries
    are then overwritten with arbitrary finite floats, ``-0.0`` included.
    """
    dim = draw(st.integers(min_dim, 1000))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = gen.standard_normal(dim) * 10.0 ** draw(st.integers(-320, 300))
    for _ in range(draw(st.integers(0, 5))):
        v[draw(st.integers(0, dim - 1))] = draw(FINITE)
    return v


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def region_objective(dim, radius, order):
    return Objective(
        dim=dim,
        value=lambda x: 0.0,
        gradient=lambda x: np.zeros_like(x),
        hvp=lambda x, v: np.zeros_like(v),
        constants=Smoothness(1.0, 1.0),
        region_radius=radius,
        region_norm=order,
    )


@given(vectors(), vectors(), st.floats(0.0, 1.0, exclude_min=True))
def test_update_from_shared_difference(x, x_hat, eta):
    """``x - eta (x - x_hat)`` is ``x + eta (x_hat - x)``, up to the sign of a zero.

    IEEE subtraction is addition of the negation and rounding is symmetric, so
    the two agree bit for bit, except where ``x_i`` and ``x_hat_i`` are both
    ``-0.0``: the new form keeps ``-0.0`` there, the old one gives ``+0.0``.
    """
    x_hat = np.resize(x_hat, x.shape)
    with np.errstate(over="ignore"):
        fused = x - eta * (x - x_hat)
        plain = x + eta * (x_hat - x)
    both_neg_zero = (x == 0) & np.signbit(x) & (x_hat == 0) & np.signbit(x_hat)
    assert np.array_equal(bits(fused)[~both_neg_zero], bits(plain)[~both_neg_zero])
    assert np.array_equal(fused, plain)


@given(vectors(), st.sampled_from([2, np.inf]), st.integers(-2, 2))
def test_in_region_matches_linalg_norm_at_the_boundary(x, order, ulps):
    """The radius is placed within two ulps of the norm, so the boundary itself is probed.

    The norm is the one ``np.linalg.norm`` defines, ``sqrt(x.x)`` or ``max |x_i|``, with
    the dot written as numpy's sum of the products rather than a BLAS call.
    """
    with np.errstate(over="ignore"):
        norm = math.sqrt(np.add.reduce(x * x)) if order == 2 else float(np.max(np.abs(x)))
    radius = norm
    for _ in range(abs(ulps)):
        radius = math.nextafter(radius, math.copysign(math.inf, ulps))
    if not 0 < radius < math.inf:
        return
    obj = region_objective(x.size, radius, order)
    with np.errstate(over="ignore"):
        assert obj.in_region(x) == (norm <= radius)


@given(vectors(), st.sampled_from([2, np.inf]), st.data())
def test_in_region_is_false_with_nan(x, order, data):
    x = x.copy()
    x[data.draw(st.integers(0, x.size - 1))] = math.nan
    with np.errstate(over="ignore"):
        assert not region_objective(x.size, 1e308, order).in_region(x)


@given(vectors())
def test_method_sum_is_np_sum(a):
    with np.errstate(over="ignore", under="ignore"):
        sq = a**2
    assert bits(sq.sum()) == bits(np.sum(sq))
