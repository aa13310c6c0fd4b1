"""Seeded portable randomness, uniform ball sampling, and finite-difference oracles."""

from __future__ import annotations

import numpy as np

__all__ = [
    "DEFAULT_FD_STEP",
    "NonFiniteError",
    "RngStream",
    "as_vector",
    "row_dots",
    "sample_uniform_ball",
    "finite_diff_gradient",
    "finite_diff_hvp",
]

DEFAULT_FD_STEP = 1e-5


class NonFiniteError(ValueError):
    """A numeric evaluation produced NaN or Inf.

    ``coordinate`` names the axis being probed when the failure occurred,
    or None when the failure is not axis-specific.
    """

    def __init__(self, message: str, coordinate: int | None = None):
        super().__init__(message)
        self.coordinate = coordinate


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float64 array, optionally checking its length."""
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise ValueError(f"expected a vector of dimension {dim}, got {v.size}")
    if not np.isfinite(v).all():
        raise NonFiniteError("vector contains NaN/Inf entries")
    return v


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot ``a . b`` of two vectors, or of every row of two ``(B, d)`` stacks.

    Every dot and 2-norm on a run's trajectory is this one expression: the
    products, then numpy's own pairwise sum over the last axis. No BLAS call
    is made, so the bits do not depend on the BLAS kernel (``a @ b`` and
    ``vecdot`` reach OpenBLAS, whose summation order differs between its CPU
    kernels). The products are written C-ordered whatever the layouts of
    ``a`` and ``b``: the sum's order follows the layout, and each row of a
    C-ordered stack is summed in the order of the 1-D call, so every row has
    the bits of ``row_dots`` on that row alone.
    """
    return np.add.reduce(np.multiply(a, b, order="C"), axis=-1)


class RngStream:
    """Counter-based random stream (Philox) whose output is stable across platforms.

    The same seed always reproduces the same draw sequence. A stream is
    single-owner: parallel sweeps derive one stream per run via :meth:`substream`
    (seed offsetting) and never share an instance.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) % (1 << 64)
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed})"

    def substream(self, offset: int) -> "RngStream":
        """Independent stream keyed by ``seed + offset`` (mod 2**64)."""
        return RngStream((self.seed + int(offset)) % (1 << 64))

    def standard_normal(self, n: int) -> np.ndarray:
        return self._gen.standard_normal(n)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._gen.uniform(low, high))

    def uniform_vector(self, low: float, high: float, n: int) -> np.ndarray:
        return self._gen.uniform(low, high, size=n)


def sample_uniform_ball(dim: int, radius: float, rng: RngStream) -> np.ndarray:
    """Draw one point uniformly from the solid Euclidean ball of radius ``radius``.

    Uses a Gaussian direction and ``u**(1/dim)`` radial scaling, which stays a
    uniform draw in any dimension (rejection sampling is hopeless past d ~ 20).
    Always consumes exactly ``dim`` normal draws plus one uniform draw, so
    callers can rely on a fixed stream layout.
    """
    if dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim}")
    if not 0 <= radius < np.inf:
        raise ValueError(f"radius must be finite and nonnegative, got {radius}")
    direction = rng.standard_normal(dim)
    shrink = rng.uniform() ** (1.0 / dim)
    scale = float(np.sqrt(row_dots(direction, direction)))
    if radius == 0.0 or scale == 0.0:
        return np.zeros(dim)
    point = (radius * shrink / scale) * direction
    # Rounding may push the norm a few ulp past the radius; containment is exact.
    for _ in range(3):
        overshoot = float(np.sqrt(row_dots(point, point)))
        if overshoot <= radius:
            break
        point = point * (radius / overshoot)
    return point


def finite_diff_gradient(f, x, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar function.

    Entry ``i`` is ``(f(x + h e_i) - f(x - h e_i)) / (2 h)``. The default step
    balances truncation against roundoff for unit-scaled double precision
    problems; callers may override.
    """
    if h <= 0:
        raise ValueError(f"step h must be positive, got {h}")
    x = as_vector(x)
    grad = np.empty_like(x)
    probe = np.zeros_like(x)
    for i in range(x.size):
        probe[:] = 0.0
        probe[i] = h
        f_plus = float(f(x + probe))
        f_minus = float(f(x - probe))
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NonFiniteError(
                f"non-finite function value while probing coordinate {i}",
                coordinate=i,
            )
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def finite_diff_hvp(grad, x, v, h: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central-difference Hessian-vector product from a gradient callable.

    Returns ``(grad(x + h u) - grad(x - h u)) * ||v|| / (2 h)`` with
    ``u = v / ||v||``, an approximation of the Hessian at ``x`` applied to ``v``.
    """
    if h <= 0:
        raise ValueError(f"step h must be positive, got {h}")
    x = as_vector(x)
    v = as_vector(v, dim=x.size)
    norm_v = float(np.linalg.norm(v))
    if norm_v == 0.0:
        raise ValueError("direction v must be nonzero")
    u = v / norm_v
    g_plus = np.asarray(grad(x + h * u), dtype=np.float64)
    g_minus = np.asarray(grad(x - h * u), dtype=np.float64)
    return (g_plus - g_minus) * (norm_v / (2.0 * h))
