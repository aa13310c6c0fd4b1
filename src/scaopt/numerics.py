"""Seeded portable randomness, uniform ball sampling, finite-difference oracles, and the
correctly rounded binomial-tail and Student-t quantiles behind the CLI's statistics."""

from __future__ import annotations

import math
import operator
from decimal import Context, Decimal, localcontext

import numpy as np

__all__ = [
    "DEFAULT_FD_STEP",
    "NonFiniteError",
    "RngStream",
    "as_vector",
    "violations",
    "require",
    "row_dots",
    "binomial_tail_root",
    "student_t_quantile",
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


def as_vector(x, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce ``x`` (named ``name``) to a finite 1-D float64 array, optionally of length ``dim``."""
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"{name} must be a nonempty 1-D vector, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise ValueError(f"{name} has length {v.size}, problem dimension is {dim}")
    if not np.isfinite(v).all():
        raise NonFiniteError(f"{name} must be finite")
    return v


_POSITIVE = (lambda v: v > 0, "must be positive (got {})")
_FINITE = (lambda v: v < math.inf, "must be finite (got {})")
_INTEGER = (lambda v: hasattr(type(v), "__index__"), "must be an integer (got {})")  # np.int64 too
_COUNT = (lambda v: hasattr(type(v), "__index__") and operator.index(v) >= 1,
          "must be a positive integer")

# Each run setting's rule, stated once: its tests in turn, and the text of the first that fails.
# delta, c and s are the hypotheses of perturbed gradient descent (Jin et al., arXiv:1703.00887).
_RULES = {
    "delta": ((lambda v: 0 < v < 1, "must satisfy 0 < delta < 1 (got {})"),),
    "s": ((lambda v: 0 < v < 1, "must satisfy 0 < s < 1 (got {})"),),
    "c": ((lambda v: 0 < v <= 1, "must satisfy 0 < c <= 1 (got {})"),),
    "eta": ((lambda v: 0 < v <= 1, "must satisfy 0 < eta <= 1 (got {})"),),
    "delta_u": (_POSITIVE, _FINITE),
    "strong_convexity": (_POSITIVE, _FINITE),
    "jitter": ((lambda v: v >= 0, "must be nonnegative (got {})"), _FINITE),
    **dict.fromkeys(("max_iters", "t_th", "seeds", "record_eigen_every", "keep_iterates_every"),
                    (_COUNT,)),
    "seed": (_INTEGER,),
    "stop_grad_norm": ((lambda v: not math.isnan(v), "must not be NaN"),),
    "window_variant": ((lambda v: v in ("proof", "algorithm"),
                        "must be 'proof' or 'algorithm' (got '{}')"),),
}


def violations(**settings) -> list[str]:
    """The message of every setting that breaks its rule, in turn; a None setting is not given."""
    errs = []
    for name, v in settings.items():
        for holds, text in () if v is None else _RULES[name]:
            if not holds(v):
                errs.append(f"{name} {text.format(v)}")
                break
    return errs


def require(**settings) -> None:
    """Raise ValueError with the first of :func:`violations`, if there is one."""
    errs = violations(**settings)
    if errs:
        raise ValueError(errs[0])


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot ``a . b`` of two vectors, or of every row of two ``(B, d)`` stacks.

    Every dot and 2-norm on a run's trajectory is this one expression: the
    products, then numpy's own pairwise sum over the last axis. No BLAS call
    is made, so the bits do not depend on the BLAS kernel (``a @ b`` and
    ``vecdot`` reach OpenBLAS, whose summation order differs between its CPU
    kernels). The products are summed C-ordered whatever the layouts of ``a``
    and ``b``: the sum's order follows the layout, and each row of a
    C-ordered stack is summed in the order of the 1-D call, so every row has
    the bits of ``row_dots`` on that row alone. The plain product ``a * b``
    follows the layout of its inputs, and C order where they disagree, so it
    is C-ordered for vectors, for C-ordered stacks and for a C-ordered stack
    with a Fortran-ordered one. Only a product that comes out otherwise (two
    Fortran-ordered stacks, a Fortran-ordered matrix with a vector) is copied
    C-ordered before the sum; the copy keeps every product's bits.
    """
    p = a * b
    if not p.flags.c_contiguous:
        p = np.ascontiguousarray(p)
    return np.add.reduce(p, axis=-1)


# Working precision of the quantiles: a root found to ~60 digits rounds once, with float(),
# to the float nearest the exact quantile (barring a tie closer than ~1e-40 to a midpoint).
_DIGITS = 60


def _newton(mass, q: Decimal, x: Decimal) -> Decimal:
    """The root of ``mass(x)[0] = q``, where ``mass`` returns a monotone function and its
    derivative; ``x`` is the function's inflection point (or an end of a concave or convex
    range), so every Newton step lands on the root's side it started from and the iterates
    approach the root monotonically, without a bracket. Stops once a step moves ``x`` by
    less than half the working digits: the error left is about that step squared."""
    tol = Decimal(10) ** -(_DIGITS // 2)
    for _ in range(200):
        value, slope = mass(x)
        step = (value - q) / slope
        x -= step
        if abs(step) <= abs(x) * tol:
            return x
    raise ArithmeticError(f"Newton iteration did not settle near {x}")


def _binomial_tail(k: int, n: int, x: Decimal):
    """P(Bin(n, x) >= k) for 1 <= k <= n, and its derivative in x.

    The tail sums the terms C(n, j) x^j (1 - x)^(n - j), j = k..n, each from the one
    before; the derivative is n C(n-1, k-1) x^(k-1) (1 - x)^(n-k), a Beta(k, n-k+1) density.
    """
    y = 1 - x
    # written without 0 ** 0, which Decimal refuses, at the starts x = 0 (k = 1) and 1 (k = n)
    density = k * math.comb(n, k) * (x ** (k - 1) if k > 1 else 1) * (y ** (n - k) if k < n else 1)
    term = tail = density * x / k
    for j in range(k, n):
        term = term * x * (n - j) / ((j + 1) * y)
        tail += term
    return tail, density


def binomial_tail_root(k: int, n: int, q: float) -> float:
    """The success probability ``x`` at which ``P(Bin(n, x) >= k) = q``, correctly rounded.

    This is the ``q`` quantile of Beta(k, n - k + 1), an end of the Clopper-Pearson
    interval. It is solved in ``decimal`` at 60 digits from the exact value of ``q`` and
    rounded once; the caller's decimal context is left untouched.
    """
    if not 1 <= k <= n or not 0.0 < q < 1.0:
        raise ValueError(f"need 1 <= k <= n and 0 < q < 1, got k={k}, n={n}, q={q}")
    with localcontext(Context(prec=_DIGITS)):
        # the tail's inflection point, the mode of its Beta density (any start for n = 1)
        start = Decimal(k - 1) / max(n - 1, 1)
        return float(_newton(lambda x: _binomial_tail(k, n, x), Decimal(q), start))


def _pi() -> Decimal:
    """pi at the context's precision: the series of 6 arcsin(1/2), as in the decimal recipes."""
    total, term, last, num, dnum, den, dden = Decimal(3), Decimal(3), 0, 1, 0, 0, 24
    while total != last:
        last = total
        num, dnum = num + dnum, dnum + 8
        den, dden = den + dden, dden + 32
        term = term * num / den
        total += term
    return total


def _sin_cos(x: Decimal):
    """sin and cos of ``x`` in [0, pi/2] by their Taylor series at the context's precision."""
    x2 = x * x
    sin, cos, s_term, c_term, i = x, Decimal(1), x, Decimal(1), 1
    while True:
        i += 2
        c_term = -c_term * x2 / ((i - 2) * (i - 1))
        s_term = -s_term * x2 / ((i - 1) * i)
        if sin + s_term == sin and cos + c_term == cos:
            return sin, cos
        sin, cos = sin + s_term, cos + c_term


def _student_t_mass(nu: int, theta: Decimal, pi: Decimal):
    """P(|T| <= sqrt(nu) tan(theta)) for Student's t with ``nu`` degrees of freedom, and its
    derivative in ``theta``, which is a multiple of cos(theta)^(nu - 1).

    These are the finite sums of Abramowitz & Stegun 26.7.3 (odd nu) and 26.7.4 (even nu),
    grown two degrees at a time from nu = 1 (2 theta / pi) or nu = 2 (sin theta): the mass at
    nu + 2 adds sin cos / nu times the derivative at nu, and the derivative gains the factor
    cos^2 (nu + 1) / nu.
    """
    sin, cos = _sin_cos(theta)
    if nu % 2:
        mass, slope, first = 2 * theta / pi, 2 / pi, 1
    else:
        mass, slope, first = sin, cos, 2
    sin_cos, cos2 = sin * cos, cos * cos
    for m in range(first, nu, 2):
        mass += sin_cos * slope / m
        slope *= cos2 * (m + 1) / m
    return mass, slope


def student_t_quantile(nu: int, p: float) -> float:
    """The ``p`` quantile of Student's t with integer ``nu >= 1`` degrees of freedom,
    correctly rounded.

    It solves the t mass within ``|t|`` for ``theta = atan(t / sqrt(nu))`` in ``decimal`` at
    60 digits, from the exact value of ``p``, and rounds ``sqrt(nu) tan(theta)`` once; the
    caller's decimal context is left untouched.
    """
    if nu < 1 or not 0.0 < p < 1.0:
        raise ValueError(f"need nu >= 1 and 0 < p < 1, got nu={nu}, p={p}")
    with localcontext(Context(prec=_DIGITS)):
        pi = _pi()
        mass = 2 * Decimal(p) - 1
        # the mass is concave in theta on [0, pi/2), so Newton from 0 settles monotonically
        theta = _newton(lambda th: _student_t_mass(nu, th, pi), abs(mass), Decimal(0))
        sin, cos = _sin_cos(theta)
        return float((Decimal(nu).sqrt() * sin / cos).copy_sign(mass))


class RngStream:
    """Counter-based random stream (Philox) whose output is stable across platforms.

    The same seed always reproduces the same draw sequence. A stream is
    single-owner: parallel sweeps derive one stream per run via :meth:`substream`
    (seed offsetting) and never share an instance.
    """

    def __init__(self, seed: int):
        self.seed = operator.index(seed) % (1 << 64)  # refuses a float, which int() would truncate
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed})"

    def drawn(self) -> bool:
        """Whether the stream has drawn since it was made: Philox's counter or buffer has moved."""
        state = self._gen.bit_generator.state
        return (bool(state["state"]["counter"].any()) or state["buffer_pos"] != 4
                or bool(state["has_uint32"]))

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
