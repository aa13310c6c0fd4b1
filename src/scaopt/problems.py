"""Benchmark nonconvex objectives with analytic derivatives and declared smoothness constants.

Smoothness constants are declared per problem over an explicit validity region
(a norm ball), since globally Lipschitz gradients do not exist for quartics.
Drivers check the region at every step and abort a run that leaves it. Known
critical points are verified against the Hessian oracle (its declared band
where it has one) before an instance is handed out.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from scaopt.numerics import RngStream, as_vector, row_dots, sample_uniform_ball

__all__ = [
    "Smoothness",
    "Objective",
    "ProblemInstance",
    "ContractReport",
    "make_quadratic",
    "make_saddle_quartic",
    "make_matrix_factorization",
    "make_rosenbrock",
    "get_problem",
    "registry_names",
    "validate_contracts",
]


@dataclass(frozen=True)
class Smoothness:
    """Declared Lipschitz constants, valid on the objective's region.

    ``grad_lipschitz`` bounds the gradient's rate of change, ``hessian_lipschitz``
    the Hessian's. ``value_lipschitz`` (a bound on the gradient norm itself) is
    optional: when absent, the gradient-error bound of the inexact-gradient view
    is reported as unavailable rather than guessed.
    """

    grad_lipschitz: float
    hessian_lipschitz: float
    value_lipschitz: float | None = None

    def __post_init__(self):
        if not self.grad_lipschitz > 0:
            raise ValueError("grad_lipschitz must be positive")
        if not self.hessian_lipschitz >= 0:
            raise ValueError("hessian_lipschitz must be nonnegative")
        if self.value_lipschitz is not None and not self.value_lipschitz > 0:
            raise ValueError("value_lipschitz must be positive when declared")


@dataclass(frozen=True)
class Objective:
    """A smooth function with value/gradient/Hessian-vector access.

    ``region_radius`` and ``region_norm`` (the order 2 or inf of the vector
    norm, ``sqrt(x.x)`` by :func:`~scaopt.numerics.row_dots` or ``max |x_i|``;
    no other order is accepted) delimit the ball on which the declared
    constants hold; a point holding NaN or inf, or on a finite ball one whose
    norm is too large to form, is outside it (:meth:`rows_outside`).
    ``dense_hessian`` is optional; certification falls back to
    matrix-free estimation without it. ``batched`` declares that ``value`` and
    ``gradient`` also take a ``(B, dim)`` stack of points and return the ``B``
    values and the ``(B, dim)`` gradients, row ``i`` bit for bit the call on
    row ``i``; the drivers call every other objective one row at a time. The
    drivers keep the arrays ``gradient`` returns until a block of iterations
    is flushed, so it must return a new array on each call.
    ``tridiagonal_hessian`` declares that ``dense_hessian`` (which it
    requires) returns a tridiagonal matrix at every point; certification
    above the dense-eigensolver limit then diagonalizes its band exactly
    instead of running Lanczos, and refuses (``ValueError``) a point where the
    Hessian is not tridiagonal rather than change eigensolvers.
    ``hessian_band`` (which also requires ``dense_hessian``) declares that
    Hessian's band: ``hessian_band(x)`` returns ``(diag, sub)``, the ``dim``
    diagonal and ``dim - 1`` subdiagonal entries of a tridiagonal
    ``dense_hessian(x)``, with its bits, in O(dim) and with no ``dim x dim``
    matrix; a zero ``sub`` declares a diagonal Hessian. The ``quadratic_split``
    model and the check of the known critical points read the band instead of
    the matrix (certification still reads the matrix).
    """

    dim: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hvp: Callable[[np.ndarray, np.ndarray], np.ndarray]
    constants: Smoothness
    region_radius: float = math.inf
    region_norm: float = 2
    dense_hessian: Callable[[np.ndarray], np.ndarray] | None = None
    f_star: float | None = None
    batched: bool = False
    tridiagonal_hessian: bool = False
    hessian_band: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.tridiagonal_hessian and self.dense_hessian is None:
            raise ValueError("tridiagonal_hessian declares the dense Hessian's shape; "
                             "it needs a dense_hessian")
        if self.hessian_band is not None and self.dense_hessian is None:
            raise ValueError("hessian_band declares the dense Hessian's band; "
                             "it needs a dense_hessian")
        if not self.region_radius > 0:
            raise ValueError("region_radius must be positive")
        if self.region_norm not in (2, math.inf):
            raise ValueError(f"region_norm must be 2 or inf, got {self.region_norm}")

    def in_region(self, x: np.ndarray) -> bool:
        """Whether 1-D ``x`` is in the region: not with NaN or inf, or a norm too large to form."""
        return not self.rows_outside(x[None])

    def rows_outside(self, xs: np.ndarray) -> list[int]:
        """The positions of the rows of a ``(B, dim)`` float64 stack outside the region.

        A finite inf-norm ball is tested on the whole stack first (its largest
        ``|x_i|``, NaN when any entry is), and row by row only when that fails.
        """
        radius = self.region_radius
        if math.isinf(radius):
            return np.flatnonzero(~np.isfinite(xs).all(axis=1)).tolist()
        if self.region_norm == math.inf and np.maximum.reduce(np.abs(xs), axis=None) <= radius:
            return []
        return np.flatnonzero(~(self.region_norms(xs) <= radius)).tolist()

    def region_norms(self, xs: np.ndarray) -> np.ndarray:
        """The ``region_norm`` of a vector, or of every row of a stack, each row with its 1-D bits.

        Order 2 is ``sqrt(x.x)`` through :func:`~scaopt.numerics.row_dots`, order inf
        ``max |x_i|`` (``np.maximum.reduce`` is ``.max`` without its Python wrapper).
        A 2-norm too large to form is inf, even when warnings are errors.
        """
        if self.region_norm == 2:
            try:
                return np.sqrt(row_dots(xs, xs))
            except (FloatingPointError, RuntimeWarning):
                with np.errstate(over="ignore"):
                    return np.sqrt(row_dots(xs, xs))
        return np.maximum.reduce(np.abs(xs), axis=-1)


@dataclass(frozen=True)
class ProblemInstance:
    name: str
    objective: Objective
    canonical_start: np.ndarray
    known_saddles: tuple = ()
    known_minima: tuple = ()  # pairs (point, value)


def _spectrum(obj: Objective, p: np.ndarray) -> np.ndarray:
    """The eigenvalues of the Hessian at ``p``, ascending.

    A declared diagonal band (``Objective.hessian_band`` with a zero ``sub``)
    is its own spectrum, sorted in O(d log d); any other Hessian goes through
    ``np.linalg.eigvalsh`` of ``dense_hessian``, so building a problem loads no scipy.
    """
    if obj.hessian_band is not None:
        diag, sub = obj.hessian_band(p)
        if not sub.any():
            return np.sort(diag)
    return np.linalg.eigvalsh(obj.dense_hessian(p))


def _verify_known_points(obj: Objective, saddles, minima) -> None:
    """Check registered critical points against the Hessian oracle (:func:`_spectrum`)."""
    if obj.dense_hessian is None:
        raise ValueError("known critical points require a dense Hessian oracle")
    for p in saddles:
        g = float(np.linalg.norm(obj.gradient(p)))
        if g > 1e-10:
            raise ValueError(f"claimed saddle has gradient norm {g:.3e}")
        lam = float(_spectrum(obj, p)[0])
        if lam >= 0:
            raise ValueError(f"claimed saddle has lambda_min {lam:.3e} >= 0")
    for p, f in minima:
        g = float(np.linalg.norm(obj.gradient(p)))
        if g > 1e-10:
            raise ValueError(f"claimed minimum has gradient norm {g:.3e}")
        if abs(float(obj.value(p)) - f) > 1e-12:
            raise ValueError("claimed minimum value disagrees with the objective")
        lams = _spectrum(obj, p)
        lam = float(lams[0])
        scale = max(1.0, -lam, float(lams[-1]))  # the spectral norm of a symmetric matrix
        # exact zero curvature directions come out as float noise
        if lam < -1e-8 * scale:
            raise ValueError(f"claimed minimum has lambda_min {lam:.3e} < 0")


def _symmetric(a, name: str) -> np.ndarray:
    """``a`` as a float64 matrix, checked square, finite and symmetric within 1e-12."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite (it holds NaN or inf)")
    if float(np.max(np.abs(a - a.T))) > 1e-12:
        raise ValueError(f"{name} must be symmetric (||{name} - {name}'||_inf <= 1e-12)")
    return a


def make_quadratic(
    H,
    b=None,
    *,
    hessian_lipschitz: float = 0.0,
    region_radius: float = math.inf,
    name: str = "quadratic",
) -> ProblemInstance:
    """Quadratic objective ``0.5 x'Hx + b'x`` for a symmetric H.

    The gradient-Lipschitz constant is the spectral norm of H and the true
    Hessian-Lipschitz constant is zero. ``hessian_lipschitz`` lets a caller
    declare a conservative positive value instead, which the perturbed-driver
    parameter formulas require.
    """
    H = _symmetric(H, "H")
    dim = H.shape[0]
    b = np.zeros(dim) if b is None else as_vector(b, dim, "b")

    eigvals = np.linalg.eigvalsh(H)
    lam_min, lam_max = float(eigvals[0]), float(eigvals[-1])
    grad_lip = float(max(abs(lam_min), abs(lam_max)))
    if grad_lip == 0.0:
        raise ValueError("H must be nonzero")

    value_lip = None
    if math.isfinite(region_radius):
        value_lip = grad_lip * region_radius + math.sqrt(row_dots(b, b))

    def value(x):
        return 0.5 * float(x @ (H @ x)) + float(b @ x)

    def gradient(x):
        return H @ x + b

    def hvp(x, v):
        return H @ v

    obj_kwargs = dict(
        dim=dim,
        value=value,
        gradient=gradient,
        hvp=hvp,
        constants=Smoothness(grad_lip, hessian_lipschitz, value_lip),
        region_radius=region_radius,
        region_norm=2,
        dense_hessian=lambda x: H.copy(),
    )

    saddles: list[np.ndarray] = []
    minima: list[tuple[np.ndarray, float]] = []
    f_star = None
    nonsingular = float(np.min(np.abs(eigvals))) > 1e-12
    if nonsingular:
        crit = -np.linalg.solve(H, b)
        if lam_min > 0:
            f_star = value(crit)
            minima.append((crit, f_star))
        else:
            saddles.append(crit)
    obj = Objective(f_star=f_star, **obj_kwargs)
    _verify_known_points(obj, saddles, minima)
    return ProblemInstance(
        name=name,
        objective=obj,
        canonical_start=np.ones(dim),
        known_saddles=tuple(saddles),
        known_minima=tuple(minima),
    )


def make_saddle_quartic(dim: int) -> ProblemInstance:
    """Canonical strict-saddle landscape.

    ``U(x) = x1^2/2 - x2^2/2 + x2^4/4 + sum_{i>=3} xi^2/2`` with a strict saddle
    at the origin and two minima at ``x2 = +-1`` (value -1/4). Constants are
    declared on ``||x||_inf <= 2``: grad Lipschitz 11, Hessian Lipschitz 12.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")

    # value and gradient take one point or a (B, dim) stack, with one product
    # formula for both (no pow: b2 * b2 is b**4). value sums each row's squared
    # tail with numpy (np.add.reduce is .sum() without its Python wrapper), on a
    # C-ordered stack (no copy when it is one): the sum's order follows the
    # layout, and a C-ordered row is summed in the order of the 1-D call. Where
    # a value overflows to inf or turns NaN, it does so without a warning.
    def value(x):
        x = np.ascontiguousarray(x) if x.ndim == 2 else x
        a, b, tail = x[..., 0], x[..., 1], x[..., 2:]
        with np.errstate(over="ignore", invalid="ignore"):
            b2 = b * b
            tails = np.add.reduce(tail * tail, axis=-1)
            total = 0.5 * (a * a) - 0.5 * b2 + 0.25 * (b2 * b2) + 0.5 * tails
        return float(total) if x.ndim == 1 else total

    def gradient(x):
        g = x.copy()
        b = x[..., 1]
        g[..., 1] = b * b * b - b
        return g

    def _hess_diag(x):
        d = np.ones_like(x)
        d[1] = 3.0 * (x[1] * x[1]) - 1.0
        return d

    def hvp(x, v):
        return _hess_diag(x) * v

    def dense_hessian(x):
        return np.diag(_hess_diag(x))

    def hessian_band(x):
        return _hess_diag(x), np.zeros(dim - 1)

    obj = Objective(
        dim=dim,
        value=value,
        gradient=gradient,
        hvp=hvp,
        constants=Smoothness(11.0, 12.0, 2.0 * math.sqrt(dim + 8.0)),
        region_radius=2.0,
        region_norm=np.inf,
        dense_hessian=dense_hessian,
        f_star=-0.25,
        batched=True,
        hessian_band=hessian_band,
    )
    e2 = np.zeros(dim)
    e2[1] = 1.0
    saddles = (np.zeros(dim),)
    minima = ((e2.copy(), -0.25), (-e2, -0.25))
    _verify_known_points(obj, saddles, minima)
    return ProblemInstance(
        name=f"saddle_quartic:d={dim}",
        objective=obj,
        canonical_start=np.zeros(dim),
        known_saddles=saddles,
        known_minima=minima,
    )


def make_matrix_factorization(M, rank: int) -> ProblemInstance:
    """Symmetric low-rank factorization ``U(V) = ||VV' - M||_F^2 / 4``.

    The variable ``V`` (d x rank) is flattened column-major into a vector of
    length ``d * rank``. ``V = 0`` is a strict saddle whenever M is nonzero;
    the global value is ``sum of squared tail eigenvalues / 4`` (zero when
    ``rank(M) <= rank``). Constants are declared on the Frobenius ball
    ``||V||_F <= 2 sqrt(||M||)``.
    """
    M = _symmetric(M, "M")
    d = M.shape[0]
    if not 1 <= rank <= d:
        raise ValueError(f"rank must be in [1, {d}], got {rank}")
    eigvals, eigvecs = np.linalg.eigh(M)
    if float(eigvals[0]) < -1e-10:
        raise ValueError(f"M must be PSD, min eigenvalue {eigvals[0]:.3e}")
    norm_m = float(eigvals[-1])
    if norm_m <= 0:
        raise ValueError("M must be nonzero")

    dim = d * rank
    radius = 2.0 * math.sqrt(norm_m)

    def _mat(x):
        return x.reshape((d, rank), order="F")

    def value(x):
        e = _mat(x) @ _mat(x).T - M
        return 0.25 * float((e * e).sum())

    def gradient(x):
        v = _mat(x)
        return ((v @ v.T - M) @ v).reshape(dim, order="F")

    def hvp(x, w):
        v, wm = _mat(x), _mat(w)
        out = wm @ (v.T @ v) + v @ (wm.T @ v) + (v @ v.T - M) @ wm
        return out.reshape(dim, order="F")

    def dense_hessian(x):
        # hvp's three products at the basis matrix W with one 1 at (j, l): entry (i + d m,
        # j + d l) is (V'V)[l, m] where i == j, plus V[i, l] V[j, m], plus E[i, j] where m == l,
        # E = VV' - M, summed in hvp's order. Each matmul sums its one product onto a zero,
        # so each term is 0 + P, which reads a -0.0 product as +0.0
        v = _mat(x)
        vtv, e = v.T @ v + 0.0, v @ v.T - M + 0.0
        # h[m, i, l, j] is entry (i + d m, j + d l)
        h = v[None, :, :, None] * v.T[:, None, None, :]
        h += 0.0
        for i in range(d):
            h[:, i, :, i] = vtv.T + h[:, i, :, i]
        for m in range(rank):
            h[m, :, m, :] += e
        h = h.reshape(dim, dim)
        out = h + h.T
        out *= 0.5
        return out

    # conservative closed-form bounds over the declared Frobenius ball
    grad_lip = 3.0 * radius**2 + norm_m
    hess_lip = 6.0 * radius
    value_lip = (radius**2 + norm_m) * radius
    tail = float(np.sum(eigvals[: d - rank] ** 2)) if rank < d else 0.0
    # eigenvalue noise makes an exactly factorable M look like tail ~ 1e-30
    f_star = 0.0 if tail <= 1e-13 else 0.25 * tail

    obj = Objective(
        dim=dim,
        value=value,
        gradient=gradient,
        hvp=hvp,
        constants=Smoothness(grad_lip, hess_lip, value_lip),
        region_radius=radius,
        region_norm=2,
        dense_hessian=dense_hessian,
        f_star=f_star,
    )
    saddles = (np.zeros(dim),)
    minima: tuple = ()
    if tail <= 1e-13:
        v_opt = eigvecs[:, d - rank :] * np.sqrt(np.maximum(eigvals[d - rank :], 0.0))
        p = v_opt.reshape(dim, order="F")
        minima = ((p, float(value(p))),)
    _verify_known_points(obj, saddles, minima)
    start = 0.05 * RngStream(7).standard_normal(dim)
    return ProblemInstance(
        name=f"matrix_factorization:d={d},r={rank}",
        objective=obj,
        canonical_start=start,
        known_saddles=saddles,
        known_minima=minima,
    )


def make_rosenbrock(dim: int) -> ProblemInstance:
    """Chained Rosenbrock, the saddle-free sanity problem for rate studies.

    Known minimum at the all-ones point with value 0. Constants are declared
    on ``||x||_inf <= 2`` via Gershgorin-type bounds (grad Lipschitz 7402,
    Hessian Lipschitz 6000), valid for any dimension.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")

    # value and gradient take one point or a (B, dim) stack; np.add.reduce is .sum()
    # without its Python wrapper. value makes a stack C-ordered first (no copy
    # when it is one): its row sum is a reduction whose order follows the
    # layout, and a C-ordered row is summed in the order of the 1-D call.
    # gradient is elementwise, so it works coordinates first, on the transposed
    # stack, where the head and the tail of every row are two contiguous blocks
    # rather than strided (B, dim-1) views; every entry keeps its bits, and it
    # returns a C-ordered (B, dim) array. On a point both transposes are no-ops.
    def value(x):
        x = np.ascontiguousarray(x) if x.ndim == 2 else x
        head, tail = x[..., :-1], x[..., 1:]
        total = np.add.reduce(100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2, axis=-1)
        return float(total) if x.ndim == 1 else total

    def gradient(x):
        xt = np.ascontiguousarray(x.T)
        head, tail = xt[:-1], xt[1:]
        residual = tail - head**2
        g = np.zeros(xt.shape)
        lead = g[:-1]
        np.multiply(-400.0 * head, residual, out=lead)
        lead -= 2.0 * (1.0 - head)
        g[1:] += 200.0 * residual
        return np.ascontiguousarray(g.T)

    def _diag_offdiag(x):
        diag = np.full_like(x, 200.0)
        diag[0] = 0.0
        diag[:-1] += 1200.0 * x[:-1] ** 2 - 400.0 * x[1:] + 2.0
        off = -400.0 * x[:-1]
        return diag, off

    def hvp(x, v):
        diag, off = _diag_offdiag(x)
        out = diag * v
        out[:-1] += off * v[1:]
        out[1:] += off * v[:-1]
        return out

    def hessian_band(x):
        # the band of np.diag(diag) + np.diag(off, 1) + np.diag(off, -1); that sum
        # adds +0.0 to every entry, which turns a -0.0 in off into +0.0 (diag
        # holds no -0.0: each entry is a sum ending in a nonzero term)
        diag, off = _diag_offdiag(x)
        return diag, off + 0.0

    def dense_hessian(x):
        # the bits of that sum, filled in place
        diag, off = hessian_band(x)
        h = np.zeros((dim, dim))
        flat = h.reshape(-1)
        flat[:: dim + 1] = diag
        flat[1 :: dim + 1] = off
        flat[dim :: dim + 1] = off
        return h

    obj = Objective(
        dim=dim,
        value=value,
        gradient=gradient,
        hvp=hvp,
        constants=Smoothness(7402.0, 6000.0, 6006.0 * math.sqrt(dim)),
        region_radius=2.0,
        region_norm=np.inf,
        dense_hessian=dense_hessian,
        f_star=0.0,
        batched=True,
        tridiagonal_hessian=True,
        hessian_band=hessian_band,
    )
    ones = np.ones(dim)
    minima = ((ones, 0.0),)
    _verify_known_points(obj, (), minima)
    start = ones.copy()
    start[0] = -1.2
    return ProblemInstance(
        name=f"rosenbrock:d={dim}",
        objective=obj,
        canonical_start=start,
        known_minima=minima,
    )


# ---------------------------------------------------------------------------
# registry


def _build_quadratic(d: int = 10) -> ProblemInstance:
    if d < 1:
        raise ValueError(f"dim must be >= 1, got {d}")
    # identity quadratic; small positive hessian_lipschitz declared so the
    # perturbed-driver parameter formulas stay finite (0 is also valid but
    # makes t_th/f_th degenerate)
    return make_quadratic(
        np.eye(d), hessian_lipschitz=0.05, region_radius=20.0, name=f"quadratic:d={d}"
    )


def _build_quadratic_indefinite(d: int = 2) -> ProblemInstance:
    if d < 2:  # at d=1 the one curvature is -1: a maximum, not a saddle
        raise ValueError(f"dim must be >= 2, got {d}")
    h = np.ones(d)
    h[-1] = -1.0
    return make_quadratic(
        np.diag(h),
        hessian_lipschitz=0.05,
        region_radius=20.0,
        name=f"quadratic_indefinite:d={d}",
    )


def _build_matrix_factorization(d: int = 6, r: int = 2, seed: int = 42) -> ProblemInstance:
    v_star = 0.7 * RngStream(seed).standard_normal(d * r).reshape((d, r), order="F")
    return make_matrix_factorization(v_star @ v_star.T, r)


REGISTRY: dict[str, Callable[..., ProblemInstance]] = {
    "quadratic": _build_quadratic,
    "quadratic_indefinite": _build_quadratic_indefinite,
    "saddle_quartic": lambda d=10: make_saddle_quartic(d),
    "matrix_factorization": _build_matrix_factorization,
    "rosenbrock": lambda d=2: make_rosenbrock(d),
}


def registry_names() -> tuple[str, ...]:
    return tuple(sorted(REGISTRY))


@functools.lru_cache(maxsize=16)
def get_problem(spec: str) -> ProblemInstance:
    """Resolve a problem spec string like ``"saddle_quartic:d=10"``.

    Parameters after the colon are comma-separated ``key=value`` pairs with
    integer values, each key given once. The last 16 specs resolved are kept:
    asking for one again returns the same instance, whose ``canonical_start``
    and known points are read-only, so no caller can change what the next one
    gets. A bad spec raises on every call.
    """
    name, _, rest = spec.partition(":")
    if name not in REGISTRY:
        raise ValueError(f"unknown problem '{name}'; known: {', '.join(registry_names())}")
    kwargs = {}
    if rest:
        for item in rest.split(","):
            key, sep, val = item.partition("=")
            if key in kwargs:
                raise ValueError(f"repeated problem parameter '{key}' in '{spec}'")
            try:
                if not sep or not key:
                    raise ValueError
                kwargs[key] = int(val)
            except ValueError:
                raise ValueError(f"bad problem parameter '{item}' in '{spec}'") from None
    try:
        inst = REGISTRY[name](**kwargs)
    except TypeError as exc:
        raise ValueError(f"bad parameters for problem '{name}': {exc}") from exc
    points = (inst.canonical_start, *inst.known_saddles, *(p for p, _ in inst.known_minima))
    for p in points:
        p.flags.writeable = False
    return inst


# ---------------------------------------------------------------------------
# contract validation


@dataclass(frozen=True)
class ContractReport:
    """Sampled check of the declared smoothness constants (report-only)."""

    problem: str
    samples: int
    grad_lipschitz_declared: float
    grad_lipschitz_observed: float
    hessian_lipschitz_declared: float
    hessian_lipschitz_observed: float | None
    grad_norm_max: float
    value_lipschitz_declared: float | None
    violations: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations


def _sample_region(obj: Objective, rng: RngStream) -> np.ndarray:
    radius = obj.region_radius if math.isfinite(obj.region_radius) else 2.0
    if obj.region_norm == np.inf:
        return rng.uniform_vector(-radius, radius, obj.dim)
    return sample_uniform_ball(obj.dim, radius, rng)


def validate_contracts(
    problem: ProblemInstance, rng: RngStream, samples: int = 1000
) -> ContractReport:
    """Probe the declared Lipschitz constants over sampled point pairs.

    Flags a violation when an observed ratio exceeds the declared constant by
    more than 1%. Report-only: never raises for a violation.
    """
    if samples < 100:
        raise ValueError(f"samples must be >= 100, got {samples}")
    obj = problem.objective
    declared = obj.constants
    check_hessian = obj.dense_hessian is not None

    grad_ratio = 0.0
    hess_ratio = 0.0
    grad_max = 0.0
    for _ in range(samples):
        x = _sample_region(obj, rng)
        y = _sample_region(obj, rng)
        gap = float(np.linalg.norm(x - y))
        gx = obj.gradient(x)
        grad_max = max(grad_max, float(np.linalg.norm(gx)))
        if gap < 1e-12:
            continue
        grad_ratio = max(
            grad_ratio, float(np.linalg.norm(gx - obj.gradient(y))) / gap
        )
        if check_hessian:
            diff = obj.dense_hessian(x) - obj.dense_hessian(y)
            hess_ratio = max(hess_ratio, float(np.linalg.norm(diff, 2)) / gap)

    violations = []
    if grad_ratio > 1.01 * declared.grad_lipschitz:
        violations.append(
            f"gradient-Lipschitz ratio {grad_ratio:.6g} exceeds declared "
            f"{declared.grad_lipschitz:.6g}"
        )
    if check_hessian and hess_ratio > 1.01 * max(declared.hessian_lipschitz, 0.0):
        violations.append(
            f"Hessian-Lipschitz ratio {hess_ratio:.6g} exceeds declared "
            f"{declared.hessian_lipschitz:.6g}"
        )
    if declared.value_lipschitz is not None and grad_max > 1.01 * declared.value_lipschitz:
        violations.append(
            f"gradient norm {grad_max:.6g} exceeds declared value-Lipschitz "
            f"{declared.value_lipschitz:.6g}"
        )
    return ContractReport(
        problem=problem.name,
        samples=samples,
        grad_lipschitz_declared=declared.grad_lipschitz,
        grad_lipschitz_observed=grad_ratio,
        hessian_lipschitz_declared=declared.hessian_lipschitz,
        hessian_lipschitz_observed=hess_ratio if check_hessian else None,
        grad_norm_max=grad_max,
        value_lipschitz_declared=declared.value_lipschitz,
        violations=tuple(violations),
    )
