"""Experiment harness: config parsing, seeded runs and sweeps, trajectory/report files.

Every run writes a trajectory CSV with the fixed column order
``t,f,grad_norm,step_norm,err_norm,perturbed,inner_iters,event`` (floats at 17
significant digits, so a rerun with the same config and seed is byte-identical;
``inner_iters`` is always 0, since every surrogate is minimized in closed form,
and stays for the file format)
and a JSON report echoing the config, termination, certificate, diagnostic
scales, and monitor tallies. Sweeps aggregate per-seed certificates into an
escape rate with an exact binomial confidence interval, and the scaling study
fits the power law of iterations-to-stationarity against the accuracy target.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import operator
import os
import re
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from scaopt import certify, drivers, problems
from scaopt.numerics import (
    RngStream,
    binomial_tail_root,
    sample_uniform_ball,
    student_t_quantile,
)
from scaopt.surrogates import SurrogateSpec

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "ScalingResult",
    "parse_config",
    "validate_config",
    "run_experiment",
    "sweep_experiment",
    "scaling_study",
    "binomial_ci",
    "main",
]

ALGOS = ("sca", "psca", "gd", "pgd")
CSV_HEADER = "t,f,grad_norm,step_norm,err_norm,perturbed,inner_iters,event"
_JITTER_OFFSET = 1 << 32  # keeps start jitter off the run's own stream


class ConfigError(ValueError):
    """Invalid experiment configuration; carries every violation, not just the first."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("; ".join(violations))
        self.violations = tuple(violations)


def _default_out_dir() -> str:
    return os.environ.get("SCAOPT_OUT_DIR", "runs")


@dataclass
class ExperimentConfig:
    """The settings of a run; the only place their defaults are written."""

    problem: str = "saddle_quartic:d=10"
    algo: str = "psca"
    eps: float = 1e-2
    delta: float = 0.1
    c: float = 1.0
    s: float = 0.5
    delta_u: Optional[float] = None
    eta: Optional[float] = None  # sca/gd only; None derives min(1, c / L1)
    surrogate: str = "proximal_linear"
    strong_convexity: float = 1.0
    seed: int = 0
    seeds: Optional[int] = None
    max_iters: int = 50_000
    out_dir: str = field(default_factory=_default_out_dir)
    record_eigen_every: Optional[int] = None
    window_variant: str = "proof"
    x0: Optional[tuple[float, ...]] = None
    jitter: float = 0.0
    label: Optional[str] = None


def validate_config(cfg: ExperimentConfig) -> list[str]:
    """Collect every violated precondition, naming the failing inequality."""
    try:
        obj = problems.get_problem(cfg.problem).objective
    except ValueError as exc:
        return [str(exc)] + _violations(cfg, None)
    return _violations(cfg, obj)


def _violations(cfg: ExperimentConfig, obj: problems.Objective | None) -> list[str]:
    """Every precondition ``cfg`` violates when run on ``obj`` (None: no objective resolved)."""
    errs: list[str] = []
    if cfg.algo not in ALGOS:
        errs.append(f"unknown algo '{cfg.algo}'; known: {', '.join(ALGOS)}")
    if not 0 < cfg.delta < 1:
        errs.append(f"delta must satisfy 0 < delta < 1 (got {cfg.delta})")
    if not 0 < cfg.c <= 1:
        errs.append(f"c must satisfy 0 < c <= 1 (got {cfg.c})")
    if not 0 < cfg.s < 1:
        errs.append(f"s must satisfy 0 < s < 1 (got {cfg.s})")
    if cfg.eta is not None and not 0 < cfg.eta <= 1:
        errs.append(f"eta must satisfy 0 < eta <= 1 (got {cfg.eta})")
    if cfg.algo in ("psca", "pgd") and cfg.eta is not None:
        errs.append("eta does not apply to psca/pgd: their step c/L1 is derived from c")
    if cfg.surrogate not in ("proximal_linear", "quadratic_split"):
        errs.append(f"unknown surrogate '{cfg.surrogate}'")
    if not cfg.strong_convexity > 0:
        errs.append(f"strong_convexity must be positive (got {cfg.strong_convexity})")
    elif math.isinf(cfg.strong_convexity):
        errs.append(f"strong_convexity must be finite (got {cfg.strong_convexity})")
    gradient_model = (cfg.surrogate, cfg.strong_convexity) == ("proximal_linear", 1.0)
    if cfg.algo in ("gd", "pgd") and not gradient_model:
        errs.append(f"surrogate '{cfg.surrogate}' with strong_convexity {cfg.strong_convexity} "
                    "does not apply to gd/pgd: their step is the unit-modulus proximal model")
    if cfg.max_iters < 1:
        errs.append("max_iters must be a positive integer")
    if cfg.seeds is not None and cfg.seeds < 1:
        errs.append("seeds must be a positive integer")
    if cfg.record_eigen_every is not None and cfg.record_eigen_every < 1:
        errs.append("record_eigen_every must be a positive integer")
    if cfg.window_variant not in ("proof", "algorithm"):
        errs.append(f"window_variant must be 'proof' or 'algorithm' (got '{cfg.window_variant}')")
    if not cfg.jitter >= 0:
        errs.append(f"jitter must be nonnegative (got {cfg.jitter})")
    elif math.isinf(cfg.jitter):
        errs.append(f"jitter must be finite (got {cfg.jitter})")
    if cfg.label is not None and ("/" in cfg.label or os.sep in cfg.label
                                  or cfg.label in (".", "..")):
        errs.append(f"label must be a file name, not a path, '.' or '..' (got '{cfg.label}')")
    if cfg.delta_u is not None:
        if not cfg.delta_u > 0:
            errs.append(f"delta_u must be positive (got {cfg.delta_u})")
        elif math.isinf(cfg.delta_u):
            errs.append(f"delta_u must be finite (got {cfg.delta_u})")
    if obj is None:
        if not cfg.eps > 0:
            errs.append(f"eps must satisfy 0 < eps <= L1^2/L2 (got {cfg.eps})")
        return errs
    lip_grad = obj.constants.grad_lipschitz
    lip_hess = obj.constants.hessian_lipschitz
    eps_max = math.inf if lip_hess == 0 else lip_grad**2 / lip_hess
    if not 0 < cfg.eps <= eps_max:
        errs.append(f"eps must satisfy 0 < eps <= L1^2/L2 = {eps_max:.6g} (got {cfg.eps})")
    if cfg.algo in ("psca", "pgd"):
        if lip_hess <= 0:
            errs.append(
                "perturbed algorithms need a positive Hessian-Lipschitz "
                "declaration (this problem declares 0)"
            )
        if cfg.delta_u is None and obj.f_star is None:
            errs.append(
                "delta_u is required: the problem declares no optimum value "
                "and the harness refuses to guess it (pass --delta-u)"
            )
    if cfg.x0 is not None:
        x0 = np.array(cfg.x0, dtype=float)
        if x0.size != obj.dim:
            errs.append(f"x0 has length {x0.size}, problem dimension is {obj.dim}")
        elif not np.isfinite(x0).all():
            errs.append("x0 must be finite")
        elif not obj.in_region(x0):
            errs.append("x0 lies outside the objective's valid region")
    if cfg.surrogate == "quadratic_split" and obj.dense_hessian is None:
        errs.append("quadratic_split needs a problem with a dense Hessian")
    return errs


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The run flags; their defaults are ExperimentConfig's, so none is stated here."""
    p.add_argument("--problem", help="registry spec, e.g. saddle_quartic:d=10")
    p.add_argument("--algo", help="sca | psca | gd | pgd")
    p.add_argument("--eps", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--s", type=float)
    p.add_argument("--delta-u", type=float)
    p.add_argument("--eta", type=float, help="sca/gd step (default min(1, c/L1))")
    p.add_argument("--surrogate")
    p.add_argument("--strong-convexity", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-iters", type=int)
    p.add_argument("--out-dir")
    p.add_argument("--record-eigen-every", type=int)
    p.add_argument("--window-variant")
    p.add_argument("--x0", help="comma-separated start, overrides the canonical one")
    p.add_argument("--jitter", type=float, help="uniform-ball jitter radius applied to the start")
    p.add_argument("--label", help="basename for the output files")


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise ConfigError([f"{flag} must be comma-separated numbers (got '{text}')"]) from None


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config the given run flags describe (absent flags keep the field defaults).

    Raises ConfigError on an unparsable ``--x0``."""
    given = {f.name: getattr(args, f.name)
             for f in dataclasses.fields(ExperimentConfig) if hasattr(args, f.name)}
    if "x0" in given:
        given["x0"] = _parse_floats(given["x0"], "--x0")
    return ExperimentConfig(**given)


def parse_config(argv: Sequence[str]) -> ExperimentConfig:
    """Parse ``scaopt run`` flags into a validated config; raises ConfigError with all violations."""
    cfg = _config_from_args(_parser().parse_args(["run", *argv]))
    _checked_problem(cfg)
    return cfg


# ---------------------------------------------------------------------------
# file emission


def _write_text(path, text: str) -> None:
    """Replace the file at ``path`` with ``text`` at once: a reader sees the old file or the new.

    The text goes to a temporary name in the same directory first (one that
    ends in neither ``.csv`` nor ``.json``), which is renamed over ``path``; a
    write that fails removes it and leaves ``path`` as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_trajectory_csv(path: Path, result: drivers.RunResult) -> None:
    """Write the run's rows as lines ``t,f,grad_norm,step_norm,err_norm,perturbed,0,event``.

    ``t`` is written as ``"%d"``, each float as ``"%.17g"`` and ``perturbed``
    as 0 or 1; the ``inner_iters`` column is a constant 0, kept for the file
    format. A run of identical rows is one line's text repeated with each
    row's ``t``: a run ends where the four float columns change in any bit and
    around every row that is perturbed or carries an event. The float cells of
    those lines are formatted once per distinct bit pattern, not per value, so
    ``0.0`` and ``-0.0`` keep their own texts (``0``, ``-0``) and NaNs of any
    payload all read ``nan``; each line is then joined from those texts.
    """
    records, events = result.records, result.events
    columns, perturbed = records.columns, records.perturbed_at
    n = len(columns)
    bits = columns.view(np.uint64)
    starts = np.ones(n, dtype=bool)
    starts[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    marked = [t for t in (*perturbed, *events) if 0 <= t < n]
    starts[marked] = True
    starts[[t + 1 for t in marked if t + 1 < n]] = True
    patterns, which = np.unique(bits[starts].ravel(), return_inverse=True)
    texts = ["%.17g" % v for v in patterns.view(np.float64).tolist()]
    cells = iter([texts[k] for k in which.tolist()])  # zip below takes a line's four in turn
    first = np.flatnonzero(starts)
    bounds = first.tolist()
    flags, ends = ["0,0"] * len(bounds), ["\n"] * len(bounds)  # perturbed, inner_iters
    for t, k in zip(marked, np.searchsorted(first, marked).tolist()):  # t starts line k
        flags[k] = "1,0" if t in perturbed else "0,0"
        ends[k] = f"{events.get(t, '')}\n"
    lines = [CSV_HEADER + "\n", *map(",".join, zip(map(str, bounds), cells, cells, cells, cells,
                                                   flags, ends))]
    for k, (s, e) in enumerate(zip(bounds, bounds[1:] + [n]), start=1):
        if e > s + 1:  # a run of identical rows: the text after the first line's t, repeated
            tail = lines[k][lines[k].index(","):]
            lines[k] = tail.join(map(str, range(s, e))) + tail
    _write_text(path, "".join(lines))


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", text)


def _write_json(path: Path, data) -> None:
    """Write ``data`` as indented JSON with sorted keys and one trailing newline.

    Numpy values become plain ones and every non-finite number ``null``
    (:func:`_as_jsonable`).
    """
    _write_text(path, json.dumps(_as_jsonable(data), indent=2, sort_keys=True,
                                 allow_nan=False) + "\n")


def _as_jsonable(value):
    """``value`` with numpy arrays and numbers made lists and plain numbers, NaN and inf ``None``."""
    if isinstance(value, np.ndarray):
        return [v if math.isfinite(v) else None for v in np.asarray(value, dtype=np.float64).tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return _as_jsonable(value.item())
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _as_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_jsonable(v) for v in value]
    return value


def _resolve_start(cfg: ExperimentConfig, prob: problems.ProblemInstance) -> np.ndarray:
    x0 = np.array(cfg.x0, dtype=float) if cfg.x0 is not None else prob.canonical_start.copy()
    if cfg.jitter > 0:
        jitter_rng = RngStream(cfg.seed).substream(_JITTER_OFFSET)
        x0 = x0 + sample_uniform_ball(prob.objective.dim, cfg.jitter, jitter_rng)
    return x0


def _perturbed_params(cfg: ExperimentConfig, obj: problems.Objective,
                      x0: np.ndarray) -> drivers.PscaParams | None:
    """The psca/pgd parameters derived from ``cfg`` for a run from ``x0`` (None for sca/gd).

    Raises ConfigError when they cannot be derived.
    """
    if cfg.algo in ("sca", "gd"):
        return None
    delta_u = cfg.delta_u if cfg.delta_u is not None else float(obj.value(x0)) - obj.f_star
    try:
        return drivers.derive_params(cfg.eps, cfg.delta, cfg.c, cfg.s, delta_u, obj,
                                     cfg.max_iters, cfg.window_variant)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from None


def _spec_and_eta(cfg: ExperimentConfig, obj: problems.Objective):
    """The surrogate of ``cfg`` and its sca/gd step (``cfg.eta``, or ``min(1, c/L1)``)."""
    spec = SurrogateSpec(kind=cfg.surrogate, strong_convexity=cfg.strong_convexity)
    eta = cfg.eta if cfg.eta is not None else min(1.0, cfg.c / obj.constants.grad_lipschitz)
    return spec, eta


def _execute(cfg: ExperimentConfig, obj: problems.Objective, x0: np.ndarray,
             params: drivers.PscaParams | None):
    """Run ``cfg.algo`` from ``x0``; returns the driver's result.

    sca/gd stop at ``grad_norm <= cfg.eps``; psca/pgd run on ``params`` (from
    :func:`_perturbed_params`). gd and pgd run as sca and psca on the
    unit-modulus proximal model.
    """
    spec, eta = _spec_and_eta(cfg, obj)
    keep = cfg.record_eigen_every
    if params is None:
        return drivers.run_sca(obj, spec, eta, cfg.eps, cfg.max_iters, x0,
                               keep_iterates_every=keep)
    return drivers.run_psca(obj, spec, params, x0, RngStream(cfg.seed), keep_iterates_every=keep)


def _execute_batch(runs, obj: problems.Objective, stop_grad_norm: float | None = None) -> list:
    """:func:`_execute` of every run of :func:`_seed_runs` in lockstep.

    Returns one entry per run: its result, or the exception it raised.
    """
    cfg = runs[0][0]
    spec, eta = _spec_and_eta(cfg, obj)
    x0s = [x0 for _, x0, _ in runs]
    keep = cfg.record_eigen_every
    if runs[0][2] is None:
        return drivers.run_batch(obj, spec, x0s, eta=eta, stop_grad_norm=cfg.eps,
                                 max_iters=cfg.max_iters, keep_iterates_every=keep)
    return drivers.run_batch(obj, spec, x0s, params=[params for _, _, params in runs],
                             rngs=[RngStream(run.seed) for run, _, _ in runs],
                             stop_grad_norm=stop_grad_norm, keep_iterates_every=keep)


def _seed_runs(cfg: ExperimentConfig, prob: problems.ProblemInstance, seeds: int = 1):
    """``(cfg at seed k, x0, params)`` for each seed ``cfg.seed + k``, ``k < seeds``.

    Every start and every set of psca/pgd parameters is derived before any
    run starts: a seed whose parameters cannot be derived raises ConfigError.
    """
    runs = []
    for k in range(seeds):
        run = dataclasses.replace(cfg, seed=cfg.seed + k)
        x0 = _resolve_start(run, prob)
        runs.append((run, x0, _perturbed_params(run, prob.objective, x0)))
    return runs


def _checked_problem(cfg: ExperimentConfig) -> problems.ProblemInstance:
    """The problem of ``cfg``; raises ConfigError with every violation of ``cfg``."""
    errs = validate_config(cfg)
    if errs:
        raise ConfigError(errs)
    return problems.get_problem(cfg.problem)


def _base(cfg: ExperimentConfig) -> str:
    return cfg.label or _slug(f"{cfg.problem}_{cfg.algo}_seed{cfg.seed}")


def _write_failure(cfg: ExperimentConfig, prob: problems.ProblemInstance, exc: Exception) -> None:
    """The partial report of a run whose driver raised ``exc``: config plus the error."""
    partial = {
        "config": dataclasses.asdict(cfg),
        "problem": prob.name,
        "error": f"{type(exc).__name__}: {exc}",
    }
    _write_json(Path(cfg.out_dir) / f"{_base(cfg)}.json", partial)


def _write_run(cfg: ExperimentConfig, prob: problems.ProblemInstance,
               params: drivers.PscaParams | None, result: drivers.RunResult, wall_ms: float):
    """Certify a finished run and write its trajectory CSV, eigen sidecar and JSON report.

    Returns ``(csv_path, report_path, certificate)``.
    """
    obj = prob.objective
    out_dir = Path(cfg.out_dir)
    base = _base(cfg)
    certificate = None
    if result.termination != "left_valid_region":
        certificate = certify.certify_run(obj, result, cfg.eps)

    scales = None
    if params is not None:
        scales = drivers.derive_scales(params, obj, cfg.strong_convexity)

    csv_path = out_dir / f"{base}.csv"
    write_trajectory_csv(csv_path, result)

    if cfg.record_eigen_every and result.iterates:
        lines = ["t,lambda_min\n"]
        for t, x in result.iterates:
            lam, _, _ = certify.min_eigenvalue(obj, x)
            lines.append("%d,%.17g\n" % (t, lam))
        _write_text(out_dir / f"{base}.eigen.csv", "".join(lines))

    report = {
        "config": dataclasses.asdict(cfg),
        "problem": prob.name,
        "params": dataclasses.asdict(params) if params is not None else None,
        "result": {
            "termination": result.termination,
            "iterations": result.iterations,
            "perturbation_count": result.perturbation_count,
            "seed": result.seed,
            "x_out": result.x_out,
            "f_out": result.f_out,
            "final_f": result.final_f,
            "final_grad_norm": result.final_grad_norm,
            "wall_time_ms": wall_ms,
            "monitors": dataclasses.asdict(result.monitors),
        },
        "certificate": dataclasses.asdict(certificate) if certificate else None,
        "scales": dataclasses.asdict(scales) if scales else None,
    }
    report_path = out_dir / f"{base}.json"
    _write_json(report_path, report)
    return csv_path, report_path, certificate


def run_experiment(cfg: ExperimentConfig):
    """Run one configured experiment and write its trajectory CSV and JSON report.

    Returns ``(csv_path, report_path)``. Identical config and seed reproduce a
    byte-identical CSV. A driver error still writes a partial report (config
    plus the error) before propagating, so the failure is on disk.
    """
    prob = _checked_problem(cfg)
    [(_, x0, params)] = _seed_runs(cfg, prob)
    Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        result = _execute(cfg, prob.objective, x0, params)
    except Exception as exc:
        _write_failure(cfg, prob, exc)
        raise
    wall_ms = 1000.0 * (time.perf_counter() - started)
    csv_path, report_path, _ = _write_run(cfg, prob, params, result, wall_ms)
    return csv_path, report_path


_CONFIDENCE = 0.95  # of every escape-rate interval (the aggregate's binomial_ci_95)


def binomial_ci(successes: int, trials: int):
    """Exact (Clopper-Pearson) two-sided 95% confidence interval for a rate.

    Each end is the correctly rounded root of a binomial tail; the counts must be integers
    (numpy integers included)."""
    try:
        k, n = operator.index(successes), operator.index(trials)
    except TypeError:
        raise ValueError(
            f"counts must be integers, got successes={successes!r}, trials={trials!r}"
        ) from None
    if not 0 <= k <= n or n < 1:
        raise ValueError("need 0 <= successes <= trials, trials >= 1")
    alpha = 1.0 - _CONFIDENCE
    # P(Bin(n, lo) >= k) = alpha / 2 and P(Bin(n, hi) >= k + 1) = 1 - alpha / 2: the
    # quantiles of Beta(k, n - k + 1) and Beta(k + 1, n - k)
    lo = 0.0 if k == 0 else binomial_tail_root(k, n, alpha / 2)
    hi = 1.0 if k == n else binomial_tail_root(k + 1, n, 1 - alpha / 2)
    return lo, hi


def sweep_experiment(cfg: ExperimentConfig):
    """Run ``cfg.seeds`` experiments at seeds ``seed, seed+1, ...`` and aggregate.

    A run counts as an escape success when its certificate classification is
    ``eps_sosp``. Writes the per-seed files, ``<label>_seed<n>.*`` (without a
    label, ``<problem>_<algo>_seed<n>.*``), plus one aggregate JSON containing
    the success rate with an exact binomial confidence interval and the number
    of runs per termination.

    The seeds run in lockstep, as one batch of the drivers' loop, and then
    write their files in seed order, as :func:`run_experiment` would one after
    another; a report's ``wall_time_ms`` is that seed's share of the batch's
    time, in proportion to its trajectory rows. The config is validated once,
    and every seed's start and parameters are derived, before the batch runs:
    an invalid config, or a seed whose parameters cannot be derived, raises
    ConfigError with nothing written. A seed whose run raises writes its
    partial report and re-raises; later seeds write nothing.
    """
    if not cfg.seeds or cfg.seeds < 1:
        raise ConfigError(["sweep requires --seeds >= 1"])
    prob = _checked_problem(cfg)
    runs = _seed_runs(dataclasses.replace(cfg, seeds=None), prob, cfg.seeds)
    Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    results = _execute_batch(runs, prob.objective)
    batch_ms = 1000.0 * (time.perf_counter() - started)
    rows = sum(len(r.records) for r in results if not isinstance(r, Exception))
    base = cfg.label or _slug(f"{cfg.problem}_{cfg.algo}")
    per_seed = []
    successes = 0
    for (sub, _, params), result in zip(runs, results):
        sub.label = f"{base}_seed{sub.seed}"
        if isinstance(result, Exception):
            _write_failure(sub, prob, result)
            raise result
        share_ms = batch_ms * len(result.records) / rows
        csv_path, report_path, cert = _write_run(sub, prob, params, result, share_ms)
        success = bool(cert and cert.classification == "eps_sosp")
        successes += success
        per_seed.append(
            {
                "seed": sub.seed,
                "success": success,
                "classification": cert.classification if cert else None,
                "termination": result.termination,
                "f_out": result.f_out,
                "iterations": result.iterations,
                "csv": str(csv_path),
                "report": str(report_path),
            }
        )
    lo, hi = binomial_ci(successes, cfg.seeds)
    aggregate = _as_jsonable({  # returned as it is written
        "config": dataclasses.asdict(cfg),
        "seeds": cfg.seeds,
        "successes": successes,
        "success_rate": successes / cfg.seeds,
        "binomial_ci_95": [lo, hi],
        "terminations": dict(Counter(run["termination"] for run in per_seed)),
        "runs": per_seed,
    })
    path = Path(cfg.out_dir) / f"{base}_aggregate.json"
    _write_json(path, aggregate)
    return path, aggregate


# ---------------------------------------------------------------------------
# scaling study


@dataclass(frozen=True)
class ScalingResult:
    """Iterations-to-stationarity against the accuracy target, with a power-law fit."""

    eps: tuple[float, ...]
    median_iters: tuple[float, ...]
    per_seed: tuple[tuple[Optional[int], ...], ...]  # per eps, per seed
    excluded: tuple[float, ...]
    slope: float
    slope_half_width: float
    intercept: float


# the scaling study's own start jitter and budget; the scaling subcommand shares them
_SCALING_DEFAULTS = {"jitter": 0.1, "max_iters": 400_000}
# run settings a scaling study has no use for, with the reason
_NOT_SCALING_SETTINGS = {"eps": "its targets are the eps list",
                         "record_eigen_every": "it keeps no iterates"}


def _reject_non_scaling(names) -> None:
    errs = [f"{name} does not apply to a scaling study: {why}"
            for name, why in _NOT_SCALING_SETTINGS.items() if name in names]
    if errs:
        raise ConfigError(errs)


def scaling_study(problem, algo: str, eps_list: Sequence[float], seeds: int, *,
                  base_seed: int = 0, **settings) -> ScalingResult:
    """Median iterations to reach each gradient target, with a log-log slope fit.

    ``problem`` is a registry spec or a ProblemInstance; the runs use seeds
    ``base_seed, base_seed+1, ...``. ``settings`` are ExperimentConfig fields
    (``c``, ``eta``, ``surrogate``, ``x0``, ``window_variant``, ...) with the
    config's defaults, except ``jitter=0.1`` and ``max_iters=400_000``; ``eps``
    and ``record_eigen_every`` do not apply and raise :class:`ConfigError`, and
    so does ``seed``, which ``base_seed`` sets.

    One run per seed is driven to the strictest target; first-passage times for
    every target are read off its trajectory (valid because the step size does
    not depend on the target, and the perturbed drivers' own thresholds sit far
    below the smallest measured target). A target any seed failed to reach is
    excluded from the fit and reported. ``slope_half_width`` is the 95%
    confidence half-width of the fitted slope (NaN when every median is the
    same). An eps list that is not at least 3 strictly decreasing positive
    finite targets, or a configuration that violates a precondition on the
    studied objective, raises :class:`ConfigError` with every violation, and
    so does a seed whose parameters cannot be derived; each raises before any
    run starts. A failed run is not a config error: a seed whose run raises
    re-raises its error, and fewer than 3 targets reached by every seed
    raises RuntimeError.
    """
    if "seed" in settings:
        raise ConfigError(["seed is not a scaling_study setting: the first seed is base_seed"])
    _reject_non_scaling(settings)
    cfg = ExperimentConfig(problem=problem if isinstance(problem, str) else problem.name,
                           algo=algo, seed=base_seed, seeds=seeds,
                           **{**_SCALING_DEFAULTS, **settings})
    return _scaling(cfg, problem, eps_list)


def _scaling(cfg: ExperimentConfig, prob, eps_list: Sequence[float]) -> ScalingResult:
    """The study of ``cfg.seeds`` runs of ``cfg`` on ``prob`` (a registry spec or a
    ProblemInstance) from seed ``cfg.seed`` on; an unknown spec fails as in validate_config."""
    if isinstance(prob, str):
        try:
            prob = problems.get_problem(prob)
        except ValueError as exc:
            raise ConfigError([str(exc)] + _violations(cfg, None)) from None
    eps_arr = [float(e) for e in eps_list]
    if len(eps_arr) < 3:
        raise ConfigError(["eps_list must contain at least 3 values"])
    if not all(0 < e < math.inf for e in eps_arr):
        raise ConfigError([f"eps_list must hold positive finite targets, got {eps_arr}"])
    if any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise ConfigError(["eps_list must be strictly decreasing"])
    cfg = dataclasses.replace(cfg, eps=eps_arr[-1])
    obj = prob.objective
    errs = _violations(cfg, obj)
    if errs:
        raise ConfigError(errs)

    results = _execute_batch(_seed_runs(cfg, prob, cfg.seeds), obj, stop_grad_norm=cfg.eps)
    passages: list[list[Optional[int]]] = [[] for _ in eps_arr]
    for result in results:
        if isinstance(result, Exception):
            raise result
        grad_norms = result.records.columns[:, 1]  # row t is iteration t
        for j, eps in enumerate(eps_arr):
            hits = np.flatnonzero(grad_norms <= eps)
            passages[j].append(int(hits[0]) if hits.size else None)

    medians: list[float] = []
    excluded: list[float] = []
    kept: list[tuple[float, float]] = []
    for eps, hits in zip(eps_arr, passages):
        if any(h is None for h in hits):
            excluded.append(eps)
            medians.append(math.nan)
            continue
        med = float(np.median(hits))
        medians.append(med)
        kept.append((eps, med))
    if len(kept) < 3:
        raise RuntimeError(
            f"only {len(kept)} targets were reached by every seed; cannot fit a slope"
        )
    xs = np.log([1.0 / e for e, _ in kept])
    ys = np.log([max(m, 1.0) for _, m in kept])
    # least squares with the slope's standard error, as linregress computes them;
    # constant medians (ssy == 0) leave r and so the half-width NaN
    ssx, ssxy, _, ssy = np.cov(xs, ys, bias=True).flat
    slope = ssxy / ssx
    df = len(kept) - 2
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.clip(ssxy / np.sqrt(ssx * ssy), -1.0, 1.0)
    stderr = np.sqrt((1 - r**2) * ssy / ssx / df)
    return ScalingResult(
        eps=tuple(eps_arr),
        median_iters=tuple(medians),
        per_seed=tuple(tuple(h) for h in passages),
        excluded=tuple(excluded),
        slope=float(slope),
        slope_half_width=float(stderr * student_t_quantile(df, 0.975)),
        intercept=float(np.mean(ys) - slope * np.mean(xs)),
    )


# ---------------------------------------------------------------------------
# entry point


def _cmd_run(args) -> int:
    try:
        csv_path, report_path = run_experiment(_config_from_args(args))
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError) as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(csv_path)
    print(report_path)
    return 0


def _cmd_sweep(args) -> int:
    try:
        path, aggregate = sweep_experiment(_config_from_args(args))
    except ConfigError as exc:
        for v in exc.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError) as exc:
        print(f"sweep failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(path)
    print(
        f"escape rate {aggregate['successes']}/{aggregate['seeds']}"
        f" ci95=[{aggregate['binomial_ci_95'][0]:.3f}, {aggregate['binomial_ci_95'][1]:.3f}]"
    )
    counts = sorted(aggregate["terminations"].items())
    print("terminations " + " ".join(f"{name}={n}" for name, n in counts))
    return 0


def _cmd_scaling(args) -> int:
    try:
        _reject_non_scaling(vars(args))
        cfg = _config_from_args(args)
        res = _scaling(cfg, cfg.problem, _parse_floats(args.eps_list, "--eps-list"))
    except ConfigError as exc:
        print(f"scaling error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError) as exc:
        print(f"scaling failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for eps, med in zip(res.eps, res.median_iters):
        note = " (excluded)" if eps in res.excluded else ""
        print(f"eps={eps:.3g} median_iters={med:.1f}{note}")
    print(f"slope={res.slope:.3f} +- {res.slope_half_width:.3f}")
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = cfg.label or _slug(f"scaling_{cfg.problem}_{cfg.algo}")
    path = out_dir / f"{base}.json"
    _write_json(path, dataclasses.asdict(res))
    print(path)
    return 0


def _cmd_validate(args) -> int:
    try:
        prob = problems.get_problem(args.problem)
        report = problems.validate_contracts(prob, RngStream(args.seed), args.samples)
    except ValueError as exc:
        print(f"validate error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(_as_jsonable(dataclasses.asdict(report)), indent=2, sort_keys=True))
    return 0 if report.ok else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scaopt",
        description="Surrogate-descent experiment harness with saddle escape and certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one seeded run -> trajectory CSV + report JSON",
                           argument_default=argparse.SUPPRESS)
    _add_run_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="seeded sweep -> per-run files + aggregate",
                             argument_default=argparse.SUPPRESS)
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--seeds", type=int, required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_scale = sub.add_parser("scaling", help="iterations-to-target power-law study",
                             argument_default=argparse.SUPPRESS)
    _add_run_flags(p_scale)
    p_scale.add_argument("--eps-list", required=True, help="comma-separated, strictly decreasing")
    p_scale.add_argument("--seeds", type=int)
    p_scale.set_defaults(func=_cmd_scaling, seeds=10, **_SCALING_DEFAULTS)

    p_val = sub.add_parser("validate", help="sampled check of declared smoothness constants")
    p_val.add_argument("--problem", required=True)
    p_val.add_argument("--samples", type=int, default=1000)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
