#!/usr/bin/env python3
"""scaopt benchmark: times the workloads, checks their outputs, prints one JSON result.

    python3 perfbench/run.py --workload escape_sweep --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from its
``src``. ``--trace 0`` repeats the workload's units for ``--seconds`` seconds
and reports the end-to-end metrics (medians over units, set-up time as the
median of fresh-process probes, every time rescaled by the host-drift guard).
``--trace 1`` runs the same units untraced
and then traced, and reports the per-layer split plus the tracing overhead.
Both modes run every correctness check. The last line of standard output is
the result object; the lines before it repeat the metrics for reading and
carry the failures and machine metadata.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bootstrap

SETUP_PROBES = 5
# Drift-guard loop time on a quiet host of the reference machine (2-CPU Xeon,
# Python 3.11, numpy 2.4); times are reported as if the host ran at that speed.
REFERENCE_MS = 0.35
PROBE_TIMEOUT_S = 120
median = statistics.median


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


class DriftGuard:
    """Host-drift guard: times a fixed numpy loop, which runs no scaopt code,
    from a SIGALRM handler every ``PERIOD_S`` while units and probes run.

    On a shared host that loop's speed moves by up to 2x within a minute and
    whole runs can fall in a slow phase, which medians over units cannot
    remove; readings taken during a unit track its slowdown to a few percent.
    """

    PERIOD_S = 0.05

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, *_signal_args) -> None:
        import numpy as np  # loaded with scaopt before sampling starts

        x = np.ones(10)
        start = time.perf_counter()
        for _ in range(100):
            x = 0.999 * x + 0.001
            float(np.linalg.norm(x))
        self.samples.append(1e3 * (time.perf_counter() - start))

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mean_ms_since(self, n: int) -> float:
        """Mean loop time over readings ``n`` onwards (one fresh reading if there are none)."""
        if len(self.samples) <= n:
            self.sample()
        return statistics.fmean(self.samples[n:])


def at_reference_speed(seconds: float, ref_ms: float) -> float:
    """``seconds`` rescaled to the host speed at which the guard loop takes ``REFERENCE_MS``."""
    return seconds * REFERENCE_MS / ref_ms


def setup_probe(workload) -> float:
    """Set-up seconds of the workload in a fresh process (``probe.py``)."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("probe.py")),
         "--workload", workload.name, "--seed", str(workload.seed)],
        cwd=bootstrap.ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def measure(workload, work: Path, *, seconds=None, min_units=None, count=None, tracer=None,
            probes=None):
    """Run units until ``seconds`` have passed (at least ``min_units``, by default the
    workload's) or exactly ``count`` units.

    With a ``probes`` list, set-up probes are spread over the measured time and
    appended as ``(seconds, ref_ms)`` pairs. Every unit and probe gets the mean
    drift-guard reading taken while it ran (for a probe, in this process while
    it waits: readings inside the probe's own interpreter tracked its set-up
    time worse).
    """
    units = []
    min_units = workload.min_units if min_units is None else min_units
    guard = DriftGuard()
    start = time.perf_counter()

    def probe():
        first = len(guard.samples)
        probes.append((setup_probe(workload), guard.mean_ms_since(first)))

    def more():
        if count is not None:
            return len(units) < count
        return len(units) < min_units or time.perf_counter() - start < seconds

    with guard.sampling():
        while more():
            if probes is not None and len(probes) < SETUP_PROBES and \
                    time.perf_counter() - start >= len(probes) * seconds / SETUP_PROBES:
                probe()
            out_dir = work / f"unit{len(units)}"
            out_dir.mkdir(parents=True)
            first = len(guard.samples)
            with tracer.installed() if tracer else contextlib.nullcontext():
                unit = workload.run_unit(len(units), out_dir)
            unit.ref_ms = guard.mean_ms_since(first)
            shutil.rmtree(out_dir)
            units.append(unit)
        while probes is not None and len(probes) < SETUP_PROBES:
            probe()
    return units


def scaled_seconds(u) -> float:
    return at_reference_speed(u.seconds, u.ref_ms)


def end_to_end(units, probes) -> dict:
    attempted = sum(u.attempted for u in units)
    return {
        "wall_s": (median(scaled_seconds(u) for u in units), "s"),
        "iters_per_s": (median(u.outer_iters / scaled_seconds(u) for u in units), "1/s"),
        "seed_runs_per_s": (median(u.good / scaled_seconds(u) for u in units), "1/s"),
        "setup_s": (median(at_reference_speed(s, ref) for s, ref in probes), "s"),
        "success_frac": (sum(u.useful for u in units) / attempted, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "outer_iters": (median(u.outer_iters for u in units), "count"),
    }


def per_layer(tracer, traced, untraced, missing) -> dict:
    n = len(traced)
    t = tracer
    iters = t.counters["drivers.iterations"]
    oracles = ("problems.value", "problems.gradient", "problems.hvp", "problems.dense_hessian")

    speed = median(REFERENCE_MS / u.ref_ms for u in traced)  # rescale like the unit times

    def ms(name):
        return 1e3 * speed * t.self_seconds(name) / n

    def calls(name, parent=...):
        return t.calls(name, parent) / n

    cli_spans = {name for name, _ in t.spans if name.startswith("cli.")} - {"cli.write_trajectory_csv"}
    return {
        "drivers.runs": (calls("drivers.run"), "count"),
        "drivers.self_ms": (ms("drivers.run"), "ms"),
        "drivers.self_us_per_iter": (1e3 * ms("drivers.run") * n / iters if iters else 0.0, "us"),
        "drivers.perturbations": (t.counters["drivers.perturbations"] / n, "count"),
        "surrogates.build_calls": (calls("surrogates.build"), "count"),
        "surrogates.build_ms": (ms("surrogates.build"), "ms"),
        "surrogates.minimize_calls": (calls("surrogates.minimize"), "count"),
        "surrogates.minimize_ms": (ms("surrogates.minimize"), "ms"),
        "surrogates.inner_iters": (t.counters["surrogates.inner_iters"] / n, "count"),
        "surrogates.inner_failures": (t.raised("surrogates.minimize") / n, "count"),
        "problems.value_calls": (calls("problems.value"), "count"),
        "problems.gradient_calls": (calls("problems.gradient"), "count"),
        "problems.hvp_calls": (calls("problems.hvp"), "count"),
        "problems.dense_hessian_calls": (calls("problems.dense_hessian"), "count"),
        "problems.oracle_ms": (sum(ms(o) for o in oracles), "ms"),
        "problems.calls_per_iter": (
            (t.calls("problems.value") + t.calls("problems.gradient")) / iters if iters else 0.0,
            "calls/iter"),
        "problems.get_problem_calls": (calls("problems.get_problem"), "count"),
        "problems.get_problem_ms": (ms("problems.get_problem"), "ms"),
        "certify.eig_calls": (calls("certify.min_eigenvalue"), "count"),
        # inclusive of the Hessian oracles it drives: the eigensolve as a caller sees it
        "certify.eig_ms": (1e3 * speed * t.total_seconds("certify.min_eigenvalue") / n, "ms"),
        "certify.hvp_calls": (calls("problems.hvp", "certify.min_eigenvalue"), "count"),
        "certify.dense_calls": (t.counters["certify.dense_calls"] / n, "count"),
        "certify.matrix_free_calls": (t.counters["certify.matrix_free_calls"] / n, "count"),
        "certify.failures": (t.raised("certify.min_eigenvalue") / n, "count"),
        "cli.self_ms": (sum(ms(name) for name in cli_spans), "ms"),
        "cli.csv_ms": (ms("cli.write_trajectory_csv"), "ms"),
        "cli.bytes_written": (median(u.bytes_written for u in traced), "bytes"),
        "cli.files_written": (median(u.files_written for u in traced), "count"),
        "numerics.ball_draws": (calls("numerics.sample_uniform_ball"), "count"),
        "numerics.ball_ms": (ms("numerics.sample_uniform_ball"), "ms"),
        "trace.overhead_frac": (
            median(map(scaled_seconds, traced)) / median(map(scaled_seconds, untraced)) - 1.0,
            "fraction"),
        "trace.missing_spans": (len(missing), "count"),
    }


def machine_metadata(seed) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ.get(var) for var in bootstrap.THREAD_VARS},
        "workload_seed": seed,
    }


def bench(workload, args, work: Path):
    from tracer import Tracer

    violations = workload.verify(work / "verify")
    extra = {}
    if args.trace:
        # per-layer metrics have no bound, so two units per phase are enough
        untraced = measure(workload, work, seconds=args.seconds / 2, min_units=2)
        tracer = Tracer()
        traced = measure(workload, work, count=len(untraced), tracer=tracer)
        units = untraced + traced
        violations += workload.check_run(untraced) + workload.check_run(traced)
        violations += [f"unit {k}: traced outputs differ from untraced"
                       for k, (a, b) in enumerate(zip(untraced, traced)) if a.digests != b.digests]
        missing = sorted(workload.expected_spans - tracer.fired())
        metrics = per_layer(tracer, traced, untraced, missing)
        extra["missing_spans"] = missing
    else:
        probes = []
        units = measure(workload, work, seconds=args.seconds, probes=probes)
        violations += workload.check_run(units)
        metrics = end_to_end(units, probes)
        extra["setup_probes_s"] = probes
    violations += [v for u in units for v in u.violations]
    failures = [f for u in units for f in u.failures]
    attempted = sum(u.attempted for u in units)
    extra.update(
        units=len(units),
        unit_seconds=[u.seconds for u in units],
        unit_ref_ms=[u.ref_ms for u in units],
        failed_frac=len(failures) / attempted,
        sidecar_max_err=getattr(workload, "sidecar_max_err", None),
    )
    return metrics, violations, failures, attempted, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still removes its work directory and stops its probes
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not bootstrap.prepare():
        print(f"perfbench: no scaopt sources under {bootstrap.SRC}", file=sys.stderr)
        return 2
    import scaopt

    if Path(scaopt.__file__).resolve().parent != bootstrap.SRC / "scaopt":
        print(f"perfbench: imported scaopt from {scaopt.__file__}, not this checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    work_root = bootstrap.ROOT / ".perfbench_work"
    work = work_root / str(os.getpid())
    try:
        metrics, violations, failures, attempted, extra = bench(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for failure in failures:
        print(f"failed run: {failure['run']}: {failure['type']}: {failure['message']}")
    for violation in violations:
        print(f"check failed: {violation}")
    print("meta " + json.dumps({**machine_metadata(args.seed), **extra}, sort_keys=True))
    print(json.dumps({
        "correct": not violations,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
