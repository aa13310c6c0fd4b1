"""Pass-through span recorder wrapped around scaopt's public functions from outside.

A traced call pushes a frame, runs the real function, and on exit adds its
duration to the totals of its (name, parent name) pair and to its parent's
child time, so a span's self time is its duration minus the spans it caused.
Spans are folded into those totals as they close instead of being kept one by
one: an escape sweep makes about a hundred thousand oracle calls, and keeping
each span would cost more memory and time than the wrapper itself.

Only module attributes and the objective instances handed out by
``problems.get_problem`` are replaced, and only inside ``Tracer.installed()``;
arguments and results pass through untouched, so traced runs write the same
bytes as untraced ones (the benchmark checks this).
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections import defaultdict

from scaopt import certify, cli, drivers, problems

DRIVER_RUNS = ("run_sca", "run_psca", "run_gd", "run_pgd")
ORACLES = {
    "value": "problems.value",
    "gradient": "problems.gradient",
    "hvp": "problems.hvp",
    "dense_hessian": "problems.dense_hessian",
}


class Tracer:
    """Span totals per (name, parent) plus event counters, for one traced phase."""

    def __init__(self):
        self._stack: list[list] = []  # frames: [name, child_seconds, child names]
        # (name, parent) -> [calls, total seconds, self seconds, raised]
        self.spans: dict[tuple[str, str | None], list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.counters: dict[str, int] = defaultdict(int)

    def wrap(self, fn, name, on_exit=None):
        """Return a pass-through wrapper of ``fn`` that records a span called ``name``.

        ``on_exit(result, exc, child_names)`` runs after the call, outside the
        span's own time, to derive counters from what the call returned.
        """
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, set()]
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                duration = clock() - start
                stack.pop()
                row = spans[(name, parent[0] if parent else None)]
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[1]
                row[3] += exc is not None
                if parent is not None:
                    parent[1] += duration
                    parent[2].add(name)
                if on_exit is not None:
                    on_exit(result, exc, frame[2])

        traced.__wrapped__ = fn
        return traced

    # -- derived totals -------------------------------------------------

    def calls(self, name, parent=...):
        return sum(r[0] for (n, p), r in self.spans.items() if n == name and (parent is ... or p == parent))

    def total_seconds(self, name):
        return sum(r[1] for (n, _), r in self.spans.items() if n == name)

    def self_seconds(self, name):
        return sum(r[2] for (n, _), r in self.spans.items() if n == name)

    def raised(self, name):
        return sum(r[3] for (n, _), r in self.spans.items() if n == name)

    def fired(self) -> set[str]:
        return {n for (n, _), r in self.spans.items() if r[0]}

    # -- installation ---------------------------------------------------

    def _on_run(self, result, exc, _kids):
        if result is not None:
            self.counters["drivers.iterations"] += result.iterations
            self.counters["drivers.perturbations"] += result.perturbation_count

    def _on_minimize(self, result, exc, _kids):
        if result is not None:
            self.counters["surrogates.inner_iters"] += result[1].iterations

    def _on_eigen(self, result, exc, kids):
        path = "dense" if "problems.dense_hessian" in kids else "matrix_free"
        self.counters[f"certify.{path}_calls"] += 1

    def _traced_problem(self, get_problem):
        def traced_get_problem(spec):
            prob = get_problem(spec)
            obj = prob.objective
            oracles = {
                field: self.wrap(getattr(obj, field), span)
                for field, span in ORACLES.items()
                if getattr(obj, field) is not None
            }
            return dataclasses.replace(prob, objective=dataclasses.replace(obj, **oracles))

        return self.wrap(traced_get_problem, "problems.get_problem")

    @contextlib.contextmanager
    def installed(self):
        """Replace the public functions with traced wrappers; restore them on exit."""
        patches = [
            (cli, "sweep_experiment", self.wrap(cli.sweep_experiment, "cli.sweep_experiment")),
            (cli, "run_experiment", self.wrap(cli.run_experiment, "cli.run_experiment")),
            (cli, "scaling_study", self.wrap(cli.scaling_study, "cli.scaling_study")),
            (cli, "validate_config", self.wrap(cli.validate_config, "cli.validate_config")),
            (cli, "write_trajectory_csv",
             self.wrap(cli.write_trajectory_csv, "cli.write_trajectory_csv")),
            (cli, "sample_uniform_ball",
             self.wrap(cli.sample_uniform_ball, "numerics.sample_uniform_ball")),
            (problems, "get_problem", self._traced_problem(problems.get_problem)),
            (drivers, "build_surrogate", self.wrap(drivers.build_surrogate, "surrogates.build")),
            (drivers, "minimize_surrogate",
             self.wrap(drivers.minimize_surrogate, "surrogates.minimize", self._on_minimize)),
            (drivers, "sample_uniform_ball",
             self.wrap(drivers.sample_uniform_ball, "numerics.sample_uniform_ball")),
            (certify, "min_eigenvalue",
             self.wrap(certify.min_eigenvalue, "certify.min_eigenvalue", self._on_eigen)),
            (certify, "certify_run", self.wrap(certify.certify_run, "certify.certify_run")),
        ]
        patches += [
            (drivers, run, self.wrap(getattr(drivers, run), "drivers.run", self._on_run))
            for run in DRIVER_RUNS
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, wrapper in patches:
                setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)


@contextlib.contextmanager
def capture_runs():
    """Collect every ``RunResult`` the drivers return while the block runs (no timing use)."""
    captured: list = []
    saved = [(run, getattr(drivers, run)) for run in DRIVER_RUNS]

    def keep(result, exc, _kids):
        if result is not None:
            captured.append(result)

    tracer = Tracer()
    try:
        for run, fn in saved:
            setattr(drivers, run, tracer.wrap(fn, "drivers.run", keep))
        yield captured
    finally:
        for run, fn in saved:
            setattr(drivers, run, fn)
