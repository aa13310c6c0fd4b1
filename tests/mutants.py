"""A kept list of mutants of the library, each of which named tests must kill.

Each entry of ``MUTANTS`` is ``(file, old, new, killers)``: ``old`` is a text
that occurs exactly once in ``src/scaopt/<file>``, ``new`` the mutant's text,
and ``killers`` the pytest node ids that must fail on the mutant. The script
copies ``src/``, ``tests/`` and ``pyproject.toml`` into a temporary directory
and first runs every killer there on the library as it is, where each must
pass. Then, for each entry, it applies the edit to that copy, runs only the
entry's killers (``pytest -x``, writing no bytecode) and undoes the edit.
It exits 1 when an
``old`` text does not occur exactly once, when a killer fails on the library
as it is, or when a mutant survives: every killer passes on it.

A change that edits or deletes a test named here shows that the mutant still
dies, by this script, or moves the mutant to another killer.

Run from the repository root or anywhere else::

    python tests/mutants.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROTOCOL = "tests/test_drivers.py::TestPerturbationProtocol::"
THRESHOLDS = "tests/test_lockstep.py::test_a_failing_row_hides_no_threshold_test"
FAILURES = "tests/test_loop_failures.py::"
DERIVED = (
    "tests/test_drivers.py::TestDeriveParams::test_worked_example_matches_high_precision_oracle")

MUTANTS = [
    # the protocol's boundaries and derived thresholds, which the byte and oracle tests miss
    ("drivers.py",  # the window test's strict comparison
     "> -(1.0 - row.params.s) * row.params.f_th",
     ">= -(1.0 - row.params.s) * row.params.f_th",
     [PROTOCOL + "test_decrease_of_exactly_the_threshold_does_not_return"]),
    ("drivers.py",  # the fire rule's gradient test
     "and grad_norms[pos] <= rows[pos].params.g_th]",
     "and grad_norms[pos] < rows[pos].params.g_th]",
     [PROTOCOL + "test_fires_at_exactly_g_th", THRESHOLDS]),
    ("drivers.py",  # the stop test
     "if gn <= stop_grad_norm and pos not in gone]",
     "if gn < stop_grad_norm and pos not in gone]",
     [THRESHOLDS]),
    ("drivers.py",  # the derived f_th
     "f_th = (c / chi**3) * math.sqrt(eps**3 / lip_hess)",
     "f_th = 1.01 * (c / chi**3) * math.sqrt(eps**3 / lip_hess)",
     [DERIVED]),
    ("drivers.py",  # the derived g_th
     "g_th = eps * math.sqrt(c) / chi**2",
     "g_th = 1.01 * eps * math.sqrt(c) / chi**2",
     [DERIVED]),
    ("drivers.py",  # the derived perturbation radius
     "r = eps * math.sqrt(c) / (lip_grad * chi**2)",
     "r = 1.01 * eps * math.sqrt(c) / (lip_grad * chi**2)",
     [DERIVED]),
    ("drivers.py",  # the derived window length
     "t_th = max(1, math.ceil(window))",
     "t_th = max(1, math.ceil(window)) + 1",
     [DERIVED]),
    ("drivers.py",  # the first fire may come at t = 0
     "next_perturb = [math.inf if row.params is None else 0 for row in rows]",
     "next_perturb = [math.inf if row.params is None else 1 for row in rows]",
     [PROTOCOL + "test_fires_at_exactly_g_th"]),
    ("drivers.py",  # the next fire after t_th more iterations, and the window test before it
     "next_perturb[pos] = t + row.params.t_th + 1",
     "next_perturb[pos] = t + row.params.t_th + 2",
     [PROTOCOL + "test_fires_past_window"]),
    # one-off mutations that showed new tests had teeth
    ("drivers.py",  # the step's d off by a relative 2**-40
     "    d = x - x_hat\n",
     "    d = (x - x_hat) * (1 + 2**-40)\n",
     ["tests/test_protocol_oracle.py::test_drivers_follow_the_transcribed_protocol"]),
    ("drivers.py",  # every quiet iteration leaves its norms unformed
     "return 4.0 * obj.dim * bound * bound < 2.0**1000",
     "return True",
     [FAILURES + "test_a_gradient_turning_bad_in_the_quiet_stretch_fails_its_row"]),
    ("drivers.py",  # read reads the values before the norms
     "        found = {} if surr.grad_norm is not None else _norms(obj, spec, surr, x, t)[1]\n"
     "        found.update(_read(obj, surr, x, [pos for pos in positions if pos not in found], "
     "t))\n",
     "        found = _read(obj, surr, x, positions, t)\n"
     "        found.update({} if surr.grad_norm is not None else "
     "_norms(obj, spec, surr, x, t)[1])\n",
     ["tests/test_loop_exits.py::test_a_row_that_fails_at_its_window_test_is_not_read_for_it"]),
    ("problems.py",  # the whole-stack region test ignores NaN
     "np.maximum.reduce(np.abs(xs), axis=None) <= radius",
     "np.fmax.reduce(np.abs(xs), axis=None) <= radius",
     ["tests/test_bit_identities.py::test_in_region_is_false_with_nan"]),
    # a run's diagnostics never raise
    ("drivers.py",  # the store forms its columns and gaps under the warnings filter
     'with np.errstate(all="ignore"):  # an overflow reads inf or NaN, a failed check',
     'with np.errstate(all="warn"):  # an overflow reads inf or NaN, a failed check',
     [FAILURES + "test_a_row_whose_diagnostics_overflow_runs_as_with_warnings_ignored",
      FAILURES + "test_a_row_whose_optimality_overflows_runs_as_with_warnings_ignored"]),
    ("drivers.py",  # the monitors are tallied under the warnings filter
     '        with np.errstate(all="ignore"):\n            monitors = _monitors(',
     '        with np.errstate(all="warn"):\n            monitors = _monitors(',
     [FAILURES + "test_a_row_whose_diagnostics_overflow_runs_as_with_warnings_ignored"]),
    # the optimality tally
    ("drivers.py",  # each block's count replaces the run's tally instead of adding to it
     "row.passed += passed[pos]",
     "row.passed = passed[pos]",
     ["tests/test_drivers.py::TestSharedLoop::test_gradient_baselines_tally_every_monitor"]),
]


def run_killers(tree: Path, killers) -> int:
    """Run ``killers`` in ``tree``, stopping at the first failure; pytest's exit code."""
    command = [sys.executable, "-B", "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--hypothesis-profile=mutants", *killers]
    return subprocess.run(command, cwd=tree, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    started = time.perf_counter()
    problems = []
    for file, old, _, _ in MUTANTS:
        count = (ROOT / "src" / "scaopt" / file).read_text().count(old)
        if count != 1:
            problems.append(f"{file}: the text {old!r} occurs {count} times, not once")
    if problems:
        print("\n".join(problems))
        return 1
    with tempfile.TemporaryDirectory() as work:
        tree = Path(work)
        shutil.copytree(ROOT / "tests", tree / "tests",
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
        killers = sorted({k for *_, ks in MUTANTS for k in ks})
        code = run_killers(tree, killers)
        if code != 0:
            print(f"the killers do not pass on the library as it is (pytest exit {code})")
            return 1
        for file, old, new, ks in MUTANTS:
            path = tree / "src" / "scaopt" / file
            text = path.read_text()
            path.write_text(text.replace(old, new))
            code = run_killers(tree, ks)
            path.write_text(text)
            # exit 1: a test failed; any other code is a broken run, not a kill
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")
            print(f"{verdict:>10}  {file}: {old.strip()!r} -> {new.strip()!r}")
            if code != 1:
                problems.append(old)
    print(f"{len(MUTANTS) - len(problems)} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - started:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
