"""The golden trajectories do not depend on OpenBLAS's CPU kernel, except where named.

OpenBLAS picks a kernel for the CPU it loads on (``OPENBLAS_CORETYPE`` overrides
the choice), and its kernels sum a dot product in different orders. Every dot,
norm and power on a trajectory is taken without BLAS (``numerics.row_dots`` and
plain products), so a golden case writes the same bytes under any kernel unless
its own objective calls BLAS. Each kernel runs every golden case in one fresh
subprocess, whose files must equal those of the same cases run in this process.
``Prescott`` needs only SSE3, so it loads on any x86-64 host; ``Haswell`` needs
AVX2 and runs where numpy reports it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scaopt
from scaopt import cli
from test_golden import CASES

# The golden cases whose bytes still follow the BLAS kernel, and why.
KERNEL_DEPENDENT = {
    f"mf-{algo}-seed{seed}": "matrix factorization's value and gradient are BLAS matrix products"
    for algo in cli.ALGOS
    for seed in (0, 1)
}

FILES = ("run.csv", "run.eigen.csv")  # the trajectory and, where the case records one, its sidecar


def run_all(root):
    """Run every golden case into its own directory under ``root``."""
    for case, settings in CASES.items():
        out = Path(root) / case
        out.mkdir(parents=True)
        cli.run_experiment(cli.ExperimentConfig(out_dir=str(out), label="run", **settings))


def _kernels():
    """The OpenBLAS kernels to compare against, or a reason to skip."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    if "openblas" not in str(blas.get("name", "")).lower():
        pytest.skip(f"numpy's BLAS is {blas.get('name')!r}, not OpenBLAS")
    cpu = config["Machine Information"]["host"]["cpu"]
    if cpu != "x86_64":
        pytest.skip(f"the host is {cpu}, not x86-64: OpenBLAS has no Prescott or Haswell kernel")
    simd = config["SIMD Extensions"]
    avx2 = {"X86_V3", "AVX2"} & {*simd.get("baseline", ()), *simd.get("found", ())}
    return ["Prescott", "Haswell"] if avx2 else ["Prescott"]


def test_kernel_dependent_cases_are_golden_cases():
    assert set(KERNEL_DEPENDENT) <= set(CASES)


def test_golden_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    kernels = _kernels()
    run_all(tmp_path / "here")
    paths = [Path(scaopt.__file__).parents[1], Path(__file__).parent, os.environ.get("PYTHONPATH")]
    for kernel in kernels:
        env = dict(os.environ, OPENBLAS_CORETYPE=kernel,
                   PYTHONPATH=os.pathsep.join(str(p) for p in paths if p))
        subprocess.run([sys.executable, "-c", "import sys, test_kernel_portability as t; "
                        "t.run_all(sys.argv[1])", str(tmp_path / kernel)],
                       env=env, check=True, capture_output=True)
        differ = []
        for case in sorted(set(CASES) - set(KERNEL_DEPENDENT)):
            for name in FILES:
                here, there = tmp_path / "here" / case / name, tmp_path / kernel / case / name
                if here.exists() != there.exists() or (
                        here.exists() and here.read_bytes() != there.read_bytes()):
                    differ.append(f"{case}/{name}")
        assert not differ, f"under OPENBLAS_CORETYPE={kernel} these files differ: {differ}"
