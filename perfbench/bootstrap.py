"""Shared by run.py and probe.py: locate the checkout's scaopt sources and pin BLAS threads."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One thread keeps timings comparable on a 2-CPU host; set before numpy is imported.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> bool:
    """Pin BLAS threads and put ``src`` first on ``sys.path``; False when the sources are missing."""
    if not (SRC / "scaopt" / "__init__.py").is_file():
        return False
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    return True

