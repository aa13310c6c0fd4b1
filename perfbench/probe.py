"""Set-up time of one workload, measured in a fresh interpreter.

Times ``import scaopt``, the harness modules, problem construction,
``validate_config`` and ``derive_params`` for the workload's configs, i.e.
everything a run does before its first iteration. ``run.py`` starts this
script several times per run and reports the median.

    python3 perfbench/probe.py --workload escape_sweep --seed 1
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import bootstrap


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    if not bootstrap.prepare():
        print("probe: no scaopt sources in this checkout", file=sys.stderr)
        return 2
    start = time.perf_counter()
    import scaopt  # noqa: F401  (the package import is part of set-up)
    from workloads import WORKLOADS

    WORKLOADS[args.workload](args.seed).setup()
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
