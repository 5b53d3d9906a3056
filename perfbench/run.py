"""Served temporal-ranking benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload agg-exact --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` makes the separate traced run that gives the per-layer
metrics (spans around the public entry points of every layer, kept in
memory and written to ``.bench_out/`` when the run ends).  Either way
the run prints every metric by name with its unit, then, as its last
line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Wrong answers are counted as failed operations (and in ``ok_frac``);
``correct`` is false when any answer was wrong or the harness could not
check the answers.
The exit code is nonzero only when the harness itself fails, e.g.
when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The workload seed used when ``--seed`` is not given.
DEFAULT_SEED = 20120801


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program's sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy

    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        report = asyncio.run(bench.run(workload, args.seconds, bool(args.trace)))
    finally:
        workload.close()
    report.host = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }
    report.print_table(args)
    print(json.dumps(report.result_line(bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
