#!/usr/bin/env python3
"""Benchmark of flowsentry's train, detect and eval commands.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train_joint --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it times the command line in child processes and prints
the end-to-end metrics; with ``--trace 1`` it runs the same commands in
process with spans around each layer's public functions and prints the
per-layer metrics. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# One BLAS / OpenMP thread: the matrices of a batch step are small, and a
# single thread reads steadier on a shared 2-core machine than two.
THREADS = "1"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "flowsentry" / "cli.py").is_file():
        print(f"perfbench: no flowsentry sources under {SRC}", file=sys.stderr)
        return 2
    # set before numpy loads here or in a child, and never inherited
    for var in THREAD_VARIABLES:
        os.environ[var] = THREADS
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))

    import workloads  # noqa: E402  (numpy must see the thread setting)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    seed = args.seed % (1 << 63)
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{workload.name}-{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    if args.trace:
        import tracing

        result = tracing.traced_run(workload, seed, args.seconds, ROOT, WORK)
    else:
        result = workloads.measure(workload, seed, args.seconds, ROOT, WORK)
    if result["correct"]:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
