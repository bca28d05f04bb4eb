"""Repeatability procedure: ``python3 -m benchmarks.e2e.repeat``.

Runs every workload ``--runs`` times back to back, one process and one
seed each, and prints per workload and end-to-end metric the median and
the quartile spread (Q3 - Q1 of ``statistics.quantiles(values, n=4)``
as a share of the median) next to the metric's bound — the same figure
the driver computes.  A metric whose spread exceeds a third of its
bound is flagged: lengthen its sample, or widen the bound in
``metrics.py``, before shipping.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from . import metrics


def run_once(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(
            "%s seed %d failed (%d):\n%s"
            % (workload, seed, done.returncode, done.stderr[-2000:])
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: List[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e.repeat")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--workload", action="append",
                        choices=sorted(metrics.WORKLOADS))
    args = parser.parse_args()
    bounds = {name: bound for name, _u, _b, bound in metrics.END_TO_END}
    worst = 0.0
    for workload in args.workload or list(metrics.WORKLOADS):
        series: Dict[str, List[float]] = {name: [] for name in bounds}
        failed = 0
        began = time.perf_counter()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, args.seconds)
            failed += result["failed"]
            for name in bounds:
                series[name].append(result["metrics"][name]["value"])
        print("%s: %d runs, %.1f s per run, %d failed requests"
              % (workload, args.runs,
                 (time.perf_counter() - began) / args.runs, failed))
        for name, values in series.items():
            share = spread(values)
            flag = "" if share <= bounds[name] / 3 else "  <-- above a third of the bound"
            if name != "setup_s":
                worst = max(worst, share / bounds[name])
            print("  %-14s median %12.4f  min %12.4f  max %12.4f  spread %.4f  bound %.2f%s"
                  % (name, statistics.median(values), min(values), max(values),
                     share, bounds[name], flag))
    print("worst spread/bound (setup_s aside): %.2f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
