#!/usr/bin/env python3
"""Measure ``CAL_EXPONENT``: how job time scales with the calibration time.

    python3 perfbench/fit_exponent.py [--seconds 180]

Run from the repository root on an otherwise idle machine.  It alternates
``calibrate()`` with the jobs of every workload on one pinned CPU, then
prints the least-squares slope of log(job time / job median) on
log(mean calibration around the job), and the correlation.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import time

import run
import workloads


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=180.0)
    args = ap.parse_args()
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    samples = {}
    runners = [run.Runner(name, 0, {"jobs": {}, "matrices": {}}) for name in workloads.WORKLOADS]
    end = time.perf_counter() + args.seconds
    while time.perf_counter() < end:
        for runner in runners:
            for i, job in enumerate(runner.jobs):
                p, _ = runner.run_job(i)
                samples.setdefault(workloads.job_id(job), []).append((p.seconds, p.cal_s))
    xs, ys = [], []
    for pairs in samples.values():
        mid = statistics.median(s for s, _ in pairs)
        cal = statistics.median(c for _, c in pairs)
        for s, c in pairs:
            xs.append(math.log(c / cal))
            ys.append(math.log(s / mid))
    fit = statistics.linear_regression(xs, ys)
    print(f"pairs={len(xs)} slope={fit.slope:.3f} correlation={statistics.correlation(xs, ys):.3f}")


if __name__ == "__main__":
    main()
