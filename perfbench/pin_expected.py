#!/usr/bin/env python3
"""Rewrite ``expected.json`` from the program in this checkout.

    python3 perfbench/pin_expected.py [--seed 0]

Run from the repository root, only when the workloads change, and check the
new pins against the previous ones: the benchmark treats them as the truth.
Every job runs once untraced (exit code and the rescaling-invariant part of
its report) and once traced (shape, nnz and rank of every differential).
"""

from __future__ import annotations

import argparse
import json

import measure
import run
import workloads


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    pinned = {"jobs": {}, "matrices": {}}
    for name in workloads.WORKLOADS:
        runner = run.Runner(name, args.seed, {"jobs": {}, "matrices": {}})
        for i, p, stdout in runner.run_pass():
            pinned["jobs"][workloads.job_id(runner.jobs[i])] = {
                "exit": p.code,
                "report": measure.invariant_view(json.loads(stdout)),
            }
        _, rows = run.per_layer(runner)
        pinned["matrices"][name] = [measure.exact_row(r) for r in rows]
    run.EXPECTED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"pinned {len(pinned['jobs'])} jobs to {run.EXPECTED}")


if __name__ == "__main__":
    main()
