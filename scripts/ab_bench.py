#!/usr/bin/env python3
"""A/B benchmark: the working tree against a git revision, in alternating pairs.

    python scripts/ab_bench.py REV [--pairs 10] [--workload checks ...] [--seed 1]

Extracts REV with ``git archive`` into one temporary directory and copies
the working tree into another beside it, under a name of the same length:
every tracked file and every untracked file git does not ignore, as it is on
disk, leaving out files deleted from the disk.  Both sides so run from fresh
copies at paths of one length, and neither reads build or result files the
other lacks.  It then runs ``perfbench/run.py --trace 0`` in each copy,
``--pairs`` times per workload, alternating which side runs first from one
pair to the next; each run lasts the ``run_seconds`` of ``BENCHMARK.json``.

For every end-to-end metric in ``BENCHMARK.json`` it prints, per workload
and side, the median and the quartiles over the pairs, and how many pairs
the working tree wins (strictly better in the metric's direction).  After each run it reads
the median time of every job (``detail.jobs[*].median_ref_s``) and the median
of its peak RSS samples (``detail.jobs[*].rss_mb``) from the result file that
run wrote under ``.perfbench_work/results/``, and prints the same quartiles
and wins per job, the median RSS and its wins beside the time, so that a
change in ``slowest_job_s``, ``wall_s`` or ``peak_rss_mb`` can be traced to
the jobs that moved.
Workloads default to those of ``BENCHMARK.json``.

One benchmark process runs at a time.  Exits 1 if any run reports failed
jobs or prints no result.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

from cli_identity import ROOT, extract

RUN_TIMEOUT_S = 600


def copy_working_tree(dest: pathlib.Path) -> pathlib.Path:
    """Copy the files of the working tree that git tracks or does not ignore under ``dest``,
    as they are on disk, and return ``dest``; a file deleted from the disk is left out."""
    listed = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard", "-z"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    for name in sorted(set(filter(None, listed.split("\0")))):
        source = ROOT / name
        if not source.is_file():
            continue
        target = dest / name
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, target)
    return dest


def run_bench(tree: pathlib.Path, workload: str, seed: int, seconds: int):
    """The result object ``perfbench/run.py`` prints last, or None if it printed none."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def job_medians(tree: pathlib.Path, workload: str, seed: int) -> dict:
    """{job id: (median_ref_s, median of rss_mb)} from the result file of the last run,
    {} if it has none."""
    path = tree / ".perfbench_work" / "results" / f"{workload}-seed{seed}-trace0.json"
    try:
        jobs = json.loads(path.read_text(encoding="utf-8"))["detail"]["jobs"]
        return {job: (entry["median_ref_s"], statistics.median(entry["rss_mb"])) for job, entry in jobs.items()}
    except (OSError, ValueError, KeyError, TypeError, statistics.StatisticsError):
        return {}


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def print_rows(name: str, width: int, rev: str, old, new, lower: bool, rss=None):
    """q1, median and q3 per side, and the working tree's wins over the pairs; with ``rss``,
    the (old, new) peak RSS of the same runs, their median per side and the wins (lower)."""
    wins = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
    pairs = min(len(old), len(new))
    for side, vals in ((rev, old), ("working tree", new)):
        if not vals:
            continue
        q1, med, q3 = quartiles(vals)
        line = f"  {name:{width}} {side[:14]:14} {q1:10.4f} {med:10.4f} {q3:10.4f}"
        if side == "working tree":
            line += f"   {wins:2} of {pairs}"
        elif rss is not None:
            line += " " * 11
        if rss is not None:
            mb = rss[0] if side == rev else rss[1]
            line += f" {statistics.median(mb):10.3f}"
            if side == "working tree":
                line += f"   {sum(b < a for a, b in zip(*rss)):2} of {pairs}"
        print(line)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", dest="workloads")
    parser.add_argument("--seed", type=int, default=1)
    opts = parser.parse_args(argv)
    workloads = opts.workloads or [w["name"] for w in spec["workloads"]]
    metrics, seconds = spec["end_to_end"], spec["run_seconds"]
    bad = 0
    with tempfile.TemporaryDirectory(prefix="ab_bench_") as tmp:
        # two sibling directories with names of one length: paths of one length
        trees = {
            opts.rev: extract(opts.rev, pathlib.Path(tmp) / "old"),
            "working tree": copy_working_tree(pathlib.Path(tmp) / "new"),
        }
        for workload in workloads:
            values = {side: {m["name"]: [] for m in metrics} for side in trees}
            jobs = {side: {} for side in trees}
            for pair in range(opts.pairs):
                order = list(trees) if pair % 2 == 0 else list(reversed(trees))
                results, medians = {}, {}
                for side in order:
                    results[side] = run_bench(trees[side], workload, opts.seed, seconds)
                    medians[side] = job_medians(trees[side], workload, opts.seed)
                failed = [side for side, r in results.items() if r is None or r["failed"]]
                if failed:
                    # a pair counts only when both of its runs completed every job
                    bad += 1
                    print(f"{workload} pair {pair + 1}: failed run on {', '.join(failed)}", flush=True)
                    continue
                shared = medians[opts.rev].keys() & medians["working tree"].keys()
                for side, result in results.items():
                    for m in metrics:
                        values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
                    for job in shared:
                        jobs[side].setdefault(job, []).append(medians[side][job])
                print(f"{workload}: pair {pair + 1} of {opts.pairs} done", file=sys.stderr, flush=True)
            print(f"\n{workload} ({opts.pairs} pairs, seed {opts.seed}, {seconds} s)")
            print(f"  {'metric':14} {'side':14} {'q1':>10} {'median':>10} {'q3':>10}   wins")
            for m in metrics:
                name = m["name"]
                print_rows(name, 14, opts.rev, values[opts.rev][name],
                           values["working tree"][name], m["better"] == "lower")
            names = sorted(jobs[opts.rev])
            if names:
                width = max(len(n) for n in names)
                print(f"\n  {'job median_ref_s':{width}} {'side':14} {'q1':>10} {'median':>10} {'q3':>10}"
                      f"   wins    {'rss_mb':>10}   wins")
                for name in names:
                    (old_s, old_mb), (new_s, new_mb) = (zip(*jobs[side][name]) for side in trees)
                    print_rows(name, width, opts.rev, old_s, new_s, True, (old_mb, new_mb))
            sys.stdout.flush()
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
