#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the supercochain CLI.

    python3 perfbench/run.py --workload cohomology --seed 1 --seconds 36 --trace 0

Run from the repository root.  Every job is a fresh ``python -m supercochain
<cmd> <file> --format json`` process, started one after another from this
single parent: a closed loop with one client, no threads and no pools.  Each
job pays the import and cold caches, as a user does.  Inputs are generated
from ``--seed`` under ``.perfbench_work/`` and every job's exit code and
report are checked against ``expected.json``.

With ``--trace 0`` the job list is repeated for ``--seconds`` and the
end-to-end metrics are printed.  With ``--trace 1`` one untraced and one
traced pass run (see ``traced_job.py``) and the per-layer metrics are
printed.  The last stdout line is one JSON object; a human summary, the
per-differential rows and the provenance precede it, and everything is also
written to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

import inputs
import measure
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
EXPECTED = HERE / "expected.json"

JOB_TIMEOUT_S = 30.0
# No job is started once a run has used this much, so it ends within 180 s.
RUN_BUDGET_S = 140.0
SETUP_REPEATS = 7
CAL_ITEMS = 25000
CAL_REF_S = 0.045
# Job time grows as calibration time to this power: fit_exponent.py measured
# slopes of 0.63 to 0.78 (correlation 0.74 to 0.88) on a 2-vCPU VM.
CAL_EXPONENT = 0.7
SETUP_CODE = "import sys\nfrom supercochain import io\nfor p in sys.argv[1:]:\n    io.parse(p)\n"

END_TO_END_UNITS = {"wall_s": "s", "slowest_job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class Proc:
    __slots__ = ("code", "seconds", "cpu_s", "rss_mb", "timed_out", "cal_s")

    def __init__(self, code, seconds, cpu_s, rss_mb, timed_out):
        self.code, self.seconds, self.cpu_s = code, seconds, cpu_s
        self.rss_mb, self.timed_out = rss_mb, timed_out
        self.cal_s = None  # mean of the calibrations just before and after

    @property
    def ref_s(self) -> float:
        """Wall time at the reference speed, where ``calibrate`` takes CAL_REF_S."""
        return self.seconds * (CAL_REF_S / self.cal_s) ** CAL_EXPONENT


def calibrate() -> float:
    """Time a fixed mix of dict, tuple and Fraction work, like the program's own.

    Its working set of a few MB makes it slow down under contention about
    as much as the jobs do, which a tiny arithmetic loop does not.
    """
    start = time.perf_counter()
    table = {}
    for i in range(CAL_ITEMS):
        table[(i % 997, i)] = (Fraction(i % 13, 7), i)
    acc = Fraction(0)
    for value, i in table.values():
        if i % 7 == 0:
            acc += value
    return time.perf_counter() - start


def child_env():
    """The caller's environment, minus settings that would change the numbers.

    Jobs use the bytecode cache, as an installed package does; the untimed
    first setup process writes it.
    """
    env = dict(os.environ)
    for name in ("SUPERCOCHAIN_THREADS", "PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def launch(argv, out_path: Path, err_path: Path, env, timeout: float) -> Proc:
    """Run one child to completion through ``launch.py``, which measures it."""
    report = out_path.with_suffix(".launch")
    launcher = [sys.executable, str(HERE / "launch.py"), str(timeout), str(out_path), str(err_path), *argv]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(report), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(report) + ".err", flags, 0o644),
    ]
    pid = os.posix_spawn(launcher[0], launcher, env, file_actions=actions)
    # The launcher enforces ``timeout``; this alarm only guards against it hanging.
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: os.kill(pid, signal.SIGTERM))
    signal.setitimer(signal.ITIMER_REAL, timeout + 15)
    try:
        os.waitpid(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGTERM)
        os.waitpid(pid, 0)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    try:
        r = json.loads(report.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return Proc(None, float("nan"), float("nan"), float("nan"), False)
    return Proc(r["code"], r["seconds"], r["cpu_s"], r["rss_mb"], r["timed_out"])


class Runner:
    def __init__(self, workload: str, seed: int, expected: dict):
        self.workload = workload
        self.jobs = workloads.WORKLOADS[workload]
        self.env = child_env()
        self.out_dir = WORK / "out"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.paths = inputs.write_inputs(
            ROOT, WORK / "inputs", seed, workloads.input_names(self.jobs)
        )
        self.expected = expected
        self.attempted = 0
        self.failures = []
        self.started = time.perf_counter()
        self.cals = []

    def spawn(self, argv, out_path, err_path) -> Proc:
        """``launch`` between two calibrations on the same CPU."""
        if not self.cals:
            self.cals.append(calibrate())
        before = self.cals[-1]
        p = launch(argv, out_path, err_path, self.env, JOB_TIMEOUT_S)
        self.cals.append(calibrate())
        p.cal_s = (before + self.cals[-1]) / 2
        return p

    def over_budget(self) -> bool:
        return time.perf_counter() - self.started > RUN_BUDGET_S

    def setup(self):
        """Median of fresh processes that import the package and parse every input."""
        argv = [sys.executable, "-c", SETUP_CODE] + [self.paths[n] for n in sorted(self.paths)]
        out, err = self.out_dir / "setup.out", self.out_dir / "setup.err"
        times = []
        for i in range(SETUP_REPEATS + 1):
            p = self.spawn(argv, out, err)
            self.attempted += 1
            if p.code != 0:
                self.failures.append(f"setup: exit code {p.code}: {_tail(err)}")
            elif i > 0:  # the first process only warms the bytecode cache
                times.append(p)
        return times

    def run_job(self, index: int, trace_path: Path = None):
        """Run job ``index``; returns (Proc, stdout bytes) after checking it."""
        command, name, flags = job = self.jobs[index]
        cli_args = [command, self.paths[name], *flags, "--format", "json"]
        if trace_path is None:
            argv = [sys.executable, "-m", "supercochain", *cli_args]
        else:
            trace_path.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "traced_job.py"), str(trace_path), *cli_args]
        out, err = self.out_dir / f"job{index}.out", self.out_dir / f"job{index}.err"
        p = self.spawn(argv, out, err)
        stdout = out.read_bytes()
        jid = workloads.job_id(job)
        self.attempted += 1
        want = self.expected["jobs"].get(jid)
        if p.timed_out:
            reason = f"timed out after {JOB_TIMEOUT_S:.0f} s"
        elif want is None:
            reason = "no pinned outcome"
        else:
            reason = measure.check_job(want, p.code, stdout)
        if reason is not None:
            self.failures.append(f"{jid}: {reason}: {_tail(err)}")
        return p, stdout

    def run_pass(self, trace_dir: Path = None):
        results = []
        for i in range(len(self.jobs)):
            if self.over_budget():
                self.attempted += 1
                self.failures.append(f"{workloads.job_id(self.jobs[i])}: not started, run budget spent")
                continue
            trace_path = None if trace_dir is None else trace_dir / f"job{i}.json"
            results.append((i,) + self.run_job(i, trace_path))
        return results


def _tail(path: Path) -> str:
    try:
        lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    except OSError:
        return ""
    return lines[-1] if lines else ""


def end_to_end(runner: Runner, seconds: int):
    setup_times = runner.setup()
    per_job = {i: [] for i in range(len(runner.jobs))}
    pass_walls = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for i, p, _ in runner.run_pass():
            per_job[i].append(p)
        pass_walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(pass_walls) > seconds or runner.over_budget():
            break
    job_ref = {i: measure.median(p.ref_s for p in ps) for i, ps in per_job.items() if ps}
    rss_median = {i: measure.median(p.rss_mb for p in ps) for i, ps in per_job.items() if ps}
    metrics = {
        "wall_s": sum(job_ref.values()),
        "slowest_job_s": max(job_ref.values()),
        "setup_s": measure.median(p.ref_s for p in setup_times) if setup_times else float("nan"),
        "peak_rss_mb": max(rss_median.values()),
    }
    detail = {
        "passes": len(pass_walls),
        "pass_wall_s": pass_walls,
        "setup_s_samples": [p.seconds for p in setup_times],
        "setup_cal_s": [p.cal_s for p in setup_times],
        "cal_s": runner.cals,
        "jobs": {
            workloads.job_id(runner.jobs[i]): {
                "median_ref_s": job_ref[i],
                "ref_s": [p.ref_s for p in ps],
                "seconds": [p.seconds for p in ps],
                "cpu_s": [p.cpu_s for p in ps],
                "cal_s": [p.cal_s for p in ps],
                "rss_mb": [p.rss_mb for p in ps],
            }
            for i, ps in per_job.items()
            if ps
        },
    }
    return metrics, detail


def per_layer(runner: Runner):
    trace_dir = WORK / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    plain = runner.run_pass()
    traced = runner.run_pass(trace_dir)
    plain_out = {i: out for i, _, out in plain}
    jobs = []
    unattributed = 0.0
    for i, p, out in traced:
        jid = workloads.job_id(runner.jobs[i])
        if i in plain_out and out != plain_out[i]:
            runner.failures.append(f"{jid}: traced stdout differs from the untraced run")
        try:
            record = json.loads((trace_dir / f"job{i}.json").read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            runner.failures.append(f"{jid}: no trace: {exc}")
            continue
        record["id"] = jid
        jobs.append(record)
        unattributed += p.seconds - measure.top_level_seconds(record["spans"])
    metrics = measure.layer_metrics(jobs)
    plain_wall = sum(p.ref_s for _, p, _ in plain)
    traced_wall = sum(p.ref_s for _, p, _ in traced)
    metrics["trace.untraced_wall_s"] = plain_wall
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    metrics["trace.unattributed_s"] = unattributed
    metrics["trace.spans"] = sum(len(job["spans"]) for job in jobs)
    rows = measure.matrix_rows(jobs)
    pinned = runner.expected["matrices"].get(runner.workload, [])
    if [measure.exact_row(r) for r in rows] != pinned:
        runner.failures.append("differential shapes, nnz or ranks differ from the pinned rows")
    return metrics, rows


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


def provenance(args):
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _terminate(signum, frame):
    # Raised inside ``launch``, which then stops the job it is waiting for.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "supercochain" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print("error: run from a supercochain checkout (src/supercochain and fixtures/ missing)", file=sys.stderr)
        return 2
    prov = provenance(args)
    # One CPU for this parent, its calibration loop and every job it starts,
    # so the calibration measures the speed the jobs actually get.
    prov["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {prov["pinned_cpu"]})
    runner = Runner(args.workload, args.seed, json.loads(EXPECTED.read_text(encoding="utf-8")))
    if args.trace:
        metrics, rows = per_layer(runner)
        detail = {"matrices": rows}
        units = {name: _layer_unit(name) for name in metrics}
    else:
        metrics, detail = end_to_end(runner, args.seconds)
        units = END_TO_END_UNITS
        rows = []
    failed = len(runner.failures)
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if args.trace:
        result["metrics"]["fail_ratio"] = {"value": failed / runner.attempted, "unit": "ratio"}

    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"provenance": prov, "result": result, "failures": runner.failures, "detail": detail}
    out_file = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print("provenance " + json.dumps(prov, sort_keys=True))
    for failure in runner.failures:
        print(f"FAILED {failure}")
    for row in rows:
        print(
            f"matrix {row['job']} {row['kind']} d{row['degree']} parity={row['parity']} "
            f"{row['rows']}x{row['cols']} nnz={row['nnz']} rank={row['rank']} "
            f"builds={row['builds']} assemble={row['assemble_s']:.4f}s rank={row['rank_s']:.4f}s"
        )
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(f"results written to {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".density")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
