"""BENCHMARK.json names exactly the metrics the benchmark prints, with their units."""

import json
from pathlib import Path

import pytest

import measure
import run
import workloads

BENCH = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

TRACE_EXTRAS = [
    "trace.untraced_wall_s",
    "trace.traced_wall_s",
    "trace.overhead_s",
    "trace.unattributed_s",
    "trace.spans",
    "fail_ratio",
]


def test_workloads_match():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_metrics_and_units_match():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_per_layer_metrics_and_units_match():
    names = list(measure.layer_metrics([])) + TRACE_EXTRAS
    assert [m["name"] for m in BENCH["per_layer"]] == names
    for m in BENCH["per_layer"]:
        assert m["unit"] == run._layer_unit(m["name"]), m["name"]


def test_every_job_has_a_pinned_outcome():
    pinned = json.loads(run.EXPECTED.read_text())
    ids = [workloads.job_id(j) for jobs in workloads.WORKLOADS.values() for j in jobs]
    assert sorted(ids) == sorted(pinned["jobs"])
    assert pinned["jobs"]["check-crossed crossed_bad"]["exit"] == 1


def test_pinned_outcomes_hold_on_two_seeds():
    """Rescaling is an isomorphism: the quick fixture jobs pass on any seed."""
    if not (run.ROOT / "src" / "supercochain").is_dir():
        pytest.skip("run from the repository root")
    pinned = json.loads(run.EXPECTED.read_text())
    for seed in (1, 2):
        runner = run.Runner("checks", seed, pinned)
        for i, job in enumerate(runner.jobs):
            if job[1] != "gl21_adjoint":
                runner.run_job(i)
        assert runner.failures == []
        assert runner.attempted == len(runner.jobs) - 3
