"""Self-tests of the benchmark's arithmetic and of its expected-value checker.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
from pathlib import Path

import pytest

import measure

EXPECTED = json.loads((Path(__file__).resolve().parents[1] / "expected.json").read_text())


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("outer", -1, 0.0, 10.0),
        ("mid", 0, 1.0, 7.0),
        ("leaf", 1, 2.0, 3.0),
        ("leaf", 1, 4.0, 6.5),
        ("other", 0, 8.0, 9.0),
        ("outer", -1, 11.0, 12.0),
    ]
    assert measure.self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 2.5, 1.0, 1.0])
    totals = measure.span_totals(spans)
    assert totals["outer"] == [2, pytest.approx(4.0)]
    assert totals["leaf"] == [2, pytest.approx(3.5)]
    # self times partition the covered time exactly
    assert sum(measure.self_times(spans)) == pytest.approx(measure.top_level_seconds(spans))
    assert measure.top_level_seconds(spans) == pytest.approx(11.0)


def test_median():
    assert measure.median([3, 1, 2]) == 2.0
    assert measure.median([4, 1, 3, 2]) == 2.5
    assert measure.median(x for x in (0.5,)) == 0.5
    with pytest.raises(ValueError):
        measure.median([])


def _job(jid, matrices, ranks, spans=(), wedge=(5, 5, 3)):
    return {
        "id": jid,
        "spans": list(spans),
        "matrices": matrices,
        "ranks": ranks,
        "caches": {"wedge_basis": list(wedge), "shuffles": [0, 1, 1]},
    }


def _mat(kind, degree, parity, rows, cols, nnz, rank):
    return {"kind": kind, "degree": degree, "parity": parity, "rows": rows, "cols": cols,
            "nnz": nnz, "seconds": 0.5, "rank": rank, "rank_seconds": 0.25}


def test_layer_metrics_counts_builds_reuse_and_cells():
    a = _job(
        "a",
        [_mat("triple", 1, 0, 4, 2, 3, 1), _mat("triple", 2, 0, 6, 4, 5, 2),
         _mat("triple", 1, 0, 4, 2, 3, 1)],
        [{"rows": 4, "cols": 2, "nnz": 3}, {"rows": 6, "cols": 4, "nnz": 5}],
        spans=[("triple.triple_coboundary_matrix", -1, 0.0, 2.0), ("cochains.circ", 0, 0.5, 1.5)],
    )
    b = _job("b", [_mat("crossed", 1, 1, 2, 2, 2, 1)], [{"rows": 2, "cols": 2, "nnz": 2}],
             wedge=(1, 9, 4))
    out = measure.layer_metrics([a, b])
    assert out["triple.d_built"] == 3
    assert out["triple.d_distinct"] == 2
    assert out["triple.d_reuse_ratio"] == pytest.approx(2 / 3)
    assert out["triple.columns"] == 8
    assert out["crossed.d_built"] == 1 and out["crossed.columns"] == 2
    assert out["exact_linalg.cells"] == 8 + 24 + 4
    assert out["exact_linalg.nnz"] == 10
    assert out["triple.assemble_s"] == pytest.approx(1.0)
    assert out["cochains.circ_s"] == pytest.approx(1.0)
    assert out["cochains.circ_calls"] == 1
    assert out["graded.wedge_basis_hit_ratio"] == pytest.approx(6 / 20)
    assert out["graded.cache_entries"] == 5
    rows = measure.matrix_rows([a])
    assert [r["builds"] for r in rows] == [2, 1]
    assert rows[0]["assemble_s"] == pytest.approx(1.0)


def _pinned(jid):
    return EXPECTED["jobs"][jid]


def test_checker_accepts_the_pinned_report():
    want = _pinned("cohomology mixed21 --max-n 3")
    stdout = json.dumps(want["report"], sort_keys=True, indent=2).encode()
    assert measure.check_job(want, 0, stdout) is None


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r["cohomology"]["3"].update(even=2),
        lambda r: r["verdicts"][0].update(ok=False),
        lambda r: r["verdicts"].pop(),
        lambda r: r.update(ok=False),
    ],
)
def test_checker_rejects_a_corrupted_report(corrupt):
    want = _pinned("cohomology mixed21 --max-n 3")
    report = copy.deepcopy(want["report"])
    corrupt(report)
    stdout = json.dumps(report).encode()
    assert measure.check_job(want, 0, stdout) is not None


def test_checker_rejects_wrong_exit_code_and_garbage():
    want = _pinned("cohomology mixed21 --max-n 3")
    stdout = json.dumps(want["report"]).encode()
    assert "exit code" in measure.check_job(want, 1, stdout)
    assert measure.check_job(want, 0, b"Traceback (most recent call last):") is not None


def _crossed_bad_report(scale):
    return {
        "command": "check-crossed",
        "ok": False,
        "verdicts": [
            {"name": "crossed_identity", "ok": False, "failures": [
                {"axiom": "crossed", "where": ["e", "f"],
                 "lhs": ["0", str(4 * scale)], "rhs": ["0", str(12 * scale)]}]},
            {"name": "mc_residual", "ok": False, "witnesses": [
                {"g_slots": ["e", "f"], "h_slots": [], "value": {"f": str(-8 * scale)}}]},
        ],
    }


def test_checker_ignores_coefficients_but_not_their_zero_pattern():
    want = {"exit": 1, "report": measure.invariant_view(_crossed_bad_report(1))}
    assert measure.check_job(want, 1, json.dumps(_crossed_bad_report(3)).encode()) is None
    moved = _crossed_bad_report(1)
    moved["verdicts"][0]["failures"][0]["lhs"] = ["4", "0"]
    assert measure.check_job(want, 1, json.dumps(moved).encode()) is not None
    other_label = _crossed_bad_report(1)
    other_label["verdicts"][1]["witnesses"][0]["value"] = {"e": "1"}
    assert measure.check_job(want, 1, json.dumps(other_label).encode()) is not None


def test_pinned_mixed21_rows_match_the_roadmap_baseline():
    rows = [r for r in EXPECTED["matrices"]["cohomology"] if r[0] == "cohomology mixed21 --max-n 3"]
    d3 = {r[3]: r[4:] for r in rows if r[2] == 3}
    assert d3 == {0: [206, 110, 698, 75], 1: [206, 110, 722, 75]}
    # d1 and d2 are built twice and d3 once at --max-n 3: ten builds, six distinct
    builds = sum(2 if r[2] < 3 else 1 for r in rows)
    assert (builds, len(rows)) == (10, 6)
