"""Pure helpers of the benchmark: statistics, span arithmetic, report checks.

Nothing here starts a process or touches a file, so the self-tests under
``perfbench/tests`` exercise exactly the code the benchmark runs.
"""

from __future__ import annotations

import json
import statistics

# ---------------------------------------------------------------------------
# statistics


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# spans
#
# A span is (name, parent, start, end); ``parent`` is the index of the
# enclosing span in the same job's list, or -1 at top level.


def self_times(spans):
    """Per-span self time: duration minus the durations of its direct children.

    Children run inside their parent on one thread, so their intervals are
    disjoint sub-intervals of the parent's and the subtraction is exact.
    """
    out = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def span_totals(spans):
    """name -> [calls, self seconds] summed over one job's spans."""
    totals = {}
    for (name, _, _, _), own in zip(spans, self_times(spans)):
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += own
    return totals


def top_level_seconds(spans) -> float:
    """Time covered by any span: the sum of top-level durations."""
    return sum(end - start for _, parent, start, end in spans if parent < 0)


# Self time of these spans makes up each per-layer ``*_s`` metric.
LAYER_SPANS = {
    "io.parse_s": ("io.parse",),
    "io.report_s": ("io.report_to_json",),
    "superalgebra.check_s": ("superalgebra.check_super_skew", "superalgebra.check_jacobi"),
    "triple.check_action_s": ("triple.check_action",),
    "triple.mc_residual_s": ("triple.mc_residual",),
    "triple.assemble_s": ("triple.triple_coboundary_matrix",),
    "cochains.circ_s": ("cochains.circ",),
    "cochains.nr_bracket_s": ("cochains.nr_bracket",),
    "cochains.hat_extend_s": ("cochains.hat_extend",),
    "cochains.project_block_s": ("cochains.project_block",),
    "crossed.assemble_s": ("crossed.d_D_matrix",),
    "crossed.check_s": ("crossed.check_crossed",),
    "crossed.graph_s": ("crossed.graph_check",),
    "crossed.mc_residual_s": ("crossed.ch_mc_residual",),
    "exact_linalg.rank_s": ("exact_linalg.rank",),
    "exact_linalg.dd_check_s": ("exact_linalg.cohomology_dims", "exact_linalg.Matrix.mul"),
    "exact_linalg.kernel_s": ("exact_linalg.kernel_basis",),
    "deformation.residual_s": (
        "deformation.triple_deformation_residual",
        "deformation.ch_deformation_residual",
    ),
    "deformation.infinitesimal_s": ("deformation.triple_infinitesimal", "deformation.ch_infinitesimal"),
}

# Call counts reported as ``*_calls``.
CALL_SPANS = {
    "superalgebra.check_calls": LAYER_SPANS["superalgebra.check_s"],
    "cochains.circ_calls": ("cochains.circ",),
    "cochains.nr_bracket_calls": ("cochains.nr_bracket",),
    "exact_linalg.rank_calls": ("exact_linalg.rank",),
}

def layer_metrics(jobs) -> dict:
    """Per-layer metrics of one workload from its traced jobs.

    Each job is a dict with ``spans``, ``matrices`` (one entry per differential
    built: kind, degree, parity, rows, cols, nnz), ``ranks`` (rows, cols, nnz
    per rank call) and ``caches`` (name -> [hits, misses, currsize]).
    """
    totals = {}
    for job in jobs:
        for name, (calls, own) in span_totals(job["spans"]).items():
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += own
    out = {}
    for metric, names in LAYER_SPANS.items():
        out[metric] = sum(totals.get(n, (0, 0.0))[1] for n in names)
    for metric, names in CALL_SPANS.items():
        out[metric] = sum(totals.get(n, (0, 0.0))[0] for n in names)

    for prefix in ("triple", "crossed"):
        built = [m for job in jobs for m in job["matrices"] if m["kind"] == prefix]
        distinct = {
            (i, m["degree"], m["parity"])
            for i, job in enumerate(jobs)
            for m in job["matrices"]
            if m["kind"] == prefix
        }
        out[f"{prefix}.d_built"] = len(built)
        out[f"{prefix}.d_distinct"] = len(distinct)
        out[f"{prefix}.d_reuse_ratio"] = len(distinct) / len(built) if built else 1.0
        out[f"{prefix}.columns"] = sum(m["cols"] for m in built)
        out[f"{prefix}.assemble_total_s"] = sum(m["seconds"] for m in built)

    ranks = [r for job in jobs for r in job["ranks"]]
    cells = sum(r["rows"] * r["cols"] for r in ranks)
    nnz = sum(r["nnz"] for r in ranks)
    out["exact_linalg.cells"] = cells
    out["exact_linalg.nnz"] = nnz
    out["exact_linalg.density"] = nnz / cells if cells else 0.0

    wedge = [job["caches"].get("wedge_basis", (0, 0, 0)) for job in jobs]
    hits, misses = sum(w[0] for w in wedge), sum(w[1] for w in wedge)
    out["graded.wedge_basis_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["graded.cache_entries"] = max(
        (sum(info[2] for info in job["caches"].values()) for job in jobs), default=0
    )
    return out


def matrix_rows(jobs):
    """One row per (job, kind, degree, parity) differential, builds merged.

    Shape, nnz and rank are facts about the input; the seconds add up every
    build of that differential and every rank call on it.
    """
    rows = {}
    for job in jobs:
        for m in job["matrices"]:
            key = (job["id"], m["kind"], m["degree"], m["parity"])
            row = rows.get(key)
            if row is None:
                row = rows[key] = {
                    "job": job["id"], "kind": m["kind"], "degree": m["degree"],
                    "parity": m["parity"], "rows": m["rows"], "cols": m["cols"],
                    "nnz": m["nnz"], "rank": None, "builds": 0,
                    "assemble_s": 0.0, "rank_s": 0.0,
                }
            row["builds"] += 1
            row["assemble_s"] += m["seconds"]
            if m.get("rank") is not None:
                row["rank"] = m["rank"]
                row["rank_s"] += m["rank_seconds"]
    return sorted(rows.values(), key=lambda r: (r["job"], r["kind"], r["degree"], r["parity"]))


def exact_row(row):
    """The seed-independent part of a matrix row."""
    return [row["job"], row["kind"], row["degree"], row["parity"],
            row["rows"], row["cols"], row["nnz"], row["rank"]]


# ---------------------------------------------------------------------------
# expected reports


def invariant_view(report):
    """The part of a CLI report that a diagonal basis rescaling cannot change.

    Witness and failure coefficients scale with the basis, their zero pattern
    does not: scalar lists become nonzero masks and witness value maps become
    their sorted label sets.  Everything else is kept as is.
    """
    if isinstance(report, dict):
        out = {}
        for key, value in report.items():
            if key in ("lhs", "rhs") and isinstance(value, list):
                out[key] = [x != "0" for x in value]
            elif key == "value" and isinstance(value, dict):
                out[key] = sorted(value)
            else:
                out[key] = invariant_view(value)
        return out
    if isinstance(report, list):
        return [invariant_view(v) for v in report]
    return report


def check_job(expected, exit_code, stdout: bytes):
    """None if the job matches its pinned outcome, else a one-line reason."""
    if exit_code != expected["exit"]:
        return f"exit code {exit_code}, expected {expected['exit']}"
    try:
        report = json.loads(stdout.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return f"stdout is not a JSON report: {exc}"
    if invariant_view(report) != expected["report"]:
        return "report differs from the pinned verdicts and tables"
    return None
