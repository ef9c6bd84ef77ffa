"""Run one CLI job with spans around the public functions of each module.

    python3 perfbench/traced_job.py TRACE_OUT.json <supercochain arguments>

The program is read from outside only: this file wraps functions after
import, in every ``supercochain`` module that holds a reference to them, and
then calls ``supercochain.cli.main`` exactly as ``python -m supercochain``
does, so stdout and the exit code are those of an untraced run.  Spans,
per-differential facts and cache counters are kept in memory and written to
TRACE_OUT.json when the job ends.  Hot leaves (``koszul_sign``,
``normalize_tuple``, cochain evaluation) are never wrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute) pairs; "Matrix.mul" names a method.
WRAPPED = (
    ("io", "parse"),
    ("io", "report_to_json"),
    ("superalgebra", "check_super_skew"),
    ("superalgebra", "check_jacobi"),
    ("triple", "check_action"),
    ("triple", "mc_residual"),
    ("triple", "triple_coboundary_matrix"),
    ("cochains", "circ"),
    ("cochains", "nr_bracket"),
    ("cochains", "hat_extend"),
    ("cochains", "project_block"),
    ("crossed", "check_crossed"),
    ("crossed", "graph_check"),
    ("crossed", "ch_mc_residual"),
    ("crossed", "d_D_matrix"),
    ("exact_linalg", "rank"),
    ("exact_linalg", "kernel_basis"),
    ("exact_linalg", "cohomology_dims"),
    ("exact_linalg", "Matrix.mul"),
    ("deformation", "triple_deformation_residual"),
    ("deformation", "ch_deformation_residual"),
    ("deformation", "triple_infinitesimal"),
    ("deformation", "ch_infinitesimal"),
)

ASSEMBLERS = {"triple_coboundary_matrix": "triple", "d_D_matrix": "crossed"}


def _nnz(matrix) -> int:
    return sum(1 for e in matrix.entries if e != 0)


class Tracer:
    """Span recorder for one single-threaded job."""

    def __init__(self):
        self.spans = []      # [name, parent, start, end]
        self.stack = []
        self.matrices = []   # one dict per differential built
        self.by_matrix = {}  # id(matrix) -> (matrix, its dict); keeps ids unique
        self.ranks = []

    def span(self, name, fn, after=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(rec, args, kwargs, result)
            return result

        return wrapper

    def on_matrix(self, kind):
        def after(rec, args, kwargs, result):
            parity = kwargs.get("parity", args[2] if len(args) > 2 else None)
            info = {
                "kind": kind, "degree": args[1], "parity": parity,
                "rows": result.rows, "cols": result.cols, "nnz": _nnz(result),
                "seconds": rec[3] - rec[2], "rank": None, "rank_seconds": 0.0,
            }
            self.matrices.append(info)
            self.by_matrix[id(result)] = (result, info)

        return after

    def on_rank(self, rec, args, kwargs, result):
        m = args[0]
        known = self.by_matrix.get(id(m))
        nnz = known[1]["nnz"] if known else _nnz(m)
        self.ranks.append({"rows": m.rows, "cols": m.cols, "nnz": nnz})
        if known:
            known[1]["rank"] = result
            known[1]["rank_seconds"] += rec[3] - rec[2]


def install(tracer: Tracer):
    """Wrap every function in WRAPPED wherever a supercochain module holds it."""
    importlib.import_module("supercochain.cli")
    modules = [m for n, m in sorted(sys.modules.items()) if n == "supercochain" or n.startswith("supercochain.")]
    for mod_name, attr in WRAPPED:
        mod = importlib.import_module(f"supercochain.{mod_name}")
        name = f"{mod_name}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            if cls is not None and hasattr(cls, meth):
                setattr(cls, meth, tracer.span(name, getattr(cls, meth)))
            continue
        original = getattr(mod, attr, None)
        if original is None:
            continue
        after = None
        if attr in ASSEMBLERS:
            after = tracer.on_matrix(ASSEMBLERS[attr])
        elif attr == "rank":
            after = tracer.on_rank
        wrapped = tracer.span(name, original, after)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)


def cache_counters():
    from supercochain import graded

    out = {}
    for key, value in sorted(vars(graded).items()):
        info = getattr(value, "cache_info", None)
        if callable(info):
            ci = info()
            out[key] = [ci.hits, ci.misses, ci.currsize]
    return out


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from supercochain import cli

    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        record = {
            "spans": tracer.spans,
            "matrices": tracer.matrices,
            "ranks": tracer.ranks,
            "caches": cache_counters(),
        }
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
