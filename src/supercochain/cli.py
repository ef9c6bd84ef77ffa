"""Command-line entry point: parse a problem file, run checks, emit a report.

Exit codes: 0 all requested checks passed, 1 a check failed, 2 the input
could not be parsed or validated, 3 an internal invariant was violated.
JSON reports are canonical (sorted keys) and contain nothing run-dependent,
so identical inputs produce byte-identical output; wall-clock time is shown
only in text mode.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import partial

from . import io as sio
from .crossed import CrossedHom, ch_cohomology_table, ch_mc_residual, check_crossed, graph_check
from .deformation import CrossedHomDeformation, TripleDeformation
from .errors import InternalInvariantError, SupercochainError, UsageError, ValidationError
from .exact_linalg import format_scalar
from .superalgebra import algebra_reports
from .triple import LieSupActTriple, mc_residual, triple_cohomology_table, triple_reports

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3
EXIT_LOST_OUTPUT = 120


def _failures_to_list(failures, limit=25):
    out = []
    for f in failures[:limit]:
        out.append(f.to_dict(format_scalar))
    if len(failures) > limit:
        out.append({"omitted": len(failures) - limit})
    return out


def _verdict(name, ok, failures=()):
    v = {"name": name, "ok": bool(ok)}
    if failures:
        v["failures"] = _failures_to_list(list(failures))
    return v


def _block_witnesses(block, limit=10):
    gs, hs = block.g_space, block.h_space
    tspace = block.target_space
    out = []
    coeffs = block.coeffs
    for (gk, hk) in sorted(coeffs):
        vec = coeffs[(gk, hk)]
        out.append(
            {
                "g_slots": [gs.labels[i] for i in gk],
                "h_slots": [hs.labels[j] for j in hk],
                "value": {
                    tspace.labels[k]: format_scalar(x) for k, x in enumerate(vec) if x != 0
                },
            }
        )
        if len(out) >= limit:
            break
    return out


def _triple_of(pf: sio.ProblemFile) -> LieSupActTriple:
    pf.require("g", "h", "action")
    return LieSupActTriple(pf.g, pf.h, pf.action)


def _verdicts(reports):
    return [_verdict(name, r.ok, r.failures) for name, r in reports]


def _triple_verdicts(t: LieSupActTriple):
    return _verdicts(triple_reports(t.g, t.h, t.rho))


def _crossed_of(pf: sio.ProblemFile) -> CrossedHom:
    pf.require("g", "h", "action", "crossed")
    return CrossedHom(_triple_of(pf), pf.crossed)


def _crossed_identity(D: CrossedHom):
    """The ``crossed_identity`` verdict, and D carrying it as ``verified``."""
    rep = check_crossed(D)
    return _verdict("crossed_identity", rep.ok, rep.failures), CrossedHom(D.triple, D.linmap, rep.ok)


def cmd_check_algebra(pf, flags):
    algs = pf.algebras()
    if not algs:
        raise ValidationError("file has no algebra section")
    return {"verdicts": [v for name, alg in algs for v in _verdicts(algebra_reports(name, alg))]}


def cmd_check_triple(pf, flags):
    t = _triple_of(pf)
    verdicts = _triple_verdicts(t)
    res = mc_residual(t.g, t.h, t.rho)
    axioms_ok = all(v["ok"] for v in verdicts)
    # The residual reads the tables through wedge keys, which hold no [x, x]
    # for an even x, so it agrees with the axioms only on super-skew tables.
    skew_ok = all(v["ok"] for v in verdicts if v["name"].endswith(".super_skew"))
    for name, comp in res.components().items():
        v = {"name": f"mc_residual.{name}", "ok": comp.is_zero()}
        if not comp.is_zero():
            v["witnesses"] = _block_witnesses(comp)
        verdicts.append(v)
    if skew_ok and axioms_ok != res.is_zero:
        raise InternalInvariantError("axiom checks disagree with the Maurer-Cartan residual")
    return {"verdicts": verdicts}


def cmd_check_crossed(pf, flags):
    D = _crossed_of(pf)
    verdicts = _triple_verdicts(D.triple)
    if not all(v["ok"] for v in verdicts):
        return {"verdicts": verdicts}
    identity, D = _crossed_identity(D)
    verdicts.append(identity)
    graph_ok = graph_check(D)
    verdicts.append(_verdict("graph_in_semidirect", graph_ok))
    residual = ch_mc_residual(D)
    v = {"name": "mc_residual", "ok": residual.is_zero()}
    if not residual.is_zero():
        v["witnesses"] = _block_witnesses(residual)
    verdicts.append(v)
    if not (D.verified == graph_ok == residual.is_zero()):
        raise InternalInvariantError("crossed homomorphism characterizations disagree")
    return {"verdicts": verdicts}


def _parity_list(flags):
    if flags.parity == "even":
        return (("even", 0),)
    if flags.parity == "odd":
        return (("odd", 1),)
    return (("even", 0), ("odd", 1))


def _cohomology_rows(table_of, flags):
    """Report rows {"n": {parity name: dim}}; ``table_of`` builds each d_n once."""
    names = _parity_list(flags)
    table = table_of(range(1, flags.max_n + 1), tuple(p for _, p in names))
    return {str(n): {name: row[p] for name, p in names} for n, row in table.items()}


def cmd_cohomology(pf, flags):
    t = _triple_of(pf)
    verdicts = _triple_verdicts(t)
    if not all(v["ok"] for v in verdicts):
        return {"verdicts": verdicts}
    rows = _cohomology_rows(partial(triple_cohomology_table, t), flags)
    return {"verdicts": verdicts, "cohomology": rows}


def cmd_ch_cohomology(pf, flags):
    D = _crossed_of(pf)
    verdicts = _triple_verdicts(D.triple)
    identity, D = _crossed_identity(D)
    verdicts.append(identity)
    if not all(v["ok"] for v in verdicts):
        return {"verdicts": verdicts}
    rows = _cohomology_rows(partial(ch_cohomology_table, D), flags)
    return {"verdicts": verdicts, "cohomology": rows}


def _deformation_order(pf, flags):
    return flags.order if flags.order is not None else pf.deformation.order


def _triple_deformation(pf, flags):
    """The triple verdicts, and the file's triple deformation if they all pass (else None)."""
    t = _triple_of(pf)
    pf.require("deformation")
    verdicts = _triple_verdicts(t)
    if not all(v["ok"] for v in verdicts):
        return verdicts, None
    pis, rhos, mus = sio.deformation_terms(pf)
    return verdicts, TripleDeformation.build(t, pis, rhos, mus, order=_deformation_order(pf, flags))


def _crossed_deformation(pf, flags):
    """The triple and crossed-identity verdicts, and the file's deformation of D if they all pass."""
    D = _crossed_of(pf)
    pf.require("deformation")
    verdicts = _triple_verdicts(D.triple)
    identity, D = _crossed_identity(D)
    verdicts.append(identity)
    if not all(v["ok"] for v in verdicts):
        return verdicts, None
    terms = sio.crossed_deformation_terms(pf)
    return verdicts, CrossedHomDeformation.build(D, terms, order=_deformation_order(pf, flags))


def cmd_deform(read, pf, flags):
    """``deform`` and ``ch-deform``: ``read`` gives the verdicts and the deformation of the file.

    A report of named blocks (a triple's) lists the witnesses of each
    nonzero block by name, a report of one block (key None) lists its own.
    """
    verdicts, d = read(pf, flags)
    if d is None:
        return {"verdicts": verdicts}
    series = d.series()
    reports = series.residuals()
    residuals = []
    for n, r in enumerate(reports):
        parts = series.problem.parts(r)
        witnesses = {name: _block_witnesses(b) for name, b in parts.items() if not b.is_zero()}
        entry = {"order": n, "ok": not witnesses}
        if witnesses:
            entry["witnesses"] = witnesses[None] if None in witnesses else witnesses
        residuals.append(entry)
        verdicts.append({"name": f"residual.order{n}", "ok": entry["ok"]})
    inf = series.infinitesimal(reports)
    return {
        "verdicts": verdicts,
        "residuals": residuals,
        "infinitesimal": {"order": inf.order, "is_cocycle": inf.is_cocycle},
    }


_HANDLERS = {
    "check-algebra": cmd_check_algebra,
    "check-triple": cmd_check_triple,
    "check-crossed": cmd_check_crossed,
    "cohomology": cmd_cohomology,
    "ch-cohomology": cmd_ch_cohomology,
    "deform": partial(cmd_deform, _triple_deformation),
    "ch-deform": partial(cmd_deform, _crossed_deformation),
}


def run(command: str, path: str, flags) -> dict:
    """Execute one command against one file; returns the report dictionary."""
    pf = sio.parse(path)
    body = _HANDLERS[command](pf, flags)
    ok = all(v["ok"] for v in body.get("verdicts", ()))
    report = {
        "command": command,
        "file": str(path),
        "parameters": {
            "max_n": flags.max_n,
            "parity": flags.parity,
            "order": flags.order,
            "seed": flags.seed,
        },
        "ok": ok,
    }
    report.update(body)
    return report


def _format_text(report: dict, elapsed_ms: float) -> str:
    lines = [f"{report['command']}  {report['file']}"]
    for v in report.get("verdicts", ()):
        mark = "ok" if v["ok"] else "FAIL"
        lines.append(f"  [{mark:4}] {v['name']}")
        for f in v.get("failures", [])[:5]:
            if "omitted" in f:
                lines.append(f"         ... {f['omitted']} more")
            else:
                lines.append(f"         at ({', '.join(f['where'])}): lhs={f['lhs']} rhs={f['rhs']}")
        for w in v.get("witnesses", [])[:5]:
            slots = ", ".join(w["g_slots"] + w["h_slots"])
            lines.append(f"         at ({slots}): {w['value']}")
    if report.get("cohomology"):
        lines.append("  n    " + "  ".join(k for k in next(iter(report["cohomology"].values()))))
        for n in sorted(report["cohomology"], key=int):
            row = report["cohomology"][n]
            lines.append("  " + str(n).ljust(4) + "  ".join(str(row[k]) for k in row))
    if "residuals" in report:
        for entry in report["residuals"]:
            mark = "ok" if entry["ok"] else "FAIL"
            lines.append(f"  residual order {entry['order']}: {mark}")
    if "infinitesimal" in report:
        info = report["infinitesimal"]
        if info["order"] is None:
            lines.append("  infinitesimal: none (constant deformation)")
        else:
            lines.append(
                f"  infinitesimal at order {info['order']}: "
                f"{'cocycle' if info['is_cocycle'] else 'NOT a cocycle'}"
            )
    lines.append(f"  result: {'PASS' if report['ok'] else 'FAIL'}  ({elapsed_ms:.1f} ms)")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="supercochain",
        description="Exact checks and cohomology for Lie superalgebra triples, "
        "crossed homomorphisms and their deformations.",
    )
    parser.add_argument("command", choices=sorted(_HANDLERS))
    parser.add_argument("file", help="JSON problem file")
    parser.add_argument("--max-n", type=int, default=2, dest="max_n", help="top cohomology degree")
    parser.add_argument("--parity", choices=("even", "odd", "both"), default="both")
    parser.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")
    parser.add_argument("--order", type=int, default=None, help="deformation truncation order")
    parser.add_argument("--seed", type=int, default=0, help="seed recorded in the report")
    args = parser.parse_args(argv)
    if args.max_n < 1:
        print("error: --max-n must be >= 1", file=sys.stderr)
        return EXIT_BAD_INPUT

    start = time.perf_counter()
    try:
        report = run(args.command, args.file, args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except SupercochainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    elapsed_ms = (time.perf_counter() - start) * 1000.0

    if args.fmt == "json":
        sys.stdout.write(sio.report_to_json(report))
    else:
        sys.stdout.write(_format_text(report, elapsed_ms))
    return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED


def console_main():
    """Process entry of ``python -m supercochain`` and the ``supercochain`` script.

    Runs :func:`main`, flushes stdout and stderr and ends the process with
    ``os._exit``: once a job's output is flushed, the interpreter's teardown
    (freeing every module and object, the final collections) only costs time.
    If the output cannot be written (a closed pipe), the job ends the same
    way whether the write inside :func:`main` failed (unbuffered stdout) or
    the flush here did: one line naming the error on stderr and exit code
    120, the code the interpreter gives a failed final flush.  Any other
    exception out of :func:`main`, argparse's ``SystemExit`` among them,
    leaves by the normal exit.
    """
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:  # main() reads its input through io, which turns OSError into UsageError
        try:
            sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
            sys.stderr.flush()
        except OSError:
            pass
        code = EXIT_LOST_OUTPUT
    os._exit(code)


if __name__ == "__main__":
    raise SystemExit(console_main())
