"""Command-line entry point: parse a problem file, run checks, emit a report.

Exit codes: 0 all requested checks passed, 1 a check failed, 2 the input
could not be parsed or validated, 3 an internal invariant was violated.
JSON reports are canonical (sorted keys) and contain nothing run-dependent,
so identical inputs produce byte-identical output; wall-clock time is shown
only in text mode.
"""

from __future__ import annotations

import os
import re
import sys
import time
from functools import partial
from types import SimpleNamespace

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


def _verdicts(reports):
    return [_verdict(name, r.ok, r.failures) for name, r in reports]


def _triple_verdicts(t: LieSupActTriple):
    return _verdicts(triple_reports(t.g, t.h, t.rho))


def _read_triple(pf: sio.ProblemFile, *sections):
    """The file's triple and its verdicts; ``sections`` are required once the triple is built."""
    pf.require("g", "h", "action")
    t = LieSupActTriple(pf.g, pf.h, pf.action)
    pf.require(*sections)
    return t, _triple_verdicts(t)


def _crossed_of(pf: sio.ProblemFile, *sections) -> CrossedHom:
    """The file's D, unchecked; ``sections`` are required once it is built."""
    pf.require("g", "h", "action", "crossed")
    D = CrossedHom(LieSupActTriple(pf.g, pf.h, pf.action), pf.crossed)
    pf.require(*sections)
    return D


def _crossed_identity(D: CrossedHom):
    """The ``crossed_identity`` verdict, and D carrying it as ``verified``."""
    rep = check_crossed(D)
    return _verdict("crossed_identity", rep.ok, rep.failures), CrossedHom(D.triple, D.linmap, rep.ok)


def _read_crossed(pf: sio.ProblemFile, *sections):
    """The file's D, carrying its identity check as ``verified``, and the triple verdicts
    followed by ``crossed_identity``, checked whatever the triple verdicts read."""
    D = _crossed_of(pf, *sections)
    verdicts = _triple_verdicts(D.triple)
    identity, D = _crossed_identity(D)
    return D, verdicts + [identity]


def cmd_check_algebra(pf, flags):
    algs = pf.algebras()
    if not algs:
        raise ValidationError("file has no algebra section")
    return {"verdicts": [v for name, alg in algs for v in _verdicts(algebra_reports(name, alg))]}


def cmd_check_triple(pf, flags):
    t, verdicts = _read_triple(pf)
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
    """Stops after failing triple checks: unlike ``_read_crossed``, it checks no identity then."""
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


def cmd_cohomology(read, table, pf, flags):
    """``cohomology`` and ``ch-cohomology``: ``read`` gives the file's problem and its
    verdicts, ``table`` the {n: {parity: dim H^n}} of its complex, each d_n built once."""
    x, verdicts = read(pf)
    if not all(v["ok"] for v in verdicts):
        return {"verdicts": verdicts}
    names = _parity_list(flags)
    dims = table(x, range(1, flags.max_n + 1), tuple(p for _, p in names))
    rows = {str(n): {name: row[p] for name, p in names} for n, row in dims.items()}
    return {"verdicts": verdicts, "cohomology": rows}


def _triple_deformation(t, pf, order):
    pis, rhos, mus = sio.deformation_terms(pf)
    return TripleDeformation.build(t, pis, rhos, mus, order=order)


def _crossed_deformation(D, pf, order):
    return CrossedHomDeformation.build(D, sio.crossed_deformation_terms(pf), order=order)


def cmd_deform(read, build, pf, flags):
    """``deform`` and ``ch-deform``: ``read`` gives the file's problem and its verdicts,
    ``build`` the file's deformation of it, at ``--order`` or else the file's order.

    A report of named blocks (a triple's) lists the witnesses of each
    nonzero block by name, a report of one block (key None) lists its own.
    """
    x, verdicts = read(pf, "deformation")
    if not all(v["ok"] for v in verdicts):
        return {"verdicts": verdicts}
    order = flags.order if flags.order is not None else pf.deformation.order
    series = build(x, pf, order).series()
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
    "cohomology": partial(cmd_cohomology, _read_triple, triple_cohomology_table),
    "ch-cohomology": partial(cmd_cohomology, _read_crossed, ch_cohomology_table),
    "deform": partial(cmd_deform, _read_triple, _triple_deformation),
    "ch-deform": partial(cmd_deform, _read_crossed, _crossed_deformation),
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


# The command line: ``command`` and ``file`` in that order, ``-h``/``--help``,
# and these options, each --name: (dest, int or the tuple of its choices, default).
_OPTIONS = {
    "--max-n": ("max_n", int, 2),
    "--parity": ("parity", ("even", "odd", "both"), "both"),
    "--format": ("fmt", ("text", "json"), "text"),
    "--order": ("order", int, None),
    "--seed": ("seed", int, 0),
}
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")
_USAGE = """\
usage: supercochain COMMAND FILE [--max-n N] [--parity P] [--format F]
                    [--order K] [--seed S]

Exact checks and cohomology for Lie superalgebra triples, crossed
homomorphisms and their deformations, read from the JSON problem FILE.

commands:
  check-algebra    super-skew-symmetry and Jacobi of every algebra in FILE
  check-triple     both algebras, the action and the Maurer-Cartan residual
  check-crossed    the crossed-homomorphism identity, graph criterion, residual
  cohomology       per-parity cohomology of the triple complex, degrees 1..N
  ch-cohomology    the same for the twisted complex of the crossed homomorphism
  deform           order-by-order residuals of the deformation in FILE
  ch-deform        the same for the deformation of the crossed homomorphism

options, anywhere on the line, as --opt VALUE, --opt=VALUE or a unique prefix
of --opt; the last one given wins:
  -h, --help       show this help and exit
  --max-n N        top cohomology degree (default 2)
  --parity P       even, odd or both (default both)
  --format F       text or json (default text)
  --order K        deformation truncation order (default: the file's)
  --seed S         seed recorded in the report (default 0)
"""


def _token_kind(arg):
    """None for a positional token, else (option or None if unknown, its ``=`` value or None).

    A token that starts with ``-`` is an option, unless it is ``-`` itself or
    names no option and is a negative number or holds a space.  ``--name``
    may be any unique prefix of a long option (``--=x`` matches them all and
    is refused), and ``-hX`` is ``-h`` with the value X.
    """
    if arg[:1] != "-" or arg == "-":
        return None
    name, eq, value = arg.partition("=")
    value = value if eq else None
    if arg[1] != "-":
        if arg.startswith("-h"):
            return ("-h", value if name == "-h" else arg[2:])
    else:
        matches = [opt for opt in (*_OPTIONS, "--help") if opt.startswith(name)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option: {arg!r} could match {', '.join(matches)}")
        if matches:
            return (matches[0], value)
    return None if _NEGATIVE_NUMBER.match(arg) or " " in arg else (None, None)


def _converted(name, values, text):
    """``text`` as the value of ``name``: ``int(text)`` if ``values`` is int, else one of ``values``."""
    if values is int:
        try:
            return int(text)
        except ValueError:
            raise UsageError(f"argument {name}: invalid int value: {text!r}") from None
    if text not in values:
        raise UsageError(f"argument {name}: invalid choice: {text!r} (choose from {', '.join(values)})")
    return text


def parse_args(argv):
    """The flags of one command line, None if it asks for the help.

    Reads ``argv`` as argparse did with ``allow_abbrev``: options anywhere,
    ``--opt=value``, unique prefixes, the last repeat wins, ``--`` ends the
    options and a negative number is a value.  A ``--`` given as a value is
    that value.  Raises ``UsageError`` on every line argparse refused.
    """
    kinds = []
    for arg in argv:
        if arg == "--":
            kinds += ["--"] + [None] * (len(argv) - len(kinds) - 1)
            break
        kinds.append(_token_kind(arg))
    flags = {dest: default for dest, _, default in _OPTIONS.values()}
    positionals, unknown, sealed, i = [], [], False, 0
    while i < len(argv):
        arg, kind = argv[i], kinds[i]
        i += 1
        if kind is None:
            if not positionals:
                _converted("command", sorted(_HANDLERS), arg)
            (positionals if len(positionals) < 2 else unknown).append(arg)
        elif kind == "--":
            # left over, as argparse left it, after an option that followed both positionals
            if sealed:
                unknown.append(arg)
        else:
            sealed = len(positionals) == 2
            name, value = kind
            if name is None:
                unknown.append(arg)
            elif name in ("-h", "--help"):
                # -hh...h is -h given again
                if value is None or (name == "-h" and value and not value.strip("h")):
                    return None
                raise UsageError(f"argument -h/--help: ignored explicit argument {value!r}")
            else:
                if value is None:
                    if i == len(argv) or kinds[i] is not None:
                        raise UsageError(f"argument {name}: expected one argument")
                    value, i = argv[i], i + 1
                dest, values, _ = _OPTIONS[name]
                flags[dest] = _converted(name, values, value)
    if len(positionals) < 2:
        missing = ("command", "file")[len(positionals):]
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(map(repr, unknown))}")
    return SimpleNamespace(command=positionals[0], file=positionals[1], **flags)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args is None:
        sys.stdout.write(_USAGE)
        return EXIT_OK
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
    120, the code the interpreter gives a failed final flush.  Usage errors
    and ``--help`` are exit codes :func:`main` returns; any other exception
    out of it leaves by the normal exit.
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
