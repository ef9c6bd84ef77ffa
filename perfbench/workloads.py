"""Workload job lists.  Each job is one fresh ``python -m supercochain`` process.

Inputs are named by the file ``inputs.write_inputs`` produces: a shipped
fixture (``fixtures/<name>.json``) or one of ``inputs.generated_inputs()``.
"""

from __future__ import annotations

FIXTURES_WITH_ACTION = ("abelian_mixed", "aff11_adjoint", "crossed_bad", "mixed21", "solvable2")
FIXTURES_WITH_DEFORMATION = ("abelian_mixed", "aff11_adjoint", "solvable2")

WORKLOADS = {
    # Differential assembly (cochains through triple_coboundary_matrix) and
    # exact rank with the d.d check: every d_{n-1} is built twice.
    "cohomology": [
        ("cohomology", "mixed21", ("--max-n", "3")),
        ("cohomology", "gl11_defining", ("--max-n", "3")),
        ("cohomology", "gl11_adjoint", ("--max-n", "2")),
    ],
    # Hat-extension through wedge^{n+1}(g+h) grows while the twisted
    # differentials stay at most 32x24: nearly all cochains/crossed, rank flat.
    "crossed": [
        ("ch-cohomology", "gl11_adjoint", ("--max-n", "3")),
        ("ch-cohomology", "mixed21", ("--max-n", "5")),
        ("ch-cohomology", "aff11_adjoint", ("--max-n", "6")),
        ("ch-deform", "gl21_adjoint", ()),
    ],
    # No differential is built and nothing is ranked: axiom checks, MC
    # residuals, the graph criterion and deformation residuals.  check-algebra
    # runs only on gl11: on the other fixtures check-triple and check-crossed
    # run the same algebra checks, and two passes must fit in one run.
    "checks": [
        ("check-triple", "gl21_adjoint", ()),
        ("check-crossed", "gl21_adjoint", ()),
        ("deform", "gl21_adjoint", ()),
        ("check-algebra", "gl11", ()),
    ]
    + [("check-triple", name, ()) for name in FIXTURES_WITH_ACTION]
    + [("check-crossed", name, ()) for name in FIXTURES_WITH_ACTION]
    + [("deform", name, ()) for name in FIXTURES_WITH_DEFORMATION],
}


def job_id(job) -> str:
    command, name, flags = job
    return " ".join((command, name) + tuple(flags))


def input_names(jobs):
    return sorted({name for _, name, _ in jobs})
