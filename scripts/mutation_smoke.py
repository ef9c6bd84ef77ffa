#!/usr/bin/env python3
"""Mutation smoke test: every mutation in the table must fail its tests.

    python scripts/mutation_smoke.py

Copies ``src/`` and ``tests/``, with ``fixtures/`` and ``perfbench/`` (which
the tests read), into a temporary directory and first runs every selection
below on the unmutated copy, which must pass.  Then, one mutation at a time,
it replaces the anchor text in the copy, runs ``python -m pytest -q -x
<selection>`` against the copy, and restores the file.  Each mutation is reported as

    killed          pytest reported failing tests;
    SURVIVED        pytest passed, so no test sees the change;
    anchor-missing  the anchor does not occur exactly once in the file;
    error (exit N)  pytest stopped for another reason (bad selection, ...).

Exits 1 unless every mutation is killed.  One pytest process runs at a time
and no bytecode is written into the copy.  Standard library only.

    python scripts/mutation_smoke.py --selection tests/test_classical.py

runs every mutation against the given selection instead of its own, to see
which mutations one group of tests kills on its own.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "fixtures", "perfbench")
RUN_TIMEOUT_S = 900
PYTEST_TESTS_FAILED = 1

# (file under src/supercochain, anchor, replacement, pytest selection)
MUTATIONS = (
    (
        "cochains.py",
        "outer = -1 if nP * (len(K) - 1) % 2 == 0 else 1",
        "outer = 1 if nP * (len(K) - 1) % 2 == 0 else -1",
        ("tests/test_assembly.py",),
    ),
    (
        "cochains.py",
        "c = -c if u and hpar else c",
        "c = c",
        ("tests/test_assembly.py",),
    ),
    (
        "cochains.py",
        "flip = sum(pars[j] for j in head) % 2",
        "flip = 0",
        ("tests/test_cochains.py::test_nr_bracket_matches_shuffle_reference",),
    ),
    (
        "cochains.py",
        "yield w, X, T, -c if u and f else c",
        "yield w, X, T, c",
        ("tests/test_cochains.py::test_nr_bracket_matches_shuffle_reference",),
    ),
    (
        "cochains.py",
        "m *= comb(X.count(e), c)",
        "m *= X.count(e)",
        ("tests/test_cochains.py::test_circ_matches_shuffle_reference", "tests/test_classical.py"),
    ),
    (
        "cochains.py",
        "out[key] = {pos[k]: sign * x for k, x in row.items()}",
        "out[key] = {pos[k]: x for k, x in row.items()}",
        ("tests/test_cochains.py::test_block_maps_match_references",),
    ),
    (
        "cochains.py",
        "if block_key(ds, gk, hk)[1] < 0:",
        "if block_key(ds, gk, hk)[1] > 1:",
        ("tests/test_cochains.py::test_block_maps_match_references",),
    ),
    (
        "triple.py",
        "P = left0 if self.delta.is_zero() else self.delta.add(left0)",
        "P = left0 if self.delta.is_zero() else self.delta.add(left0.scale(-1))",
        ("tests/test_assembly.py",),
    ),
    (
        "crossed.py",
        "maps.append(LinearMap._from_ints((A.space, A.space), block.den, cols))",
        "maps.append(LinearMap._from_ints((A.space, A.space), block.den, "
        "{k: {j: c[k] for j, c in cols.items() if k in c} for k in range(A.dim)}))",
        ("tests/test_structure_element.py::test_derivation_space_matches_reference",),
    ),
    # the one decoder of C^n reads each unit back through its block_key sign
    (
        "triple.py",
        "ints.setdefault(key, {})[t] = sign * x",
        "ints.setdefault(key, {})[t] = x",
        ("tests/test_assembly.py::test_element_decodes_kernel_vectors_into_cocycles",),
    ),
    (
        "cochains.py",
        "(i, n - i, 1 if 2 * i == n else 2)",
        "(i, n - i, 1)",
        ("tests/test_rescaled.py::test_rescaled_crossed_deformation_is_checked_at_every_order",),
    ),
    (
        "deformation.py",
        "_EQUATION_FACTORS = (1, Fraction(-1, 2), Fraction(1, 2), 1)",
        "_EQUATION_FACTORS = (1, Fraction(1, 2), Fraction(1, 2), 1)",
        ("tests/test_sparse_checks.py::test_gl21_perturbed_once_matches_dense",),
    ),
    # the one Maurer-Cartan series: the weight 1/2 of b and the delta term
    (
        "triple.py",
        "(Fraction(w, 2), lefts[i], hats[j])",
        "(w, lefts[i], hats[j])",
        ("tests/test_sparse_checks.py::test_crossed_residual_matches_dense",),
    ),
    (
        "triple.py",
        "summands = [(1, self.delta, hats[n])]",
        "summands = []",
        ("tests/test_sparse_checks.py::test_crossed_residual_matches_dense",),
    ),
    # denominators: each int kernel divides by exactly the denominators its terms carry
    (
        "superalgebra.py",
        "lhs, rhs, A.dim, den * den)",
        "lhs, rhs, A.dim, den)",
        ("tests/test_rescaled.py::test_rescaled_gl21_matches_references",),
    ),
    (
        "crossed.py",
        "(m_cubic, bilinear(H, Di, Dj))",
        "(1, bilinear(H, Di, Dj))",
        ("tests/test_rescaled.py::test_rescaled_crossed_checks_match_references",),
    ),
    (
        "cochains.py",
        "c.denominator * P.den * U.den, P.bracket_support(), U.ints, full))",
        "c.denominator * P.den, P.bracket_support(), U.ints, full))",
        ("tests/test_rescaled.py::test_rescaled_products_match_shuffle_references",),
    ),
    (
        "triple.py",
        "contract_rows(lhs, G[i], rrows, dr)",
        "contract_rows(lhs, G[i], rrows, 1)",
        ("tests/test_rescaled.py::test_rescaled_triple_checks_match_references",),
    ),
    (
        "crossed.py",
        "if lincomb((dg, got)) != lincomb((s * dd, want)):",
        "if lincomb((dg, got)) != lincomb((s, want)):",
        ("tests/test_rescaled.py::test_rescaled_crossed_checks_match_references",),
    ),
    (
        "superalgebra.py",
        "return dense(self._image(x[0]), self.target.dim, self.den * d)",
        "return dense(self._image(x[0]), self.target.dim, self.den)",
        ("tests/test_rescaled.py::test_rescaled_map_operations_match_references",),
    ),
    (
        "superalgebra.py",
        "        return self.source.parities[j]",
        "        return self.target.parities[j]",
        ("tests/test_crossed.py",),
    ),
    (
        "triple.py",
        "LinearMap._from_ints((self.h_space, self.h_space), self.den, dict(enumerate(self.ints[i])))",
        "LinearMap._from_ints((self.h_space, self.h_space), 1, dict(enumerate(self.ints[i])))",
        ("tests/test_rescaled.py::test_rescaled_triple_checks_match_references",),
    ),
    # signs and slots of the trilinear contractions
    (
        "superalgebra.py",
        "cols, pars, (1, -1 if pars[i] else 1))",
        "cols, pars, (1, 1))",
        ("tests/test_classical.py",),
    ),
    (
        "triple.py",
        "hcols, hpar, (1, -1 if gpar[i] else 1))",
        "hcols, hpar, (1, 1))",
        ("tests/test_classical.py",),
    ),
    (
        "triple.py",
        "(-dg, dg if gpar[i] else -dg)",
        "(-dg, -dg)",
        ("tests/test_classical.py",),
    ),
    (
        "util.py",
        "addmul(acc.setdefault((p, q), {}), v, signs[pars[p]] * x)",
        "addmul(acc.setdefault((q, p), {}), v, signs[pars[p]] * x)",
        ("tests/test_sparse_checks.py::test_non_super_skew_checks_match_dense",),
    ),
    (
        "util.py",
        "cols[q].append((p, vec))",
        "cols[p].append((q, vec))",
        ("tests/test_sparse_checks.py::test_non_super_skew_checks_match_dense",),
    ),
    (
        "exact_linalg.py",
        "new[k] = -b * v",
        "new[k] = b * v",
        ("tests/test_exact_linalg.py::test_rank_and_kernel_with_fill_in",),
    ),
    # clearing: d_n is ranked without the pivot rows of d_(n-1) of its own parity, and
    # a tall matrix is ranked on its columns without the cleared ones
    (
        "exact_linalg.py",
        "prev, prev_rank, cleared = d, r, [row for row, _ in pivots]",
        "prev, prev_rank, cleared = d, r, [col for _, col in pivots]",
        ("tests/test_assembly.py::test_cleared_ranks_match_uncleared_rank",),
    ),
    (
        "exact_linalg.py",
        "prev, prev_rank, cleared = None, 0, ()",
        "prev, prev_rank, cleared = None, 0, cleared if parity else ()",
        ("tests/test_assembly.py::test_cleared_ranks_match_uncleared_rank",),
    ),
    (
        "exact_linalg.py",
        "if c not in cleared:",
        "if r not in cleared:",
        ("tests/test_exact_linalg.py::test_cleared_rank_of_a_random_complex_matches_dense_rank",),
    ),
    # the int storage of Matrix: one denominator per product
    (
        "exact_linalg.py",
        "self.den * other.den, out)",
        "self.den, out)",
        ("tests/test_exact_linalg.py",),
    ),
    # the one canonical form of Matrix, cochains and structure tables, and the
    # super-skew half of the SuperAlgebra table
    (
        "util.py",
        "g = gcd(g, *row.values())",
        "g = 1",
        ("tests/test_exact_linalg.py", "tests/test_cochain_storage.py"),
    ),
    (
        "superalgebra.py",
        "T[j][i] = vec if pars[i] and pars[j] else {k: -v for k, v in vec.items()}",
        "T[j][i] = {k: -v for k, v in vec.items()} if pars[i] and pars[j] else vec",
        ("tests/test_superalgebra.py",),
    ),
    # a self-bracket of P of bidegree (n, f) is (1 - (-1)^(n + f)) P o P: its factor
    # 2, which every Maurer-Cartan residual reads, and its zero branch
    (
        "cochains.py",
        "c, full = 2 * c, False",
        "c, full = c, False",
        ("tests/test_self_bracket.py::test_perturbed_self_bracket_readings",),
    ),
    (
        "cochains.py",
        "if (P.arity - 1 + P.parity()) % 2 == 0:",
        "if False:",
        ("tests/test_cochains.py::test_self_bracket_is_one_insertion_product",),
    ),
    (
        "util.py",
        "return self._fields == other._fields",
        "return getattr(self, self.__slots__[0]) == getattr(other, other.__slots__[0])",
        ("tests/test_value_classes.py",),
    ),
    # Koszul signs: the inversion count of normalize_tuple and the merge of
    # two sorted keys in shuffle, and the pieces the bracket terms join
    (
        "graded.py",
        "if i < n_even and b[i] == x:",
        "if False:",
        ("tests/test_graded.py",),
    ),
    (
        "graded.py",
        "flips = (len(a) - m) * n_even",
        "flips = sum(bisect_left(b, x) for x in a[m:])",
        ("tests/test_graded.py",),
    ),
    (
        "graded.py",
        "elif i < len(b) and b[i] == x:",
        "elif False:",
        ("tests/test_graded.py",),
    ),
    (
        "graded.py",
        "flips = bisect_left(b, even_dim, 0, i)",
        "flips = i",
        ("tests/test_graded.py",),
    ),
    (
        "graded.py",
        "if y <= x and y < even_dim:",
        "if y <= x and y <= even_dim:",
        ("tests/test_graded.py",),
    ),
    (
        "cochains.py",
        "return shuffle(g_slots, tuple(map(ds.right_pos.__getitem__, hk)),",
        "return shuffle(tuple(map(ds.right_pos.__getitem__, hk)), g_slots,",
        ("tests/test_graded.py",),
    ),
    (
        "cochains.py",
        "X, s = shuffle(H, K, p)",
        "X, s = shuffle(K, H, p)",
        ("tests/test_cochains.py::test_circ_matches_shuffle_reference",),
    ),
    # the bracket support a cochain keeps: built once per left operand, not once per use
    (
        "cochains.py",
        "        if self._support is None:",
        "        if True:",
        ("tests/test_exact_linalg.py::test_cohomology_tables_build_each_support_once",),
    ),
    # one list of triple checks, read by check(), semidirect and the CLI; and the
    # infinitesimal cocycle test asserted against the residual at its order
    (
        "triple.py",
        'algebra_reports("h", h) + [("action", check_action(g, h, rho))]',
        'algebra_reports("h", h)',
        ("tests/test_triple.py::test_check_lists_the_failures_of_triple_reports_in_order",),
    ),
    (
        "deformation.py",
        "if is_cocycle != problem.is_zero(reports[k]):",
        "if False:",
        ("tests/test_cli.py::test_infinitesimal_that_disagrees_with_its_residual_is_exit_3",),
    ),
    # the process entry: output is flushed before the hard exit
    (
        "cli.py",
        "        sys.stdout.flush()",
        "        pass",
        ("tests/test_cli.py::test_module_entry_point_subprocess",),
    ),
    (
        "cli.py",
        "        code = EXIT_LOST_OUTPUT",
        "        code = EXIT_CHECK_FAILED",
        ("tests/test_cli.py::test_module_entry_point_on_a_closed_pipe_reports_without_traceback",),
    ),
)


def pytest_exit(tmp: Path, selection, env) -> int:
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection]
    done = subprocess.run(
        cmd, cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=RUN_TIMEOUT_S,
    )
    return done.returncode


def mutate_and_run(tmp: Path, mutation, env) -> str:
    name, anchor, replacement, selection = mutation
    path = tmp / "src" / "supercochain" / name
    original = path.read_text(encoding="utf-8")
    if original.count(anchor) != 1:
        return "anchor-missing"
    path.write_text(original.replace(anchor, replacement), encoding="utf-8")
    try:
        code = pytest_exit(tmp, selection, env)
    finally:
        path.write_text(original, encoding="utf-8")
    if code == 0:
        return "SURVIVED"
    return "killed" if code == PYTEST_TESTS_FAILED else f"error (exit {code})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--selection", action="append", help="pytest selection to run for every mutation"
    )
    opts = parser.parse_args(argv)
    mutations = MUTATIONS
    if opts.selection:
        mutations = tuple((*m[:3], tuple(opts.selection)) for m in MUTATIONS)
    with tempfile.TemporaryDirectory(prefix="mutation_smoke_") as tmpdir:
        tmp = Path(tmpdir)
        for name in COPIED:
            shutil.copytree(
                ROOT / name, tmp / name,
                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache"),
            )
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        selections = sorted({s for m in mutations for s in m[3]})
        code = pytest_exit(tmp, selections, env)
        if code != 0:
            print(f"unmutated copy fails its selections (pytest exit {code}); nothing to test")
            return 1
        bad = 0
        for mutation in mutations:
            outcome = mutate_and_run(tmp, mutation, env)
            bad += outcome != "killed"
            print(f"{outcome:15} {mutation[0]}: {mutation[1]!r} -> {mutation[2]!r}", flush=True)
    print(f"{len(mutations) - bad} of {len(mutations)} mutations killed")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
