"""The direct differential assembly against the per-unit reference path.

``triple_coboundary_matrix`` and ``d_D_matrix`` expand [P, U] over the support
of the structure constants; ``oracles`` builds the same matrices one column at
a time through ``nr_bracket`` and the hat projection.  They must agree entry
for entry, including the sign and scale of every row and column.  (The raw
table oracles ``triple_oracle_matrix``/``ch_oracle_matrix`` use rescaled bases
and are compared by rank only.)
"""

import pytest

from conftest import FIXTURES
from supercochain import exact_linalg
from supercochain import io as sio
from supercochain.crossed import ChComplex, CrossedHom, ch_cohomology_table, check_crossed, d_D_matrix
from supercochain.exact_linalg import Matrix, kernel_basis, rank
from supercochain.superalgebra import gl
from supercochain.triple import LieSupActTriple, triple_coboundary_matrix, triple_cohomology_table
from supercochain.triple import triple_complex

import oracles
from helpers import adjoint_triple, ch_units, defining_triple, identity_map, matrix_entry, matrix_from_rows
from helpers import triple_units, zero_matrix

TRIPLE_MAX_N = 3
CROSSED_MAX_N = 4


def _fixture_cases():
    triples, crossed = {}, {}
    for path in sorted(FIXTURES.glob("*.json")):
        pf = sio.parse(path)
        if pf.action is None:
            continue
        t = LieSupActTriple(pf.g, pf.h, pf.action)
        triples[path.stem] = t
        if pf.crossed is not None and check_crossed(CrossedHom(t, pf.crossed)).ok:
            crossed[path.stem] = CrossedHom(t, pf.crossed, True)
    adj = adjoint_triple(gl(1, 1))
    triples["gl11_adjoint"] = adj
    triples["gl11_defining"] = defining_triple(1, 1)
    crossed["gl11_adjoint_minus_id"] = CrossedHom(adj, identity_map(adj.g.space).scale(-1))
    return triples, crossed


TRIPLES, CROSSED = _fixture_cases()
CASES = [("triple", name, n) for name in TRIPLES for n in range(1, TRIPLE_MAX_N + 1)] + [
    ("crossed", name, n) for name in CROSSED for n in range(1, CROSSED_MAX_N + 1)
]


def _restrict(m: Matrix, row_parities, col_parities, parity):
    """The parity-``parity`` block of a matrix over both parities."""
    rows = [r for r, p in enumerate(row_parities) if p == parity]
    cols = [c for c, p in enumerate(col_parities) if p == parity]
    if not rows:
        return zero_matrix(0, len(cols))
    return matrix_from_rows([[matrix_entry(m, r, c) for c in cols] for r in rows])


@pytest.mark.parametrize("kind,name,n", CASES, ids=[f"{k}-{nm}-d{n}" for k, nm, n in CASES])
def test_assembly_matches_per_unit_reference(kind, name, n):
    if kind == "triple":
        data = t = TRIPLES[name]
        build, reference = triple_coboundary_matrix, oracles.triple_reference_matrix
        units = triple_units
    else:
        data = CROSSED[name]
        t = data.triple
        build, reference, units = d_D_matrix, oracles.ch_reference_matrix, ch_units

    def parities(m):
        return [u[-1] for u in units(t.g.space, t.h.space, m)]

    # Each reference column is computed on its own unit, so the parity blocks
    # of the reference over both parities are the per-parity references.
    ref = reference(data, n, None)
    assert build(data, n, None) == ref
    for parity in (0, 1):
        assert build(data, n, parity) == _restrict(ref, parities(n + 1), parities(n), parity)


COMPLEXES = [("triple", name) for name in TRIPLES] + [("crossed", name) for name in CROSSED]


@pytest.mark.parametrize("kind,name", COMPLEXES, ids=[f"{k}-{nm}" for k, nm in COMPLEXES])
def test_assembly_matches_per_unit_expansion(kind, name):
    # bracket_matrix expands the columns of one key together; the per-unit expansion
    # redoes every shuffle for each column, so each shared term must come out the same
    if kind == "triple":
        cx = triple_complex(TRIPLES[name])
    else:
        D = CROSSED[name]
        cx = ChComplex(D.triple).twisted(D.as_block())
    for n in (1, 2, 3):
        for parity in (0, 1):
            cols, rows = cx.units(n, parity), cx.units(n + 1, parity)
            assert cx.matrix(n, parity) == oracles.per_unit_matrix(cx.P, cols, rows)


@pytest.mark.parametrize("kind,name,n", CASES, ids=[f"{k}-{nm}-d{n}" for k, nm, n in CASES])
def test_rank_and_kernel_match_dense_reference(kind, name, n):
    for parity in (0, 1):
        if kind == "triple":
            m = triple_coboundary_matrix(TRIPLES[name], n, parity)
        else:
            m = d_D_matrix(CROSSED[name], n, parity)
        assert rank(m) == oracles.dense_rank(m)
        assert kernel_basis(m) == oracles.dense_kernel_basis(m)


GL21 = adjoint_triple(gl(2, 1))
CLEARED = {
    **{("triple", name): t for name, t in TRIPLES.items()},
    **{("crossed", name): D for name, D in CROSSED.items()},
    ("triple", "gl21_adjoint"): GL21,
    ("crossed", "gl21_adjoint_minus_id"): CrossedHom(GL21, identity_map(GL21.g.space).scale(-1)),
}


@pytest.mark.parametrize("kind,name", sorted(CLEARED), ids=[f"{k}-{nm}" for k, nm in sorted(CLEARED)])
def test_cleared_ranks_match_uncleared_rank(monkeypatch, kind, name):
    # cohomology_table ranks d_n without the pivot rows of d_(n-1), on its rows or on its
    # columns; each rank must be the one of the whole d_n
    ranked = []
    real = exact_linalg.rank

    def recorded(m, cleared=(), pivots=None):
        r = real(m, cleared, pivots)
        ranked.append((m, len(cleared), r))
        return r

    monkeypatch.setattr(exact_linalg, "rank", recorded)
    table = triple_cohomology_table if kind == "triple" else ch_cohomology_table
    table(CLEARED[kind, name], range(1, 4))
    assert len(ranked) == 6
    for m, _, r in ranked:
        assert r == oracles.uncleared_rank(m)
    # per parity: d_1 uncleared, then one cleared column per pivot of the degree below
    for first in (0, 3):
        counts = [ranked[first + i][1] for i in range(3)]
        assert counts == [0, ranked[first][2], ranked[first + 1][2]]


@pytest.mark.parametrize("kind,name", COMPLEXES, ids=[f"{k}-{nm}" for k, nm in COMPLEXES])
def test_element_decodes_kernel_vectors_into_cocycles(kind, name):
    # element is the one decoder of C^n: each kernel vector of d_n names a cocycle, and the
    # block coordinates, read off without block_key or project_block, give the vector back
    if kind == "triple":
        t = TRIPLES[name]
        cx, units = triple_complex(t), triple_units
    else:
        D = CROSSED[name]
        t = D.triple
        cx, units = ChComplex(t).twisted(D.as_block()), ch_units
    decoded = 0
    for n in (1, 2, 3):
        for parity in (0, 1):
            basis = units(t.g.space, t.h.space, n, parity)
            for vec in kernel_basis(cx.matrix(n, parity)):
                c = cx.element(n, parity, vec)
                assert all(b.is_zero() for b in cx.d(c)), (n, parity)
                assert oracles.blocks_vector(c, basis) == tuple(vec), (n, parity)
                decoded += 1
    assert decoded
