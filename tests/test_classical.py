"""Classical algebras with known answers, checked without any reference implementation.

sl(2), osp(1|2) and the Heisenberg algebra h_3: their adjoint triples pass
every axiom check, and a sign flip in one odd-odd bracket of osp(1|2) breaks
super Jacobi.  The crossed cohomology of D = 0 with values in a trivial
one-dimensional h is the cohomology of g with trivial coefficients, whose
dimensions are known: H^1..H^5 = 0, 0, 1, 0, 0 for the simple sl(2) and
osp(1|2) (H^*(osp(1|2)) = H^*(sp(2)), Fuks 1986); 2, 2, 1, 0, 0 for h_3 (its
Betti numbers; C^n = 0 for n > 3); 1, 0, 0, 0, 0 for gl(1|1), whose H^1 =
(g/[g, g])^* is spanned by the supertrace (H^*(gl(1|1)) = H^*(gl(1)), Fuks);
and 1, 0, 1, 1, 0 for gl(2|1) and gl(1|2), those of gl(2) = sl(2) + gl(1)
(H^*(gl(m|n)) = H^*(gl(max(m, n))), Fuks).  sl(2) and h_3 have no odd
cochains and those of osp(1|2) and the gl(m|n) have no cohomology, so every
odd part is 0.

The adjoint triples of the simple sl(2) and osp(1|2) have H^1 = 3|0 and 3|2
(the dimensions of g) and H^2 = H^3 = 0, as Whitehead's lemmas lead one to
expect; the triple complex and the crossed complex of D = 0 agree on this.

The Heisenberg algebras h_5 and h_7 with trivial coefficients have
dim H^k = C(2n, k) - C(2n, k - 2) for k <= n and H^k = H^(2n+1-k) above
(Santharoubane 1983): 4, 5, 5, 4, 1 and 6, 14, 14, 14, 14, 6, 1, and 0 past
the top degree.  sl(2) on its irreducible V_k (k >= 1) has no cohomology
(Whitehead), so the crossed complex of D = 0, which has no C^0, keeps only
the coboundaries of C^0 = V_k in degree 1: H^1 = k + 1, H^2 = H^3 = 0.

On an adjoint triple D = -id is a crossed homomorphism with rho_D(x) =
rho(x) + [D x, .] = 0, so its complex is that of trivial coefficients
tensored with h: H^n(g) x h, which is 0, 0, 3|0 for sl(2), 0, 0, 3|2 for
osp(1|2) and 2|2, 0, 0 for gl(1|1).

Every derivation of sl(2) or osp(1|2) is inner and their centres are 0, so
Der = ad(g) has dimension 3|0 and 3|2.  A derivation of h_3 is any
gl(2) action on span(x, y), acting on z by its trace, plus the two maps
x, y -> z: Der(h_3) = 6|0.
"""

import json

import pytest

from conftest import FIXTURES
from supercochain import cli
from supercochain import io as sio
from supercochain.crossed import CrossedHom, ch_cohomology_table, derivation_space
from supercochain.exact_linalg import rank
from supercochain.superalgebra import LinearMap, SuperAlgebra, abelian, check_jacobi, check_super_skew, gl
from supercochain.triple import ActionMap, LieSupActTriple, check_action, triple_cohomology_table

from helpers import ad, adjoint_triple, heisenberg, heisenberg3, identity_map, matrix_from_cols, osp12, sl2
from helpers import sl2_module

CLASSICAL = {"sl2": sl2, "osp12": osp12, "heisenberg3": heisenberg3}


@pytest.mark.parametrize("name", sorted(CLASSICAL))
def test_adjoint_triple_passes_every_axiom(name):
    t = adjoint_triple(CLASSICAL[name]())
    assert check_super_skew(t.g).ok
    assert check_jacobi(t.g).ok
    assert check_action(t.g, t.h, t.rho).ok


def test_osp12_with_one_odd_bracket_negated_fails_jacobi():
    A = osp12()
    key = (A.space.index("x"), A.space.index("y"))
    sc = dict(A.sc)
    sc[key] = tuple(-c for c in sc[key])
    B = SuperAlgebra(A.space, sc)
    assert check_super_skew(B).ok
    assert not check_jacobi(B).ok


def gl11():
    return sio.parse(FIXTURES / "gl11.json").algebra


TRIVIAL_COEFFICIENTS = {**CLASSICAL, "gl11": gl11, "gl21": lambda: gl(2, 1), "gl12": lambda: gl(1, 2)}


@pytest.mark.parametrize("name, even", [
    ("sl2", [0, 0, 1, 0, 0]),
    ("osp12", [0, 0, 1, 0, 0]),
    ("heisenberg3", [2, 2, 1, 0, 0]),
    ("gl11", [1, 0, 0, 0, 0]),
    ("gl21", [1, 0, 1, 1, 0]),
    ("gl12", [1, 0, 1, 1, 0]),
])
def test_trivial_coefficient_cohomology(name, even, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    algebra = TRIVIAL_COEFFICIENTS[name]()
    path.write_text(json.dumps({
        "g": sio.algebra_to_obj(algebra),
        "h": {"even_basis": ["u"], "odd_basis": []},
        "action": [],
        "D": [],
    }))
    code = cli.main(["ch-cohomology", str(path), "--max-n", "5", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["cohomology"] == {
        str(n): {"even": dim, "odd": 0} for n, dim in enumerate(even, start=1)
    }


@pytest.mark.parametrize("name, odd_h1", [("sl2", 0), ("osp12", 2)])
def test_adjoint_triples_of_simple_algebras(name, odd_h1):
    t = adjoint_triple(CLASSICAL[name]())
    D = CrossedHom(t, LinearMap.zero(t.g.space, t.h.space))
    expected = {1: {0: 3, 1: odd_h1}, 2: {0: 0, 1: 0}, 3: {0: 0, 1: 0}}
    assert triple_cohomology_table(t, range(1, 4)) == expected
    assert ch_cohomology_table(D, range(1, 4)) == expected


@pytest.mark.parametrize("n, even", [
    (2, [4, 5, 5, 4, 1, 0]),
    (3, [6, 14, 14, 14, 14, 6, 1, 0]),
])
def test_heisenberg_trivial_coefficient_cohomology(n, even):
    g = heisenberg(n)
    h = abelian(1, 0, even_prefix="u")
    t = LieSupActTriple(g, h, ActionMap.zero(g.space, h.space))
    D = CrossedHom(t, LinearMap.zero(g.space, h.space))
    assert check_jacobi(g).ok
    assert ch_cohomology_table(D, range(1, len(even) + 1)) == {
        k: {0: dim, 1: 0} for k, dim in enumerate(even, start=1)
    }


@pytest.mark.parametrize("k", range(1, 6))
def test_sl2_on_irreducible_module_keeps_only_degree_one_coboundaries(k):
    t = sl2_module(k)
    assert check_action(t.g, t.h, t.rho).ok
    D = CrossedHom(t, LinearMap.zero(t.g.space, t.h.space))
    assert ch_cohomology_table(D, range(1, 4)) == {1: {0: k + 1, 1: 0}, 2: {0: 0, 1: 0}, 3: {0: 0, 1: 0}}


@pytest.mark.parametrize("name, table", [
    ("sl2", {1: (0, 0), 2: (0, 0), 3: (3, 0)}),
    ("osp12", {1: (0, 0), 2: (0, 0), 3: (3, 2)}),
    ("gl11", {1: (2, 2), 2: (0, 0), 3: (0, 0)}),
])
def test_adjoint_minus_identity_is_cohomology_tensor_h(name, table):
    t = adjoint_triple(TRIVIAL_COEFFICIENTS[name]())
    D = CrossedHom(t, identity_map(t.g.space).scale(-1))
    assert ch_cohomology_table(D, range(1, 4)) == {n: {0: e, 1: o} for n, (e, o) in table.items()}


def _h3_derivations():
    """gl(2) on span(x, y) with z -> trace times z, then x -> z and y -> z: columns x, y, z."""
    return [
        ((1, 0, 0), (0, 0, 0), (0, 0, 1)),
        ((0, 0, 0), (1, 0, 0), (0, 0, 0)),
        ((0, 1, 0), (0, 0, 0), (0, 0, 0)),
        ((0, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 0, 1), (0, 0, 0), (0, 0, 0)),
        ((0, 0, 0), (0, 0, 1), (0, 0, 0)),
    ]


def _rank_of(maps):
    """The rank of a list of maps, each flattened to one column."""
    if not maps:
        return 0
    flat = [[x for col in m.cols for x in col] for m in maps]
    return rank(matrix_from_cols(flat, len(flat[0])))


@pytest.mark.parametrize("name, dims", [("sl2", (3, 0)), ("osp12", (3, 2)), ("heisenberg3", (6, 0))])
def test_derivation_space_of_classical_algebras(name, dims):
    A = CLASSICAL[name]()
    found = derivation_space(A)
    assert tuple(map(len, found)) == dims
    basis = [tuple(int(k == i) for k in range(A.dim)) for i in range(A.dim)]
    pars = A.space.parities
    for s, maps in enumerate(found):
        assert _rank_of(maps) == len(maps)
        for D in maps:
            assert D.parity() == s
            for a in range(A.dim):
                sign = -1 if s and pars[a] else 1
                for b in range(A.dim):
                    # D[a, b] = [D a, b] + (-1)^(s|a|) [a, D b]
                    left = A.bracket_eval(D.cols[a], basis[b])
                    right = A.bracket_eval(basis[a], D.cols[b])
                    want = tuple(x + sign * y for x, y in zip(left, right))
                    assert D.apply(A.bracket_basis(a, b)) == want
    # each ad x (of parity |x|), or each h_3 derivation above, lies in the span found
    if name == "heisenberg3":
        known = {0: [LinearMap(A.space, A.space, cols) for cols in _h3_derivations()], 1: []}
    else:
        known = {s: [ad(A, i) for i in range(A.dim) if pars[i] == s] for s in (0, 1)}
    for s, maps in enumerate(found):
        assert _rank_of(known[s]) == len(maps) == _rank_of(maps + known[s])
