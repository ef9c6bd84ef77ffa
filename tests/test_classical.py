"""Classical algebras with known answers, checked without any reference implementation.

sl(2), osp(1|2) and the Heisenberg algebra h_3: their adjoint triples pass
every axiom check, and a sign flip in one odd-odd bracket of osp(1|2) breaks
super Jacobi.  The crossed cohomology of D = 0 with values in a trivial
one-dimensional h is the cohomology of g with trivial coefficients, whose
dimensions are known: H^1..H^5 = 0, 0, 1, 0, 0 for the simple sl(2) and
osp(1|2) (H^*(osp(1|2)) = H^*(sp(2)), Fuks 1986); 2, 2, 1, 0, 0 for h_3 (its
Betti numbers; C^n = 0 for n > 3); and 1, 0, 0, 0, 0 for gl(1|1), whose H^1 =
(g/[g, g])^* is spanned by the supertrace (H^*(gl(1|1)) = H^*(gl(1)), Fuks).
sl(2) and h_3 have no odd cochains and those of osp(1|2) and gl(1|1) have no
cohomology, so every odd part is 0.
"""

import json

import pytest

from conftest import FIXTURES
from supercochain import cli
from supercochain import io as sio
from supercochain.superalgebra import SuperAlgebra, check_jacobi, check_super_skew
from supercochain.triple import check_action

from helpers import adjoint_triple, heisenberg3, osp12, sl2

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


@pytest.mark.parametrize("name, even", [
    ("sl2", [0, 0, 1, 0, 0]),
    ("osp12", [0, 0, 1, 0, 0]),
    ("heisenberg3", [2, 2, 1, 0, 0]),
    ("gl11", [1, 0, 0, 0, 0]),
])
def test_trivial_coefficient_cohomology(name, even, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    algebra = gl11() if name == "gl11" else CLASSICAL[name]()
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
