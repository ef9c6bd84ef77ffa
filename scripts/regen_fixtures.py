#!/usr/bin/env python3
"""Rebuild the JSON fixtures under fixtures/ from their library definitions.

Run from the repository root:  python scripts/regen_fixtures.py
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from fractions import Fraction as F

from supercochain.graded import GradedSpace
from supercochain.superalgebra import LinearMap, SuperAlgebra, abelian, gl
from supercochain.triple import ActionMap, LieSupActTriple
from supercochain import io as sio

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT = ROOT / "fixtures"


def dump(name, obj):
    path = OUT / name
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print("wrote", path)


def aff11(labels=("e", "f")) -> SuperAlgebra:
    """[e, f] = f on one even and one odd generator."""
    space = GradedSpace((labels[0],), (labels[1],))
    return SuperAlgebra(space, {(0, 1): (F(0), F(1))})


def adjoint_action(A: SuperAlgebra) -> ActionMap:
    table = [[A.bracket_basis(i, j) for j in range(A.dim)] for i in range(A.dim)]
    return ActionMap(A.space, A.space, table)


def main():
    OUT.mkdir(exist_ok=True)

    # 1. gl(1,1): algebra-only fixture
    dump("gl11.json", {"algebra": sio.algebra_to_obj(gl(1, 1))})

    # 2. one-dimensional scaling action: g = <x>, h = <u>, rho(x)u = u.
    g = abelian(1, 0, even_prefix="x")
    h = abelian(1, 0, even_prefix="u")
    rho = ActionMap(g.space, h.space, [[(F(1),)]])
    obj = {
        "g": sio.algebra_to_obj(g),
        "h": sio.algebra_to_obj(h),
        "action": sio.action_to_obj(rho),
        "D": sio.crossed_to_obj(LinearMap(g.space, h.space, ((F(1),),))),
        "deformation": {
            "order": 1,
            "coefficients": [
                {"order": 1, "rho": [{"g": "x1", "h": "u1", "value": [{"basis": "u1", "coeff": "1"}]}]}
            ],
        },
        "requested": ["check-triple", "check-crossed", "cohomology", "deform"],
    }
    dump("solvable2.json", obj)

    # 3. all-abelian mixed-parity pair with a bracket switched on at order 1
    g = abelian(1, 1, even_prefix="x", odd_prefix="y")
    h = abelian(1, 1, even_prefix="u", odd_prefix="v")
    rho0 = ActionMap.zero(g.space, h.space)
    obj = {
        "g": sio.algebra_to_obj(g),
        "h": sio.algebra_to_obj(h),
        "action": sio.action_to_obj(rho0),
        "D": [
            {"g": "x1", "value": [{"basis": "u1", "coeff": "1"}]},
            {"g": "y1", "value": [{"basis": "v1", "coeff": "1/2"}]},
        ],
        "deformation": {
            "order": 2,
            "coefficients": [
                {
                    "order": 1,
                    "mu": [{"left": "u1", "right": "v1", "value": [{"basis": "v1", "coeff": "1"}]}],
                }
            ],
        },
    }
    dump("abelian_mixed.json", obj)

    # 4. adjoint triple on [e,f] = f with a crossed homomorphism and a
    #    deformation direction filled in by the test suite's kernel search.
    A = aff11()
    rho = adjoint_action(A)
    D = LinearMap(A.space, A.space, ((F(0), F(0)), (F(0), F(1))))  # e -> 0, f -> f
    obj = {
        "g": sio.algebra_to_obj(A),
        "h": sio.algebra_to_obj(A),
        "action": sio.action_to_obj(rho),
        "D": sio.crossed_to_obj(D),
        "deformation": {
            "order": 1,
            "coefficients": [
                # f -> f spans the even kernel of the twisted degree-1 differential
                {"order": 1, "D": [{"g": "f", "value": [{"basis": "f", "coeff": "1"}]}]}
            ],
        },
    }
    dump("aff11_adjoint.json", obj)

    # 5. (2|1)-dimensional solvable g acting on gl(1,1) through E11, E12
    gspace = GradedSpace(("e", "w"), ("z",))
    g = SuperAlgebra(
        gspace,
        {
            (0, 1): (F(0), F(1), F(0)),  # [e,w] = w
            (0, 2): (F(0), F(0), F(1)),  # [e,z] = z
        },
    )
    h = gl(1, 1)
    phi = {0: h.space.index("E11"), 2: h.space.index("E12")}
    table = []
    for i in range(g.dim):
        if i in phi:
            table.append([h.bracket_basis(phi[i], j) for j in range(h.dim)])
        else:
            table.append([tuple(F(0) for _ in range(h.dim)) for _ in range(h.dim)])
    rho = ActionMap(g.space, h.space, table)
    # sanity: the triple must be valid before we ship it
    assert LieSupActTriple(g, h, rho).check().ok
    obj = {
        "g": sio.algebra_to_obj(g),
        "h": sio.algebra_to_obj(h),
        "action": sio.action_to_obj(rho),
        "D": [],
    }
    dump("mixed21.json", obj)

    # 6. deliberately broken crossed homomorphism on the adjoint triple
    A = aff11()
    obj = {
        "g": sio.algebra_to_obj(A),
        "h": sio.algebra_to_obj(A),
        "action": sio.action_to_obj(adjoint_action(A)),
        "D": [
            {"g": "e", "value": [{"basis": "e", "coeff": "1"}]},
            {"g": "f", "value": [{"basis": "f", "coeff": "1"}]},
        ],
    }
    dump("crossed_bad.json", obj)

    # 7. valid structure, failing deformations: g = <x | y> abelian acting by zero
    #    on aff(1|1), D = 0.  rho_1(x) = id_h is no derivation of h, so deform fails
    #    at order 1; D_1 = (x -> e, y -> f) is a cocycle that [D_1 x, D_1 y] = f
    #    obstructs at order 2.
    g = SuperAlgebra(GradedSpace(("x",), ("y",)), {})
    h = aff11()
    obj = {
        "g": sio.algebra_to_obj(g),
        "h": sio.algebra_to_obj(h),
        "action": sio.action_to_obj(ActionMap.zero(g.space, h.space)),
        "D": [],
        "deformation": {
            "order": 2,
            "coefficients": [
                {
                    "order": 1,
                    "rho": [
                        {"g": "x", "h": u, "value": [{"basis": u, "coeff": "1"}]} for u in ("e", "f")
                    ],
                    "D": [
                        {"g": "x", "value": [{"basis": "e", "coeff": "1"}]},
                        {"g": "y", "value": [{"basis": "f", "coeff": "1"}]},
                    ],
                }
            ],
        },
    }
    dump("deform_bad.json", obj)


if __name__ == "__main__":
    main()
