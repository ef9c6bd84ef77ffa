"""g x| h and the derivations, read from Pi and its complex, against hand-built references.

``semidirect`` takes its table from ``mc_element`` and ``derivation_space``
its linear system from ``d_D_matrix`` of D = 0 on the adjoint triple.  The
references in ``oracles`` build both by hand, each with its own sign.  They
must agree exactly: the derivations as equal ``LinearMap`` lists in kernel
order, the products as equal tables.  Inputs: every fixture, every fixture and
generated benchmark input under the seed-1 rescaling of
``perfbench/inputs.py``, gl(m|n) with m + n <= 3, abelian(p, q) with
p, q <= 2, and random valid triples.
"""

import importlib.util
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from supercochain import derivation_space, semidirect
from supercochain import io as sio
from supercochain.errors import InvalidAction, ValidationError
from supercochain.graded import GradedSpace, wedge_basis
from supercochain.superalgebra import SuperAlgebra, abelian, check_jacobi, check_super_skew, gl
from supercochain.triple import ActionMap, LieSupActTriple, check_action

import oracles
from conftest import FIXTURES
from helpers import SMALL_SPACES, adjoint_triple, defining_triple, random_valid_triple
from helpers import triple_axioms_ok

GL_DIMS = [(m, n) for m in range(4) for n in range(4) if 1 <= m + n <= 3]


def _bench_inputs():
    path = FIXTURES.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _problem_files():
    """(name, ProblemFile) of every fixture and of every seed-1 benchmark input."""
    paths = sorted(FIXTURES.glob("*.json"))
    out = [(p.stem, sio.parse(p)) for p in paths]
    bench = _bench_inputs()
    objs = dict(bench.generated_inputs())
    objs.update((p.stem, json.loads(p.read_text(encoding="utf-8"))) for p in paths)
    for name, obj in sorted(objs.items()):
        scaled = bench.rescale(obj, random.Random(f"1:{name}"))
        out.append((f"seed1-{name}", sio.parse_obj(scaled)))
    return out


def _algebras(problems):
    out = []
    for name, pf in problems:
        out.extend((f"{name}-{part}", alg) for part, alg in pf.algebras())
    out.extend((f"gl{m}{n}", gl(m, n)) for m, n in GL_DIMS)
    out.extend((f"abelian{p}{q}", abelian(p, q)) for p in range(3) for q in range(3) if p + q)
    return out


def _triples(problems):
    out = []
    for name, pf in problems:
        if pf.action is not None:
            out.append((name, LieSupActTriple(pf.g, pf.h, pf.action)))
    for m, n in GL_DIMS:
        out.append((f"gl{m}{n}-adjoint", adjoint_triple(gl(m, n))))
        out.append((f"gl{m}{n}-defining", defining_triple(m, n)))
    for p in range(3):
        for q in range(3):
            if p + q:
                out.append((f"abelian{p}{q}-adjoint", adjoint_triple(abelian(p, q))))
    return out


PROBLEMS = _problem_files()
ALGEBRAS = _algebras(PROBLEMS)
TRIPLES = [(name, t) for name, t in _triples(PROBLEMS) if triple_axioms_ok(t.g, t.h, t.rho)]


@pytest.mark.parametrize("A", [A for _, A in ALGEBRAS], ids=[name for name, _ in ALGEBRAS])
def test_derivation_space_matches_reference(A):
    assert check_super_skew(A).ok
    assert derivation_space(A) == oracles.derivation_space_reference(A)


@pytest.mark.parametrize("t", [t for _, t in TRIPLES], ids=[name for name, _ in TRIPLES])
def test_semidirect_matches_reference(t):
    assert semidirect(t.g, t.h, t.rho) == oracles.semidirect_reference(t.g, t.h, t.rho)


def test_every_input_triple_is_valid_and_compared():
    names = {name for name, _ in TRIPLES}
    assert names >= {name for name, pf in PROBLEMS if pf.action is not None}


@settings(max_examples=25, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_pi_readings_match_references_on_random_valid_triples(rng):
    t = random_valid_triple(rng)
    assert semidirect(t.g, t.h, t.rho) == oracles.semidirect_reference(t.g, t.h, t.rho)
    for A in (t.g, t.h):
        assert derivation_space(A) == oracles.derivation_space_reference(A)


def random_super_skew(space, rng, max_keys=4):
    """A random table on wedge keys only, so super-skew; Jacobi is not imposed."""
    keys = list(wedge_basis(space, 2))
    rng.shuffle(keys)
    sc = {}
    for i, j in keys[:max_keys]:
        want = (space.parity(i) + space.parity(j)) % 2
        sc[(i, j)] = tuple(
            F(rng.randint(-2, 2)) if space.parity(k) == want else F(0) for k in range(space.dim)
        )
    return SuperAlgebra(space, sc)


@settings(max_examples=40, deadline=None)
@given(space=st.sampled_from(SMALL_SPACES), rng=st.randoms(use_true_random=False))
def test_derivation_space_matches_reference_without_jacobi(space, rng):
    A = random_super_skew(space, rng)
    assume(not check_jacobi(A).ok)
    assert check_super_skew(A).ok
    assert derivation_space(A) == oracles.derivation_space_reference(A)


# --- inputs that have no Pi ---------------------------------------------------


def _even_square():
    """g = <x, y>, both even, with [x, x] = y: not super-skew."""
    return SuperAlgebra(GradedSpace(("x", "y"), ()), {(0, 0): (F(0), F(1))})


def _not_jacobi():
    """[a, b] = c, [b, c] = a, [a, c] = a: super-skew, but not Jacobi."""
    sc = {(0, 1): (F(0), F(0), F(1)), (1, 2): (F(1), F(0), F(0)), (0, 2): (F(1), F(0), F(0))}
    return SuperAlgebra(GradedSpace(("a", "b", "c"), ()), sc)


@pytest.mark.parametrize("side", ["g", "h"])
@pytest.mark.parametrize("bad,check", [(_even_square, "super_skew"), (_not_jacobi, "jacobi")])
def test_semidirect_refuses_an_algebra_that_fails_its_axioms(side, bad, check):
    good = abelian(1, 0, even_prefix="u")
    g, h = (bad(), good) if side == "g" else (good, bad())
    with pytest.raises(ValidationError, match=rf"{side}\.{check}"):
        semidirect(g, h, ActionMap.zero(g.space, h.space))


def test_semidirect_checks_the_algebras_before_the_action():
    g = _not_jacobi()
    h = abelian(1, 0, even_prefix="u")
    bad_action = ActionMap(g.space, h.space, [[(F(1),)], [(F(0),)], [(F(0),)]])
    assert not check_action(g, h, bad_action).ok
    with pytest.raises(ValidationError, match=r"g\.jacobi"):
        semidirect(g, h, bad_action)
    with pytest.raises(InvalidAction):
        semidirect(gl(2, 0), h, ActionMap(gl(2, 0).space, h.space, [[(F(1),)]] * 4))


def test_derivation_space_refuses_a_table_that_is_not_super_skew():
    with pytest.raises(ValidationError, match="super-skew"):
        derivation_space(_even_square())
