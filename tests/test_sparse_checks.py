"""The sparse-table checks against their dense references in ``oracles``.

``check_jacobi``, ``check_action``, ``check_crossed`` and both deformation
residuals read sparse structure-constant tables.  Their reports must equal
the dense computations exactly: the same failures in the same order, with the
same labels and the same ``lhs``/``rhs`` vectors, and the same residual blocks.
Valid inputs cover the passing paths; copies with one entry perturbed cover
the failure paths, and copies with an even [x, x] != 0 cover tables that are
not super-skew, on which every ordered triple counts.
"""

import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from supercochain import io as sio
from supercochain.cochains import Cochain
from supercochain.crossed import CrossedHom, check_crossed
from supercochain.deformation import CrossedHomDeformation, TripleDeformation
from supercochain.superalgebra import LinearMap, SuperAlgebra, check_jacobi, check_super_skew, gl
from supercochain.triple import ActionMap, LieSupActTriple, check_action

import oracles
from helpers import adjoint_triple, identity_map


def _cases():
    algebras, triples, crossed, deformations = {}, {}, {}, {}
    for path in sorted(FIXTURES.glob("*.json")):
        pf = sio.parse(path)
        for name, alg in pf.algebras():
            algebras[f"{path.stem}.{name}"] = alg
        if pf.action is None:
            continue
        t = LieSupActTriple(pf.g, pf.h, pf.action)
        triples[path.stem] = t
        if pf.crossed is not None:
            crossed[path.stem] = CrossedHom(t, pf.crossed)
        if pf.deformation is not None:
            pis, rhos, mus = sio.deformation_terms(pf)
            deformations[path.stem] = TripleDeformation.build(t, pis, rhos, mus)
    for m, n in ((1, 1), (2, 1)):
        t = adjoint_triple(gl(m, n))
        name = f"gl{m}{n}_adjoint"
        algebras[name] = t.g
        triples[name] = t
        crossed[name] = CrossedHom(t, identity_map(t.g.space).scale(-1))
        # (1 + s) times each structure map: valid through every order
        deformations[name] = TripleDeformation.build(
            t, [t.g.as_cochain()], [t.rho], [t.h.as_cochain()], order=2
        )
    return algebras, triples, crossed, deformations


ALGEBRAS, TRIPLES, CROSSED, DEFORMATIONS = _cases()
SMALL = [name for name in TRIPLES if name != "gl21_adjoint"]


def _same_report(got, want):
    assert got == want
    assert [f.to_dict() for f in got.failures] == [f.to_dict() for f in want.failures]


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_jacobi_matches_dense(name):
    _same_report(check_jacobi(ALGEBRAS[name]), oracles.check_jacobi(ALGEBRAS[name]))


@pytest.mark.parametrize("name", sorted(TRIPLES))
def test_action_matches_dense(name):
    t = TRIPLES[name]
    _same_report(check_action(t.g, t.h, t.rho), oracles.check_action(t.g, t.h, t.rho))


@pytest.mark.parametrize("name", sorted(CROSSED))
def test_crossed_matches_dense(name):
    _same_report(check_crossed(CROSSED[name]), oracles.check_crossed(CROSSED[name]))


@pytest.mark.parametrize("name", sorted(DEFORMATIONS))
def test_triple_residual_matches_dense(name):
    d = DEFORMATIONS[name]
    want = tuple(oracles.triple_deformation_residual(d, n) for n in range(d.order + 1))
    assert d.series().residuals() == want


@pytest.mark.parametrize("name", sorted(CROSSED))
def test_crossed_residual_matches_dense(name):
    D = CROSSED[name]
    d = CrossedHomDeformation.build(D, [D.linmap.scale(2), D.linmap], order=2)
    assert d.series().residuals() == tuple(oracles.ch_deformation_residual(d, n) for n in range(3))


# ---------------------------------------------------------------------------
# one entry perturbed


def _bump(rng, vec, slots):
    vec = list(vec)
    vec[rng.choice(slots)] += rng.choice((F(1), F(-1), F(2), F(1, 2)))
    return tuple(vec)


def _perturb_pairs(space, coeffs, rng):
    """One parity-legal change of a value stored on a pair key i <= j."""
    keys = [
        (i, j) for i in range(space.dim) for j in range(i, space.dim)
        if not (i == j and space.parity(i) == 0)
    ]
    if not keys:
        return coeffs
    key = rng.choice(keys)
    want = sum(space.parities_of(key)) % 2
    slots = [k for k in range(space.dim) if space.parity(k) == want]
    if not slots:
        return coeffs
    coeffs = dict(coeffs)
    coeffs[key] = _bump(rng, coeffs.get(key, (F(0),) * space.dim), slots)
    return coeffs


def _perturb_algebra(A: SuperAlgebra, rng):
    return SuperAlgebra(A.space, _perturb_pairs(A.space, A.sc, rng))


def _perturb_action(rho: ActionMap, rng, any_parity=False):
    """One changed action entry; with ``any_parity`` it may break the degree."""
    gs, hs = rho.g_space, rho.h_space
    i, j = rng.randrange(gs.dim), rng.randrange(hs.dim)
    want = (gs.parity(i) + hs.parity(j)) % 2
    slots = [k for k in range(hs.dim) if any_parity or hs.parity(k) == want]
    if not slots:
        return rho
    table = [list(row) for row in rho.table]
    table[i][j] = _bump(rng, table[i][j], slots)
    return ActionMap(gs, hs, table)


def _perturb_map(m: LinearMap, rng):
    """One parity-legal change of a degree-0 map's column."""
    j = rng.randrange(m.source.dim)
    slots = [k for k in range(m.target.dim) if m.target.parity(k) == m.source.parity(j)]
    if not slots:
        return m
    cols = list(m.cols)
    cols[j] = _bump(rng, cols[j], slots)
    return LinearMap(m.source, m.target, tuple(cols))


def _perturb_triple(t: LieSupActTriple, rng, which=None):
    """Perturb g, h, the action, or the action off its degree (``which`` 0-3)."""
    if which is None:
        which = rng.randrange(4)
    if which == 0:
        return LieSupActTriple(_perturb_algebra(t.g, rng), t.h, t.rho)
    if which == 1:
        return LieSupActTriple(t.g, _perturb_algebra(t.h, rng), t.rho)
    return LieSupActTriple(t.g, t.h, _perturb_action(t.rho, rng, any_parity=which == 3))


EXAMPLES = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@EXAMPLES
@given(st.sampled_from(SMALL), st.randoms(use_true_random=False))
def test_perturbed_triple_checks_match_dense(name, rng):
    t = _perturb_triple(TRIPLES[name], rng)
    for A in (t.g, t.h):
        _same_report(check_jacobi(A), oracles.check_jacobi(A))
    _same_report(check_action(t.g, t.h, t.rho), oracles.check_action(t.g, t.h, t.rho))


@EXAMPLES
@given(st.sampled_from(sorted(CROSSED)), st.randoms(use_true_random=False))
def test_perturbed_crossed_checks_match_dense(name, rng):
    D = CROSSED[name]
    if rng.random() < 0.5:
        D = CrossedHom(D.triple, _perturb_map(D.linmap, rng))
    else:
        D = CrossedHom(_perturb_triple(D.triple, rng), D.linmap)
    _same_report(check_crossed(D), oracles.check_crossed(D))
    d = CrossedHomDeformation.build(D, [_perturb_map(D.linmap, rng)], order=2)
    assert d.series().residuals() == tuple(oracles.ch_deformation_residual(d, n) for n in range(3))


def _perturb_cochain(c: Cochain, rng):
    return Cochain(c.source, c.target, 2, _perturb_pairs(c.source, c.coeffs, rng))


@EXAMPLES
@given(st.sampled_from(sorted(n for n in DEFORMATIONS if n != "gl21_adjoint")),
       st.randoms(use_true_random=False))
def test_perturbed_deformation_residual_matches_dense(name, rng):
    d = DEFORMATIONS[name]
    k = rng.randrange(1, d.order + 1)
    pis, rhos, mus = list(d.pis[1:]), list(d.rhos[1:]), list(d.mus[1:])
    which = rng.randrange(3)
    if which == 0:
        pis[k - 1] = _perturb_cochain(pis[k - 1], rng)
    elif which == 1:
        rhos[k - 1] = _perturb_action(rhos[k - 1], rng)
    else:
        mus[k - 1] = _perturb_cochain(mus[k - 1], rng)
    d = TripleDeformation.build(d.triple, pis, rhos, mus, order=d.order)
    want = tuple(oracles.triple_deformation_residual(d, n) for n in range(d.order + 1))
    assert d.series().residuals() == want


def _non_skew_algebra(A: SuperAlgebra, rng):
    """A parity-legal [x, x] != 0 for an even x: the table then fails super-skew."""
    evens = [i for i in range(A.dim) if A.space.parity(i) == 0]
    if not evens:
        return A
    i = rng.choice(evens)
    coeffs = dict(A.sc)
    coeffs[(i, i)] = _bump(rng, coeffs.get((i, i), (F(0),) * A.dim), evens)
    return SuperAlgebra(A.space, coeffs)


def _non_skew_triple(t: LieSupActTriple, rng, which):
    """A triple whose g (``which`` 0) or h (``which`` 1) has one even diagonal bracket."""
    if which == 0:
        return LieSupActTriple(_non_skew_algebra(t.g, rng), t.h, t.rho)
    return LieSupActTriple(t.g, _non_skew_algebra(t.h, rng), t.rho)


def _non_skew_checks_match_dense(t, rng, which):
    p = _non_skew_triple(t, rng, which)
    A = (p.g, p.h)[which]
    if A is (t.g, t.h)[which]:
        return
    assert not check_super_skew(A).ok
    for B in (p.g, p.h):
        _same_report(check_jacobi(B), oracles.check_jacobi(B))
    _same_report(check_action(p.g, p.h, p.rho), oracles.check_action(p.g, p.h, p.rho))


@EXAMPLES
@given(st.sampled_from(SMALL), st.sampled_from((0, 1)), st.randoms(use_true_random=False))
def test_non_super_skew_checks_match_dense(name, which, rng):
    _non_skew_checks_match_dense(TRIPLES[name], rng, which)


def test_gl21_non_super_skew_matches_dense():
    rng = random.Random(12)
    for which in (0, 1):
        _non_skew_checks_match_dense(TRIPLES["gl21_adjoint"], rng, which)


def test_axiom_checks_stay_in_quadratic_memory():
    """One first index at a time: the peak stays O(dim^2), far below d^3 tables (~0.5 MB)."""
    t = adjoint_triple(gl(2, 1))
    tracemalloc.start()
    try:
        check_jacobi(t.g)
        check_jacobi(t.h)
        check_action(t.g, t.h, t.rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 1024


def test_gl21_perturbed_once_matches_dense():
    """The largest case, with one fixed perturbation of each kind."""
    rng = random.Random(21)
    t = TRIPLES["gl21_adjoint"]
    for which in range(4):
        p = _perturb_triple(t, rng, which)
        assert (p.g, p.h, p.rho) != (t.g, t.h, t.rho)
        _same_report(check_action(p.g, p.h, p.rho), oracles.check_action(p.g, p.h, p.rho))
        if which < 2:
            A = p.g if which == 0 else p.h
            _same_report(check_jacobi(A), oracles.check_jacobi(A))
    D = CROSSED["gl21_adjoint"]
    Dp = CrossedHom(D.triple, _perturb_map(D.linmap, rng))
    _same_report(check_crossed(Dp), oracles.check_crossed(Dp))
    d = DEFORMATIONS["gl21_adjoint"]
    rhos = [_perturb_action(d.rhos[1], rng), d.rhos[2]]
    d = TripleDeformation.build(d.triple, list(d.pis[1:]), rhos, list(d.mus[1:]), order=2)
    (got,) = d.series().residuals((1,))
    assert not got.is_zero
    assert got == oracles.triple_deformation_residual(d, 1)
