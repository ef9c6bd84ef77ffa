"""The integer kernels on inputs with rational denominators.

Every check, residual and bracket scales its operands to ints over a common
denominator and divides back only at the end.  The fixtures and the random
helpers mostly hold integers, so here every input is first put into the basis
c_i e_i, c_i in +-1, +-2, +-1/2, +-3/2 (``helpers.rescale_triple`` and
friends): an isomorphism, so valid inputs stay valid, and every table picks
up denominators 2, 3, 4, 9, ...  Each result must equal its ``Fraction``
reference in ``oracles`` exactly, on the rescaled inputs and on copies with
one entry perturbed: every verdict with its failure ``lhs``/``rhs``, both
Maurer-Cartan residuals, both deformation residuals, ``nr_bracket``,
``circ``, ``bracket_sum``, the differentials ``bracket_matrix`` builds and
``LinearMap.apply``.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supercochain.cochains import bracket_sum, circ, nr_bracket
from supercochain.crossed import CrossedHom, ch_cohomology_table, ch_mc_residual, check_crossed, d_D_matrix
from supercochain.crossed import graph_failures
from supercochain.deformation import CrossedHomDeformation
from supercochain.superalgebra import LinearMap, check_jacobi, check_super_skew, gl
from supercochain.triple import check_action, mc_residual, triple_coboundary_matrix, triple_cohomology_table

import oracles
from helpers import (
    SMALL_SPACES,
    adjoint_triple,
    defining_triple,
    draw_scales,
    identity_map,
    mixed21_triple,
    osp12,
    random_cochain,
    random_homogeneous_cochain,
    rebase_crossed,
    rebase_triple,
    rebasing,
    rescale_ch_deformation,
    rescale_cochain,
    rescale_crossed,
    rescale_deformation,
    rescale_triple,
    triple_axioms_ok,
)
from test_sparse_checks import (
    CROSSED,
    DEFORMATIONS,
    EXAMPLES,
    SMALL,
    TRIPLES,
    _perturb_cochain,
    _perturb_action,
    _perturb_map,
    _perturb_triple,
    _same_report,
)


def _scales(t, rng):
    return draw_scales(t.g.space, rng), draw_scales(t.h.space, rng)


def _has_denominator(t):
    """True when some structure constant of the triple is not an integer."""
    tables = [vec for A in (t.g, t.h) for vec in A.sc.values()]
    tables += [vec for row in t.rho.table for vec in row]
    return any(x.denominator > 1 for vec in tables for x in vec)


def _triple_checks_match(t):
    for A in (t.g, t.h):
        _same_report(check_super_skew(A), oracles.check_super_skew(A))
        _same_report(check_jacobi(A), oracles.check_jacobi(A))
    _same_report(check_action(t.g, t.h, t.rho), oracles.check_action(t.g, t.h, t.rho))
    if t.rho.as_block().parity() == 0:
        got = mc_residual(t.g, t.h, t.rho)
        assert got == oracles.mc_residual_components_reference(t.g, t.h, t.rho)


def _crossed_checks_match(D):
    _same_report(check_crossed(D), oracles.check_crossed(D))
    assert ch_mc_residual(D) == oracles.ch_deformation_residual(CrossedHomDeformation.build(D), 0)
    t = D.triple
    if triple_axioms_ok(t.g, t.h, t.rho):
        assert graph_failures(D) == oracles.graph_failures(D)


def test_rescaling_puts_denominators_into_every_fixture():
    rng = random.Random(3)
    for name, t in TRIPLES.items():
        if t.g.sc or t.h.sc:
            scaled = rescale_triple(t, *_scales(t, rng))
            for _ in range(20):
                if _has_denominator(scaled):
                    break
                scaled = rescale_triple(t, *_scales(t, rng))
            assert _has_denominator(scaled), name


@EXAMPLES
@given(st.sampled_from(SMALL), st.booleans(), st.randoms(use_true_random=False))
def test_rescaled_triple_checks_match_references(name, perturb, rng):
    t = rescale_triple(TRIPLES[name], *_scales(TRIPLES[name], rng))
    if perturb:
        t = _perturb_triple(t, rng)
    else:
        assert check_action(t.g, t.h, t.rho).ok == check_action(
            TRIPLES[name].g, TRIPLES[name].h, TRIPLES[name].rho
        ).ok
    _triple_checks_match(t)


@EXAMPLES
@given(st.sampled_from(sorted(n for n in CROSSED if n != "gl21_adjoint")),
       st.sampled_from(("none", "map", "triple")), st.randoms(use_true_random=False))
def test_rescaled_crossed_checks_match_references(name, perturb, rng):
    D = rescale_crossed(CROSSED[name], *_scales(CROSSED[name].triple, rng))
    if perturb == "map":
        D = CrossedHom(D.triple, _perturb_map(D.linmap, rng))
    elif perturb == "triple":
        D = CrossedHom(_perturb_triple(D.triple, rng, rng.randrange(3)), D.linmap)
    else:
        assert check_crossed(D).ok == check_crossed(CROSSED[name]).ok
    _crossed_checks_match(D)
    d = CrossedHomDeformation.build(D, [_perturb_map(D.linmap, rng), D.linmap], order=2)
    want = tuple(oracles.ch_deformation_residual(d, n) for n in range(3))
    series = d.series()
    assert series.residuals() == want
    assert tuple(series.residuals((n,))[0] for n in range(3)) == want


@EXAMPLES
@given(st.sampled_from(sorted(n for n in CROSSED if n != "gl21_adjoint")), st.randoms(use_true_random=False))
def test_rescaled_map_operations_match_references(name, rng):
    """``apply`` on int columns against the dense column-by-column reference, with
    denominators in every map."""
    D = rescale_crossed(CROSSED[name], *_scales(CROSSED[name].triple, rng))
    t = D.triple
    gs = t.g.space
    # the identity of g from one rescaled basis to another: an isomorphism with denominators
    iso = CrossedHom(adjoint_triple(t.g), identity_map(gs))
    iso = rescale_crossed(iso, draw_scales(gs, rng), draw_scales(gs, rng))
    A, B = iso.triple.g, iso.triple.h
    maps = [D.linmap, _perturb_map(D.linmap, rng), iso.linmap, _perturb_map(iso.linmap, rng)]
    for m in maps:
        for _ in range(3):
            vec = tuple(F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(m.source.dim))
            assert m.apply(vec) == oracles.dense_apply(m, vec)
    assert oracles.dense_is_homomorphism(iso.linmap, A, B)


@EXAMPLES
@given(st.sampled_from(sorted(n for n in DEFORMATIONS if n != "gl21_adjoint")),
       st.sampled_from(("none", "pi", "rho", "mu")), st.randoms(use_true_random=False))
def test_rescaled_deformation_residuals_match_references(name, perturb, rng):
    d = DEFORMATIONS[name]
    d = rescale_deformation(d, *_scales(d.triple, rng))
    if perturb != "none":
        k = rng.randrange(1, d.order + 1)
        terms = {"pi": list(d.pis[1:]), "rho": list(d.rhos[1:]), "mu": list(d.mus[1:])}
        bump = _perturb_action if perturb == "rho" else _perturb_cochain
        terms[perturb][k - 1] = bump(terms[perturb][k - 1], rng)
        d = type(d).build(d.triple, terms["pi"], terms["rho"], terms["mu"], order=d.order)
    want = tuple(oracles.triple_deformation_residual(d, n) for n in range(d.order + 1))
    series = d.series()
    assert series.residuals() == want
    assert tuple(series.residuals((n,))[0] for n in range(d.order + 1)) == want
    if perturb == "none":
        # rescaling keeps every verdict: each shipped deformation is valid but deform_bad at order 1
        assert [r.is_zero for r in want] == [name != "deform_bad" or n != 1 for n in range(d.order + 1)]


def test_rescaled_gl21_matches_references():
    """The largest case, once valid and once with one entry perturbed of each kind."""
    rng = random.Random(32)
    t = TRIPLES["gl21_adjoint"]
    scaled = rescale_triple(t, *_scales(t, rng))
    assert _has_denominator(scaled)
    _triple_checks_match(scaled)
    for which in range(4):
        p = _perturb_triple(scaled, rng, which)
        _same_report(check_action(p.g, p.h, p.rho), oracles.check_action(p.g, p.h, p.rho))
        if which < 2:
            A = p.g if which == 0 else p.h
            _same_report(check_jacobi(A), oracles.check_jacobi(A))
    D = CROSSED["gl21_adjoint"]
    a, b = _scales(D.triple, rng)
    D = rescale_crossed(D, a, b)
    for Dp in (D, CrossedHom(D.triple, _perturb_map(D.linmap, rng))):
        _crossed_checks_match(Dp)
    d = rescale_deformation(DEFORMATIONS["gl21_adjoint"], a, b)
    rhos = [_perturb_action(d.rhos[1], rng), d.rhos[2]]
    d = type(d).build(d.triple, list(d.pis[1:]), rhos, list(d.mus[1:]), order=2)
    (got,) = d.series().residuals((1,))
    assert not got.is_zero
    assert got == oracles.triple_deformation_residual(d, 1)


@pytest.mark.parametrize("name", sorted(CROSSED))
def test_rescaled_crossed_deformation_is_checked_at_every_order(name):
    """D(t) = D + 3/2 t D, crossed only for D = 0; the dense residuals agree order by order."""
    rng = random.Random(name)
    D = CROSSED[name]
    d = CrossedHomDeformation.build(D, [D.linmap.scale(F(3, 2))], order=2)
    d = rescale_ch_deformation(d, *_scales(D.triple, rng))
    assert d.series().residuals() == tuple(oracles.ch_deformation_residual(d, n) for n in range(3))


def _operand(space, arity, parity, rng):
    if parity is None:
        return random_cochain(space, arity, rng, max_keys=3)
    return random_homogeneous_cochain(space, arity, parity, rng, max_keys=3)


OPERANDS = st.tuples(st.integers(1, 3), st.sampled_from((0, 1, None)))


@EXAMPLES
@given(st.sampled_from(SMALL_SPACES), OPERANDS, OPERANDS, st.randoms(use_true_random=False))
def test_rescaled_products_match_shuffle_references(space, f, g, rng):
    s = draw_scales(space, rng)
    Fc = rescale_cochain(_operand(space, *f, rng), s)
    Gc = rescale_cochain(_operand(space, *g, rng), s)
    assert nr_bracket(Fc, Gc) == oracles.shuffle_nr_bracket(Fc, Gc)
    assert circ(Fc, Gc) == oracles.shuffle_circ(Fc, Gc)
    Hc = rescale_cochain(_operand(space, f[0], g[1], rng), draw_scales(space, rng))
    c1, c2 = rng.choice((F(1), F(-2), F(1, 3))), rng.choice((F(3, 4), F(-1, 2)))
    want = oracles.shuffle_nr_bracket(Fc, Gc).scale(c1).add(oracles.shuffle_nr_bracket(Hc, Gc).scale(c2))
    assert bracket_sum([(c1, Fc, Gc), (c2, Hc, Gc)]) == want


@EXAMPLES
@given(st.sampled_from([n for n in SMALL if n != "gl11_adjoint"]), st.sampled_from((0, 1)),
       st.randoms(use_true_random=False))
def test_rescaled_differentials_match_references(name, parity, rng):
    t = rescale_triple(TRIPLES[name], *_scales(TRIPLES[name], rng))
    if not triple_axioms_ok(t.g, t.h, t.rho):
        return
    for n in (1, 2):
        assert triple_coboundary_matrix(t, n, parity) == oracles.triple_reference_matrix(t, n, parity)
    if name in CROSSED:
        D = rescale_crossed(CROSSED[name], *_scales(CROSSED[name].triple, rng))
        if check_crossed(D).ok:
            assert d_D_matrix(D, 1, parity) == oracles.ch_reference_matrix(D, 1, parity)


REBASED = {
    "osp12_adjoint": lambda: adjoint_triple(osp12()),
    "gl11_adjoint": lambda: adjoint_triple(gl(1, 1)),
    "gl11_defining": lambda: defining_triple(1, 1),
    "mixed21": mixed21_triple,
}


@pytest.mark.parametrize("name", sorted(REBASED))
def test_cohomology_tables_are_invariant_under_a_mixed_change_of_basis(name):
    """A triangular basis mixed within each parity (``helpers.rebasing``): a sign that
    follows the basis order rather than parity alone changes the tables here, where a
    diagonal rescaling keeps them."""
    t = REBASED[name]()
    Mg, Mh = rebasing(t.g.space), rebasing(t.h.space)
    r = rebase_triple(t, Mg, Mh)
    assert (r.g, r.h, r.rho) != (t.g, t.h, t.rho)
    assert triple_cohomology_table(r, range(1, 4)) == triple_cohomology_table(t, range(1, 4))
    D0 = CrossedHom(t, LinearMap.zero(t.g.space, t.h.space), True)
    r0 = rebase_crossed(D0, Mg, Mh)
    assert ch_cohomology_table(r0, range(1, 5)) == ch_cohomology_table(D0, range(1, 5))


def test_crossed_table_is_invariant_under_a_mixed_change_of_basis():
    """D = -id on the gl(1|1) adjoint triple becomes M_h^-1 (-id) M_g, crossed again."""
    t = adjoint_triple(gl(1, 1))
    D = CrossedHom(t, identity_map(t.g.space).scale(-1))
    r = rebase_crossed(D, rebasing(t.g.space), rebasing(t.h.space))
    assert check_crossed(r).ok
    assert ch_cohomology_table(r, range(1, 4)) == ch_cohomology_table(D, range(1, 4))
