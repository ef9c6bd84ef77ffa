"""Every Maurer-Cartan and deformation residual is read from one self-bracket.

``mc_residual`` projects [Pi, Pi] onto its four blocks;
``oracles.mc_residual_components_reference`` builds the same blocks from the
four component brackets with shuffle sums.  At order 0 the deformation
residuals are the Maurer-Cartan residuals: the triple one block by block up to
the fixed factors of equations (1)-(4), the crossed one exactly.  On
super-skew tables [Pi, Pi] = 0 iff the table of Pi satisfies the super Jacobi
identity, which is the re-check ``semidirect_algebra`` makes.  Inputs: the
triples and crossed homomorphisms of ``test_sparse_checks`` (every fixture,
including ``crossed_bad``, and the gl(1|1), gl(2|1) adjoint triples) and
copies with one entry perturbed.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supercochain.crossed import ChComplex, CrossedHom, ch_mc_residual
from supercochain.deformation import CrossedHomDeformation, TripleDeformation
from supercochain.errors import InternalInvariantError, ShapeMismatch
from supercochain.graded import DirectSum
from supercochain.superalgebra import SuperAlgebra, check_jacobi, check_super_skew
from supercochain.triple import mc_element, mc_residual, semidirect_algebra

import oracles
from test_sparse_checks import CROSSED, EXAMPLES, SMALL, TRIPLES, _perturb_map, _perturb_triple

# equations (1)-(4) as multiples of the blocks of the order-n self-bracket
FACTORS = {"ggg": F(1), "ggh": F(-1, 2), "ghh": F(1, 2), "hhh": F(1)}


def _pi_table(t):
    return SuperAlgebra(DirectSum(t.g.space, t.h.space).space, mc_element(t).coeffs)


def _twisted_reading(D):
    """[P, D] for P = pi + rho + [mu, D/2]: the crossed residual read off ``ChComplex.twisted``."""
    block = D.as_block()
    return ChComplex(D.triple).twisted(block.scale(F(1, 2))).d((block,))[0]


def _scaled_mc_residual(t):
    return {
        name: block.scale(FACTORS[name])
        for name, block in mc_residual(t.g, t.h, t.rho).components().items()
    }


@pytest.mark.parametrize("name", sorted(TRIPLES))
def test_mc_residual_matches_component_brackets(name):
    t = TRIPLES[name]
    res = mc_residual(t.g, t.h, t.rho)
    assert res == oracles.mc_residual_components_reference(t.g, t.h, t.rho)
    assert res.is_zero == check_jacobi(_pi_table(t)).ok


@pytest.mark.parametrize("name", sorted(TRIPLES))
def test_order_zero_triple_residual_is_the_scaled_mc_residual(name):
    t = TRIPLES[name]
    (got,) = TripleDeformation.build(t).series().residuals((0,))
    assert got.components() == _scaled_mc_residual(t)


@pytest.mark.parametrize("name", sorted(CROSSED))
def test_order_zero_crossed_residual_is_the_mc_residual(name):
    D = CROSSED[name]
    (got,) = CrossedHomDeformation.build(D).series().residuals((0,))
    assert got == ch_mc_residual(D) == _twisted_reading(D)
    assert got.is_zero() == (name != "crossed_bad")


@EXAMPLES
@given(st.sampled_from(SMALL), st.randoms(use_true_random=False))
def test_perturbed_self_bracket_readings(name, rng):
    t = _perturb_triple(TRIPLES[name], rng)
    if t.rho.as_block().parity() != 0:
        with pytest.raises(ShapeMismatch):
            mc_residual(t.g, t.h, t.rho)
        return
    res = mc_residual(t.g, t.h, t.rho)
    assert res == oracles.mc_residual_components_reference(t.g, t.h, t.rho)
    (got,) = TripleDeformation.build(t).series().residuals((0,))
    assert got.components() == _scaled_mc_residual(t)
    if check_super_skew(t.g).ok and check_super_skew(t.h).ok:
        assert res.is_zero == check_jacobi(_pi_table(t)).ok
        if res.is_zero:
            assert semidirect_algebra(t) == _pi_table(t)
        else:
            with pytest.raises(InternalInvariantError):
                semidirect_algebra(t)


@EXAMPLES
@given(st.sampled_from(sorted(n for n in CROSSED if n != "gl21_adjoint")),
       st.randoms(use_true_random=False))
def test_perturbed_order_zero_crossed_residual_is_the_mc_residual(name, rng):
    D = CROSSED[name]
    if rng.random() < 0.5:
        D = CrossedHom(D.triple, _perturb_map(D.linmap, rng))
    else:
        D = CrossedHom(_perturb_triple(D.triple, rng, rng.randrange(3)), D.linmap)
    (got,) = CrossedHomDeformation.build(D).series().residuals((0,))
    assert got == ch_mc_residual(D) == _twisted_reading(D)


@EXAMPLES
@given(st.sampled_from(sorted(n for n in CROSSED if n != "gl21_adjoint")),
       st.randoms(use_true_random=False))
def test_crossed_mc_residual_refuses_an_action_off_its_degree(name, rng):
    D = CROSSED[name]
    D = CrossedHom(_perturb_triple(D.triple, rng, 3), D.linmap)
    if D.triple.rho.as_block().parity() == 0:
        assert ch_mc_residual(D) == _twisted_reading(D)
        return
    with pytest.raises(ShapeMismatch):
        ch_mc_residual(D)
    with pytest.raises(ShapeMismatch):
        _twisted_reading(D)
