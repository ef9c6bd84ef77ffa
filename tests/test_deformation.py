import random
from fractions import Fraction as F

import pytest

from supercochain.cochains import BlockCochain, Cochain
from supercochain.crossed import (
    ChComplex,
    CrossedHom,
    d_D_matrix,
)
from supercochain.deformation import (
    CrossedHomDeformation,
    TripleDeformation,
    linear_check,
    triple_cocycle_deformations,
)
from supercochain.errors import ValidationError
from supercochain.exact_linalg import kernel_basis
from supercochain.graded import wedge_basis
from supercochain.superalgebra import LinearMap
from supercochain.triple import (
    ActionMap,
    triple_blocks,
    triple_coboundary_matrix,
    triple_complex,
)

from helpers import adjoint_triple, aff11, ch_units, infinitesimal, matrix_apply, mixed21_triple, residual
from helpers import solvable_triple, triple_units, vec_is_zero, zero_vec


def unpack_degree2(t, c):
    """Blocks of a degree-2 cochain -> (pi1, rho1, mu1) coefficient maps."""
    gs, hs = t.g.space, t.h.space
    sigs = triple_blocks(2)
    pi1 = Cochain(gs, gs, 2, {gk: v for (gk, hk), v in c[0].coeffs.items()})
    rho_block = c[sigs.index((1, 1, "h"))]
    table = [[zero_vec(hs.dim) for _ in range(hs.dim)] for _ in range(gs.dim)]
    for (gk, hk), v in rho_block.coeffs.items():
        table[gk[0]][hk[0]] = v
    rho1 = ActionMap(gs, hs, table)
    mu_b = c[sigs.index((0, 2, "h"))]
    mu1 = Cochain(hs, hs, 2, {hk: v for (gk, hk), v in mu_b.coeffs.items()})
    return pi1, rho1, mu1


def test_constant_deformation_all_orders_zero():
    t = adjoint_triple(aff11())
    d = TripleDeformation.build(t, order=3)
    for n in range(0, 4):
        assert residual(d, n).is_zero
    inf = infinitesimal(d)
    assert inf.order is None and inf.is_cocycle


def test_base_equations_hold_at_order_zero():
    for t in (solvable_triple(), adjoint_triple(aff11()), mixed21_triple()):
        d = TripleDeformation.build(t, order=1)
        assert residual(d, 0).is_zero


def test_order_out_of_range():
    d = TripleDeformation.build(solvable_triple(), order=1)
    with pytest.raises(ValidationError):
        residual(d, 2)


def test_coefficients_must_be_even():
    t = adjoint_triple(aff11())
    gs = t.g.space
    odd_pi = Cochain(gs, gs, 2, {(0, 1): (F(1), F(0))})  # odd key -> even target: odd map
    with pytest.raises(ValidationError):
        TripleDeformation.build(t, pi_terms=[odd_pi], order=1)


@pytest.mark.parametrize("make", [solvable_triple, lambda: adjoint_triple(aff11()), mixed21_triple])
def test_cocycles_give_linear_deformations(make):
    t = make()
    defs = triple_cocycle_deformations(t)
    assert defs
    for d in defs:
        assert residual(d, 1).is_zero
        inf = infinitesimal(d)
        assert inf.is_cocycle
        assert linear_check(d)


@pytest.mark.parametrize("make", [lambda: adjoint_triple(aff11()), mixed21_triple])
def test_non_cocycles_fail_linear_check(make):
    t = make()
    gs, hs = t.g.space, t.h.space
    cx = triple_complex(t)
    units = triple_units(gs, hs, 2, parity=0)
    mat = triple_coboundary_matrix(t, 2, parity=0)
    rng = random.Random(77)
    found = 0
    while found < 8:
        vec = tuple(F(rng.randint(-2, 2)) for _ in units)
        if vec_is_zero(matrix_apply(mat, vec)):
            continue
        c = cx.element(2, 0, vec)
        pi1, rho1, mu1 = unpack_degree2(t, c)
        assert not linear_check(TripleDeformation.build(t, [pi1], [rho1], [mu1], order=1))
        found += 1


def test_broken_order_one_is_detected():
    # deforming only the g bracket by itself breaks the action compatibility:
    # the mixed defect ad(pi1(u,v)) is nonzero while the pure-bracket defects
    # stay zero, so the failing component is identified.
    t = adjoint_triple(aff11())
    gs = t.g.space
    pi1 = Cochain(gs, gs, 2, {(0, 1): (F(0), F(1))})
    rho1 = ActionMap.zero(gs, gs)
    mu1 = Cochain(gs, gs, 2, {})
    d = TripleDeformation.build(t, [pi1], [rho1], [mu1], order=1)
    r = residual(d, 1)
    assert not r.is_zero
    assert r.ggg.is_zero() and r.hhh.is_zero()
    assert not r.ggh.is_zero()
    assert not linear_check(d)
    inf = infinitesimal(d)
    assert inf.order == 1
    assert not inf.is_cocycle


def test_infinitesimal_skips_leading_zeros():
    t = adjoint_triple(aff11())
    defs = triple_cocycle_deformations(t)
    lead = defs[0]
    d = TripleDeformation.build(
        t,
        pi_terms=[Cochain.zero(t.g.space, t.g.space, 2), lead.pis[1]],
        rho_terms=[ActionMap.zero(t.g.space, t.h.space), lead.rhos[1]],
        mu_terms=[Cochain.zero(t.h.space, t.h.space, 2), lead.mus[1]],
        order=2,
    )
    inf = infinitesimal(d)
    assert inf.order in (2, None)


# --- crossed homomorphism deformations -------------------------------------


@pytest.fixture
def crossed_D():
    t = adjoint_triple(aff11())
    return CrossedHom(t, LinearMap(t.g.space, t.h.space, ((F(0), F(0)), (F(0), F(1)))))


def test_ch_constant_deformation(crossed_D):
    d = CrossedHomDeformation.build(crossed_D, order=3)
    for n in range(0, 4):
        assert residual(d, n).is_zero()
    assert infinitesimal(d).order is None


def test_ch_order_zero_is_crossed_identity(crossed_D):
    d = CrossedHomDeformation.build(crossed_D, order=1)
    assert residual(d, 0).is_zero()


def test_ch_kernel_vectors_linearly_deform(crossed_D):
    t = crossed_D.triple
    gs, hs = t.g.space, t.h.space
    units = ch_units(gs, hs, 1, parity=0)
    mat = d_D_matrix(crossed_D, 1, parity=0)
    kb = kernel_basis(mat)
    assert kb
    cx = ChComplex(t).twisted(crossed_D.as_block())
    for vec in kb:
        blk = cx.element(1, 0, vec)[0]
        cols = tuple(tuple(blk.coeffs.get(((i,), ()), zero_vec(hs.dim))) for i in range(gs.dim))
        D1 = LinearMap(gs, hs, cols)
        d = CrossedHomDeformation.build(crossed_D, [D1], order=1)
        assert linear_check(d)
        assert residual(d, 1).is_zero()
        assert infinitesimal(d).is_cocycle


def test_ch_non_cocycles_fail(crossed_D):
    t = crossed_D.triple
    gs, hs = t.g.space, t.h.space
    units = ch_units(gs, hs, 1, parity=0)
    mat = d_D_matrix(crossed_D, 1, parity=0)
    rng = random.Random(13)
    cx = ChComplex(t).twisted(crossed_D.as_block())
    found = 0
    while found < 8:
        vec = tuple(F(rng.randint(-2, 2)) for _ in units)
        if vec_is_zero(matrix_apply(mat, vec)):
            continue
        blk = cx.element(1, 0, vec)[0]
        cols = tuple(tuple(blk.coeffs.get(((i,), ()), zero_vec(hs.dim))) for i in range(gs.dim))
        D1 = LinearMap(gs, hs, cols)
        assert not linear_check(CrossedHomDeformation.build(crossed_D, [D1], order=1))
        found += 1


def test_ch_obstruction_shape_at_order_two(crossed_D):
    """Residual(2) = d_D(D2) + quadratic term in D1 when lower orders hold."""
    t = crossed_D.triple
    gs, hs = t.g.space, t.h.space
    cc = ChComplex(t)
    units = ch_units(gs, hs, 1, parity=0)
    mat = d_D_matrix(crossed_D, 1, parity=0)
    kb = kernel_basis(mat)
    rng = random.Random(14)
    for _ in range(10):
        coefs = [F(rng.randint(-2, 2)) for _ in kb]
        vec = tuple(sum(c * k[i] for c, k in zip(coefs, kb)) for i in range(len(units)))
        blk = cc.twisted(crossed_D.as_block()).element(1, 0, vec)[0]
        D1 = LinearMap(
            gs, hs, tuple(tuple(blk.coeffs.get(((i,), ()), zero_vec(hs.dim))) for i in range(gs.dim))
        )
        D2 = LinearMap(
            gs,
            hs,
            tuple(
                tuple(
                    F(rng.randint(-2, 2)) if hs.parity(k) == gs.parity(i) else F(0)
                    for k in range(hs.dim)
                )
                for i in range(gs.dim)
            ),
        )
        d = CrossedHomDeformation.build(crossed_D, [D1, D2], order=2)
        assert residual(d, 1).is_zero()
        quad = {}
        for gk in wedge_basis(gs, 2):
            v = t.h.bracket_eval(D1.cols[gk[0]], D1.cols[gk[1]])
            if not vec_is_zero(v):
                quad[(gk, ())] = v
        expect = cc.twisted(crossed_D.as_block()).d((CrossedHom(t, D2).as_block(),))[0].add(
            BlockCochain(gs, hs, 2, 0, "h", quad)
        )
        assert residual(d, 2) == expect


def test_linear_ch_check_trivial(crossed_D):
    t = crossed_D.triple
    d = CrossedHomDeformation.build(crossed_D, [LinearMap.zero(t.g.space, t.h.space)], order=1)
    assert linear_check(d)
    # the paper's claim is about order-1 truncations alone
    with pytest.raises(ValidationError):
        linear_check(CrossedHomDeformation.build(crossed_D, order=2))
