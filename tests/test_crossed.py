import random
from fractions import Fraction as F

import pytest

from supercochain.cochains import BlockCochain, hat_extend, nr_bracket
from supercochain.crossed import (
    ChComplex,
    CrossedHom,
    ch_mc_residual,
    check_crossed,
    d_D_matrix,
    derivation_space,
    graph_check,
    graph_failures,
)
from supercochain.errors import ValidationError
from supercochain.graded import DirectSum
from supercochain.superalgebra import LinearMap, abelian, gl
from supercochain.triple import ActionMap, LieSupActTriple, mu_block

import oracles
from helpers import adjoint_triple, aff11, ch_cohomology, ch_units, identity_map, matrix_entry, random_block
from helpers import random_parity_zero_map, solvable_triple


@pytest.fixture
def aff_triple():
    return adjoint_triple(aff11())


def lmap(t, a, d):
    """e -> a e, f -> d f on the (1|1) adjoint triple."""
    return LinearMap(t.g.space, t.h.space, ((F(a), F(0)), (F(0), F(d))))


def test_zero_map_is_crossed(aff_triple):
    D = CrossedHom(aff_triple, LinearMap.zero(aff_triple.g.space, aff_triple.h.space))
    assert check_crossed(D).ok
    assert graph_check(D)
    assert ch_mc_residual(D).is_zero()


def test_candidate_must_be_even(aff_triple):
    odd = LinearMap(aff_triple.g.space, aff_triple.h.space, ((F(0), F(1)), (F(0), F(0))))
    with pytest.raises(ValidationError):
        CrossedHom(aff_triple, odd)


def test_known_family_on_adjoint_aff11(aff_triple):
    # D(e) = a e, D(f) = d f is crossed exactly when a (1 + d) = 0
    for a in range(-2, 3):
        for d in range(-2, 3):
            D = CrossedHom(aff_triple, lmap(aff_triple, a, d))
            assert check_crossed(D).ok == (a * (1 + d) == 0)


def test_zero_action_reduces_to_homomorphism():
    g = aff11()
    h = gl(1, 1)
    t = LieSupActTriple(g, h, ActionMap.zero(g.space, h.space))
    rng = random.Random(0)
    seen_both = set()
    for _ in range(60):
        m = random_parity_zero_map(g.space, h.space, rng)
        D = CrossedHom(t, m)
        ok = check_crossed(D).ok
        assert ok == oracles.dense_is_homomorphism(m, g, h)
        seen_both.add(ok)
    assert seen_both == {True, False}


def test_identity_difference_operator_on_gl11_fails():
    t = adjoint_triple(gl(1, 1))
    D = CrossedHom(t, identity_map(t.g.space))
    rep = check_crossed(D)
    assert not rep.ok
    # D = id satisfies the identity only where the bracket vanishes
    assert ("E11", "E12") in {f.where for f in rep.failures}
    assert ("E11", "E22") not in {f.where for f in rep.failures}


def test_graph_check_agrees_with_identity_check(aff_triple):
    rng = random.Random(1)
    for _ in range(40):
        m = random_parity_zero_map(aff_triple.g.space, aff_triple.h.space, rng)
        D = CrossedHom(aff_triple, m)
        rep = check_crossed(D)
        fails = graph_failures(D)
        assert rep.ok == (not fails)
        assert {f.where for f in rep.failures} == {f.where for f in fails}


def test_three_way_equivalence(aff_triple):
    rng = random.Random(2)
    t2 = solvable_triple()
    for t in (aff_triple, t2):
        for _ in range(60):
            m = random_parity_zero_map(t.g.space, t.h.space, rng)
            D = CrossedHom(t, m)
            a = check_crossed(D).ok
            b = graph_check(D)
            c = ch_mc_residual(D).is_zero()
            assert a == b == c


def test_self_bracket_closed_form(aff_triple):
    cc = ChComplex(aff_triple)
    rng = random.Random(3)
    for _ in range(20):
        m = random_parity_zero_map(aff_triple.g.space, aff_triple.h.space, rng)
        db = CrossedHom(aff_triple, m).as_block()
        got = cc.bracket(db, db)
        h = aff_triple.h
        from supercochain.graded import wedge_basis

        expected = {}
        for key in wedge_basis(aff_triple.g.space, 2):
            v = h.bracket_eval(m.cols[key[0]], m.cols[key[1]])
            v = tuple(2 * x for x in v)
            if any(v):
                expected[(key, ())] = v
        assert got.coeffs == expected


def test_bracket_and_coboundary_annihilate_zero(aff_triple):
    cc = ChComplex(aff_triple)
    rng = random.Random(42)
    zero = BlockCochain.zero(aff_triple.g.space, aff_triple.h.space, 1, 0, "h")
    f = random_block(aff_triple.g.space, aff_triple.h.space, 1, 0, "h", rng)
    assert cc.bracket(f, zero).is_zero()
    assert cc.bracket(zero, f).is_zero()
    assert cc.coboundary(zero).is_zero()


def test_d_D_matrix_is_parity_block_diagonal(aff_triple):
    D = CrossedHom(aff_triple, lmap(aff_triple, 0, 1))
    full = d_D_matrix(D, 1)
    units1 = ch_units(aff_triple.g.space, aff_triple.h.space, 1)
    units2 = ch_units(aff_triple.g.space, aff_triple.h.space, 2)
    for r, ru in enumerate(units2):
        for c, cu in enumerate(units1):
            if ru[4] != cu[4]:
                assert matrix_entry(full, r, c) == 0


def test_d_D_matrix_zero_structures():
    g = abelian(1, 1)
    h = abelian(1, 1, even_prefix="u", odd_prefix="v")
    t = LieSupActTriple(g, h, ActionMap.zero(g.space, h.space))
    D = CrossedHom(t, LinearMap.zero(g.space, h.space))
    assert d_D_matrix(D, 1).is_zero()


def test_bracket_closed_form_matches_definition():
    rng = random.Random(4)
    triples = [adjoint_triple(aff11()), adjoint_triple(gl(1, 1)), solvable_triple()]
    for t in triples:
        cc = ChComplex(t)
        gs, hs = t.g.space, t.h.space
        for _ in range(12):
            m1 = rng.randint(1, 2)
            m2 = rng.randint(1, 2)
            f1 = random_block(gs, hs, m1, 0, "h", rng)
            f2 = random_block(gs, hs, m2, 0, "h", rng)
            assert cc.bracket(f1, f2) == oracles.ch_bracket_closed(t, f1, f2)


def test_bracket_graded_antisymmetry():
    t = adjoint_triple(aff11())
    cc = ChComplex(t)
    gs, hs = t.g.space, t.h.space
    rng = random.Random(5)
    for _ in range(25):
        f1 = random_block(gs, hs, rng.randint(1, 2), 0, "h", rng)
        f2 = random_block(gs, hs, rng.randint(1, 2), 0, "h", rng)
        for p1, a in f1.parity_parts():
            for p2, b in f2.parity_parts():
                m, n = p1.g_arity, p2.g_arity
                sign = F(-1 if (m * n + a * b) % 2 == 0 else 1)
                assert cc.bracket(p1, p2) == cc.bracket(p2, p1).scale(sign)


def test_bracket_graded_jacobi():
    t = adjoint_triple(aff11())
    cc = ChComplex(t)
    gs, hs = t.g.space, t.h.space
    rng = random.Random(6)
    for _ in range(10):
        fs = [random_block(gs, hs, rng.randint(1, 2), 0, "h", rng) for _ in range(3)]
        parts = [p for f in fs for p in f.parity_parts()]
        if len(parts) < 3:
            continue
        (f1, a), (f2, b), (f3, _) = parts[0], parts[1], parts[2]
        l, m = f1.g_arity, f2.g_arity
        lhs = cc.bracket(f1, cc.bracket(f2, f3))
        rhs = cc.bracket(cc.bracket(f1, f2), f3).add(
            cc.bracket(f2, cc.bracket(f1, f3)).scale(F(-1 if (l * m + a * b) % 2 else 1))
        )
        assert lhs == rhs


def test_intermediate_sign_identity():
    # [[mu,f1],f2] + (-1)^(m + mn - n + f1 f2) [[mu,f2],f1] = 0
    t = adjoint_triple(aff11())
    gs, hs = t.g.space, t.h.space
    ds = DirectSum(gs, hs)
    mu_hat = hat_extend(mu_block(gs, t.h), ds)
    rng = random.Random(7)
    for _ in range(25):
        f1 = random_block(gs, hs, rng.randint(1, 2), 0, "h", rng)
        f2 = random_block(gs, hs, rng.randint(1, 2), 0, "h", rng)
        for p1, a in f1.parity_parts():
            for p2, b in f2.parity_parts():
                m, n = p1.g_arity, p2.g_arity
                lhs = nr_bracket(nr_bracket(mu_hat, hat_extend(p1, ds)), hat_extend(p2, ds))
                rhs = nr_bracket(nr_bracket(mu_hat, hat_extend(p2, ds)), hat_extend(p1, ds))
                sign = F(-1 if (m + m * n - n + a * b) % 2 else 1)
                assert lhs == rhs.scale(sign).scale(-1)


def test_del_pi_rho_explicit_formula(aff_triple):
    cc = ChComplex(aff_triple)
    t = aff_triple
    rng = random.Random(8)
    from supercochain.graded import wedge_basis
    from oracles import vec_add, vec_scale

    for _ in range(20):
        m = random_parity_zero_map(t.g.space, t.h.space, rng)
        fb = CrossedHom(t, m).as_block()
        got = cc.coboundary(fb)
        exp = {}
        for key in wedge_basis(t.g.space, 2):
            x, y = key
            sgn = F(1 if (t.g.space.parity(x) * t.g.space.parity(y)) % 2 else -1)
            v = vec_scale(m.apply(t.g.bracket_basis(x, y)), F(-1))
            v = vec_add(v, t.rho.operator(x).apply(m.cols[y]))
            v = vec_add(v, vec_scale(t.rho.operator(y).apply(m.cols[x]), sgn))
            if any(c != 0 for c in v):
                exp[(key, ())] = v
        assert got.coeffs == exp


def test_del_pi_rho_squares_to_zero(aff_triple):
    cc = ChComplex(aff_triple)
    rng = random.Random(9)
    for arity in (1, 2):
        f = random_block(aff_triple.g.space, aff_triple.h.space, arity, 0, "h", rng)
        assert cc.coboundary(cc.coboundary(f)).is_zero()


def test_del_pi_rho_derivation_rule_and_inner_obstruction(aff_triple):
    cc = ChComplex(aff_triple)
    t = aff_triple
    gs, hs = t.g.space, t.h.space
    ds = DirectSum(gs, hs)
    mu_hat = hat_extend(mu_block(gs, t.h), ds)
    rng = random.Random(10)
    for _ in range(15):
        f1 = random_block(gs, hs, rng.randint(1, 2), 0, "h", rng)
        f2 = random_block(gs, hs, rng.randint(1, 2), 0, "h", rng)
        for p1, _ in f1.parity_parts():
            m = p1.g_arity
            for p2, _ in f2.parity_parts():
                lhs = cc.coboundary(cc.bracket(p1, p2))
                rhs = cc.bracket(cc.coboundary(p1), p2).add(
                    cc.bracket(p1, cc.coboundary(p2)).scale(F(-1 if m % 2 else 1))
                )
                assert lhs == rhs
                # the composite obstruction [[pi+rho, mu], f1], f2] vanishes identically
                inner = nr_bracket(cc.pr_hat, mu_hat)
                piece = nr_bracket(nr_bracket(inner, hat_extend(p1, ds)), hat_extend(p2, ds))
                assert piece.is_zero()


def test_mc_residual_matches_closed_expression(aff_triple):
    t = aff_triple
    rng = random.Random(11)
    from supercochain.graded import wedge_basis
    from oracles import vec_add, vec_scale

    for _ in range(20):
        m = random_parity_zero_map(t.g.space, t.h.space, rng)
        D = CrossedHom(t, m)
        res = ch_mc_residual(D)
        exp = {}
        for key in wedge_basis(t.g.space, 2):
            x, y = key
            sgn = F(1 if (t.g.space.parity(x) * t.g.space.parity(y)) % 2 else -1)
            v = vec_scale(m.apply(t.g.bracket_basis(x, y)), F(-1))
            v = vec_add(v, t.rho.operator(x).apply(m.cols[y]))
            v = vec_add(v, vec_scale(t.rho.operator(y).apply(m.cols[x]), sgn))
            v = vec_add(v, t.h.bracket_eval(m.cols[x], m.cols[y]))
            if any(c != 0 for c in v):
                exp[(key, ())] = v
        assert res.coeffs == exp
        failing = {f.where for f in check_crossed(D).failures}
        witnessed = {
            (t.g.space.labels[gk[0]], t.g.space.labels[gk[1]]) for (gk, hk) in res.coeffs
        }
        if failing:
            assert witnessed <= {w for w in failing} | {(b, a) for a, b in failing}


def test_d_D_matrix_requires_crossed(aff_triple):
    bad = CrossedHom(aff_triple, lmap(aff_triple, 1, 1))
    with pytest.raises(ValidationError):
        d_D_matrix(bad, 1)


def test_d_D_squares_to_zero_and_converse(aff_triple):
    D = CrossedHom(aff_triple, lmap(aff_triple, 0, 3))
    assert check_crossed(D).ok
    for n in (1, 2):
        d1 = d_D_matrix(D, n)
        d2 = d_D_matrix(D, n + 1)
        if d1.cols and d2.rows:
            assert d2.mul(d1).is_zero()
    # a non-crossed D breaks d^2 = 0 on at least one instance
    cc = ChComplex(aff_triple)
    bad_block = CrossedHom(aff_triple, lmap(aff_triple, 1, 1)).as_block()
    broke = False
    rng = random.Random(12)
    for _ in range(20):
        f = random_block(aff_triple.g.space, aff_triple.h.space, 1, 0, "h", rng)
        once = cc.twisted(bad_block).d((f,))[0]
        twice = cc.twisted(bad_block).d((once,))[0]
        if not twice.is_zero():
            broke = True
            break
    assert broke


def test_ch_cohomology_trivial_cases():
    g = abelian(1, 0)
    h = abelian(1, 0, even_prefix="u")
    t = LieSupActTriple(g, h, ActionMap.zero(g.space, h.space))
    D = CrossedHom(t, LinearMap.zero(g.space, h.space))
    assert ch_cohomology(D, 1) == (1, 0)
    assert ch_cohomology(D, 2) == (0, 0)
    assert ch_cohomology(D, 3) == (0, 0)


def test_ch_cohomology_alternating_parities():
    g = abelian(0, 1, odd_prefix="y")
    h = abelian(1, 0, even_prefix="u")
    t = LieSupActTriple(g, h, ActionMap.zero(g.space, h.space))
    D = CrossedHom(t, LinearMap.zero(g.space, h.space))
    for n in (1, 2, 3, 4):
        dims = ch_cohomology(D, n)
        assert dims == ((1, 0) if n % 2 == 0 else (0, 1))
        assert dims == oracles.ch_oracle_cohomology(D, n)


def test_ch_cohomology_of_zero_is_derivation_space():
    G = gl(1, 1)
    t = adjoint_triple(G)
    D = CrossedHom(t, LinearMap.zero(G.space, G.space))
    even, odd = derivation_space(G)
    assert ch_cohomology(D, 1) == (len(even), len(odd))


@pytest.mark.parametrize("a,d", [(0, 0), (0, 1), (-1, -1)])
def test_ch_cohomology_matches_oracle(aff_triple, a, d):
    D = CrossedHom(aff_triple, lmap(aff_triple, a, d))
    for n in (1, 2):
        assert ch_cohomology(D, n) == oracles.ch_oracle_cohomology(D, n)

