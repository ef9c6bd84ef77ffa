import random
from fractions import Fraction as F

import pytest

from supercochain.cochains import nr_bracket
from supercochain.errors import DimensionMismatch, ShapeMismatch, ValidationError
from supercochain.graded import DirectSum
from supercochain.superalgebra import SuperAlgebra, abelian, check_jacobi, gl
from supercochain.triple import (
    ActionMap,
    LieSupActTriple,
    check_action,
    mc_element,
    mc_residual,
    triple_coboundary_matrix,
    triple_reports,
)

import oracles
from oracles import f_membership
from helpers import (
    adjoint_triple,
    embed_right,
    aff11,
    defining_triple,
    matrix_entry,
    triple_cohomology,
    triple_units,
    mixed21_triple,
    random_block,
    solvable_triple,
)


def test_action_map_refuses_wrong_shapes():
    """The table has one row per basis vector of g and one value per basis vector of h, and
    ``apply`` takes vectors of exactly those lengths: none is padded or cut."""
    t = adjoint_triple(aff11())
    s, z = t.g.space, (0,) * t.h.dim
    assert (s.dims, t.h.space.dims) == ((1, 1), (1, 1))
    for table in ([[z, z]], [[z, z]] * 3, [[z], [z]], [[z, z, z], [z, z]], [[(0,), z], [z, z]]):
        with pytest.raises(DimensionMismatch):
            ActionMap(s, t.h.space, table)
    assert t.rho.apply((1, 0), (1, 0)) == t.rho.value(0, 0)
    for x, u in (((1,), (1,)), ((1,), (1, 0)), ((1, 0), (1,)), ((1, 0, 0), (1, 0)), ((1, 0), (1, 0, 0))):
        with pytest.raises(DimensionMismatch):
            t.rho.apply(x, u)
    # entries that are not ints or Fractions are refused on either side, as everywhere else
    for x, u in (((0.5, 0), (1, 0)), ((1, 0), (0, 0.5)), (("1", 0), (1, 0)), ((1, 0), ("1/2", 0))):
        with pytest.raises(ValidationError):
            t.rho.apply(x, u)


def test_check_action_zero_action():
    g, h = gl(1, 1), abelian(1, 1)
    assert check_action(g, h, ActionMap.zero(g.space, h.space)).ok


def test_check_action_scalar():
    t = solvable_triple()
    assert check_action(t.g, t.h, t.rho).ok


def test_check_action_adjoint_gl11():
    t = adjoint_triple(gl(1, 1))
    assert check_action(t.g, t.h, t.rho).ok


def test_check_action_catches_broken_derivation():
    A = aff11()
    t = adjoint_triple(A)
    table = [list(row) for row in t.rho.table]
    table[1][1] = (F(1), F(0))  # rho(f)(f) = e: degree is fine, axioms are not
    bad = ActionMap(A.space, A.space, table)
    rep = check_action(A, A, bad)
    assert not rep.ok
    axioms = {f.axiom for f in rep.failures}
    assert axioms & {"action_derivation", "action_morphism"}


def test_mc_element_zero_for_trivial_data():
    g = abelian(1, 0)
    h = abelian(1, 0, even_prefix="u")
    t = LieSupActTriple(g, h, ActionMap.zero(g.space, h.space))
    assert mc_element(t).is_zero()


def test_mc_element_structure():
    t = solvable_triple()
    Pi = mc_element(t)
    ds = DirectSum(t.g.space, t.h.space)
    assert f_membership(Pi, ds)
    assert Pi.eval((ds.left_pos[0], ds.right_pos[0])) == embed_right(ds, (F(1),))


def test_check_lists_the_failures_of_triple_reports_in_order():
    t = adjoint_triple(aff11())
    table = [list(row) for row in t.rho.table]
    i, j = next((i, j) for i, row in enumerate(table) for j, vec in enumerate(row) if any(vec))
    table[i][j] = tuple(2 * x for x in table[i][j])
    bad = LieSupActTriple(t.g, t.h, ActionMap(t.g.space, t.h.space, table))
    reports = triple_reports(bad.g, bad.h, bad.rho)
    assert [name for name, _ in reports] == ["g.super_skew", "g.jacobi", "h.super_skew", "h.jacobi", "action"]
    failures = bad.check().failures
    assert failures and failures == tuple(f for _, r in reports for f in r.failures)
    assert {f.axiom for f in failures} <= {"action_degree", "action_derivation", "action_morphism"}


def test_mc_residual_zero_iff_axioms():
    for t in (solvable_triple(), adjoint_triple(aff11()), defining_triple(1, 1), mixed21_triple()):
        assert t.check().ok
        assert mc_residual(t.g, t.h, t.rho).is_zero


def test_mc_residual_all_zero_data():
    g = abelian(1, 1)
    h = abelian(1, 1, even_prefix="u", odd_prefix="v")
    res = mc_residual(g, h, ActionMap.zero(g.space, h.space))
    assert res.is_zero


def test_mc_residual_shape_mismatch():
    t = solvable_triple()
    other = abelian(2, 0)
    with pytest.raises(ShapeMismatch):
        mc_residual(other, t.h, t.rho)


def test_mc_residual_isolates_broken_action():
    A = aff11()
    t = adjoint_triple(A)
    table = [list(row) for row in t.rho.table]
    table[0][0] = (F(1), F(0))
    bad = ActionMap(A.space, A.space, table)
    res = mc_residual(A, A, bad)
    assert not res.is_zero
    assert res.ggg.is_zero() and res.hhh.is_zero()


def test_mc_residual_isolates_broken_jacobi():
    A = gl(1, 1)
    h = abelian(1, 1)
    rho = ActionMap.zero(A.space, h.space)
    sc = dict(A.sc)
    key = next(iter(sc))
    vec = list(sc[key])
    parity = (A.space.parity(key[0]) + A.space.parity(key[1])) % 2
    slot = next(k for k in range(A.dim) if A.space.parity(k) == parity)
    vec[slot] += 1
    sc[key] = tuple(vec)
    bad_g = SuperAlgebra(A.space, sc)
    res = mc_residual(bad_g, h, rho)
    assert not res.ggg.is_zero()
    assert res.ghh.is_zero() and res.hhh.is_zero()


def test_axioms_equivalent_to_residual_vanishing():
    from helpers import perturb_triple_data, random_valid_triple, triple_axioms_ok

    rng = random.Random(2024)
    disagreements = 0
    for trial in range(30):
        t = random_valid_triple(rng)
        assert triple_axioms_ok(t.g, t.h, t.rho)
        assert mc_residual(t.g, t.h, t.rho).is_zero
        data = perturb_triple_data(t, rng)
        if data is None:
            continue
        g, h, rho = data
        if triple_axioms_ok(g, h, rho) != mc_residual(g, h, rho).is_zero:
            disagreements += 1
    assert disagreements == 0


def test_coboundary_matrix_zero_triple():
    g = abelian(1, 0)
    h = abelian(1, 0, even_prefix="u")
    t = LieSupActTriple(g, h, ActionMap.zero(g.space, h.space))
    m = triple_coboundary_matrix(t, 1)
    assert m.is_zero()


def test_coboundary_squares_to_zero():
    for t in (solvable_triple(), adjoint_triple(aff11()), defining_triple(1, 1)):
        for n in (1, 2):
            d_n = triple_coboundary_matrix(t, n)
            d_n1 = triple_coboundary_matrix(t, n + 1)
            if d_n.cols and d_n1.rows:
                assert d_n1.mul(d_n).is_zero()


def test_coboundary_parity_block_diagonal():
    t = adjoint_triple(aff11())
    full = triple_coboundary_matrix(t, 1)
    units1 = triple_units(t.g.space, t.h.space, 1)
    units2 = triple_units(t.g.space, t.h.space, 2)
    for r, ru in enumerate(units2):
        for c, cu in enumerate(units1):
            if ru[4] != cu[4]:
                assert matrix_entry(full, r, c) == 0


def test_derivation_rule_of_coboundary():
    rng = random.Random(31)
    t = adjoint_triple(aff11())
    gsp, hsp = t.g.space, t.h.space
    ds = DirectSum(gsp, hsp)
    Pi = mc_element(t)
    legal = [(1, 0, "g"), (2, 0, "g"), (1, 1, "h"), (0, 1, "h"), (0, 2, "h")]
    from supercochain.cochains import hat_extend

    for _ in range(15):
        b1 = random_block(gsp, hsp, *rng.choice(legal), rng)
        b2 = random_block(gsp, hsp, *rng.choice(legal), rng)
        for F1, f in hat_extend(b1, ds).parity_parts():
            n1 = F1.arity - 1
            for F2, _ in hat_extend(b2, ds).parity_parts():
                lhs = nr_bracket(Pi, nr_bracket(F1, F2))
                rhs = nr_bracket(nr_bracket(Pi, F1), F2).add(
                    nr_bracket(F1, nr_bracket(Pi, F2)).scale(F(-1 if n1 % 2 else 1))
                )
                assert lhs == rhs


def test_cohomology_trivial_pair():
    g = abelian(1, 0)
    h = abelian(1, 0, even_prefix="u")
    t = LieSupActTriple(g, h, ActionMap.zero(g.space, h.space))
    assert len(triple_units(g.space, h.space, 1)) == 2
    assert triple_cohomology(t, 1) == (2, 0)


def test_cohomology_solvable_matches_recorded_value():
    t = solvable_triple()
    assert triple_cohomology(t, 1) == (1, 0)
    assert triple_cohomology(t, 2) == (0, 0)


def test_cohomology_vanishes_beyond_top_degree():
    g = abelian(2, 0)
    h = abelian(1, 0, even_prefix="u")
    t = LieSupActTriple(g, h, ActionMap.zero(g.space, h.space))
    n = g.dim + h.dim + 1
    assert len(triple_units(g.space, h.space, n)) == 0
    assert triple_cohomology(t, n) == (0, 0)


@pytest.mark.parametrize(
    "make",
    [solvable_triple, lambda: adjoint_triple(aff11()), defining_triple],
    ids=["solvable", "aff11-adjoint", "gl11-defining"],
)
def test_cohomology_matches_raw_table_oracle(make):
    t = make(1, 1) if make is defining_triple else make()
    for n in (1, 2):
        assert triple_cohomology(t, n) == oracles.triple_oracle_cohomology(t, n)


def test_unit_cochain_round_trip():
    t = adjoint_triple(aff11())
    units = triple_units(t.g.space, t.h.space, 2)
    for idx, u in enumerate(units):
        c = oracles.unit_triple_cochain(t.g.space, t.h.space, 2, u)
        vec = oracles.blocks_vector(c, units)
        assert vec[idx] == 1 and sum(1 for x in vec if x != 0) == 1
