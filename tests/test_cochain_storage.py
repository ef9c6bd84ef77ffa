"""Cochains and structure tables store int rows over one denominator; every self-bracket is
one insertion product.

A ``Cochain`` or ``BlockCochain`` holds ``ints``, {key: {position: int}},
over one positive ``den`` in canonical form (no zero stored, no factor
common to ``den`` and every entry), so equal maps have equal ``(den, ints)``
whatever denominator they were built over.  ``coeffs`` is a ``Fraction`` view.
A ``SuperAlgebra`` or ``ActionMap`` holds its table over every ordered pair
the same way, with ``sc`` / ``table`` as views.  Values are ints or
``Fraction``s and nothing else.  For an even arity-2 P, [P, P] = 2 P o P.
"""

import math
import random
from decimal import Decimal
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercochain.cochains import (
    BlockCochain,
    Cochain,
    circ,
    hat_extend,
    nr_bracket,
    project_block,
)
from supercochain.deformation import CrossedHomDeformation, TripleDeformation
from supercochain.errors import ArityMismatch, ValidationError
from supercochain.graded import GradedSpace, direct_sum, wedge_basis
from supercochain.superalgebra import LinearMap, SuperAlgebra
from supercochain.triple import ActionMap

import oracles
from helpers import SMALL_SPACES, random_block, random_cochain, random_homogeneous_cochain
from test_sparse_checks import CROSSED, TRIPLES

V = GradedSpace(("a", "c"), ("b",))
G = GradedSpace(("x",), ("y",))
H = GradedSpace(("u",), ("v", "w"))
KEYS = list(wedge_basis(V, 2))


def _stored(c):
    """Every stored int: of each value of a cochain, of each pair of a table."""
    rows = c.ints.values() if isinstance(c.ints, dict) else [vec for row in c.ints for vec in row]
    return [x for row in rows for x in row.values()]


def _assert_canonical(c):
    entries = _stored(c)
    assert type(c.den) is int and c.den >= 1
    assert all(type(x) is int and x for x in entries)
    if isinstance(c.ints, dict):
        assert all(c.ints.values())
    assert math.gcd(c.den, *entries) == 1


def _times(rows, k):
    return {key: {t: k * x for t, x in row.items()} for key, row in rows.items()}


int_rows = st.dictionaries(
    st.sampled_from(KEYS),
    st.dictionaries(st.integers(0, V.dim - 1), st.integers(-6, 6), max_size=V.dim),
    max_size=len(KEYS),
)


@settings(max_examples=60, deadline=None)
@given(rows=int_rows, den=st.integers(1, 12), k=st.integers(1, 30))
def test_int_storage_is_canonical_for_every_common_factor(rows, den, k):
    shape = (V, V, 2)
    base = Cochain._from_ints(shape, den, rows)
    scaled = Cochain._from_ints(shape, k * den, _times(rows, k))
    given_fractions = {
        key: tuple(F(row.get(t, 0), den) for t in range(V.dim)) for key, row in rows.items() if any(row.values())
    }
    assert scaled == base == Cochain(V, V, 2, given_fractions)
    assert (scaled.den, scaled.ints) == (base.den, base.ints)
    assert base.coeffs == given_fractions
    _assert_canonical(base)
    if not given_fractions:
        assert base.den == 1 and base.is_zero()


PAIRS = [(i, j) for i in range(V.dim) for j in range(i, V.dim)]
pair_rows = st.dictionaries(
    st.sampled_from(PAIRS),
    st.dictionaries(st.integers(0, V.dim - 1), st.integers(-6, 6), max_size=V.dim),
    max_size=len(PAIRS),
)


def _graded(rows):
    """``rows`` cut to the components of the parity of each bracket [b_i, b_j]."""
    pars = V.parities
    return {
        (i, j): {t: x for t, x in row.items() if pars[t] == (pars[i] + pars[j]) % 2}
        for (i, j), row in rows.items()
    }


@settings(max_examples=60, deadline=None)
@given(rows=pair_rows, other=pair_rows, den=st.integers(1, 12), k=st.integers(1, 30))
def test_algebra_storage_is_canonical_for_every_common_factor(rows, other, den, k):
    rows = _graded(rows)
    base = SuperAlgebra._from_ints(V, den, rows)
    scaled = SuperAlgebra._from_ints(V, k * den, _times(rows, k))
    given_fractions = {
        key: tuple(F(row.get(t, 0), den) for t in range(V.dim)) for key, row in rows.items() if any(row.values())
    }
    assert scaled == base == SuperAlgebra(V, given_fractions)
    assert (scaled.den, scaled.ints) == (base.den, base.ints)
    assert base.sc == given_fractions
    _assert_canonical(base)
    pars = V.parities
    for i, j in combinations(range(V.dim), 2):
        # the i > j half: [b_j, b_i] = -(-1)^{|b_i||b_j|} [b_i, b_j]
        sign = 1 if pars[i] and pars[j] else -1
        assert base.bracket_basis(j, i) == tuple(sign * x for x in base.bracket_basis(i, j))
    assert repr(base) == f"SuperAlgebra(dims=(2|1), entries={len(given_fractions)})"
    for B in (SuperAlgebra._from_ints(V, den, _graded(other)), SuperAlgebra._from_ints(V, k * den, rows)):
        assert (B == base) == (B.sc == base.sc)


action_rows = st.dictionaries(
    st.tuples(st.integers(0, G.dim - 1), st.integers(0, H.dim - 1)),
    st.dictionaries(st.integers(0, H.dim - 1), st.integers(-6, 6), max_size=H.dim),
    max_size=G.dim * H.dim,
)


@settings(max_examples=60, deadline=None)
@given(rows=action_rows, other=action_rows, den=st.integers(1, 12), k=st.integers(1, 30))
def test_action_storage_is_canonical_for_every_common_factor(rows, other, den, k):
    base = ActionMap._from_ints(G, H, den, rows)
    scaled = ActionMap._from_ints(G, H, k * den, _times(rows, k))
    table = tuple(
        tuple(tuple(F(rows.get((i, j), {}).get(t, 0), den) for t in range(H.dim)) for j in range(H.dim))
        for i in range(G.dim)
    )
    assert scaled == base == ActionMap(G, H, table)
    assert (scaled.den, scaled.ints) == (base.den, base.ints)
    assert base.table == table
    _assert_canonical(base)
    entries = sum(any(vec) for row in table for vec in row)
    assert repr(base) == f"ActionMap(dims=(1|1)->(1|2), entries={entries})"
    for B in (ActionMap._from_ints(G, H, den, other), ActionMap._from_ints(G, H, k * den, rows)):
        assert (B == base) == (B.table == base.table)


map_cols = st.dictionaries(
    st.integers(0, G.dim - 1),
    st.dictionaries(st.integers(0, H.dim - 1), st.integers(-6, 6), max_size=H.dim),
    max_size=G.dim,
)


@settings(max_examples=60, deadline=None)
@given(cols=map_cols, other=map_cols, den=st.integers(1, 12), k=st.integers(1, 30))
def test_linear_map_storage_is_canonical_for_every_common_factor(cols, other, den, k):
    base = LinearMap._from_ints((G, H), den, cols)
    scaled = LinearMap._from_ints((G, H), k * den, _times(cols, k))
    dense_cols = tuple(tuple(F(cols.get(j, {}).get(t, 0), den) for t in range(H.dim)) for j in range(G.dim))
    assert scaled == base == LinearMap(G, H, dense_cols)
    assert (scaled.den, scaled.ints) == (base.den, base.ints)
    assert base.cols == dense_cols
    assert all(type(x) is F for col in base.cols for x in col)
    _assert_canonical(base)
    entries = sum(x != 0 for col in dense_cols for x in col)
    assert repr(base) == repr(scaled) == f"LinearMap(dims=(1|1)->(1|2), entries={entries})"
    for B in (LinearMap._from_ints((G, H), den, other), LinearMap._from_ints((G, H), k * den, cols)):
        assert (B == base) == (B.cols == base.cols)
    # another source or target space alone gives an unequal map; a map has no hash
    relabelled = GradedSpace(("p",), ("q",))
    assert base != LinearMap._from_ints((relabelled, H), den, cols)
    assert base != LinearMap._from_ints((G, GradedSpace(("r",), ("s", "t"))), den, cols)
    with pytest.raises(TypeError):
        hash(base)
    with pytest.raises(ValidationError):
        base.apply((F(1, 2), 0.5))


def test_block_storage_is_canonical():
    shape = (G, H, 1, 1, "h")
    half = BlockCochain(*shape, {((0,), (0,)): (F(1, 2), 0, 0), ((1,), (1,)): (F(3, 2), 0, 0)})
    assert (half.den, half.ints) == (2, {((0,), (0,)): {0: 1}, ((1,), (1,)): {0: 3}})
    assert half == BlockCochain._from_ints(shape, 6, {((0,), (0,)): {0: 3, 1: 0}, ((1,), (1,)): {0: 9}})
    assert half.coeffs == {((0,), (0,)): (F(1, 2), F(0), F(0)), ((1,), (1,)): (F(3, 2), F(0), F(0))}
    assert BlockCochain._from_ints(shape, 4, {((0,), (0,)): {}}).ints == {}


def _ops(rng):
    """(name, result) of every linear and bracket operation on random data."""
    c1, c2 = random_cochain(V, 2, rng, bound=3), random_cochain(V, 2, rng, bound=3)
    b = random_block(G, H, 1, 1, "h", rng)
    ds = direct_sum(G, H)
    big = random_cochain(ds.space, 2, rng)
    return [
        ("add", c1.add(c2.scale(F(1, 3)))),
        ("scale", c1.scale(F(-5, 4))),
        ("hat_extend", hat_extend(b.scale(F(2, 3)))),
        ("project_block", project_block(big.scale(F(1, 6)), ds, 1, 1, "h")),
        ("circ", circ(c1.scale(F(1, 2)), c2)),
        ("nr_bracket", nr_bracket(c1, c2.scale(F(3, 4)))),
    ] + [("parity_parts", part) for part, _ in c1.scale(F(1, 5)).parity_parts()]


@pytest.mark.parametrize("seed", range(8))
def test_values_stay_ints_through_every_operation(seed):
    for name, result in _ops(random.Random(seed)):
        _assert_canonical(result)
        assert type(result.den) is int, name


@pytest.mark.parametrize("seed", range(12))
def test_self_bracket_is_twice_the_insertion_square(seed):
    rng = random.Random(seed)
    for space in SMALL_SPACES:
        P = random_homogeneous_cochain(space, 2, 0, rng, max_keys=3, bound=3).scale(F(1, rng.randint(1, 4)))
        assert nr_bracket(P, P) == circ(P, P).scale(2) == oracles.shuffle_nr_bracket(P, P)


def test_block_eval_refuses_a_wrong_slot_count():
    b = BlockCochain(G, H, 2, 0, "g", {((0, 1), ()): (F(1), F(0))})
    assert b.eval((1, 0), ()) == (F(-1), F(0))
    for g_slots, h_slots in (((0,), ()), ((0, 1), (0,)), ((0, 1, 1), ()), ((), ())):
        with pytest.raises(ArityMismatch):
            b.eval(g_slots, h_slots)
    c = Cochain(V, V, 2, {(0, 1): (F(1), F(0), F(0))})
    with pytest.raises(ArityMismatch):
        c.eval((0,))


@pytest.mark.parametrize("bad", [0.1, 0.5, "1/2", True, False, Decimal("0.5"), None, 1j])
def test_values_and_scalars_are_ints_or_fractions(bad):
    with pytest.raises(ValidationError):
        Cochain(V, V, 2, {(0, 1): (bad, 0, 0)})
    with pytest.raises(ValidationError):
        BlockCochain(G, H, 1, 0, "h", {((0,), ()): (0, bad, 0)})
    with pytest.raises(ValidationError):
        SuperAlgebra(V, {(0, 1): (0, bad, 0)})
    z = (0,) * H.dim
    with pytest.raises(ValidationError):
        ActionMap(G, H, [[z, (0, 0, bad), z], [z, z, z]])
    with pytest.raises(ValidationError):
        LinearMap(G, H, [z, (bad, 0, 0)])
    m = LinearMap(G, H, [z, (1, F(1, 2), 0)])
    with pytest.raises(ValidationError):
        m.scale(bad)
    assert m.scale(-2) == m.scale(F(-2)) == LinearMap(G, H, [z, (-2, -1, 0)])
    c = Cochain(V, V, 2, {(0, 1): (1, F(1, 2), 0)})
    with pytest.raises(ValidationError):
        c.scale(bad)
    assert c.coeffs == {(0, 1): (F(1), F(1, 2), F(0))}
    assert c.scale(-2) == c.scale(F(-2)) == Cochain(V, V, 2, {(0, 1): (-2, -1, 0)})


def test_residuals_with_zero_coefficients_match_references():
    t = TRIPLES["gl11_adjoint"]
    gs, hs = t.g.space, t.h.space
    zero_pi, zero_mu = Cochain.zero(gs, gs, 2), Cochain.zero(hs, hs, 2)
    # Pi_1 = 0 and Pi_2 = Pi_0: the zero operand adds no term to any order
    d = TripleDeformation.build(
        t, [zero_pi, t.g.as_cochain()], [ActionMap.zero(gs, hs), t.rho], [zero_mu, t.h.as_cochain()], order=2
    )
    assert d.series().residuals() == tuple(oracles.triple_deformation_residual(d, n) for n in range(3))
    D = CROSSED["gl11_adjoint"]
    dc = CrossedHomDeformation.build(D, [LinearMap.zero(gs, hs), D.linmap], order=2)
    assert dc.series().residuals() == tuple(oracles.ch_deformation_residual(dc, n) for n in range(3))

