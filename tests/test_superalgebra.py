import random
from fractions import Fraction as F

import pytest

from supercochain.errors import InvalidAction, ValidationError
from supercochain.graded import GradedSpace
from supercochain.superalgebra import (
    LinearMap,
    SuperAlgebra,
    abelian,
    check_jacobi,
    check_super_skew,
    gl,
)
from supercochain.crossed import derivation_space
from supercochain.triple import ActionMap, semidirect
from supercochain.exact_linalg import rank

import oracles
from helpers import ad, aff11, embed_left, embed_right, identity_map, matrix_from_cols, parity_component
from helpers import super_commutator


def basis_vec(dim, i):
    return tuple(F(1 if k == i else 0) for k in range(dim))


def test_gl_dimensions():
    assert gl(1, 0).space.dims == (1, 0)
    assert gl(1, 1).space.dims == (2, 2)
    assert gl(2, 1).space.dims == (5, 4)


def test_gl10_abelian():
    A = gl(1, 0)
    assert A.bracket_basis(0, 0) == (F(0),)
    assert check_jacobi(A).ok


def test_gl11_bracket_values():
    A = gl(1, 1)
    e11, e12, e21, e22 = (A.space.index(x) for x in ("E11", "E12", "E21", "E22"))
    got = A.bracket_eval(basis_vec(4, e11), basis_vec(4, e12))
    assert got == basis_vec(4, e12)
    got = A.bracket_eval(basis_vec(4, e12), basis_vec(4, e21))
    want = tuple(a + b for a, b in zip(basis_vec(4, e11), basis_vec(4, e22)))
    assert got == want


@pytest.mark.parametrize(
    "m,n", [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (3, 0), (2, 1), (1, 2), (0, 3)]
)
def test_gl_satisfies_axioms(m, n):
    A = gl(m, n)
    assert check_super_skew(A).ok
    assert check_jacobi(A).ok


def test_abelian_axioms_and_bracket():
    A = abelian(2, 1)
    assert A.space.dims == (2, 1)
    assert check_super_skew(A).ok and check_jacobi(A).ok
    x = (F(1), F(2), F(3))
    assert A.bracket_eval(x, x) == (F(0), F(0), F(0))


def test_bracket_eval_dimension_mismatch():
    from supercochain.errors import DimensionMismatch

    A = abelian(2, 1)
    with pytest.raises(DimensionMismatch):
        A.bracket_eval((F(1), F(2)), (F(1), F(2), F(3)))
    # entries that are not ints or Fractions are refused on either side, as everywhere else
    for B, x, y in (
        (A, (0.5, 0, 0), (1, 0, 0)),
        (A, (1, 0, 0), (0, "1", 0)),
        (gl(1, 1), (0.5, 0, 0, 0), (1, 0, 0, 0)),
        (gl(1, 1), (1, 0, 0, 0), ("1/2", 0, 0, 0)),
    ):
        with pytest.raises(ValidationError):
            B.bracket_eval(x, y)


def test_even_self_bracket_fails_skew():
    sp = GradedSpace(("a", "b"), ())
    A = SuperAlgebra(sp, {(0, 0): (F(0), F(1))})
    rep = check_super_skew(A)
    assert not rep.ok
    assert rep.failures[0].where == ("a", "a")


def test_perturbed_gl11_fails_jacobi():
    A = gl(1, 1)
    sc = dict(A.sc)
    key, vec = next(iter(sc.items()))
    vec = list(vec)
    want_parity = (A.space.parity(key[0]) + A.space.parity(key[1])) % 2
    slot = next(k for k in range(A.dim) if A.space.parity(k) == want_parity)
    vec[slot] += 1
    sc[key] = tuple(vec)
    B = SuperAlgebra(A.space, sc)
    assert not check_jacobi(B).ok


def test_constructor_rejects_parity_violations():
    sp = GradedSpace(("a",), ("b",))
    with pytest.raises(ValidationError):
        SuperAlgebra(sp, {(0, 0): (F(0), F(1))})  # even*even -> odd component


def test_bracket_skew_derivation():
    A = aff11()
    assert A.bracket_basis(1, 0) == (F(0), F(-1))
    # odd-odd pair: [b,b] need not vanish structurally, here it is absent
    assert A.bracket_basis(1, 1) == (F(0), F(0))


def test_derivation_space_dims_abelian():
    even, odd = derivation_space(abelian(1, 0))
    assert (len(even), len(odd)) == (1, 0)
    even, odd = derivation_space(abelian(1, 1))
    assert (len(even), len(odd)) == (2, 2)


def test_derivations_contain_ad_and_close_under_bracket():
    A = gl(1, 1)
    even, odd = derivation_space(A)
    by_parity = {0: even, 1: odd}

    def in_span(maps, candidate):
        if not maps:
            return candidate.is_zero()
        cols = [sum((list(c) for c in m.cols), []) for m in maps]
        target = sum((list(c) for c in candidate.cols), [])
        mat = matrix_from_cols(cols, len(target))
        aug = matrix_from_cols(cols + [target], len(target))
        return rank(mat) == rank(aug)

    for i in range(A.dim):
        adi = ad(A, i)
        assert in_span(by_parity[A.space.parity(i)], adi)

    # closure under the super commutator
    rng = random.Random(5)
    all_maps = [(m, 0) for m in even] + [(m, 1) for m in odd]
    for _ in range(10):
        (m1, p1), (m2, p2) = rng.sample(all_maps, 2)
        br = super_commutator(m1, m2)
        assert in_span(by_parity[(p1 + p2) % 2], br)


def test_semidirect_zero_action_is_direct_sum():
    g = gl(1, 1)
    h = abelian(1, 1)
    rho = ActionMap.zero(g.space, h.space)
    S = semidirect(g, h, rho)
    assert check_jacobi(S).ok
    # g block survives verbatim
    from supercochain.graded import DirectSum

    ds = DirectSum(g.space, h.space)
    for i in range(g.dim):
        for j in range(g.dim):
            got = S.bracket_eval(
                embed_left(ds, basis_vec(g.dim, i)), embed_left(ds, basis_vec(g.dim, j))
            )
            assert got == embed_left(ds, g.bracket_basis(i, j))
    # cross brackets vanish
    got = S.bracket_eval(
        embed_left(ds, basis_vec(g.dim, 0)), embed_right(ds, basis_vec(h.dim, 0))
    )
    assert all(x == 0 for x in got)


def test_semidirect_scalar_action_gives_solvable():
    g = gl(1, 0)
    h = abelian(1, 0, even_prefix="u")
    rho = ActionMap(g.space, h.space, [[(F(1),)]])
    S = semidirect(g, h, rho)
    assert S.space.dims == (2, 0)
    e, f = 0, 1
    assert S.bracket_basis(e, f) == (F(0), F(1))
    assert check_jacobi(S).ok


def test_semidirect_rejects_invalid_action():
    g = aff11()
    bad = ActionMap(
        g.space, g.space, [[(F(1), F(0)), (F(0), F(0))], [(F(0), F(0)), (F(0), F(0))]]
    )
    with pytest.raises(InvalidAction):
        semidirect(g, g, bad)


def test_semidirect_of_adjoint_satisfies_jacobi():
    A = aff11()
    rho = ActionMap(
        A.space, A.space, [[A.bracket_basis(i, j) for j in range(2)] for i in range(2)]
    )
    S = semidirect(A, A, rho)
    assert check_jacobi(S).ok and check_super_skew(S).ok


def test_semidirect_of_random_valid_triples_satisfies_jacobi():
    from helpers import random_valid_triple

    rng = random.Random(99)
    for _ in range(12):
        t = random_valid_triple(rng)
        S = semidirect(t.g, t.h, t.rho)  # re-verifies the Jacobi identity inside
        assert S.dim == t.g.dim + t.h.dim
        assert check_super_skew(S).ok


def test_linear_map_parity_and_parts():
    sp = GradedSpace(("a",), ("b",))
    m = LinearMap(sp, sp, ((F(1), F(2)), (F(3), F(4))))
    assert m.parity() is None
    even = parity_component(m, 0)
    odd = parity_component(m, 1)
    assert even.cols == ((F(1), F(0)), (F(0), F(4)))
    assert odd.cols == ((F(0), F(2)), (F(3), F(0)))
    assert even.add(odd).cols == m.cols
    assert LinearMap.zero(sp, sp).parity() == 0


def test_is_homomorphism():
    A = aff11()
    assert oracles.dense_is_homomorphism(identity_map(A.space), A, A)
    assert oracles.dense_is_homomorphism(LinearMap.zero(A.space, A.space), A, A)
    scale2 = LinearMap(A.space, A.space, ((F(2), F(0)), (F(0), F(2))))
    assert not oracles.dense_is_homomorphism(scale2, A, A)  # [2e,2f] = 4f != 2f
