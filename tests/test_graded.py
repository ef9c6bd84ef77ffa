import importlib
import itertools
import pkgutil
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supercochain
from supercochain.cochains import block_key
from supercochain.errors import ArityMismatch, ValidationError
from supercochain.graded import GradedSpace, direct_sum, normalize_tuple, shuffle, wedge_basis, wedge_dim

import oracles
from helpers import embed_left, split
from oracles import compose, inverse_act, koszul_K, koszul_sign, perm_signature, shuffles


@st.composite
def perm_and_parities(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    sigma = tuple(draw(st.permutations(tuple(range(n)))))
    parities = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return sigma, parities


def test_koszul_examples():
    assert koszul_K((0, 1), (1, 1)) == 0
    assert koszul_K((1, 0), (1, 1)) == 1
    assert koszul_K((1, 0), (0, 1)) == 0
    assert koszul_sign((0, 1), (0, 0)) == 1
    assert koszul_sign((1, 0), (1, 1)) == 1
    assert koszul_sign((1, 0), (0, 0)) == -1


def test_koszul_arity_mismatch():
    with pytest.raises(ArityMismatch):
        koszul_K((0, 1), (1,))
    with pytest.raises(ArityMismatch):
        koszul_sign((0, 1, 2), (1, 0))


@given(perm_and_parities(), st.data())
@settings(max_examples=300, deadline=None)
def test_sign_composition_law(sp, data):
    sigma, parities = sp
    tau = tuple(data.draw(st.permutations(tuple(range(len(sigma))))))
    st_comp = compose(sigma, tau)
    shifted = inverse_act(sigma, parities)
    assert (koszul_K(st_comp, parities) - koszul_K(sigma, parities) - koszul_K(tau, shifted)) % 2 == 0
    assert koszul_sign(st_comp, parities) == koszul_sign(sigma, parities) * koszul_sign(tau, shifted)


def identity_perm(n: int):
    return tuple(range(n))


def invert(sigma):
    inv = [0] * len(sigma)
    for i, v in enumerate(sigma):
        inv[v] = i
    return tuple(inv)


@given(perm_and_parities(max_n=5))
@settings(max_examples=100, deadline=None)
def test_inverse_is_group_inverse(sp):
    sigma, parities = sp
    assert compose(sigma, invert(sigma)) == identity_perm(len(sigma))
    assert koszul_sign(sigma, parities) * koszul_sign(invert(sigma), inverse_act(sigma, parities)) == 1


def test_space_validation():
    with pytest.raises(ValidationError):
        GradedSpace(("a", "a"), ())
    with pytest.raises(ValidationError):
        GradedSpace(("a",), ("a",))
    sp = GradedSpace(("a",), ("b",))
    assert sp.dims == (1, 1)
    assert sp.parity(0) == 0 and sp.parity(1) == 1
    assert sp.index("b") == 1
    with pytest.raises(ValidationError):
        sp.index("c")


def test_wedge_basis_examples():
    assert wedge_basis(GradedSpace(("e",), ()), 2) == ()
    assert len(wedge_basis(GradedSpace((), ("f",)), 3)) == 1
    sp = GradedSpace(("e",), ("f",))
    assert wedge_basis(sp, 2) == ((0, 1), (1, 1))
    assert wedge_basis(sp, 0) == ((),)


@pytest.mark.parametrize("p,q", [(0, 1), (1, 0), (1, 1), (2, 1), (2, 2)])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_wedge_basis_counts_and_normal_form(p, q, n):
    sp = GradedSpace(tuple(f"e{i}" for i in range(p)), tuple(f"f{i}" for i in range(q)))
    basis = wedge_basis(sp, n)
    assert len(basis) == wedge_dim(sp, n)
    assert list(basis) == sorted(basis)
    for key in basis:
        assert all(a <= b for a, b in zip(key, key[1:]))
        for a, b in zip(key, key[1:]):
            if a == b:
                assert sp.parity(a) == 1


@pytest.mark.parametrize("p,q,n", [(1, 1, 2), (2, 1, 2), (1, 2, 3), (2, 2, 2), (2, 2, 3)])
def test_wedge_dim_matches_invariant_form_oracle(p, q, n):
    sp = GradedSpace(tuple(f"e{i}" for i in range(p)), tuple(f"f{i}" for i in range(q)))
    assert wedge_dim(sp, n) == oracles.invariant_form_dimension(sp, n)


def test_normalize_examples():
    sp = GradedSpace(("e",), ("f",))
    assert normalize_tuple(sp, (0, 1)) == ((0, 1), 1)
    assert normalize_tuple(sp, (1, 0)) == ((0, 1), -1)
    assert normalize_tuple(sp, (0, 0)) == ((0, 0), 0)
    assert normalize_tuple(sp, (1, 1)) == ((1, 1), 1)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_normalize_idempotent_and_consistent(data):
    p = data.draw(st.integers(0, 2))
    q = data.draw(st.integers(0, 2))
    if p + q == 0:
        return
    sp = GradedSpace(tuple(f"e{i}" for i in range(p)), tuple(f"f{i}" for i in range(q)))
    n = data.draw(st.integers(1, 4))
    slots = tuple(data.draw(st.integers(0, p + q - 1)) for _ in range(n))
    key, sign = normalize_tuple(sp, slots)
    if sign == 0:
        # some even position repeats
        assert any(
            a == b and sp.parity(a) == 0 for a, b in itertools.combinations(slots, 2)
        )
    else:
        key2, sign2 = normalize_tuple(sp, key)
        assert key2 == key and sign2 == 1


@pytest.mark.parametrize("p", range(4))
@pytest.mark.parametrize("q", range(4))
def test_normalize_is_the_koszul_sign_of_the_stable_sort(p, q):
    sp = GradedSpace(tuple(f"e{i}" for i in range(p)), tuple(f"f{i}" for i in range(q)))
    pars = sp.parities
    for n in range(6):
        for slots in itertools.product(range(sp.dim), repeat=n):
            order = tuple(sorted(range(n), key=lambda i: slots[i]))
            key = tuple(sorted(slots))
            repeated_even = any(a == b and pars[a] == 0 for a, b in zip(key, key[1:]))
            sign = 0 if repeated_even else koszul_sign(order, [pars[s] for s in slots])
            assert normalize_tuple(sp, slots) == (key, sign)


def _space(p, q):
    return GradedSpace(tuple(f"e{i}" for i in range(p)), tuple(f"f{i}" for i in range(q)))


@pytest.mark.parametrize("p", range(3))
@pytest.mark.parametrize("q", range(3))
def test_shuffle_is_normalize_of_the_concatenation(p, q):
    sp = _space(p, q)
    keys = [key for n in range(4) for key in wedge_basis(sp, n)]
    seen = set()
    for a in keys:
        for b in keys:
            got = shuffle(a, b, p)
            assert got == normalize_tuple(sp, a + b)
            shared = set(a) & set(b)
            seen.add((got[1], bool(shared) and max(shared) >= p))
    # every sign occurs where the space allows it, and so does a shared odd entry
    assert (1, False) in seen
    assert ((-1, False) in seen) == (p > 0 and p + q > 1)
    assert ((0, False) in seen) == (p > 0)
    assert ((1, True) in seen) == (q > 0)


def test_block_key_sign_is_normalize_of_the_concatenated_positions():
    g, h = _space(2, 1), _space(1, 2)
    ds = direct_sum(g, h)
    for i in range(4):
        for j in range(4 - i):
            for gk in wedge_basis(g, i):
                for hk in wedge_basis(h, j):
                    slots = tuple(ds.left_pos[x] for x in gk) + tuple(ds.right_pos[y] for y in hk)
                    key, sign = block_key(ds, gk, hk)
                    assert (key, sign) == normalize_tuple(ds.space, slots)
                    assert sign != 0


def test_graded_keeps_no_sign_cache():
    # no module of the package holds a memo table such as an lru_cache
    names = [m.name for m in pkgutil.iter_modules(supercochain.__path__) if m.name != "__main__"]
    assert {"graded", "cochains", "triple", "crossed", "deformation"} <= set(names)
    cached = [
        (name, attr)
        for name in names
        for attr, value in vars(importlib.import_module(f"supercochain.{name}")).items()
        if hasattr(value, "cache_info")
    ]
    assert cached == []


def test_shuffles_counts():
    assert len(shuffles((1, 1))) == 2
    assert len(shuffles((2, 1))) == 3
    assert len(shuffles((1, 1, 1, 1))) == 24
    assert shuffles((0, 2)) == ((0, 1),)
    assert shuffles(()) == ((),)


@pytest.mark.parametrize("blocks", [(1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 2), (1, 1, 1, 1)])
def test_shuffles_are_increasing_in_blocks(blocks):
    seen = set()
    for sigma in shuffles(blocks):
        seen.add(sigma)
        start = 0
        for b in blocks:
            section = sigma[start : start + b]
            assert list(section) == sorted(section)
            start += b
    import math

    expected = math.factorial(sum(blocks))
    for b in blocks:
        expected //= math.factorial(b)
    assert len(seen) == expected


def test_direct_sum_layout_and_collision():
    a = GradedSpace(("x",), ("y",))
    b = GradedSpace(("u",), ("v",))
    ds = direct_sum(a, b)
    assert ds.space.labels == ("x", "u", "y", "v")
    assert ds.side_of == (("g", 0), ("h", 0), ("g", 1), ("h", 1))
    same = direct_sum(a, a)
    assert same.space.labels == ("g.x", "h.x", "g.y", "h.y")
    vec = embed_left(same, (F(1), F(2)))
    assert vec == (F(1), F(0), F(2), F(0))
    left, right = split(same, (F(1), F(3), F(2), F(4)))
    assert left == (F(1), F(2)) and right == (F(3), F(4))


def test_perm_signature():
    assert perm_signature((0, 1, 2)) == 1
    assert perm_signature((1, 0, 2)) == -1
    assert perm_signature((2, 1, 0)) == -1
    assert perm_signature((1, 2, 0)) == 1
