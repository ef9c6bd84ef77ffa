import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercochain.cochains import (
    BlockCochain,
    Cochain,
    bracket_matrix,
    bracket_sum,
    circ,
    hat_extend,
    nr_bracket,
    project_block,
)
from supercochain.errors import ShapeMismatch, SpaceMismatch
from supercochain.graded import GradedSpace, direct_sum, wedge_basis
from supercochain.superalgebra import SuperAlgebra, check_jacobi, gl
from supercochain.triple import ActionMap, LieSupActTriple, check_action, mc_residual
from supercochain.triple import triple_blocks, triple_complex

import oracles
from oracles import f_membership, vec_scale
from helpers import SMALL_SPACES, aff11, random_block, random_cochain, random_homogeneous_cochain, split
from helpers import vec_is_zero, zero_vec

V11 = GradedSpace(("e",), ("f",))
V21 = GradedSpace(("e", "g"), ("f",))


def identity_cochain(space):
    return Cochain(
        space,
        space,
        1,
        {
            (i,): tuple(F(1 if k == i else 0) for k in range(space.dim))
            for i in range(space.dim)
        },
    )


def test_eval_sign_rules():
    c = Cochain(V11, V11, 2, {(0, 1): (F(2), F(0)), (1, 1): (F(3), F(0))})
    assert c.eval((0, 1)) == (F(2), F(0))
    assert c.eval((1, 0)) == (F(-2), F(0))
    assert c.eval((1, 1)) == (F(3), F(0))
    assert c.eval((0, 0)) == (F(0), F(0))


def test_constructor_rejects_non_normal_keys():
    from supercochain.errors import ValidationError

    with pytest.raises(ValidationError):
        Cochain(V11, V11, 2, {(1, 0): (F(1), F(0))})
    sp = GradedSpace(("a", "b"), ())
    with pytest.raises(ValidationError):
        Cochain(sp, sp, 2, {(0, 0): (F(1), F(0))})
    with pytest.raises(ValidationError):
        BlockCochain(V11, sp, 2, 0, "h", {((1, 0), ()): (F(1), F(0))})


def test_eval_even_even_swap_negates():
    sp = GradedSpace(("a", "b"), ())
    c = Cochain(sp, sp, 2, {(0, 1): (F(5), F(0))})
    assert c.eval((1, 0)) == (F(-5), F(0))


def test_circ_with_zero():
    rng = random.Random(0)
    Fc = random_cochain(V11, 2, rng)
    Z = Cochain.zero(V11, V11, 2)
    assert circ(Fc, Z).is_zero()
    assert circ(Z, Fc).is_zero()
    assert nr_bracket(Fc, Z).is_zero()


def test_circ_with_identity_doubles_arity2():
    rng = random.Random(1)
    for _ in range(10):
        Fc = random_cochain(V21, 2, rng, max_keys=4)
        assert circ(Fc, identity_cochain(V21)) == Fc.scale(2)


def test_space_mismatch_raises():
    rng = random.Random(2)
    a = random_cochain(V11, 2, rng)
    b = random_cochain(V21, 2, rng)
    with pytest.raises(SpaceMismatch):
        circ(a, b)


def test_bracket_of_bracket_cochain_is_jacobi():
    A = gl(1, 1)
    mu = A.as_cochain()
    assert nr_bracket(mu, mu).is_zero()
    assert circ(mu, mu).is_zero()  # [mu,mu] = 2 mu o mu for this bidegree
    # a non-Lie table has nonzero self-bracket
    sc = dict(A.sc)
    key = next(iter(sc))
    vec = list(sc[key])
    parity = (A.space.parity(key[0]) + A.space.parity(key[1])) % 2
    slot = next(k for k in range(A.dim) if A.space.parity(k) == parity)
    vec[slot] += 1
    sc[key] = tuple(vec)
    B = SuperAlgebra(A.space, sc)
    assert not check_jacobi(B).ok
    assert not nr_bracket(B.as_cochain(), B.as_cochain()).is_zero()


def test_self_bracket_doubles_for_even_odd_weight():
    rng = random.Random(3)
    for _ in range(10):
        Fc = random_cochain(V11, 2, rng)  # weight 1
        even_part = [p for p, par in Fc.parity_parts() if par == 0]
        if not even_part:
            continue
        Ev = even_part[0]
        assert nr_bracket(Ev, Ev) == circ(Ev, Ev).scale(2)


def test_circ_matches_full_symmetrization_oracle():
    rng = random.Random(4)
    for space in (V11, V21):
        for _ in range(6):
            a1 = rng.randint(1, 2)
            a2 = rng.randint(1, 2)
            Fc = random_cochain(space, a1, rng, max_keys=3)
            Gc = random_cochain(space, a2, rng, max_keys=3)
            got = circ(Fc, Gc)
            table, red = oracles.naive_circ_table(Fc, Gc)
            assert red == math.factorial(a1 - 1) * math.factorial(a2)
            N = a1 + a2 - 1
            for X in itertools.product(range(space.dim), repeat=N):
                want = table.get(X)
                want = (
                    vec_scale(want, F(1, red)) if want is not None else zero_vec(space.dim)
                )
                assert got.eval(X) == want


def test_pre_lie_identity_random():
    rng = random.Random(5)
    checked = 0
    for _ in range(25):
        space = rng.choice((V11, V21))
        fs = [random_cochain(space, rng.randint(1, 2), rng) for _ in range(3)]
        parts = [p for c in fs for p in c.parity_parts()]
        if len(parts) < 3:
            continue
        (A, a), (B, b), (C, c) = (
            rng.choice(fs[0].parity_parts() or [(fs[0], 0)]),
            rng.choice(fs[1].parity_parts() or [(fs[1], 0)]),
            rng.choice(fs[2].parity_parts() or [(fs[2], 0)]),
        )
        nB, nC = B.arity - 1, C.arity - 1
        lhs = circ(circ(A, B), C).add(circ(A, circ(B, C)).scale(-1))
        rhs = circ(circ(A, C), B).add(circ(A, circ(C, B)).scale(-1))
        sign = F(-1 if (nB * nC + b * c) % 2 else 1)
        assert lhs == rhs.scale(sign)
        checked += 1
    assert checked >= 10


def test_bracket_graded_antisymmetry_and_jacobi():
    rng = random.Random(6)
    for _ in range(15):
        space = rng.choice((V11, V21))
        Fc = random_cochain(space, rng.randint(1, 2), rng)
        Gc = random_cochain(space, rng.randint(1, 2), rng)
        Hc = random_cochain(space, rng.randint(1, 2), rng)
        for Fp, f in Fc.parity_parts():
            for Gp, g in Gc.parity_parts():
                n, m = Fp.arity - 1, Gp.arity - 1
                sign = F(-1 if (n * m + f * g) % 2 == 0 else 1)
                assert nr_bracket(Fp, Gp) == nr_bracket(Gp, Fp).scale(sign)
                for Hp, h in Hc.parity_parts():
                    k = Hp.arity - 1
                    lhs = nr_bracket(Fp, nr_bracket(Gp, Hp))
                    rhs = nr_bracket(nr_bracket(Fp, Gp), Hp).add(
                        nr_bracket(Gp, nr_bracket(Fp, Hp)).scale(
                            F(-1 if (n * m + f * g) % 2 else 1)
                        )
                    )
                    assert lhs == rhs


# --- hat extension and membership ------------------------------------------


def make_sum(gsp, hsp):
    return direct_sum(gsp, hsp)


def test_hat_pure_g_block_acts_like_inclusion():
    gsp, hsp = V11, GradedSpace(("u",), ("v",))
    rng = random.Random(7)
    blk = random_block(gsp, hsp, 2, 0, "g", rng, max_keys=4)
    F_hat = hat_extend(blk)
    ds = make_sum(gsp, hsp)
    for gk in wedge_basis(gsp, 2):
        slots = tuple(ds.left_pos[i] for i in gk)
        assert split(ds, F_hat.eval(slots))[0] == blk.eval(gk, ())
    # zero on any tuple containing an h element
    assert vec_is_zero(F_hat.eval((ds.left_pos[0], ds.right_pos[0])))


def test_hat_action_block_signs():
    gsp, hsp = V11, GradedSpace(("u",), ("v",))
    ds = make_sum(gsp, hsp)
    rng = random.Random(8)
    blk = random_block(gsp, hsp, 1, 1, "h", rng, max_keys=4)
    H = hat_extend(blk)
    for i in range(gsp.dim):
        for j in range(hsp.dim):
            x = ds.left_pos[i]
            u = ds.right_pos[j]
            direct = split(ds, H.eval((x, u)))[1]
            assert direct == blk.eval((i,), (j,))
            swapped = split(ds, H.eval((u, x)))[1]
            sign = F(-1 if (gsp.parity(i) * hsp.parity(j)) % 2 == 0 else 1)
            assert swapped == vec_scale(direct, sign)


def test_hat_injective_on_blocks():
    gsp, hsp = V11, GradedSpace(("u",), ("v",))
    rng = random.Random(9)
    for sig in ((2, 0, "g"), (1, 1, "h"), (0, 2, "h"), (2, 1, "h")):
        blk = random_block(gsp, hsp, sig[0], sig[1], sig[2], rng, max_keys=6)
        if blk.is_zero():
            continue
        ext = hat_extend(blk)
        assert not ext.is_zero()
        ds = make_sum(gsp, hsp)
        assert project_block(ext, ds, *sig) == blk


def test_hat_project_round_trip_wide_signatures():
    gsp, hsp = V11, GradedSpace(("u",), ("v",))
    ds = make_sum(gsp, hsp)
    rng = random.Random(21)
    for sig in [(2, 2, "h"), (3, 1, "h"), (1, 3, "h"), (4, 0, "g"), (0, 4, "h")]:
        for _ in range(4):
            blk = random_block(gsp, hsp, *sig, rng, max_keys=6, bound=3)
            assert project_block(hat_extend(blk), ds, *sig) == blk


def test_block_decomposition_is_complete():
    gsp, hsp = V11, GradedSpace(("u",), ("v",))
    ds = make_sum(gsp, hsp)
    rng = random.Random(22)
    legal = [(3, 0, "g"), (2, 1, "h"), (1, 2, "h"), (0, 3, "h")]
    for _ in range(6):
        blocks = {sig: random_block(gsp, hsp, *sig, rng, max_keys=4, bound=3) for sig in legal}
        total = None
        for sig in legal:
            ext = hat_extend(blocks[sig])
            total = ext if total is None else total.add(ext)
        rebuilt = None
        for sig in legal:
            part = project_block(total, ds, *sig)
            assert part == blocks[sig]
            ext = hat_extend(part)
            rebuilt = ext if rebuilt is None else rebuilt.add(ext)
        assert rebuilt == total


def test_f_membership_patterns():
    gsp, hsp = V11, GradedSpace(("u",), ("v",))
    ds = make_sum(gsp, hsp)
    rng = random.Random(10)
    good = hat_extend(random_block(gsp, hsp, 2, 0, "g", rng))
    assert f_membership(good, ds)
    good_h = hat_extend(random_block(gsp, hsp, 1, 1, "h", rng))
    assert f_membership(good_h, ds)
    # a map sending a mixed tuple into g is not a member
    bad = hat_extend(
        BlockCochain(gsp, hsp, 1, 1, "g", {((0,), (0,)): (F(1), F(0))})
    )
    assert not bad.is_zero()
    assert not f_membership(bad, ds)


def test_f_closure_under_bracket():
    gsp, hsp = V11, GradedSpace(("u",), ("v",))
    ds = make_sum(gsp, hsp)
    rng = random.Random(11)
    legal = [
        (1, 0, "g"),
        (2, 0, "g"),
        (1, 1, "h"),
        (0, 1, "h"),
        (0, 2, "h"),
        (2, 1, "h"),
    ]
    for _ in range(40):
        s1, s2 = rng.choice(legal), rng.choice(legal)
        F1 = hat_extend(random_block(gsp, hsp, *s1, rng))
        F2 = hat_extend(random_block(gsp, hsp, *s2, rng))
        assert f_membership(F1, ds) and f_membership(F2, ds)
        assert f_membership(nr_bracket(F1, F2), ds)


def test_parity_parts_partition():
    rng = random.Random(12)
    cochain = random_cochain(V21, 2, rng, max_keys=4, bound=3)
    block = random_block(V21, V11, 1, 2, "h", rng, max_keys=6, bound=3)
    for c in (cochain, block):
        parts = c.parity_parts()
        total = type(c).zero(*c.shape)
        for p, par in parts:
            assert p.parity() == par
            total = total.add(p)
        assert total == c
    assert block.parity() is None  # both parities occur in this draw


def test_cochain_and_block_never_equal_or_add():
    hsp = GradedSpace(("u",), ("v",))
    vec = (F(1), F(-2))
    c = Cochain(V11, V11, 1, {(0,): vec})
    b = BlockCochain(V11, hsp, 1, 0, "g", {((0,), ()): vec})
    assert c != b and b != c
    assert Cochain.zero(V11, V11, 1) != BlockCochain.zero(V11, hsp, 1, 0, "g")
    others = (
        b,
        Cochain.zero(V11, V11, 2),
        Cochain.zero(V11, V21, 1),
    )
    for other in others:
        with pytest.raises(ShapeMismatch):
            c.add(other)
    for other in (
        c,
        BlockCochain.zero(V11, hsp, 1, 0, "h"),
        BlockCochain.zero(V11, hsp, 0, 1, "g"),
        BlockCochain.zero(V11, V11, 1, 0, "g"),
    ):
        with pytest.raises(ShapeMismatch):
            b.add(other)


# ---------------------------------------------------------------------------
# hat_extend and project_block against the shuffle-sum / whole-basis references


def _fixture_space_pairs():
    from conftest import FIXTURES
    from supercochain import io as sio

    names = {}
    for path in sorted(FIXTURES.glob("*.json")):
        pf = sio.parse(path)
        if pf.g is not None and pf.h is not None:
            names.setdefault((pf.g.space, pf.h.space), path.stem)
    return {name: pair for pair, name in names.items()}


SPACE_PAIRS = _fixture_space_pairs()
BLOCK_SIGNATURES = [
    (ga, ha, side) for ga in range(4) for ha in range(4 - ga) if ga + ha >= 1 for side in ("g", "h")
]


def _repeats_odd(space, key):
    return any(a == b and space.parity(a) for a, b in zip(key, key[1:]))


def _block_with_repeated_odd(gsp, hsp, sig, rng, max_keys):
    """A random block plus, where the signature has one, a key repeating an odd slot."""
    ga, ha, side = sig
    blk = random_block(gsp, hsp, ga, ha, side, rng, max_keys=max_keys, bound=3)
    repeated = [
        (gk, hk)
        for gk in wedge_basis(gsp, ga)
        for hk in wedge_basis(hsp, ha)
        if _repeats_odd(gsp, gk) or _repeats_odd(hsp, hk)
    ]
    if not repeated:
        return blk
    vec = tuple(F(rng.randint(1, 3)) for _ in range(blk.target_space.dim))
    return blk.add(BlockCochain(gsp, hsp, ga, ha, side, {rng.choice(repeated): vec}))


@pytest.mark.parametrize("name", sorted(SPACE_PAIRS))
@settings(max_examples=25, deadline=None)
@given(keys=st.integers(0, 4), rng=st.randoms(use_true_random=False))
def test_block_maps_match_references(name, keys, rng):
    gsp, hsp = SPACE_PAIRS[name]
    ds = direct_sum(gsp, hsp)
    totals = {}
    for sig in BLOCK_SIGNATURES:
        blk = _block_with_repeated_odd(gsp, hsp, sig, rng, keys)
        ext = hat_extend(blk)
        assert ext == oracles.hat_extend_reference(blk)
        assert project_block(ext, ds, *sig) == blk
        n = sig[0] + sig[1]
        totals[n] = totals[n].add(ext) if n in totals else ext
    for n, total in totals.items():
        # noise off the block image: g targets on mixed keys, h targets on g keys
        Fc = total.add(random_cochain(ds.space, n, rng, max_keys=keys, bound=3))
        for ga, ha, side in BLOCK_SIGNATURES:
            if ga + ha == n:
                want = oracles.project_block_reference(Fc, ds, ga, ha, side)
                assert project_block(Fc, ds, ga, ha, side) == want


# ---------------------------------------------------------------------------
# circ and nr_bracket, expanded over the support of any cochain, against the
# shuffle sums of ``oracles``.  The ``test_bracket_with_*`` names are kept so
# that their test ids stay stable.


def _fixture_structure_elements():
    from conftest import FIXTURES
    from supercochain import io as sio
    from supercochain.triple import LieSupActTriple, mc_element

    out = {}
    for path in sorted(FIXTURES.glob("*.json")):
        pf = sio.parse(path)
        if pf.action is not None:
            out[path.stem] = mc_element(LieSupActTriple(pf.g, pf.h, pf.action))
    return out


STRUCTURE_ELEMENTS = _fixture_structure_elements()
PARITIES = st.sampled_from((0, 1, None))  # None: mixed


def _operand(space, arity, parity, keys, rng):
    if parity is None:
        return random_cochain(space, arity, rng, max_keys=keys)
    return random_homogeneous_cochain(space, arity, parity, rng, max_keys=keys)


OPERANDS = st.tuples(st.integers(1, 3), PARITIES, st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(
    space=st.sampled_from(SMALL_SPACES), f=OPERANDS, g=OPERANDS, rng=st.randoms(use_true_random=False)
)
def test_nr_bracket_matches_shuffle_reference(space, f, g, rng):
    Fc, Gc = _operand(space, *f, rng), _operand(space, *g, rng)
    assert nr_bracket(Fc, Gc) == oracles.shuffle_nr_bracket(Fc, Gc)


@settings(max_examples=60, deadline=None)
@given(
    space=st.sampled_from(SMALL_SPACES), f=OPERANDS, g=OPERANDS, rng=st.randoms(use_true_random=False)
)
def test_circ_matches_shuffle_reference(space, f, g, rng):
    Fc, Gc = _operand(space, *f, rng), _operand(space, *g, rng)
    assert circ(Fc, Gc) == oracles.shuffle_circ(Fc, Gc)


@settings(max_examples=60, deadline=None)
@given(
    space=st.sampled_from(SMALL_SPACES),
    arity=st.integers(1, 3),
    parity=PARITIES,
    keys=st.integers(1, 4),
    c=st.fractions(-3, 3, max_denominator=4),
    rng=st.randoms(use_true_random=False),
)
def test_self_bracket_is_one_insertion_product(space, arity, parity, keys, c, rng):
    """[P, P] = (1 - (-1)^(n + f)) circ(P, P) for P of bidegree (n, f): zero when n + f is even."""
    P = _operand(space, arity, parity, keys, rng)
    want = oracles.shuffle_nr_bracket(P, P)
    assert nr_bracket(P, P) == want
    assert bracket_sum([(c, P, P)]) == want.scale(c)
    if parity is not None and (arity - 1 + parity) % 2:
        assert want == oracles.shuffle_circ(P, P).scale(2)
    elif parity is not None:
        assert want.is_zero()


@pytest.mark.parametrize("name", sorted(STRUCTURE_ELEMENTS))
def test_bracket_with_zero_cochain(name):
    P = STRUCTURE_ELEMENTS[name]
    V = P.source
    for arity in (1, 2, 3):
        zero = Cochain.zero(V, V, arity)
        want = Cochain.zero(V, V, arity + 1)
        assert nr_bracket(P, zero) == oracles.shuffle_nr_bracket(P, zero) == want


@pytest.mark.parametrize("name", sorted(STRUCTURE_ELEMENTS))
@settings(max_examples=12, deadline=None)
@given(
    arity=st.integers(1, 3),
    keys=st.integers(1, 4),
    parity=PARITIES,
    rng=st.randoms(use_true_random=False),
)
def test_bracket_with_matches_nr_bracket_on_fixtures(name, arity, keys, parity, rng):
    """Both products of the fixture's Pi with U, in both orders, against the shuffle sums."""
    P = STRUCTURE_ELEMENTS[name]
    U = _operand(P.source, arity, parity, keys, rng)
    assert nr_bracket(P, U) == oracles.shuffle_nr_bracket(P, U)
    assert nr_bracket(U, P) == oracles.shuffle_nr_bracket(U, P)
    assert circ(P, U) == oracles.shuffle_circ(P, U)
    assert circ(U, P) == oracles.shuffle_circ(U, P)


def test_add_matches_the_entrywise_fraction_sum():
    """``add`` sums the values at shared keys on ints over one denominator; a cancelled
    key is dropped."""
    rng = random.Random(11)
    for _ in range(40):
        V = rng.choice(SMALL_SPACES)
        arity = rng.randint(1, 3)
        A = random_cochain(V, arity, rng, max_keys=4).scale(F(rng.choice([1, -2, 3]), rng.randint(1, 4)))
        B = random_cochain(V, arity, rng, max_keys=4).scale(F(rng.choice([1, -1, 5]), rng.randint(1, 6)))
        zero = zero_vec(V.dim)
        want = {
            key: tuple(x + y for x, y in zip(A.coeffs.get(key, zero), B.coeffs.get(key, zero)))
            for key in {**A.coeffs, **B.coeffs}
        }
        assert A.add(B) == Cochain(V, V, arity, want)
        assert A.add(A.scale(F(-1, 3))) == A.scale(F(2, 3))
        assert A.add(A.scale(-1)).is_zero()


def test_bracket_with_matches_nr_bracket_on_random_even_P():
    rng = random.Random(5)
    for _ in range(30):
        V = rng.choice(SMALL_SPACES)
        P = random_homogeneous_cochain(V, 2, 0, rng, max_keys=3)
        U = random_cochain(V, rng.randint(1, 3), rng, max_keys=3)
        assert nr_bracket(P, U) == oracles.shuffle_nr_bracket(P, U)


def test_bracket_with_rejects_odd_or_wider_P():
    """The differential needs an even arity-2 P, and the MC residual a degree-0 action."""
    rng = random.Random(6)
    V = V21
    odd = random_homogeneous_cochain(V, 2, 1, rng, max_keys=3)
    assert odd.parity() == 1
    cols, rows = [((0,), 0, 1)], [((0, 1), 0, 1)]
    with pytest.raises(ShapeMismatch):
        bracket_matrix(odd, cols, rows)
    with pytest.raises(ShapeMismatch):
        bracket_matrix(random_homogeneous_cochain(V, 3, 0, rng, max_keys=3), cols, rows)
    g = aff11()
    rho = ActionMap(g.space, g.space, [[(F(0), F(1)), (F(0), F(0))], [(F(0), F(0))] * 2])
    assert not check_action(g, g, rho).ok
    with pytest.raises(ShapeMismatch):
        mc_residual(g, g, rho)
    zero = tuple(BlockCochain.zero(g.space, g.space, *sig) for sig in triple_blocks(1))
    with pytest.raises(ShapeMismatch):
        triple_complex(LieSupActTriple(g, g, rho)).d(zero)
