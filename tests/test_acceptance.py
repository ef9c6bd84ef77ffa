"""Acceptance suite: one test per exit criterion, all exact arithmetic.

Every test prints a single ``ACCEPTANCE <k> ... PASS/FAIL`` line (visible with
``pytest -s`` or in the captured output), uses a fixed seed, and asserts at
the exact tolerances: equality of rationals, zero cochains, identical bytes.
"""

import json
import random
from fractions import Fraction as F

from conftest import FIXTURES
from supercochain import io as sio
from supercochain.cli import main as cli_main
from supercochain.cochains import circ, hat_extend, nr_bracket
from supercochain.crossed import (
    ChComplex,
    CrossedHom,
    ch_mc_residual,
    check_crossed,
    d_D_matrix,
    graph_check,
)
from supercochain.deformation import (
    CrossedHomDeformation,
    TripleDeformation,
    linear_check,
    triple_cocycle_deformations,
)
from supercochain.exact_linalg import kernel_basis, rank
from supercochain.graded import GradedSpace, direct_sum
from supercochain.superalgebra import LinearMap
from supercochain.triple import (
    LieSupActTriple,
    mc_element,
    mc_residual,
    mu_block,
    triple_coboundary_matrix,
    triple_complex,
)

import oracles
from oracles import compose, f_membership, inverse_act, koszul_K, koszul_sign
from helpers import (
    adjoint_triple,
    aff11,
    ch_cohomology,
    ch_units,
    matrix_apply,
    mixed21_triple,
    perturb_triple_data,
    random_block,
    random_homogeneous_cochain,
    random_parity_zero_map,
    random_valid_triple,
    solvable_triple,
    triple_axioms_ok,
    triple_cohomology,
    triple_units,
    vec_is_zero,
    zero_vec,
)


def announce(number, name):
    def deco(fn):
        import functools

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {number} {name}: PASS")

        return wrapper

    return deco


TRIPLE_FIXTURES = ("solvable2", "abelian_mixed", "aff11_adjoint", "mixed21")


def load_triple(name):
    pf = sio.parse(FIXTURES / f"{name}.json")
    return LieSupActTriple(pf.g, pf.h, pf.action)


def load_crossed(name):
    pf = sio.parse(FIXTURES / f"{name}.json")
    t = LieSupActTriple(pf.g, pf.h, pf.action)
    return CrossedHom(t, pf.crossed)


@announce(1, "sign laws")
def test_criterion_1_sign_laws():
    rng = random.Random(101)
    for _ in range(1000):
        n = rng.randint(1, 6)
        sigma = tuple(rng.sample(range(n), n))
        tau = tuple(rng.sample(range(n), n))
        parities = tuple(rng.randint(0, 1) for _ in range(n))
        shifted = inverse_act(sigma, parities)
        comp = compose(sigma, tau)
        assert (koszul_K(comp, parities) - koszul_K(sigma, parities) - koszul_K(tau, shifted)) % 2 == 0
        assert koszul_sign(comp, parities) == koszul_sign(sigma, parities) * koszul_sign(tau, shifted)


SIGN_SPACES = (
    GradedSpace(("a",), ("b",)),
    GradedSpace(("a", "c"), ("b",)),
    GradedSpace(("a",), ("b", "d")),
    GradedSpace(("a", "c"), ("b", "d")),
)


@announce(2, "graded pre-Lie, antisymmetry, Jacobi")
def test_criterion_2_graded_lie_structure():
    rng = random.Random(102)
    done = 0
    while done < 200:
        space = rng.choice(SIGN_SPACES)
        triple = []
        for _ in range(3):
            arity = rng.randint(1, 3)
            parity = rng.randint(0, 1)
            c = random_homogeneous_cochain(space, arity, parity, rng, max_keys=2)
            if c.is_zero():
                break
            triple.append((c, parity))
        if len(triple) < 3:
            continue
        (A, a), (B, b), (C, c) = triple
        nA, nB, nC = A.arity - 1, B.arity - 1, C.arity - 1
        # pre-Lie deviation symmetry
        lhs = circ(circ(A, B), C).add(circ(A, circ(B, C)).scale(-1))
        rhs = circ(circ(A, C), B).add(circ(A, circ(C, B)).scale(-1))
        assert lhs == rhs.scale(F(-1 if (nB * nC + b * c) % 2 else 1))
        # graded antisymmetry
        sign = F(-1 if (nA * nB + a * b) % 2 == 0 else 1)
        assert nr_bracket(A, B) == nr_bracket(B, A).scale(sign)
        # graded Jacobi
        jac_sign = F(-1 if (nA * nB + a * b) % 2 else 1)
        assert nr_bracket(A, nr_bracket(B, C)) == nr_bracket(nr_bracket(A, B), C).add(
            nr_bracket(B, nr_bracket(A, C)).scale(jac_sign)
        )
        done += 1
    assert done >= 200


@announce(3, "structure-subalgebra closure")
def test_criterion_3_membership_closure():
    rng = random.Random(103)
    gsp = GradedSpace(("x",), ("y",))
    hsp = GradedSpace(("u",), ("v",))
    ds = direct_sum(gsp, hsp)
    g_sigs = [(1, 0, "g"), (2, 0, "g"), (3, 0, "g")]
    h_sigs = [(0, 1, "h"), (1, 1, "h"), (0, 2, "h"), (2, 1, "h"), (1, 2, "h")]
    cases = {"gg": 0, "gm": 0, "mm": 0}
    done = 0
    while done < 200:
        pick = rng.randrange(3)
        if pick == 0:
            s1, s2 = rng.choice(g_sigs), rng.choice(g_sigs)
            tag = "gg"
        elif pick == 1:
            s1, s2 = rng.choice(g_sigs), rng.choice(h_sigs)
            if rng.random() < 0.5:
                s1, s2 = s2, s1
            tag = "gm"
        else:
            s1, s2 = rng.choice(h_sigs), rng.choice(h_sigs)
            tag = "mm"
        F1 = hat_extend(random_block(gsp, hsp, *s1, rng))
        F2 = hat_extend(random_block(gsp, hsp, *s2, rng))
        assert f_membership(F1, ds) and f_membership(F2, ds)
        assert f_membership(nr_bracket(F1, F2), ds)
        cases[tag] += 1
        done += 1
    assert all(v > 0 for v in cases.values())


@announce(4, "triple Maurer-Cartan equivalence")
def test_criterion_4_triple_mc_equivalence():
    rng = random.Random(104)
    valid = 0
    perturbed = 0
    disagreements = 0
    while valid < 50 or perturbed < 50:
        t = random_valid_triple(rng)
        if valid < 50:
            ok_axioms = triple_axioms_ok(t.g, t.h, t.rho)
            ok_resid = mc_residual(t.g, t.h, t.rho).is_zero
            assert ok_axioms  # stock constructions are valid
            if ok_axioms != ok_resid:
                disagreements += 1
            valid += 1
        if perturbed < 50:
            data = perturb_triple_data(t, rng)
            if data is not None:
                g, h, rho = data
                if triple_axioms_ok(g, h, rho) != mc_residual(g, h, rho).is_zero:
                    disagreements += 1
                perturbed += 1
    assert disagreements == 0
    assert valid >= 50 and perturbed >= 50


@announce(5, "differentials square to zero; derivation laws")
def test_criterion_5_differentials():
    # matrix identities on every shipped fixture carrying the structures
    for name in TRIPLE_FIXTURES:
        t = load_triple(name)
        mats = {n: triple_coboundary_matrix(t, n) for n in (1, 2, 3)}
        for n in (1, 2):
            if mats[n].cols and mats[n + 1].rows:
                assert mats[n + 1].mul(mats[n]).is_zero(), (name, n)
        pf = sio.parse(FIXTURES / f"{name}.json")
        if pf.crossed is not None:
            D = CrossedHom(t, pf.crossed)
            assert check_crossed(D).ok, name
            dmats = {n: d_D_matrix(D, n) for n in (1, 2, 3)}
            for n in (1, 2):
                if dmats[n].cols and dmats[n + 1].rows:
                    assert dmats[n + 1].mul(dmats[n]).is_zero(), (name, n)
    # the deliberately broken fixture cannot form the twisted complex
    bad = load_crossed("crossed_bad")
    assert not check_crossed(bad).ok

    # derivation law of the structure differential on random members
    rng = random.Random(105)
    pairs = 0
    legal = [(1, 0, "g"), (2, 0, "g"), (1, 1, "h"), (0, 1, "h"), (0, 2, "h")]
    for t in (solvable_triple(), adjoint_triple(aff11())):
        Pi = mc_element(t)
        gsp, hsp = t.g.space, t.h.space
        while pairs < 100 * (1 if t.g.dim == 2 else 2):
            b1 = random_block(gsp, hsp, *rng.choice(legal), rng)
            b2 = random_block(gsp, hsp, *rng.choice(legal), rng)
            parts1 = hat_extend(b1).parity_parts()
            parts2 = hat_extend(b2).parity_parts()
            if not parts1 or not parts2:
                continue
            F1, _ = parts1[0]
            F2, _ = parts2[0]
            n1 = F1.arity - 1
            lhs = nr_bracket(Pi, nr_bracket(F1, F2))
            rhs = nr_bracket(nr_bracket(Pi, F1), F2).add(
                nr_bracket(F1, nr_bracket(Pi, F2)).scale(F(-1 if n1 % 2 else 1))
            )
            assert lhs == rhs
            pairs += 1
    assert pairs >= 200

    # derivation law of the action differential, with the composite obstruction
    pairs = 0
    t = adjoint_triple(aff11())
    cc = ChComplex(t)
    gsp, hsp = t.g.space, t.h.space
    mu_hat = hat_extend(mu_block(gsp, t.h))
    obstruction = nr_bracket(cc.pr_hat, mu_hat)
    rng2 = random.Random(1105)
    while pairs < 200:
        f1 = random_block(gsp, hsp, rng2.randint(1, 2), 0, "h", rng2)
        f2 = random_block(gsp, hsp, rng2.randint(1, 2), 0, "h", rng2)
        p1 = f1.parity_parts()
        p2 = f2.parity_parts()
        if not p1 or not p2:
            continue
        b1, _ = p1[0]
        b2, _ = p2[0]
        m = b1.g_arity
        lhs = cc.coboundary(cc.bracket(b1, b2))
        rhs = cc.bracket(cc.coboundary(b1), b2).add(
            cc.bracket(b1, cc.coboundary(b2)).scale(F(-1 if m % 2 else 1))
        )
        assert lhs == rhs
        assert nr_bracket(nr_bracket(obstruction, hat_extend(b1)), hat_extend(b2)).is_zero()
        pairs += 1


@announce(6, "crossed homomorphism three-way equivalence")
def test_criterion_6_crossed_equivalence():
    rng = random.Random(106)
    candidates = 0
    for t, count in ((mixed21_triple(), 250), (adjoint_triple(aff11()), 150), (solvable_triple(), 100)):
        agree_true = 0
        for _ in range(count):
            m = random_parity_zero_map(t.g.space, t.h.space, rng)
            D = CrossedHom(t, m)
            a = check_crossed(D).ok
            b = graph_check(D)
            c = ch_mc_residual(D).is_zero()
            assert a == b == c
            agree_true += a
            candidates += 1
    assert candidates >= 500


@announce(7, "cohomology matches the raw-table oracle")
def test_criterion_7_cohomology_oracle():
    compared = 0
    for name in TRIPLE_FIXTURES:
        t = load_triple(name)
        total = sum(len(triple_units(t.g.space, t.h.space, n)) for n in (1, 2, 3))
        if total <= 300:
            for n in (1, 2, 3):
                assert triple_cohomology(t, n) == oracles.triple_oracle_cohomology(t, n), (name, n)
                compared += 1
        pf = sio.parse(FIXTURES / f"{name}.json")
        if pf.crossed is None:
            continue
        D = CrossedHom(t, pf.crossed)
        ch_total = sum(len(ch_units(t.g.space, t.h.space, n)) for n in (1, 2, 3))
        if ch_total <= 300:
            for n in (1, 2, 3):
                assert ch_cohomology(D, n) == oracles.ch_oracle_cohomology(D, n), (name, n)
                compared += 1
    assert compared >= 12


@announce(8, "linear deformations are exactly the cocycle directions")
def test_criterion_8_deformation_iff():
    rng = random.Random(108)
    nonzero_needed = 20
    triple_noncocycles = 0
    ch_noncocycles = 0
    for name in TRIPLE_FIXTURES:
        t = load_triple(name)
        # every kernel-basis cocycle deforms without residual
        for d in triple_cocycle_deformations(t):
            assert d.series().residuals((1,))[0].is_zero, name
            assert linear_check(d), name
        # non-cocycle directions fail exactly when the differential says so
        units = triple_units(t.g.space, t.h.space, 2, parity=0)
        mat = triple_coboundary_matrix(t, 2, parity=0)
        cx = triple_complex(t)
        if rank(mat) > 0:
            tries = 0
            found = 0
            while found < 10 and tries < 400:
                tries += 1
                vec = tuple(F(rng.randint(-2, 2)) for _ in units)
                if vec_is_zero(matrix_apply(mat, vec)):
                    continue
                c = cx.element(2, 0, vec)
                from test_deformation import unpack_degree2

                pi1, rho1, mu1 = unpack_degree2(t, c)
                assert not linear_check(TripleDeformation.build(t, [pi1], [rho1], [mu1], order=1)), name
                found += 1
            triple_noncocycles += found
        pf = sio.parse(FIXTURES / f"{name}.json")
        if pf.crossed is None:
            continue
        D = CrossedHom(t, pf.crossed)
        units1 = ch_units(t.g.space, t.h.space, 1, parity=0)
        dmat = d_D_matrix(D, 1, parity=0)
        cx = ChComplex(t).twisted(D.as_block())
        for vec in kernel_basis(dmat):
            blk = cx.element(1, 0, vec)[0]
            cols = tuple(
                tuple(blk.coeffs.get(((i,), ()), zero_vec(t.h.dim)))
                for i in range(t.g.dim)
            )
            D1 = LinearMap(t.g.space, t.h.space, cols)
            assert linear_check(CrossedHomDeformation.build(D, [D1], order=1)), name
        if rank(dmat) > 0:
            tries = 0
            found = 0
            while found < 10 and tries < 400:
                tries += 1
                vec = tuple(F(rng.randint(-2, 2)) for _ in units1)
                if vec_is_zero(matrix_apply(dmat, vec)):
                    continue
                blk = cx.element(1, 0, vec)[0]
                cols = tuple(
                    tuple(blk.coeffs.get(((i,), ()), zero_vec(t.h.dim)))
                    for i in range(t.g.dim)
                )
                D1 = LinearMap(t.g.space, t.h.space, cols)
                assert not linear_check(CrossedHomDeformation.build(D, [D1], order=1)), name
                found += 1
            ch_noncocycles += found
    assert triple_noncocycles >= nonzero_needed
    assert ch_noncocycles >= nonzero_needed


@announce(9, "twisted bracket closed form agrees with its definition")
def test_criterion_9_bracket_cross_check():
    from supercochain.superalgebra import gl

    rng = random.Random(109)
    pairs = 0
    for t, budget in (
        (adjoint_triple(aff11()), 100),
        (adjoint_triple(gl(1, 1)), 50),
        (mixed21_triple(), 50),
    ):
        cc = ChComplex(t)
        gs, hs = t.g.space, t.h.space
        taken = 0
        while taken < budget:
            f1 = random_block(gs, hs, rng.randint(1, 2), 0, "h", rng)
            f2 = random_block(gs, hs, rng.randint(1, 2), 0, "h", rng)
            p1 = f1.parity_parts()
            p2 = f2.parity_parts()
            if not p1 or not p2:
                continue
            b1, _ = p1[0]
            b2, _ = p2[0]
            assert cc.bracket(b1, b2) == oracles.ch_bracket_closed(t, b1, b2)
            taken += 1
            pairs += 1
    assert pairs >= 200


CLI_MATRIX = (
    ("gl11", "check-algebra", []),
    ("solvable2", "check-triple", []),
    ("solvable2", "cohomology", ["--max-n", "3"]),
    ("solvable2", "check-crossed", []),
    ("solvable2", "deform", []),
    ("abelian_mixed", "check-triple", []),
    ("abelian_mixed", "deform", []),
    ("abelian_mixed", "ch-cohomology", ["--max-n", "2"]),
    ("aff11_adjoint", "check-crossed", []),
    ("aff11_adjoint", "cohomology", ["--max-n", "3"]),
    ("aff11_adjoint", "ch-cohomology", ["--max-n", "3"]),
    ("aff11_adjoint", "ch-deform", []),
    ("mixed21", "check-triple", []),
    ("mixed21", "cohomology", ["--max-n", "2"]),
    ("crossed_bad", "check-crossed", []),
)


@announce(10, "CLI determinism")
def test_criterion_10_cli_determinism(capsys):
    for name, command, extra in CLI_MATRIX:
        argv = [command, str(FIXTURES / f"{name}.json"), "--format", "json", "--seed", "42"] + extra
        code1 = cli_main(argv)
        out1 = capsys.readouterr().out
        code2 = cli_main(argv)
        out2 = capsys.readouterr().out
        assert code1 == code2
        assert out1 == out2, (name, command)
        # canonical form round-trips byte-identically
        assert sio.report_to_json(json.loads(out1)) == out1
