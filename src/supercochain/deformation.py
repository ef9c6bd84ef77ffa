"""Truncated formal deformations and their order-by-order obstructions.

A deformation of a triple replaces each structure map by a polynomial in a
formal parameter, truncated at a chosen order N (series mod t^{N+1}); the
zeroth coefficients are the base structure by construction.  Validity at each
order n is four equations over basis tuples:

  (1) sum_{i+j=n} [pi_i, pi_j] = 0                       on wedge^3 g
  (2) sum_{i+j=n} [mu_i, mu_j] = 0                       on wedge^3 h
  (3) sum_{i+j=n} rho_i(pi_j(u,v)) x
        = sum_{i+j=n} rho_i(u) rho_j(v) x - (-1)^{|u||v|} rho_i(v) rho_j(u) x
  (4) sum_{i+j=n} rho_i(u) mu_j(x,y)
        = sum_{i+j=n} mu_i(rho_j(u) x, y) + (-1)^{|u||x|} mu_i(x, rho_j(u) y)

The residual of one order is returned as the four defect blocks (left minus
right); a deformation is valid through its order iff all of them vanish.  The
order-1 coefficients of a valid deformation form a cocycle of the triple
complex, and conversely every such cocycle gives a linear deformation, so the
two code paths are asserted to agree.

Crossed homomorphism deformations follow the same pattern with the single
defining identity, and the order-1 statement couples to the twisted
differential d_D.
"""

from __future__ import annotations

from .cochains import BlockCochain, Cochain, nr_bracket, pair_table
from .errors import InternalInvariantError, ShapeMismatch, ValidationError
from .exact_linalg import kernel_basis
from .graded import wedge_basis
from .superalgebra import LinearMap
from .triple import (
    ActionMap,
    LieSupActTriple,
    McResidual,
    blocks_from_vector,
    triple_blocks,
    triple_coboundary_matrix,
    triple_complex,
    triple_units,
)
from .crossed import ChComplex, CrossedHom, _require_verified
from .util import Frozen, bilinear, combine, dense, lincomb, sparse, units, zero_vec


# Checking orders 0..N evaluates (N + 1)(N + 2) / 2 coefficient products, and
# the report has one entry per order; larger requests are refused up front.
MAX_ORDER = 100


def check_order(order: int):
    """Refuse a truncation order outside 1..MAX_ORDER."""
    if order < 1:
        raise ValidationError("deformation order must be >= 1")
    if order > MAX_ORDER:
        raise ValidationError(f"deformation order {order} exceeds the limit of {MAX_ORDER}")


def _require_even_cochain(c: Cochain, what: str):
    if c.parity() not in (0,):
        raise ValidationError(f"{what} coefficient must have degree 0")


def _require_even_action(a: ActionMap, what: str):
    for i in range(a.g_space.dim):
        pi = a.g_space.parity(i)
        for j in range(a.h_space.dim):
            want = (pi + a.h_space.parity(j)) % 2
            for k, x in enumerate(a.value(i, j)):
                if x != 0 and a.h_space.parity(k) != want:
                    raise ValidationError(f"{what} coefficient must have degree 0")


class TripleDeformation(Frozen):
    """Coefficient lists (pi_k, rho_k, mu_k), k = 0..order, with base at k=0: arity-2
    cochains on g, action maps and arity-2 cochains on h."""

    __slots__ = ("triple", "order", "pis", "rhos", "mus")

    def __init__(self, triple: LieSupActTriple, order: int, pis: tuple, rhos: tuple, mus: tuple):
        super().__init__(triple, order, pis, rhos, mus)

    @classmethod
    def build(cls, triple: LieSupActTriple, pi_terms=(), rho_terms=(), mu_terms=(), order=None):
        """Assemble from higher-order terms; zeroth coefficients come from the base."""
        pi_terms, rho_terms, mu_terms = list(pi_terms), list(rho_terms), list(mu_terms)
        if order is None:
            order = max(1, len(pi_terms), len(rho_terms), len(mu_terms))
        check_order(order)
        gs, hs = triple.g.space, triple.h.space
        while len(pi_terms) < order:
            pi_terms.append(Cochain.zero(gs, gs, 2))
        while len(mu_terms) < order:
            mu_terms.append(Cochain.zero(hs, hs, 2))
        while len(rho_terms) < order:
            rho_terms.append(ActionMap.zero(gs, hs))
        for c in pi_terms:
            if c.source != gs or c.target != gs or c.arity != 2:
                raise ShapeMismatch("pi coefficient has the wrong shape")
            _require_even_cochain(c, "pi")
        for c in mu_terms:
            if c.source != hs or c.target != hs or c.arity != 2:
                raise ShapeMismatch("mu coefficient has the wrong shape")
            _require_even_cochain(c, "mu")
        for a in rho_terms:
            if a.g_space != gs or a.h_space != hs:
                raise ShapeMismatch("rho coefficient has the wrong shape")
            _require_even_action(a, "rho")
        return cls(
            triple,
            order,
            (triple.g.as_cochain(),) + tuple(pi_terms[:order]),
            (triple.rho,) + tuple(rho_terms[:order]),
            (triple.h.as_cochain(),) + tuple(mu_terms[:order]),
        )


def triple_deformation_residual(d: TripleDeformation, n: int) -> McResidual:
    """Evaluate the four order-n equations on every basis tuple."""
    if not 0 <= n <= d.order:
        raise ValidationError(f"order {n} outside 0..{d.order}")
    t = d.triple
    gs, hs = t.g.space, t.h.space
    pairs = [(i, n - i) for i in range(n + 1)]

    eq1 = Cochain.zero(gs, gs, 3)
    eq2 = Cochain.zero(hs, hs, 3)
    for i, j in pairs:
        eq1 = eq1.add(nr_bracket(d.pis[i], d.pis[j]))
        eq2 = eq2.add(nr_bracket(d.mus[i], d.mus[j]))

    ggg = BlockCochain(gs, hs, 3, 0, "g", {(k, ()): v for k, v in eq1.coeffs.items()})
    hhh = BlockCochain(gs, hs, 0, 3, "h", {((), k): v for k, v in eq2.coeffs.items()})

    R = [r.sparse for r in d.rhos]
    PI = [pair_table(c) for c in d.pis]
    MU = [pair_table(c) for c in d.mus]
    eg, eh = units(gs.dim), units(hs.dim)

    ggh_coeffs = {}
    for gk in wedge_basis(gs, 2):
        u, v = gk
        # (-1)^{|u||v|} on the swapped composite
        swap_sign = -1 if gs.parity(u) * gs.parity(v) else 1
        for x in range(hs.dim):
            terms = []
            for i, j in pairs:
                terms += [
                    (1, bilinear(R[i], PI[j][u][v], eh[x])),  # rho_i(pi_j(u, v)) x
                    (-1, bilinear(R[i], eg[u], R[j][v][x])),  # rho_i(u) rho_j(v) x
                    (swap_sign, bilinear(R[i], eg[v], R[j][u][x])),  # rho_i(v) rho_j(u) x
                ]
            acc = lincomb(*terms)
            if acc:
                ggh_coeffs[(gk, (x,))] = dense(acc, hs.dim)
    ggh = BlockCochain(gs, hs, 2, 1, "h", ggh_coeffs)

    ghh_coeffs = {}
    for u in range(gs.dim):
        pu = gs.parity(u)
        for hk in wedge_basis(hs, 2):
            x, y = hk
            # (-1)^{|u||x|} on the second Leibniz term
            leib_sign = -1 if pu * hs.parity(x) else 1
            terms = []
            for i, j in pairs:
                terms += [
                    (1, bilinear(R[i], eg[u], MU[j][x][y])),  # rho_i(u) mu_j(x, y)
                    (-1, bilinear(MU[i], R[j][u][x], eh[y])),  # mu_i(rho_j(u) x, y)
                    (-leib_sign, bilinear(MU[i], eh[x], R[j][u][y])),  # mu_i(x, rho_j(u) y)
                ]
            acc = lincomb(*terms)
            if acc:
                ghh_coeffs[((u,), hk)] = dense(acc, hs.dim)
    ghh = BlockCochain(gs, hs, 1, 2, "h", ghh_coeffs)

    return McResidual(ggg, ggh, ghh, hhh)


class InfinitesimalReport(Frozen):
    """``order`` is None when all higher coefficients vanish; ``cochain`` holds
    the blocks of a degree-2 cochain, in ``triple_blocks(2)`` order."""

    __slots__ = ("order", "cochain", "is_cocycle")

    def __init__(self, order: int, cochain: tuple, is_cocycle: bool):
        super().__init__(order, cochain, is_cocycle)


def triple_infinitesimal(d: TripleDeformation):
    """First nonzero coefficient triple, as a degree-2 cochain, plus its verdict.

    The cochain complex of the base triple houses (pi_k, rho_k, mu_k) in
    degree 2; for a deformation that is valid through order k the first
    nonzero triple is closed under the differential.
    """
    t = d.triple
    for k in range(1, d.order + 1):
        c = _coefficient_cochain(d, k)
        if not all(b.is_zero() for b in c):
            image = triple_complex(t).d(c)
            return InfinitesimalReport(k, c, all(b.is_zero() for b in image))
    zero = tuple(BlockCochain.zero(t.g.space, t.h.space, *sig) for sig in triple_blocks(2))
    return InfinitesimalReport(None, zero, True)


def _coefficient_cochain(d: TripleDeformation, k: int):
    """(pi_k, rho_k, mu_k) as the blocks of a degree-2 cochain."""
    t = d.triple
    gs, hs = t.g.space, t.h.space
    pi_b = BlockCochain(gs, hs, 2, 0, "g", {(key, ()): v for key, v in d.pis[k].coeffs.items()})
    mu_b = BlockCochain(gs, hs, 0, 2, "h", {((), key): v for key, v in d.mus[k].coeffs.items()})
    by_sig = {(2, 0, "g"): pi_b, (1, 1, "h"): d.rhos[k].as_block(), (0, 2, "h"): mu_b}
    return tuple(by_sig[sig] for sig in triple_blocks(2))


def _order_one_agrees(residual_ok: bool, image) -> bool:
    """The residual verdict, after asserting that it matches "the image d c is zero"."""
    if residual_ok != all(b.is_zero() for b in image):
        raise InternalInvariantError("order-1 residual disagrees with the cocycle test")
    return residual_ok


def linear_triple_check(t: LieSupActTriple, pi1: Cochain, rho1: ActionMap, mu1: Cochain) -> bool:
    """Residual test for the order-1 truncation, cross-checked as a cocycle test."""
    d = TripleDeformation.build(t, [pi1], [rho1], [mu1], order=1)
    residual_ok = triple_deformation_residual(d, 1).is_zero
    return _order_one_agrees(residual_ok, triple_complex(t).d(_coefficient_cochain(d, 1)))


def triple_cocycle_deformations(t: LieSupActTriple):
    """One linear deformation per kernel vector of the even degree-2 differential."""
    gs, hs = t.g.space, t.h.space
    sigs = triple_blocks(2)
    units = triple_units(gs, hs, 2, parity=0)
    mat = triple_coboundary_matrix(t, 2, parity=0)
    out = []
    for vec in kernel_basis(mat):
        c = blocks_from_vector(gs, hs, sigs, units, vec)
        pi1 = Cochain(gs, gs, 2, {gk: v for (gk, hk), v in c[0].coeffs.items()})
        rho_block = c[sigs.index((1, 1, "h"))]
        table = [[zero_vec(hs.dim) for _ in range(hs.dim)] for _ in range(gs.dim)]
        for (gk, hk), v in rho_block.coeffs.items():
            table[gk[0]][hk[0]] = v
        rho1 = ActionMap(gs, hs, table)
        mu_blockc = c[sigs.index((0, 2, "h"))]
        mu1 = Cochain(hs, hs, 2, {hk: v for (gk, hk), v in mu_blockc.coeffs.items()})
        out.append(TripleDeformation.build(t, [pi1], [rho1], [mu1], order=1))
    return out


class CrossedHomDeformation(Frozen):
    """Coefficient list (D_0..D_N) of degree-0 maps g -> h with D_0 = D."""

    __slots__ = ("crossed", "order", "maps")

    def __init__(self, crossed: CrossedHom, order: int, maps: tuple):
        super().__init__(crossed, order, maps)

    @classmethod
    def build(cls, crossed: CrossedHom, terms=(), order=None):
        terms = list(terms)
        if order is None:
            order = max(1, len(terms))
        check_order(order)
        t = crossed.triple
        while len(terms) < order:
            terms.append(LinearMap.zero(t.g.space, t.h.space))
        for m in terms:
            if m.source != t.g.space or m.target != t.h.space:
                raise ShapeMismatch("deformation coefficient has the wrong shape")
            if m.parity() not in (0,):
                raise ValidationError("deformation coefficients must have degree 0")
        return cls(crossed, order, (crossed.linmap,) + tuple(terms[:order]))


def ch_deformation_residual(d: CrossedHomDeformation, n: int) -> BlockCochain:
    """Order-n defect (right minus left) of the deformed crossed identity."""
    if not 0 <= n <= d.order:
        raise ValidationError(f"order {n} outside 0..{d.order}")
    t = d.crossed.triple
    g, h = t.g, t.h
    gs, hs = g.space, h.space
    G, H, R, e = g.sparse, h.sparse, t.rho.sparse, units(gs.dim)
    maps = [[sparse(col) for col in m.cols] for m in d.maps]
    Dn = maps[n]
    coeffs = {}
    for gk in wedge_basis(gs, 2):
        x, y = gk
        sgn = 1 if gs.parity(x) * gs.parity(y) else -1
        # - D_n([x, y]) + rho(x) D_n(y) - (-1)^{|x||y|} rho(y) D_n(x)
        # + sum_{i+j=n} [D_i(x), D_j(y)]
        acc = lincomb(
            (-1, combine(G[x][y], Dn)),
            (1, bilinear(R, e[x], Dn[y])),
            (sgn, bilinear(R, e[y], Dn[x])),
            *((1, bilinear(H, maps[i][x], maps[n - i][y])) for i in range(n + 1)),
        )
        if acc:
            coeffs[(gk, ())] = dense(acc, hs.dim)
    return BlockCochain(gs, hs, 2, 0, "h", coeffs)


class ChInfinitesimalReport(Frozen):
    """``order`` is None when no nonzero higher coefficient exists."""

    __slots__ = ("order", "map", "is_cocycle")

    def __init__(self, order: int, map: LinearMap, is_cocycle: bool):
        super().__init__(order, map, is_cocycle)


def ch_infinitesimal(d: CrossedHomDeformation):
    t = d.crossed.triple
    for k in range(1, d.order + 1):
        if not d.maps[k].is_zero():
            block = CrossedHom(t, d.maps[k]).as_block()
            image = ChComplex(t).twisted(d.crossed.as_block()).d((block,))[0]
            return ChInfinitesimalReport(k, d.maps[k], image.is_zero())
    return ChInfinitesimalReport(None, LinearMap.zero(t.g.space, t.h.space), True)


def linear_ch_check(D: CrossedHom, D1: LinearMap) -> bool:
    """Residual test at order 1, cross-checked against d_D(D1) = 0."""
    d = CrossedHomDeformation.build(D, [D1], order=1)
    residual_ok = ch_deformation_residual(d, 1).is_zero()
    d_D = ChComplex(D.triple).twisted(_require_verified(D).as_block())
    return _order_one_agrees(residual_ok, d_D.d((CrossedHom(D.triple, D1).as_block(),)))
