"""Truncated formal deformations and their order-by-order obstructions.

A deformation of a triple replaces each structure map by a polynomial in a
formal parameter, truncated at a chosen order N (series mod t^{N+1}); the
zeroth coefficients are the base structure by construction.  The deformed
Pi(t) = sum_k (pi_k + rho_k + mu_k) t^k is a Maurer-Cartan element over Q[t]
iff every t^n coefficient sum_{i+j=n} [Pi_i, Pi_j] of its self-bracket
vanishes (Nijenhuis-Richardson).  Up to the fixed ``_EQUATION_FACTORS``, the
four blocks of that coefficient are the order-n equations over basis tuples:

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

A crossed homomorphism deformation D(t) is read the same way, from the t^n
coefficient of [pi + rho + 1/2 [mu, D(t)], D(t)]; its order-1 statement
couples to the twisted differential d_D.  The ``*_residuals`` functions
read every order in one pass; the one-order functions read the same pass.
"""

from __future__ import annotations

from fractions import Fraction

from .cochains import BlockCochain, Cochain, circ_sum, hat_sum
from .errors import InternalInvariantError, ShapeMismatch, ValidationError
from .exact_linalg import kernel_basis
from .graded import direct_sum
from .superalgebra import LinearMap
from .triple import (
    ActionMap,
    LieSupActTriple,
    McResidual,
    blocks_from_vector,
    triple_blocks,
    triple_complex,
    triple_units,
)
from .crossed import ChComplex, CrossedHom, _require_verified
from .util import Frozen


# Checking orders 0..N brackets floor((N + 2)^2 / 4) pairs of coefficients, and
# the report has one entry per order; larger requests are refused up front.
MAX_ORDER = 100


def check_order(order: int):
    """Refuse a truncation order outside 1..MAX_ORDER."""
    if order < 1:
        raise ValidationError("deformation order must be >= 1")
    if order > MAX_ORDER:
        raise ValidationError(f"deformation order {order} exceeds the limit of {MAX_ORDER}")


def _require_even(c, what: str):
    if c.parity() not in (0,):
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
            _require_even(c, "pi")
        for c in mu_terms:
            if c.source != hs or c.target != hs or c.arity != 2:
                raise ShapeMismatch("mu coefficient has the wrong shape")
            _require_even(c, "mu")
        for a in rho_terms:
            if a.g_space != gs or a.h_space != hs:
                raise ShapeMismatch("rho coefficient has the wrong shape")
            _require_even(a.as_block(), "rho")
        return cls(
            triple,
            order,
            (triple.g.as_cochain(),) + tuple(pi_terms[:order]),
            (triple.rho,) + tuple(rho_terms[:order]),
            (triple.h.as_cochain(),) + tuple(mu_terms[:order]),
        )


# The factor on each block of sum_{i+j=n} [Pi_i, Pi_j] that gives the defect
# (left minus right) of one order-n equation, in ``McResidual`` field order:
#   block  equation  factor  the block, summed over i + j = n
#   ggg    (1)        1      [pi_i, pi_j]: the defect itself
#   ggh    (3)       -1/2    2 rho_i.pi_j + [rho_i, rho_j]: -2 times the defect
#   ghh    (4)        1/2    2 [rho_i, mu_j]: 2 times the defect
#   hhh    (2)        1      [mu_i, mu_j]: the defect itself
_EQUATION_FACTORS = (1, Fraction(-1, 2), Fraction(1, 2), 1)


def _check_orders(d, orders):
    """``orders`` (default 0..d.order), each refused outside 0..d.order."""
    orders = tuple(range(d.order + 1)) if orders is None else tuple(orders)
    for n in orders:
        if not 0 <= n <= d.order:
            raise ValidationError(f"order {n} outside 0..{d.order}")
    return orders


def triple_deformation_residuals(d: TripleDeformation, orders=None):
    """The four defects of each order n in ``orders`` (default 0..d.order), in one pass.

    Each is the blocks of sum_{i+j=n} [Pi_i, Pi_j], scaled.  For even Pi_i of
    arity 2, [Pi_i, Pi_j] = Pi_i o Pi_j + Pi_j o Pi_i, so the sum is
    2 sum_{i+j=n} Pi_i o Pi_j over ordered pairs: one insertion product per
    pair, none for a zero Pi_i, and the support of each Pi_i built once.
    """
    orders = _check_orders(d, orders)
    if not orders:
        return ()
    t = d.triple
    ds = direct_sum(t.g.space, t.h.space)
    pis = [hat_sum(_coefficient_cochain(d, k)) for k in range(max(orders) + 1)]
    factors = tuple(2 * f for f in _EQUATION_FACTORS)
    return tuple(
        McResidual.project(circ_sum(((1, pis[i], pis[n - i]) for i in range(n + 1))), ds, factors)
        for n in orders
    )


def triple_deformation_residual(d: TripleDeformation, n: int) -> McResidual:
    """The four order-n defects: ``triple_deformation_residuals`` at order n alone."""
    return triple_deformation_residuals(d, (n,))[0]


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
    pi, mu = d.pis[k], d.mus[k]
    pi_b = BlockCochain._from_ints((gs, hs, 2, 0, "g"), pi.den, {(key, ()): v for key, v in pi.ints.items()})
    mu_b = BlockCochain._from_ints((gs, hs, 0, 2, "h"), mu.den, {((), key): v for key, v in mu.ints.items()})
    return pi_b, mu_b, d.rhos[k].as_block()  # the order of triple_blocks(2)


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
    units = triple_units(gs, hs, 2, parity=0)
    out = []
    for vec in kernel_basis(triple_complex(t).matrix(2, parity=0)):
        # the blocks of triple_blocks(2): pi, then mu, then rho
        pi_b, mu_b, rho_b = blocks_from_vector(gs, hs, triple_blocks(2), units, vec)
        pi1 = Cochain._from_ints((gs, gs, 2), pi_b.den, {gk: v for (gk, _), v in pi_b.ints.items()})
        mu1 = Cochain._from_ints((hs, hs, 2), mu_b.den, {hk: v for (_, hk), v in mu_b.ints.items()})
        rho1 = ActionMap._from_ints(gs, hs, rho_b.den, {(i, j): v for ((i,), (j,)), v in rho_b.ints.items()})
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


def _ch_blocks(d: CrossedHomDeformation):
    t = d.crossed.triple
    return [CrossedHom(t, m).as_block() for m in d.maps]


def ch_deformation_residuals(d: CrossedHomDeformation, orders=None, cc: ChComplex = None):
    """Defect (right minus left) of the deformed crossed identity at each order in ``orders``.

    The t^n coefficients of [pi + rho + 1/2 [mu, D(t)], D(t)], read in one
    pass by ``ChComplex.series_residuals``.  ``cc`` is ``ChComplex`` of the
    triple, if the caller holds it.
    """
    orders = _check_orders(d, orders)
    if not orders:
        return ()
    cc = ChComplex(d.crossed.triple) if cc is None else cc
    return tuple(cc.series_residuals(_ch_blocks(d), orders))


def ch_deformation_residual(d: CrossedHomDeformation, n: int) -> BlockCochain:
    """Order-n defect: ``ch_deformation_residuals`` at order n alone."""
    return ch_deformation_residuals(d, (n,))[0]


class ChInfinitesimalReport(Frozen):
    """``order`` is None when no nonzero higher coefficient exists."""

    __slots__ = ("order", "map", "is_cocycle")

    def __init__(self, order: int, map: LinearMap, is_cocycle: bool):
        super().__init__(order, map, is_cocycle)


def ch_infinitesimal(d: CrossedHomDeformation, cc: ChComplex = None):
    """First nonzero higher coefficient D_k and whether d_D D_k = 0; ``cc`` as in
    ``ch_deformation_residuals``."""
    t = d.crossed.triple
    for k in range(1, d.order + 1):
        if not d.maps[k].is_zero():
            cc = ChComplex(t) if cc is None else cc
            block = CrossedHom(t, d.maps[k]).as_block()
            image = cc.twisted(d.crossed.as_block()).d((block,))[0]
            return ChInfinitesimalReport(k, d.maps[k], image.is_zero())
    return ChInfinitesimalReport(None, LinearMap.zero(t.g.space, t.h.space), True)


def linear_ch_check(D: CrossedHom, D1: LinearMap) -> bool:
    """Residual test at order 1, cross-checked against d_D(D1) = 0."""
    d = CrossedHomDeformation.build(D, [D1], order=1)
    cc = ChComplex(D.triple)
    residual_ok = ch_deformation_residuals(d, (1,), cc)[0].is_zero()
    d_D = cc.twisted(_require_verified(D).as_block())
    return _order_one_agrees(residual_ok, d_D.d((CrossedHom(D.triple, D1).as_block(),)))
