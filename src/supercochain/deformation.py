"""Truncated formal deformations and their order-by-order obstructions.

A deformation replaces a Maurer-Cartan element X_0 by a polynomial
X(t) = sum_k t^k X_k in a formal parameter, truncated at a chosen order N
(series mod t^{N+1}); X_0 is the base structure by construction.  Both
deformation problems are one computation in a dgLa (delta, b): X(t) is a
Maurer-Cartan element over Q[t] iff every t^n coefficient

    delta X_n + 1/2 sum_{i+j=n} b(X_i, X_j)

vanishes (Nijenhuis-Richardson 1967; Goldman-Millson 1988).  One
``triple.McProblem`` holds (delta, b), the block signatures of the complex
at X_0 and the reading of a coefficient, and reads every order in one
pass; a ``Series`` is X(t) in one problem, with each X_k hat-extended and
each left(X_i) built once, built by the input classes
``TripleDeformation`` and ``CrossedHomDeformation``.

For a triple, X_k = pi_k + rho_k + mu_k in C^2, delta = 0 and b is the
Nijenhuis-Richardson bracket (``triple_problem``), so the coefficient is
1/2 sum_{i+j=n} [Pi_i, Pi_j].  Up to the fixed ``_EQUATION_FACTORS``, its
four blocks are the order-n equations over basis tuples:

  (1) sum_{i+j=n} [pi_i, pi_j] = 0                       on wedge^3 g
  (2) sum_{i+j=n} [mu_i, mu_j] = 0                       on wedge^3 h
  (3) sum_{i+j=n} rho_i(pi_j(u,v)) x
        = sum_{i+j=n} rho_i(u) rho_j(v) x - (-1)^{|u||v|} rho_i(v) rho_j(u) x
  (4) sum_{i+j=n} rho_i(u) mu_j(x,y)
        = sum_{i+j=n} mu_i(rho_j(u) x, y) + (-1)^{|u||x|} mu_i(x, rho_j(u) y)

and the residual of one order is the four defect blocks (left minus right).
For a crossed homomorphism, X_k = D_k in C^1, delta = [pi + rho, .] and
b(f, g) = [[mu, f], g] (``crossed.ChComplex.problem``); the residual is the
one block of [pi + rho + 1/2 [mu, D(t)], D(t)] at t^n.

A deformation is valid through its order iff every residual vanishes.  Its
first nonzero X_k, the infinitesimal, is then a cocycle of the complex at
X_0, and conversely every such cocycle gives a linear deformation
(``linear_check``): with X_1..X_(k-1) zero, the order-k coefficient is
[P, X_k] = d X_k, which ``Series.infinitesimal`` asserts.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .cochains import BlockCochain, Cochain, hat_sum
from .errors import InternalInvariantError, ShapeMismatch, ValidationError
from .exact_linalg import kernel_basis
from .graded import DirectSum
from .superalgebra import LinearMap
from .triple import (
    ActionMap,
    LieSupActTriple,
    McProblem,
    McResidual,
    triple_blocks,
    triple_complex,
)
from .crossed import ChComplex, CrossedHom
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


class InfinitesimalReport(Frozen):
    """``order`` is None when all higher coefficients vanish; ``cochain`` holds
    the blocks of that coefficient (zero when ``order`` is None), an element
    of the problem's complex in the degree of X_0."""

    __slots__ = ("order", "cochain", "is_cocycle")

    def __init__(self, order: int, cochain: tuple, is_cocycle: bool):
        super().__init__(order, cochain, is_cocycle)


class Series(Frozen):
    """X(t) = sum_k t^k X_k in one ``McProblem``: ``terms[k]`` holds the blocks of X_k, k = 0..order.

    ``hats[k]`` is the hat extension of X_k and ``lefts[i]`` is left(X_i)
    for i <= order / 2, each built once here: the residual pass reads them
    all, and the complex at X_0 is built from ``lefts[0]``.
    """

    __slots__ = ("problem", "terms", "hats", "lefts")

    def __init__(self, problem: McProblem, terms: tuple):
        hats = tuple(hat_sum(X, problem.ds) for X in terms)
        lefts = tuple(map(problem.left, hats[: (len(hats) + 1) // 2]))
        super().__init__(problem, terms, hats, lefts)

    def residuals(self, orders=None):
        """The report of each order n in ``orders`` (default 0..order), each refused outside 0..order."""
        top = len(self.terms) - 1
        orders = range(top + 1) if orders is None else tuple(orders)
        for n in orders:
            if not 0 <= n <= top:
                raise ValidationError(f"order {n} outside 0..{top}")
        return self.problem.residuals(self.hats, self.lefts, orders)

    def infinitesimal(self, reports) -> InfinitesimalReport:
        """The first nonzero X_k, and whether d X_k = 0 in the complex at X_0.

        ``reports`` are the ``residuals`` of every order.  With X_1..X_(k-1)
        zero, the order-k coefficient is delta X_k + b(X_0, X_k) = d X_k, so
        the verdict must be that report's; ``InternalInvariantError`` is
        raised otherwise.
        """
        problem = self.problem
        for k in range(1, len(self.terms)):
            X = self.terms[k]
            if not all(b.is_zero() for b in X):
                is_cocycle = all(b.is_zero() for b in problem.complex(self.lefts[0]).d(X))
                if is_cocycle != problem.is_zero(reports[k]):
                    raise InternalInvariantError("the infinitesimal cocycle test disagrees with its residual")
                return InfinitesimalReport(k, X, is_cocycle)
        # X_0 lies in the same degree: its blocks give the signatures of the zero
        zero = tuple(BlockCochain.zero(*b.shape) for b in self.terms[0])
        return InfinitesimalReport(None, zero, True)


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

    def series(self) -> Series:
        """X_k = pi_k + rho_k + mu_k, as the blocks of C^2 in ``triple_blocks(2)`` order."""
        gs, hs = self.triple.g.space, self.triple.h.space
        terms = tuple(
            (
                BlockCochain._from_ints((gs, hs, 2, 0, "g"), pi.den, {(k, ()): v for k, v in pi.ints.items()}),
                BlockCochain._from_ints((gs, hs, 0, 2, "h"), mu.den, {((), k): v for k, v in mu.ints.items()}),
                rho.as_block(),
            )
            for pi, rho, mu in zip(self.pis, self.rhos, self.mus)
        )
        return Series(triple_problem(self.triple), terms)


# The factor on each block of sum_{i+j=n} [Pi_i, Pi_j] that gives the defect
# (left minus right) of one order-n equation, in ``McResidual`` field order:
#   block  equation  factor  the block, summed over i + j = n
#   ggg    (1)        1      [pi_i, pi_j]: the defect itself
#   ggh    (3)       -1/2    2 rho_i.pi_j + [rho_i, rho_j]: -2 times the defect
#   ghh    (4)        1/2    2 [rho_i, mu_j]: 2 times the defect
#   hhh    (2)        1      [mu_i, mu_j]: the defect itself
_EQUATION_FACTORS = (1, Fraction(-1, 2), Fraction(1, 2), 1)


def triple_problem(t: LieSupActTriple) -> McProblem:
    """Pi as the X_0 of the triple problem: delta = 0 and b the bracket itself, on C^2.

    The problem's coefficient is 1/2 sum_{i+j=n} [Pi_i, Pi_j], so each block
    is read at twice its ``_EQUATION_FACTORS`` factor.  The complex at Pi is
    the triple complex over ``triple_blocks``, with P = Pi itself.
    """
    ds = DirectSum(t.g.space, t.h.space)
    factors = tuple(2 * f for f in _EQUATION_FACTORS)
    zero = Cochain.zero(ds.space, ds.space, 2)
    project = partial(McResidual.project, ds=ds, factors=factors)
    return McProblem(ds, triple_blocks, zero, lambda X: X, project, McResidual.components)


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

    def series(self) -> Series:
        """X_k = D_k, as the one block of C^1, in the crossed problem at D."""
        t = self.crossed.triple
        terms = tuple((CrossedHom(t, m).as_block(),) for m in self.maps)
        return Series(ChComplex(t).problem(), terms)


def linear_check(d) -> bool:
    """Whether the linear deformation ``d`` (order 1) is valid: its order-1 residual verdict.

    The paper's "linear deformations are characterised by one cocycles": X_0
    + t X_1 is a deformation iff X_1 is a cocycle of the complex at X_0 (in
    C^1 for a crossed homomorphism, in C^2 for a triple), which
    ``Series.infinitesimal`` asserts equal to the residual verdict.
    """
    if d.order != 1:
        raise ValidationError(f"a linear deformation has order 1, not {d.order}")
    s = d.series()
    return s.infinitesimal(s.residuals()).is_cocycle


def triple_cocycle_deformations(t: LieSupActTriple):
    """One linear deformation per kernel vector of the even degree-2 differential."""
    gs, hs = t.g.space, t.h.space
    cx = triple_complex(t)
    out = []
    for vec in kernel_basis(cx.matrix(2, parity=0)):
        # the blocks of triple_blocks(2): pi, then mu, then rho
        pi_b, mu_b, rho_b = cx.element(2, 0, vec)
        pi1 = Cochain._from_ints((gs, gs, 2), pi_b.den, {gk: v for (gk, _), v in pi_b.ints.items()})
        mu1 = Cochain._from_ints((hs, hs, 2), mu_b.den, {hk: v for (_, hk), v in mu_b.ints.items()})
        rho1 = ActionMap._from_ints(gs, hs, rho_b.den, {(i, j): v for ((i,), (j,)), v in rho_b.ints.items()})
        out.append(TripleDeformation.build(t, [pi1], [rho1], [mu1], order=1))
    return out
