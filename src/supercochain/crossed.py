"""Crossed homomorphisms g -> h over an action: checks, bracket, cohomology.

A degree-0 map D: g -> h is crossed for the action rho when

    D([x,y]) = rho(x) D(y) - (-1)^{|x||y|} rho(y) D(x) + [D(x), D(y)]

on homogeneous x, y.  Three equivalent characterizations are implemented and
cross-validated: the defining identity, the graph being a subalgebra of the
semidirect product, and D being a Maurer-Cartan element of the graded Lie
algebra on C^* = Hom(wedge^* g, h) with bracket

    [[f1, f2]] = (-1)^(m-1) [[mu, f1], f2]        (m = arity of f1)

and differential f -> [pi + rho, f], everything computed inside the big
algebra on g + h through the hat embedding.  The test suite checks the bracket
against its closed double-shuffle form.

Cochains here are blocks with no h slots: ``BlockCochain(g, h, m, 0, "h")``,
the one signature ``ch_blocks(m)``.  The twisted differential of D,

    d_D f = [pi + rho, f] + [[D, f]] = [P_D, f],   P_D = pi + rho + [mu, D],

is one bracket with an even arity-2 element of the big algebra, so
``ChComplex.twisted`` builds P_D and returns its ``triple.BlockComplex``
over ``ch_blocks``.  The d_D matrices and the order-1 cocycle tests go
through it.  ``ChComplex.problem`` makes D the X_0 of a Maurer-Cartan
series problem (``triple.McProblem``): delta = [pi + rho, .] and
b(f, g) = [[mu, f], g] on C^1.  The Maurer-Cartan residual is its order-0
coefficient and the deformation residuals its higher ones.  [mu, D] and
``ChComplex.bracket``, the general [[f1, f2]], are ``nr_bracket`` products
of the same expansion.  The identity checks compare
on ints (see ``util``).

For D = 0 on the adjoint triple of A, d_D = [pi + rho, .] is the
Chevalley-Eilenberg differential of A, so ``derivation_space`` reads the
derivations off the kernel of d_1 of the untwisted complex, decoded by that
complex (``BlockComplex.element``), the one owner of the coordinates of C^n.
"""

from __future__ import annotations

from functools import partial

from .cochains import BlockCochain, hat_extend, nr_bracket, project_block
from .errors import ShapeMismatch, ValidationError
from .exact_linalg import Matrix, cohomology_table, kernel_basis
from .graded import direct_sum
from .superalgebra import CheckReport, Failure, LinearMap, SuperAlgebra, check_super_skew
from .triple import BlockComplex, LieSupActTriple, McProblem, adjoint_action, mu_block, pi_block
from .triple import semidirect_algebra
from .util import Frozen, bilinear, combine, dense, lincomb


class CrossedHom(Frozen):
    """Candidate crossed homomorphism; ``verified`` records its check status."""

    __slots__ = ("triple", "linmap", "verified")

    def __init__(self, triple: LieSupActTriple, linmap: LinearMap, verified: bool = None):
        if linmap.source != triple.g.space or linmap.target != triple.h.space:
            raise ShapeMismatch("map does not go from g to h")
        if linmap.parity() not in (0,):
            raise ValidationError("crossed homomorphism candidates must have degree 0")
        super().__init__(triple, linmap, verified)

    def as_block(self) -> BlockCochain:
        m = self.linmap
        ints = {((i,), ()): col for i, col in m.ints.items()}
        return BlockCochain._from_ints((self.triple.g.space, self.triple.h.space, 1, 0, "h"), m.den, ints)


def check_crossed(D: CrossedHom) -> CheckReport:
    """Defining identity on all ordered basis pairs of g.

    Degree 2 in the data (D.pi on the left, rho.D on the right) but for the
    cubic term [D(x), D(y)]; each term is multiplied by the denominators it
    lacks, so both sides are ints over den(D)^2 den(g) den(rho) den(h).
    """
    t = D.triple
    g, h = t.g, t.h
    (dg, G), (dh, H), (dr, R) = ((A.den, A.ints) for A in (g, h, t.rho))
    f = D.linmap
    dd, Dc = f.den, f.ints
    m_lhs, m_rho, m_cubic = dd * dr * dh, dd * dg * dh, dg * dr
    den = dd * dd * dg * dr * dh
    pars = g.space.parities
    failures = []
    labels = g.space.labels
    for i in range(g.dim):
        Di = Dc.get(i, {})
        for j in range(g.dim):
            Dj = Dc.get(j, {})
            lhs = lincomb((m_lhs, f._image(G[i][j])))
            # rho(x) D(y) - (-1)^{|x||y|} rho(y) D(x) + [D(x), D(y)]
            sign = m_rho if pars[i] * pars[j] else -m_rho
            rhs = lincomb(
                (m_rho, combine(Dj, R[i])),
                (sign, combine(Di, R[j])),
                (m_cubic, bilinear(H, Di, Dj)),
            )
            if lhs != rhs:
                failures.append(Failure(
                    "crossed", (labels[i], labels[j]), dense(lhs, h.dim, den), dense(rhs, h.dim, den)
                ))
    return CheckReport("crossed", tuple(failures))


def graph_failures(D: CrossedHom):
    """Basis pairs where the graph fails to close in the semidirect product.

    With S = ints / s the table of g x| h and D = ints / dd, the bracket of
    two lifted units is quadratic, ints over s dd^2, and the lift of
    [x_i, x_j] is linear, ints over den(g) dd; the two are compared after
    multiplying each by the other's missing denominators.
    """
    t = D.triple
    ds = direct_sum(t.g.space, t.h.space)
    (s, S), (dg, G) = ((A.den, A.ints) for A in (semidirect_algebra(t), t.g))
    f = D.linmap
    dd = f.den

    def lift(x: dict) -> dict:
        """(x, D x) in g + h coordinates, times dd: ints over dd times the denominator of x."""
        out = {ds.left_pos[k]: dd * c for k, c in x.items()}
        out.update((ds.right_pos[k], c) for k, c in f._image(x).items())
        return out

    lifted = [lift({i: 1}) for i in range(t.g.dim)]
    dim = ds.space.dim
    failures = []
    labels = t.g.space.labels
    for i in range(t.g.dim):
        for j in range(t.g.dim):
            got = bilinear(S, lifted[i], lifted[j])
            want = lift(G[i][j])
            if lincomb((dg, got)) != lincomb((s * dd, want)):
                failures.append(Failure(
                    "graph", (labels[i], labels[j]), dense(got, dim, s * dd * dd), dense(want, dim, dg * dd)
                ))
    return tuple(failures)


def graph_check(D: CrossedHom) -> bool:
    """True iff the graph {(x, D x)} is closed under the semidirect bracket."""
    return not graph_failures(D)


def ch_blocks(n: int):
    """The one block signature of Hom(wedge^n g, h)."""
    return [(n, 0, "h")]


class ChComplex:
    """The hat embeddings pi + rho and mu of one triple's crossed-homomorphism complex.

    Both are built once; each keeps its bracket support once built
    (``Cochain.bracket_support``), so every bracket, problem and twisted
    complex of this object shares it.
    """

    def __init__(self, t: LieSupActTriple):
        self.triple = t
        self.mu_hat = hat_extend(mu_block(t.g.space, t.h))
        self.pr_hat = hat_extend(pi_block(t.g, t.h.space)).add(hat_extend(t.rho.as_block()))
        self._untwisted = BlockComplex(t.g.space, t.h.space, self.pr_hat, ch_blocks)

    def bracket(self, f1: BlockCochain, f2: BlockCochain) -> BlockCochain:
        """[[f1, f2]] through the double bracket in the big algebra."""
        m = f1.g_arity
        inner = nr_bracket(self.mu_hat, hat_extend(f1))
        outer = nr_bracket(inner, hat_extend(f2))
        sign = 1 if (m - 1) % 2 == 0 else -1
        return project_block(outer.scale(sign), self._untwisted.ds, m + f2.g_arity, 0, "h")

    def coboundary(self, f: BlockCochain) -> BlockCochain:
        """f -> [pi + rho, f], one degree up."""
        return self._untwisted.d((f,))[0]

    def twisted(self, D_block: BlockCochain) -> BlockComplex:
        """The complex of d_D = [P_D, .] with P_D = pi + rho + [mu, D], over ``ch_blocks``:
        the complex of the crossed problem at D."""
        problem = self.problem()
        return problem.complex(problem.left(hat_extend(D_block)))

    def problem(self) -> McProblem:
        """The crossed problem, with its t^n coefficients read on Hom(wedge^2 g, h).

        delta = [pi + rho, .] and b(f, g) = [[mu, f], g], so the t^n
        coefficient of D(t) is that of [pi + rho + 1/2 [mu, D(t)], D(t)];
        b is symmetric, as [f, g] = 0 for maps g -> h.  The complex at D is
        ``twisted(D)``.
        """
        t = self.triple
        project = partial(project_block, ds=self._untwisted.ds, g_arity=2, h_arity=0, target_side="h")
        return McProblem(
            t.g.space, t.h.space, ch_blocks, self.pr_hat, partial(nr_bracket, self.mu_hat), project, _one_part
        )


def _one_part(block: BlockCochain):
    return {None: block}


def ch_mc_residual(D: CrossedHom) -> BlockCochain:
    """Maurer-Cartan defect of D: [pi + rho + 1/2 [mu, D], D] = dD + 1/2 [[D, D]].

    The order-0 coefficient of the crossed problem at D, read without
    building the twisted complex.  Refuses an action that is not degree 0, as
    d_D does.
    """
    cc = ChComplex(D.triple)
    if cc.pr_hat.parity() != 0:
        raise ShapeMismatch("the differential needs an even arity-2 cochain V -> V")
    D_hat = hat_extend(D.as_block())
    problem = cc.problem()
    return problem.residuals((D_hat,), (problem.left(D_hat),), (0,))[0]


def _require_verified(D: CrossedHom) -> CrossedHom:
    if D.verified is True:
        return D
    report = check_crossed(D)
    if not report.ok:
        raise ValidationError(
            f"map is not a crossed homomorphism ({len(report.failures)} failing pairs)"
        )
    return CrossedHom(D.triple, D.linmap, True)


def d_D_matrix(D: CrossedHom, n: int, parity=None, cx=None) -> Matrix:
    """Matrix of d_D = [P_D, .] from degree n to n + 1, on the units of ``ch_blocks``.

    Refuses a D that is not a crossed homomorphism, since d_D squares to
    zero only then.  ``cx`` is the twisted complex of D, if the caller holds it.
    """
    D = _require_verified(D)
    return (cx or ChComplex(D.triple).twisted(D.as_block())).matrix(n, parity)


def ch_cohomology_table(D: CrossedHom, degrees, parities=(0, 1)):
    """{n: {parity: dim H^n}} of the twisted complex: P_D built once, each d_n once."""
    D = _require_verified(D)
    cx = ChComplex(D.triple).twisted(D.as_block())
    return cohomology_table(lambda n, p: d_D_matrix(D, n, p, cx), degrees, parities)


def derivation_space(A: SuperAlgebra):
    """Exact bases of the even and odd derivations of A, in kernel order.

    A degree-s map D is a derivation when D[a,b] = [D a, b] + (-1)^(s|a|) [a, D b].
    For D = 0 on the adjoint triple, d_D = [pi + rho, .] is the
    Chevalley-Eilenberg differential, so the degree-s derivations are the
    parity-s kernel of d_1 of the untwisted complex.
    The table must be super-skew: Pi holds no [x, x] of an even x.
    """
    skew = check_super_skew(A)
    if not skew.ok:
        raise ValidationError(
            f"derivations need a super-skew bracket: it fails at {skew.failures[0].where}"
        )
    # at D = 0, P_D = pi + rho: the untwisted complex of the adjoint triple
    cx = ChComplex(LieSupActTriple(A, A, adjoint_action(A)))._untwisted
    out = []
    for s in (0, 1):
        maps = []
        for vec in kernel_basis(cx.matrix(1, s)):
            (block,) = cx.element(1, s, vec)
            cols = {gk[0]: col for (gk, _), col in block.ints.items()}
            maps.append(LinearMap._from_ints((A.space, A.space), block.den, cols))
        out.append(maps)
    return out[0], out[1]
