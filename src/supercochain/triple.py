"""Paired superalgebras with an action: axioms, Maurer-Cartan data, cohomology.

The structure of a pair (g, h) with a degree-0 action of g on h is carried by
one even element Pi of the graded Lie algebra on g + h, the sum of the two
brackets and the action block.  Its self-bracket splits into four block
components whose joint vanishing is equivalent to the axioms, and bracketing
with Pi is the differential of the associated cochain complex

    C^n = Hom(wedge^n g, g)  +  sum_{i=0}^{n-1} Hom(wedge^i g x wedge^{n-i} h, h),

which starts at n = 1.  The differential preserves map parity, so cohomology
is reported per parity.

Pi is also the bracket of the semidirect product g x| h on g + h, so
``semidirect`` reads its table from ``mc_element``.

``BlockComplex`` is the one implementation of such a complex: an element of
C^n is the tuple of its blocks, listed by a signature function, and both the
differential of one element and its matrix on the unit basis are the bracket
with one even arity-2 element P on g + h.  Its units are the one coordinate
system of C^n, which ``element`` decodes.  The triple complex is the instance
P = Pi over ``triple_blocks``; the crossed-homomorphism complex is another.
``McProblem`` reads a Maurer-Cartan series X(t) = sum_k t^k X_k at the X_0
of such a complex, one residual pass for the deformations of triples and of
crossed homomorphisms alike.
"""

from __future__ import annotations

from fractions import Fraction

from .cochains import BlockCochain, Cochain, block_key, bracket_matrix, bracket_sum, hat_sum
from .cochains import nr_bracket, order_pairs, project_block
from .errors import DimensionMismatch, InternalInvariantError, InvalidAction, ShapeMismatch
from .errors import ValidationError
from .exact_linalg import Matrix, cohomology_table
from .graded import DirectSum, GradedSpace, wedge_basis
from .superalgebra import CheckReport, Failure, LinearMap, SuperAlgebra, algebra_reports
from .superalgebra import identity_failures
from .util import Frozen, bilinear, canonical, contract_cols, contract_pairs, contract_rows, dense
from .util import exact_rows, scaled_rows, sparse, support


class ActionMap:
    """Bilinear degree-0 table rho: rho(g_i) h_j = sum_k ints[i][j][k] / den h_k, in the
    canonical form of ``util.canonical``.

    ``table`` has one row of coordinate vectors of ints and ``Fraction``s per
    basis vector of g; ``_from_ints`` takes int rows {(i, j): {k: int}} over
    ``den``.  ``table``, ``value`` and ``operator`` are ``Fraction`` views.
    """

    __slots__ = ("g_space", "h_space", "den", "ints")

    def __init__(self, g_space: GradedSpace, h_space: GradedSpace, table):
        table = tuple(map(tuple, table))
        if len(table) != g_space.dim or any(len(row) != h_space.dim for row in table):
            raise DimensionMismatch("action table shape does not match the spaces")
        vecs = {(i, j): vec for i, row in enumerate(table) for j, vec in enumerate(row)}
        self._store(g_space, h_space, *scaled_rows(exact_rows(vecs, h_space.dim, "action value")))

    @classmethod
    def _from_ints(cls, g_space: GradedSpace, h_space: GradedSpace, den: int, rows) -> "ActionMap":
        out = cls.__new__(cls)
        out._store(g_space, h_space, den, rows)
        return out

    def _store(self, g_space, h_space, den, rows):
        den, rows = canonical(den, rows)
        R = tuple(tuple(rows.get((i, j), {}) for j in range(h_space.dim)) for i in range(g_space.dim))
        self.g_space, self.h_space, self.den, self.ints = g_space, h_space, den, R

    @classmethod
    def zero(cls, g_space: GradedSpace, h_space: GradedSpace) -> "ActionMap":
        return cls._from_ints(g_space, h_space, 1, {})

    @property
    def table(self):
        """value(i, j) for every pair: a view built on each read."""
        dim, den = self.h_space.dim, self.den
        return tuple(tuple(dense(vec, dim, den) for vec in row) for row in self.ints)

    def value(self, i: int, j: int):
        return dense(self.ints[i][j], self.h_space.dim, self.den)

    def operator(self, i: int) -> LinearMap:
        return LinearMap._from_ints((self.h_space, self.h_space), self.den, dict(enumerate(self.ints[i])))

    def apply(self, xvec, uvec):
        """rho(x) u for coordinate vectors x in g and u in h."""
        rows = exact_rows({0: xvec}, self.g_space.dim, "g vector")
        rows.update(exact_rows({1: uvec}, self.h_space.dim, "h vector"))
        d, xu = scaled_rows(rows)
        return dense(bilinear(self.ints, xu[0], xu[1]), self.h_space.dim, self.den * d * d)

    def as_block(self) -> BlockCochain:
        R = self.ints
        ints = {((i,), (j,)): vec for i, row in enumerate(R) for j, vec in enumerate(row) if vec}
        return BlockCochain._from_ints((self.g_space, self.h_space, 1, 1, "h"), self.den, ints)

    def __eq__(self, other):
        return (
            isinstance(other, ActionMap)
            and self.g_space == other.g_space
            and self.h_space == other.h_space
            and self.den == other.den
            and self.ints == other.ints
        )

    def __repr__(self):
        entries = sum(1 for row in self.ints for vec in row if vec)
        (p, q), (r, s) = self.g_space.dims, self.h_space.dims
        return f"ActionMap(dims=({p}|{q})->({r}|{s}), entries={entries})"


class LieSupActTriple(Frozen):
    """Two superalgebras and an action table; validity is checked, not assumed."""

    __slots__ = ("g", "h", "rho")

    def __init__(self, g: SuperAlgebra, h: SuperAlgebra, rho: ActionMap):
        if rho.g_space != g.space or rho.h_space != h.space:
            raise ShapeMismatch("action table does not match the algebra spaces")
        super().__init__(g, h, rho)

    def check(self) -> CheckReport:
        reports = triple_reports(self.g, self.h, self.rho)
        return CheckReport("triple", tuple(f for _, r in reports for f in r.failures))


def triple_reports(g: SuperAlgebra, h: SuperAlgebra, rho: ActionMap):
    """The axiom checks of a triple, each with its name: those of g, then of h, then the action."""
    return algebra_reports("g", g) + algebra_reports("h", h) + [("action", check_action(g, h, rho))]


def check_action(g: SuperAlgebra, h: SuperAlgebra, rho: ActionMap) -> CheckReport:
    """Degree 0, derivation property, and compatibility with the g bracket.

    (a) parity(rho(x)u) = |x| + |u| entry by entry;
    (b) each rho(x) is a degree-|x| derivation of h: degree (1, 1) in (rho, h),
        so both sides are ints over den(rho) den(h);
    (c) rho([x,y]) = rho(x) rho(y) - (-1)^{|x||y|} rho(y) rho(x) as operators:
        degree (1, 1) in (rho, g) on the left and 2 in rho on the right, so
        the left side is multiplied by den(rho) and the right by den(g), and
        both are ints over den(rho)^2 den(g).

    (a) walks the support of R.  (b) and (c) take one x at a time: each side
    is a table on the remaining pairs, and each term contracts the row R[x]
    (G[x] for rho([x,y])) with the nonzero entries, rows or columns of H in
    (b), of R in (c).
    """
    if rho.g_space != g.space or rho.h_space != h.space:
        raise ShapeMismatch("action table does not match the algebra spaces")
    failures = []
    glab, hlab = g.space.labels, h.space.labels
    gpar, hpar = g.space.parities, h.space.parities
    (dg, G), (dh, H), (dr, R) = ((A.den, A.ints) for A in (g, h, rho))
    for i in range(g.dim):
        for j in range(h.dim):
            want = (gpar[i] + hpar[j]) % 2
            for k, x in R[i][j].items():
                if hpar[k] != want:
                    failures.append(Failure(
                        "action_degree", (glab[i], hlab[j], hlab[k]), (Fraction(x, dr),), (Fraction(0),)
                    ))
    hrows, hcols = support(H)
    for i in range(g.dim):
        # rho(x)[a,b] = [rho(x)a, b] + (-1)^{|x||a|} [a, rho(x)b]
        lhs, rhs = {}, {}
        contract_pairs(lhs, hrows, R[i])
        contract_rows(rhs, R[i], hrows)
        contract_cols(rhs, R[i], hcols, hpar, (1, -1 if gpar[i] else 1))
        failures += identity_failures("action_derivation", glab[i], hlab, hlab, lhs, rhs, h.dim, dr * dh)
    rrows, rcols = support(R)
    for i in range(g.dim):
        # rho([x,y]) = rho(x) rho(y) - (-1)^{|x||y|} rho(y) rho(x), column by column
        lhs, rhs = {}, {}
        contract_rows(lhs, G[i], rrows, dr)
        contract_pairs(rhs, rrows, R[i], dg)
        contract_cols(rhs, R[i], rcols, gpar, (-dg, dg if gpar[i] else -dg))
        failures += identity_failures("action_morphism", glab[i], glab, hlab, lhs, rhs, h.dim, dr * dr * dg)
    return CheckReport("action", tuple(failures))


def pi_block(g: SuperAlgebra, h_space: GradedSpace) -> BlockCochain:
    """The g bracket as a (2,0) block targeting g."""
    c = g.as_cochain()
    return BlockCochain._from_ints((g.space, h_space, 2, 0, "g"), c.den, {(k, ()): v for k, v in c.ints.items()})


def mu_block(g_space: GradedSpace, h: SuperAlgebra) -> BlockCochain:
    """The h bracket as a (0,2) block targeting h."""
    c = h.as_cochain()
    return BlockCochain._from_ints((g_space, h.space, 0, 2, "h"), c.den, {((), k): v for k, v in c.ints.items()})


def _blocks_of(g: SuperAlgebra, h: SuperAlgebra, rho: ActionMap):
    return pi_block(g, h.space), rho.as_block(), mu_block(g.space, h)


def mc_element(t: LieSupActTriple) -> Cochain:
    """Pi = pi + rho + mu, extended to one arity-2 cochain on g + h."""
    return hat_sum(_blocks_of(t.g, t.h, t.rho), DirectSum(t.g.space, t.h.space))


def adjoint_action(A: SuperAlgebra) -> ActionMap:
    """A acting on itself: rho(x) y = [x, y], read from the table of A."""
    rows = {(i, j): vec for i, row in enumerate(A.ints) for j, vec in enumerate(row) if vec}
    return ActionMap._from_ints(A.space, A.space, A.den, rows)


def semidirect(g: SuperAlgebra, h: SuperAlgebra, rho: ActionMap) -> SuperAlgebra:
    """The semidirect product g x| h: the algebra on g + h whose bracket is Pi.

    g and h must pass their ``triple_reports`` checks (Pi is stored on wedge
    keys, so it holds no [x, x] of an even x), else ``ValidationError`` naming
    the check; the action must pass ``check_action``, else ``InvalidAction``.
    """
    t = LieSupActTriple(g, h, rho)
    for name, report in triple_reports(g, h, rho):
        if name == "action" and not report.ok:
            raise InvalidAction(f"action fails {len(report.failures)} axiom checks")
        if not report.ok:
            raise ValidationError(f"the semidirect product needs Lie superalgebras: {name} fails at "
                                  f"{report.failures[0].where}")
    return semidirect_algebra(t)


def semidirect_algebra(t: LieSupActTriple) -> SuperAlgebra:
    """The table of Pi as a ``SuperAlgebra`` on g + h; it is super-skew by
    construction, so it is re-verified as super Jacobi through [Pi, Pi] = 0."""
    Pi = mc_element(t)
    result = SuperAlgebra._from_ints(Pi.source, Pi.den, Pi.ints)
    if not mc_residual(t.g, t.h, t.rho).is_zero:
        raise InternalInvariantError("semidirect product violates the super Jacobi identity")
    return result


class McResidual(Frozen):
    """The four blocks of a self-bracket on g + h, the signatures of ``triple_blocks(3)``.

    ``ggg`` on wedge^3 g -> g, ``ggh`` on wedge^2 g x h -> h, ``ghh`` on
    g x wedge^2 h -> h and ``hhh`` on wedge^3 h -> h.  ``mc_residual`` reads
    them from [Pi, Pi]; the triple problem of ``deformation`` reads them, times
    fixed factors, from the t^n coefficient of a deformed 1/2 [Pi(t), Pi(t)].
    """

    __slots__ = ("ggg", "ggh", "ghh", "hhh")
    # block signatures in field order
    SIGNATURES = ((3, 0, "g"), (2, 1, "h"), (1, 2, "h"), (0, 3, "h"))

    def __init__(self, ggg: BlockCochain, ggh: BlockCochain, ghh: BlockCochain, hhh: BlockCochain):
        super().__init__(ggg, ggh, ghh, hhh)

    @classmethod
    def project(cls, F: Cochain, ds, factors=(1, 1, 1, 1)) -> "McResidual":
        """The four blocks of an arity-3 cochain F on the direct sum ``ds``, times ``factors``."""
        return cls(*(
            project_block(F, ds, *sig).scale(c) for sig, c in zip(cls.SIGNATURES, factors)
        ))

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero() for c in (self.ggg, self.ggh, self.ghh, self.hhh))

    def components(self):
        return {"ggg": self.ggg, "ggh": self.ggh, "ghh": self.ghh, "hhh": self.hhh}


def mc_residual(g: SuperAlgebra, h: SuperAlgebra, rho: ActionMap) -> McResidual:
    """The self-bracket [Pi, Pi] of candidate data Pi = pi + rho + mu, by block.

    Its blocks are [pi, pi], 2 rho.pi + [rho, rho], 2 [rho, mu] and [mu, mu]:
    on super-skew tables they measure Jacobi of g, the action morphism, the
    action derivation and Jacobi of h.  The action must be degree 0, so Pi
    is even of arity 2 and ``nr_bracket`` reads [Pi, Pi] as 2 Pi o Pi, one
    insertion product.
    """
    if rho.g_space != g.space or rho.h_space != h.space:
        raise ShapeMismatch("candidate data shapes do not match")
    blocks = _blocks_of(g, h, rho)
    if blocks[1].parity() != 0:
        raise ShapeMismatch("the action is not degree 0")
    ds = DirectSum(g.space, h.space)
    Pi = hat_sum(blocks, ds)
    return McResidual.project(nr_bracket(Pi, Pi), ds)


def triple_blocks(n: int):
    """Block signatures of C^n in matrix order: g target first, then h blocks."""
    if n < 1:
        raise ValidationError("cochain degree must be >= 1")
    sigs = [(n, 0, "g")]
    for i in range(n):
        sigs.append((i, n - i, "h"))
    return sigs


def block_units(g_space, h_space, sigs):
    """Coordinate basis of a sum of blocks: (block index, g key, h key, target, map parity).

    ``sigs`` lists block signatures (g_arity, h_arity, target side).  Order:
    blocks as listed, then g key lexicographic, h key lexicographic, target
    position.
    """
    gpars, hpars = g_space.parities, h_space.parities
    units = []
    for b, (ga, ha, side) in enumerate(sigs):
        tpars = gpars if side == "g" else hpars
        hkeys = [(hk, sum(hpars[j] for j in hk)) for hk in wedge_basis(h_space, ha)]
        for gk in wedge_basis(g_space, ga):
            gp = sum(gpars[i] for i in gk)
            for hk, hp in hkeys:
                kp = gp + hp
                for t, tp in enumerate(tpars):
                    units.append((b, gk, hk, t, (kp + tp) % 2))
    return units


class BlockComplex:
    """The complex (C^*, [P, .]) of block cochains for an even arity-2 P on ``ds`` = g + h.

    ``sigs(n)`` lists the block signatures of C^n; an element of C^n is the
    tuple of its ``BlockCochain``s in that order, and ``element`` decodes one
    from its coordinates on ``units``.  The triple complex has
    P = pi + rho + mu over ``triple_blocks``, the crossed-homomorphism
    complex P_D = pi + rho + [mu, D] over ``crossed.ch_blocks``.  ``ds`` is
    the direct sum its builder extended P on; ``d``, ``units`` and ``element``
    extend and project on it.
    """

    def __init__(self, ds: DirectSum, P: Cochain, sigs):
        self.ds = ds
        self.P = P
        self.sigs = sigs
        self._units = {}

    def units(self, n: int, parity=None):
        """The coordinates of C^n of one map parity (both with ``parity=None``): the columns
        of d_n, the rows of d_(n-1) and what ``element`` reads.  A unit is (key, target, sign)
        on g + h as ``bracket_matrix`` reads it, in ``block_units`` order; each degree is
        walked once, for every parity, and each block pair's ``block_key`` computed once."""
        if n not in self._units:
            ds, sigs = self.ds, self.sigs(n)
            out = {None: [], 0: [], 1: []}
            pair = None
            for b, gk, hk, t, up in block_units(ds.left, ds.right, sigs):
                if pair != (gk, hk):
                    pair = (gk, hk)
                    key, sign = block_key(ds, gk, hk)
                unit = (key, (ds.left_pos if sigs[b][2] == "g" else ds.right_pos)[t], sign)
                out[None].append(unit)
                out[up].append(unit)
            self._units[n] = out
        return self._units[n][parity]

    def element(self, n: int, parity, vec):
        """The blocks of the element of C^n with coordinates ``vec`` on ``units(n, parity)``:
        the cochain on g + h the units name, split by ``project_block`` as ``d`` splits an image."""
        den, rows = scaled_rows({0: sparse(vec)})
        units = self.units(n, parity)
        ints = {}
        for u, x in rows[0].items():
            key, t, sign = units[u]
            ints.setdefault(key, {})[t] = sign * x
        F = Cochain._from_ints((self.ds.space, self.ds.space, n), den, ints)
        return tuple(project_block(F, self.ds, *sig) for sig in self.sigs(n))

    def matrix(self, n: int, parity=None) -> Matrix:
        """Matrix of d_n on ``block_units``: columns of C^n, rows of C^(n+1)."""
        return bracket_matrix(self.P, self.units(n, parity), self.units(n + 1, parity))

    def d(self, blocks):
        """[P, c] for the element ``blocks`` of C^n, as the blocks of C^(n+1)."""
        if self.P.parity() != 0:
            raise ShapeMismatch("the differential needs an even arity-2 cochain V -> V")
        total = hat_sum(blocks, self.ds)
        image = nr_bracket(self.P, total)
        return tuple(project_block(image, self.ds, *sig) for sig in self.sigs(total.arity + 1))


class McProblem(Frozen):
    """One Maurer-Cartan series problem: X(t) = sum_k t^k X_k in a dgLa (delta, b) on g + h (``ds``).

    ``delta`` is the element delta brackets with (zero when delta = 0), and
    b(X, Y) = [left(X), Y] on hat extensions, symmetric in X and Y.  Each X_k
    is an element of one degree of the complex at X_0 (``complex``: P =
    delta + left(X_0), over the block signatures ``sigs``), C^2 for triples
    and C^1 for crossed homomorphisms.  ``project`` reads the report of one
    t^n coefficient out of a cochain on g + h, and ``parts`` maps a report to
    its blocks by name (the one key None for a report of one block).  The
    triple problem is ``deformation.triple_problem``, the crossed one
    ``crossed.ChComplex.problem``; ``deformation.Series`` holds the hat
    extensions and left(X_i) that ``residuals`` and ``complex`` read.
    """

    __slots__ = ("ds", "sigs", "delta", "left", "project", "parts")

    def __init__(self, ds: DirectSum, sigs, delta: Cochain, left, project, parts):
        super().__init__(ds, sigs, delta, left, project, parts)

    def residuals(self, hats, lefts, orders):
        """The report of the t^n coefficient for each n in ``orders``.

        ``hats[k]`` is the hat extension of X_k and ``lefts[i]`` is
        left(hats[i]), for every k <= n and i <= n / 2.  The coefficient is
        delta X_n + 1/2 sum_{i+j=n} b(X_i, X_j), each unordered pair taken
        once (``order_pairs``): one ``bracket_sum`` per order.
        """
        out = []
        for n in orders:
            summands = [(1, self.delta, hats[n])]
            summands += [(Fraction(w, 2), lefts[i], hats[j]) for i, j, w in order_pairs(n)]
            out.append(self.project(bracket_sum(summands)))
        return tuple(out)

    def complex(self, left0: Cochain) -> BlockComplex:
        """The ``BlockComplex`` at X_0, given left(X_0): P = delta + left(X_0), left(X_0) itself
        when delta = 0, so that P keeps the bracket support ``residuals`` built for it."""
        P = left0 if self.delta.is_zero() else self.delta.add(left0)
        return BlockComplex(self.ds, P, self.sigs)

    def is_zero(self, report) -> bool:
        return all(b.is_zero() for b in self.parts(report).values())


def triple_complex(t: LieSupActTriple) -> BlockComplex:
    """The triple complex: [Pi, .] over ``triple_blocks``, Pi extended on the complex's g + h."""
    ds = DirectSum(t.g.space, t.h.space)
    return BlockComplex(ds, hat_sum(_blocks_of(t.g, t.h, t.rho), ds), triple_blocks)


def triple_coboundary_matrix(t: LieSupActTriple, n: int, parity=None, cx=None) -> Matrix:
    """Matrix of the degree-n differential [Pi, .] on the deterministic unit basis.

    Columns follow ``block_units`` over ``triple_blocks(n)``, rows over
    ``triple_blocks(n + 1)``.  With ``parity=None`` both parities
    appear; the matrix is block diagonal across them because the structure
    element is even.  ``cx`` is ``triple_complex(t)``, if the caller holds it.
    """
    return (cx or triple_complex(t)).matrix(n, parity)


def triple_cohomology_table(t: LieSupActTriple, degrees, parities=(0, 1)):
    """{n: {parity: dim H^n}} over consecutive ``degrees``: Pi built once, each d_n once."""
    cx = triple_complex(t)
    return cohomology_table(lambda n, p: triple_coboundary_matrix(t, n, p, cx), degrees, parities)
