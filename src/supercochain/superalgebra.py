"""Lie superalgebras given by structure constants, and maps between them.

A ``SuperAlgebra`` stores its bracket once, as int rows over one ``den`` for
every ordered pair (``ints``, in the form of ``util.canonical``).  Only the
pairs ``i <= j`` are given; the ``i > j`` rows are derived by
super-skew-symmetry, so that half of the axiom surface is structural.  The
checks read the ints; ``sc`` and ``bracket_basis`` are ``Fraction`` views.
The constructor enforces only the degree-0 pattern of the bracket; the
axioms themselves are checked by ``check_super_skew`` and ``check_jacobi``,
which report violations instead of raising (candidate tables are
first-class inputs elsewhere).
"""

from __future__ import annotations

from .cochains import Cochain, _CoefficientMap
from .errors import DimensionMismatch, ValidationError
from .graded import GradedSpace, wedge_basis
from .util import Frozen, bilinear, canonical, contract_cols, contract_pairs, contract_rows, dense
from .util import exact_rows, lincomb, nonzero, scaled_rows, support


class Failure(Frozen):
    """One axiom violation: which rule, at which basis labels, both sides."""

    __slots__ = ("axiom", "where", "lhs", "rhs")

    def __init__(self, axiom: str, where: tuple, lhs: tuple, rhs: tuple):
        super().__init__(axiom, where, lhs, rhs)

    def to_dict(self, fmt=str):
        return {
            "axiom": self.axiom,
            "where": list(self.where),
            "lhs": [fmt(x) for x in self.lhs],
            "rhs": [fmt(x) for x in self.rhs],
        }


class CheckReport(Frozen):
    __slots__ = ("name", "failures")

    def __init__(self, name: str, failures: tuple):
        super().__init__(name, failures)

    @property
    def ok(self) -> bool:
        return not self.failures


class SuperAlgebra:
    """Structure-constant table for a degree-0 bracket on a graded space.

    ``sc`` maps pairs i <= j to coordinate vectors of ints and ``Fraction``s;
    ``_from_ints`` takes int rows {(i, j): {k: int}} over ``den`` instead.
    """

    __slots__ = ("space", "den", "ints")

    def __init__(self, space: GradedSpace, sc):
        self._store(space, *scaled_rows(exact_rows(sc, space.dim, "bracket value")))

    @classmethod
    def _from_ints(cls, space: GradedSpace, den: int, rows) -> "SuperAlgebra":
        out = cls.__new__(cls)
        out._store(space, den, rows)
        return out

    def _store(self, space, den, rows):
        dim, pars, labels = space.dim, space.parities, space.labels
        for i, j in rows:
            if not (0 <= i <= j < dim):
                raise ValidationError(f"bracket key ({i},{j}) out of order or range")
        den, rows = canonical(den, rows)
        T = [[{} for _ in range(dim)] for _ in range(dim)]
        for (i, j), vec in rows.items():
            want = (pars[i] + pars[j]) % 2
            wrong = [k for k in vec if pars[k] != want]
            if wrong:
                raise ValidationError(
                    f"bracket [{labels[i]},{labels[j]}] has a component on "
                    f"{labels[min(wrong)]} of the wrong parity"
                )
            T[i][j] = vec
            if i != j:
                # [b_j,b_i] = -(-1)^{p_i p_j} [b_i,b_j]
                T[j][i] = vec if pars[i] and pars[j] else {k: -v for k, v in vec.items()}
        self.space, self.den, self.ints = space, den, tuple(map(tuple, T))

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def sc(self):
        """{(i, j): [b_i, b_j] as a ``Fraction`` tuple} on the nonzero pairs i <= j: a view."""
        dim, den, T = self.space.dim, self.den, self.ints
        return {(i, j): dense(T[i][j], dim, den) for i in range(dim) for j in range(i, dim) if T[i][j]}

    def bracket_basis(self, i: int, j: int):
        """[b_i, b_j] as a ``Fraction`` tuple, for any ordered pair."""
        return dense(self.ints[i][j], self.space.dim, self.den)

    def bracket_eval(self, x, y):
        """Bilinear extension of the table to coordinate vectors."""
        dim = self.space.dim
        d, xy = scaled_rows(exact_rows({0: x, 1: y}, dim, "vector"))
        return dense(bilinear(self.ints, xy[0], xy[1]), dim, self.den * d * d)

    def as_cochain(self) -> Cochain:
        """The bracket as an arity-2 cochain on the underlying space."""
        T = self.ints
        ints = {(i, j): T[i][j] for i, j in wedge_basis(self.space, 2) if T[i][j]}
        return Cochain._from_ints((self.space, self.space, 2), self.den, ints)

    def __eq__(self, other):
        return (
            isinstance(other, SuperAlgebra)
            and self.space == other.space
            and self.den == other.den
            and self.ints == other.ints
        )

    def __repr__(self):
        p, q = self.space.dims
        entries = sum(1 for i, row in enumerate(self.ints) for vec in row[i:] if vec)
        return f"SuperAlgebra(dims=({p}|{q}), entries={entries})"


def check_super_skew(A: SuperAlgebra) -> CheckReport:
    """[a,b] = -(-1)^{|a||b|}[b,a] on all basis pairs, including a = b.

    Degree 1 in the table: both sides are read from the int table over its
    denominator.
    """
    failures = []
    labels, pars = A.space.labels, A.space.parities
    den, T = A.den, A.ints
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = T[i][j]
            rhs = T[j][i] if pars[i] and pars[j] else {k: -v for k, v in T[j][i].items()}
            if lhs != rhs:
                failures.append(Failure(
                    "super_skew", (labels[i], labels[j]), dense(lhs, A.dim, den), dense(rhs, A.dim, den)
                ))
    return CheckReport("super_skew", tuple(failures))


def check_jacobi(A: SuperAlgebra) -> CheckReport:
    """[a,[b,c]] = [[a,b],c] + (-1)^{|a||b|}[b,[a,c]] on all basis triples.

    Degree 2 in the table: with T = ints / den every term is an int vector
    over den^2, so both sides are compared on ints and divided by den^2 only
    for a failure.  For each first index a both sides are tables on the pairs
    (b, c), contracted over the support of T: [a,[b,c]] from its nonzero
    entries, [[a,b],c] through its rows and [b,[a,c]] through its columns.
    """
    failures = []
    labels, pars = A.space.labels, A.space.parities
    den, T = A.den, A.ints
    rows, cols = support(T)
    for i in range(A.dim):
        lhs, rhs = {}, {}
        contract_pairs(lhs, rows, T[i])
        contract_rows(rhs, T[i], rows)
        contract_cols(rhs, T[i], cols, pars, (1, -1 if pars[i] else 1))
        failures += identity_failures("jacobi", labels[i], labels, labels, lhs, rhs, A.dim, den * den)
    return CheckReport("jacobi", tuple(failures))


def algebra_reports(tag: str, A: SuperAlgebra):
    """The axiom checks of one algebra, each named ``tag.check``: super-skew, then Jacobi."""
    return [(f"{tag}.super_skew", check_super_skew(A)), (f"{tag}.jacobi", check_jacobi(A))]


def identity_failures(axiom, label, plabels, qlabels, lhs, rhs, dim, den):
    """A ``Failure`` at (label, p, q) for each key (p, q), in order, where two tables of
    int vectors over ``den`` differ."""
    failures = []
    for p, q in sorted(lhs.keys() | rhs.keys()):
        left, right = lhs.get((p, q), {}), rhs.get((p, q), {})
        if left != right and nonzero(left) != nonzero(right):  # stored zeros do not count
            failures.append(Failure(
                axiom, (label, plabels[p], qlabels[q]), dense(left, dim, den), dense(right, dim, den)
            ))
    return failures


def gl(m: int, n: int) -> SuperAlgebra:
    """Endomorphisms of an (m|n)-dimensional space under the super-commutator.

    Basis: elementary matrices E_pq, even when p and q sit on the same side of
    the (m|n) split, odd otherwise.
    """
    if m + n < 1:
        raise ValidationError("gl(m,n) needs m+n >= 1")
    d = m + n

    def side(p):
        return 0 if p < m else 1

    def label(p, q):
        if d <= 9:
            return f"E{p + 1}{q + 1}"
        return f"E{p + 1}_{q + 1}"

    even, odd = [], []
    for p in range(d):
        for q in range(d):
            (even if side(p) == side(q) else odd).append((p, q))
    space = GradedSpace(
        tuple(label(p, q) for p, q in even),
        tuple(label(p, q) for p, q in odd),
    )
    order = even + odd
    pos = {pq: idx for idx, pq in enumerate(order)}
    rows = {}
    for i, (p, q) in enumerate(order):
        for j in range(i, len(order)):
            r, s = order[j]
            row = rows[(i, j)] = {}
            if q == r:
                row[pos[(p, s)]] = 1
            if s == p:
                sgn = -1 if (side(p) ^ side(q)) * (side(r) ^ side(s)) % 2 == 0 else 1
                row[pos[(r, q)]] = row.get(pos[(r, q)], 0) + sgn
    return SuperAlgebra._from_ints(space, 1, rows)


def abelian(p: int, q: int, even_prefix: str = "x", odd_prefix: str = "y") -> SuperAlgebra:
    space = GradedSpace(
        tuple(f"{even_prefix}{i + 1}" for i in range(p)),
        tuple(f"{odd_prefix}{i + 1}" for i in range(q)),
    )
    return SuperAlgebra(space, {})


class LinearMap(_CoefficientMap):
    """Linear map stored column-wise: the value at key j is the image of source basis j.

    The keys are source positions, so the storage (int columns over one
    ``den``, no zero column stored), ``==``, ``add``, ``scale``, ``parity``,
    ``is_zero`` and ``zero`` are those of ``cochains._CoefficientMap``.  The
    constructor takes the image of every source basis vector, or a dict
    {j: image} without the zero columns; ``cols``, the ``Fraction`` tuple of
    every column, is a view built on each read.
    """

    __slots__ = ("source", "target")
    _kind = "map"

    def __init__(self, source: GradedSpace, target: GradedSpace, cols):
        self.source = source
        self.target = target
        if not isinstance(cols, dict):
            cols = tuple(map(tuple, cols))
            if len(cols) != source.dim:
                raise DimensionMismatch("column shape does not match spaces")
            cols = dict(enumerate(cols))
        self._set_coeffs(cols)

    @property
    def shape(self):
        return (self.source, self.target)

    @property
    def target_space(self) -> GradedSpace:
        return self.target

    def _check_key(self, j):
        if j not in range(self.source.dim):
            raise DimensionMismatch(f"column {j!r} outside a source of dimension {self.source.dim}")
        return j

    def key_parity(self, j) -> int:
        return self.source.parities[j]

    @property
    def cols(self):
        """The image of every source basis vector as a ``Fraction`` tuple: a view built on
        each read, never for work."""
        tdim, den, ints = self.target.dim, self.den, self.ints
        return tuple(dense(ints.get(j, {}), tdim, den) for j in range(self.source.dim))

    def _image(self, x: dict) -> dict:
        """The image of a sparse vector x: ints over ``den`` times the denominator of x."""
        ints = self.ints
        return lincomb(*((c, ints[j]) for j, c in x.items() if j in ints))

    def apply(self, vec):
        """The image of a coordinate vector of ints and ``Fraction``s, as a ``Fraction`` tuple."""
        d, x = scaled_rows(exact_rows({0: vec}, self.source.dim, "vector"))
        return dense(self._image(x[0]), self.target.dim, self.den * d)

    def __repr__(self):
        (p, q), (r, s) = self.source.dims, self.target.dims
        return f"LinearMap(dims=({p}|{q})->({r}|{s}), entries={sum(map(len, self.ints.values()))})"
