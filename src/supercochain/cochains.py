"""Super-antisymmetric multilinear maps and their graded Lie algebra.

A ``Cochain`` of arity n stores coefficients only on wedge normal-form keys;
its value at an arbitrary basis tuple is defined through ``normalize_tuple``,
so invariance under the signed symmetric-group action holds by construction.

On cochains with equal source and target the insertion product ``circ`` and
the graded commutator ``nr_bracket`` make arity-(n+1) maps a Z x Z2-graded Lie
algebra: the bidegree of an arity-(n+1), parity-f cochain is (n, f), the
product of (n, f) and (n', f') pieces has bidegree (n+n', f+f'), and

    [F, G] = circ(F, G) - (-1)^(n n' + f f') circ(G, F).

``BlockCochain`` and ``hat_extend`` tie a two-space world (g, h) to the single
space g + h.  ``block_key`` is the one signed map between the two: it sends a
block pair (g key, h key) to its normal-form key on g + h with the Koszul
sign of that sort.  ``hat_extend`` moves each stored block value to its key
times the sign, and ``project_block`` splits each key of a cochain on g + h
back into a block pair; neither sums shuffles.  ``Cochain``,
``BlockCochain`` and ``superalgebra.LinearMap`` share their linear
operations and parity split.

Both kinds store their values as int rows over one denominator, in the
canonical form of ``util.canonical``, from the parsed input to the
report; ``coeffs``, the ``Fraction`` tuples a report shows, is a view built
when read (see ``_CoefficientMap``).

``circ``, ``nr_bracket``, ``bracket_sum`` and ``bracket_matrix`` share one
term expansion on those ints: for each key K of the right operand,
``_key_image`` streams the terms of [P, U] (or circ(P, U)) for every unit
U = (K -> e_T) over the support of a P of any arity and parity, which P
keeps once built (``Cochain.bracket_support``).  The units of one key share
their work: each part of P is shuffled into K once, and the circ(U, P)
terms, which depend on T only through a parity flip, are listed once.
Every Koszul sign of a term comes from ``shuffle``, on the two sorted pieces
the term joins (``normalize_tuple`` sorts an arbitrary tuple for ``eval``).
A self-bracket of a homogeneous P of bidegree (n, f) is one insertion
product, [P, P] = (1 - (-1)^(n + f)) circ(P, P): 2 circ(P, P) for an even
arity-2 P.
"""

from __future__ import annotations

from functools import reduce
from math import comb, lcm

from .errors import ArityMismatch, ShapeMismatch, SpaceMismatch, ValidationError
from .exact_linalg import Matrix
from .graded import DirectSum, GradedSpace, normalize_tuple, shuffle
from .util import canonical, dense, exact_rows, lincomb, require_exact, scaled_rows


def _require_normal_key(space, key, what):
    nk, sign = normalize_tuple(space, key)
    if nk != tuple(key) or sign != 1:
        raise ValidationError(f"{what} key {key} is not in wedge normal form")


class _CoefficientMap:
    """Sparse table {key: value over ``target_space``}, shared by ``Cochain``,
    ``BlockCochain`` and ``superalgebra.LinearMap`` (keyed by source position).

    A subclass fixes its ``shape`` (the constructor's leading arguments),
    ``key_parity``, ``target_space``, ``eval``, ``_check_key`` and the
    ``_kind`` its error messages name; the linear operations and the parity
    split live here once.

    Storage is ``ints``, {key: {target position: int}}, over one positive
    ``den``: every value entry is that int over ``den``.  No zero is stored
    (no zero entry, no empty value) and ``den`` shares no factor with all the
    entries at once, so equal maps have equal ``(den, ints)``; treat the
    dicts as read-only.  The constructor takes dense values of ints and
    ``Fraction``s and scales them once; ``_from_ints`` takes int rows as they
    are.  ``coeffs``, {key: ``Fraction`` tuple}, is a view built on each read,
    for reports and tests.
    """

    __slots__ = ("den", "ints")

    def _set_coeffs(self, coeffs):
        rows = {self._check_key(key): vec for key, vec in coeffs.items()}
        self._store(*scaled_rows(exact_rows(rows, self.target_space.dim, f"{self._kind} value")))

    def _store(self, den, ints):
        """Keep ``ints`` over ``den`` in canonical form (``util.canonical``)."""
        self.den, self.ints = canonical(den, ints)

    @classmethod
    def _from_ints(cls, shape, den, ints):
        """The map of ``shape`` with values ``ints`` over ``den``; keys must be in normal form."""
        out = cls(*shape, {})
        out._store(den, ints)
        return out

    def _like(self, den, ints):
        return self._from_ints(self.shape, den, ints)

    @classmethod
    def zero(cls, *shape):
        return cls(*shape, {})

    @property
    def coeffs(self):
        """{key: value as a ``Fraction`` tuple}: a view built on each read, never for work."""
        tdim, den = self.target_space.dim, self.den
        return {key: dense(row, tdim, den) for key, row in self.ints.items()}

    def is_zero(self) -> bool:
        return not self.ints

    def _value_at(self, key, sign):
        """The int row at ``key`` times ``sign`` (empty when absent or sign is 0)."""
        row = self.ints.get(key) if sign else None
        if row is None:
            return {}
        return row if sign == 1 else {k: -x for k, x in row.items()}

    def parity_parts(self):
        """[(component, parity)] with mixed coefficients split by map parity, built on each call."""
        tpars = self.target_space.parities
        split = ({}, {})
        for key, row in self.ints.items():
            kp = self.key_parity(key)
            for k, x in row.items():
                split[(tpars[k] + kp) % 2].setdefault(key, {})[k] = x
        return tuple((self._like(self.den, split[par]), par) for par in (0, 1) if split[par])

    def parity(self):
        """Map parity if homogeneous (zero counts as even), else None; no part is built."""
        tpars = self.target_space.parities
        seen = set()
        for key, row in self.ints.items():
            kp = self.key_parity(key)
            seen.update((tpars[k] + kp) % 2 for k in row)
            if len(seen) > 1:
                return None
        return seen.pop() if seen else 0

    def add(self, other):
        """Entrywise sum, on ints over the lcm of the two denominators."""
        if type(other) is not type(self) or other.shape != self.shape:
            raise ShapeMismatch(f"{self._kind} shapes differ")
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = {key: lincomb((a, row)) for key, row in self.ints.items()}
        for key, row in other.ints.items():
            out[key] = lincomb((1, out.get(key, {})), (b, row))
        return self._like(den, out)

    def scale(self, c):
        """c times the map, c an int or a ``Fraction``."""
        require_exact(c, f"a {self._kind} scalar")
        p = c.numerator
        ints = {key: {k: p * x for k, x in row.items()} for key, row in self.ints.items()} if p else {}
        return self._like(self.den * c.denominator, ints)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.shape == self.shape
            and other.den == self.den
            and other.ints == self.ints
        )


class Cochain(_CoefficientMap):
    """n-linear super-antisymmetric map, coefficients on wedge normal forms."""

    __slots__ = ("source", "target", "arity", "_support")
    _kind = "cochain"

    def __init__(self, source: GradedSpace, target: GradedSpace, arity: int, coeffs):
        if arity < 1:
            raise ArityMismatch("cochain arity must be >= 1")
        self.source = source
        self.target = target
        self.arity = arity
        self._support = None
        self._set_coeffs(coeffs)

    @property
    def shape(self):
        return (self.source, self.target, self.arity)

    @property
    def target_space(self) -> GradedSpace:
        return self.target

    def _check_key(self, key):
        if len(key) != self.arity:
            raise ArityMismatch("key arity mismatch")
        _require_normal_key(self.source, key, "cochain")
        return tuple(key)

    def key_parity(self, key) -> int:
        return sum(self.source.parities_of(key)) % 2

    def bracket_support(self):
        """``_bracket_support(self)``, built on first use and kept on the cochain.

        It stays valid because stored int rows are never mutated.
        """
        if self._support is None:
            self._support = _bracket_support(self)
        return self._support

    def eval(self, slots):
        """Value at an arbitrary tuple of basis positions."""
        if len(slots) != self.arity:
            raise ArityMismatch(f"expected {self.arity} slots, got {len(slots)}")
        return dense(self._value_at(*normalize_tuple(self.source, slots)), self.target.dim, self.den)

    def __repr__(self):
        return f"Cochain(arity={self.arity}, keys={len(self.ints)})"


def _bracket_support(P: Cochain):
    """The int rows of P (over ``P.den``), indexed by each entry of their keys and by output.

    ``by_entry[k]``: (H, |H|, counts(H), {t: P(H, k)_t}) for H a key minus one k,
    with the ``shuffle`` sign of H + (k,);
    ``by_comp[t]``: (key, parity of the term, counts(key), P(key)_t).  Only odd
    entries can repeat, so counts(part) lists (e, count) for those alone.
    """
    V = P.source
    pars = V.parities
    p = len(V.even_basis)

    def counts(part):
        return tuple((e, part.count(e)) for e in set(part) if pars[e])

    by_entry, by_comp = {}, {}
    for key, vals in P.ints.items():
        kp = sum(pars[i] for i in key)
        for k in sorted(set(key)):
            i = key.index(k)
            H = key[:i] + key[i + 1 :]
            s = shuffle(H, (k,), p)[1]
            signed = vals if s > 0 else {t: -x for t, x in vals.items()}
            by_entry.setdefault(k, []).append((H, (kp + pars[k]) % 2, counts(H), signed))
        kc = counts(key)
        for t, x in vals.items():
            by_comp.setdefault(t, []).append((key, (kp + pars[t]) % 2, kc, x))
    return P.arity - 1, by_entry, by_comp


def _multiplicity(X, counts):
    """Prod_e C(count_X(e), count(e)): the ways a part with these ``counts`` sits in the key X."""
    m = 1
    for e, c in counts:
        m *= comb(X.count(e), c)
    return m


def _key_image(V: GradedSpace, support, K, targets, bracket=True):
    """Terms (w, key, target, coefficient) of [P, U], or of circ(P, U), for the units
    U = (key K -> e_T) of one key, one unit per (T, w) of ``targets``.

    [P, U] = circ(P, U) - (-1)^(nP nU + f u) circ(U, P) for U of arity nU + 1
    and parity u, P of arity nP + 1 and term parities f.  In circ(P, U),
    P(H, T) lands on sort(H + K) with (-1)^(u |H|); in circ(U, P), each entry
    k of K, read as U(head, k), takes P(key)_k to sort(head + key) with
    (-1)^(f |head|) (-1)^(f u).  Each term also carries the ``shuffle`` sign
    of the two sorted pieces it joins (H and K; head and (k,); head and P's
    key) and the multiplicity of P's part in the new key.
    Only the parity flip (-1)^(f u) and the unit's own target depend on T, so
    each part H is shuffled into K once and the circ(U, P) terms are listed
    once, for this key only: nothing outlives the call.
    Coefficients are ints over ``P.den``; ``w`` tags the unit each term is for.
    Terms may repeat a (key, target); callers add them up.
    """
    nP, by_entry, by_comp = support
    pars = V.parities
    p = len(V.even_basis)
    kpar = sum(pars[i] for i in K)
    joined = {}  # H -> (sort(H + K), its shuffle sign times P's multiplicity there)
    tail = None  # (sort(head + key), coefficient at u = 0, f) of circ(U, P)
    for T, w in targets:
        u = (kpar + pars[T]) % 2
        for H, hpar, counts, vals in by_entry.get(T, ()):
            hit = joined.get(H)
            if hit is None:
                X, s = shuffle(H, K, p)
                hit = joined[H] = (X, s and s * _multiplicity(X, counts))
            X, c = hit
            if c:
                c = -c if u and hpar else c
                for tgt, v in vals.items():
                    yield w, X, tgt, c * v
        if not bracket:
            continue
        if tail is None:
            tail = []
            outer = -1 if nP * (len(K) - 1) % 2 == 0 else 1  # -(-1)^(nP nU)
            for k in set(K):
                i = K.index(k)
                head = K[:i] + K[i + 1 :]
                s2 = outer * shuffle(head, (k,), p)[1]
                flip = sum(pars[j] for j in head) % 2  # (-1)^(f |head|)
                for key, f, counts, v in by_comp.get(k, ()):
                    X, s3 = shuffle(head, key, p)
                    if s3:
                        c = s2 * s3 * _multiplicity(X, counts) * v
                        tail.append((X, -c if f and flip else c, f))
        for X, c, f in tail:
            yield w, X, T, -c if u and f else c


def _expand(terms, bracket: bool) -> Cochain:
    """sum c [P, U] (or c circ(P, U)) over the (c, P, U) of ``terms``, key by key of each U.

    A term with c = p / q is an int sum over q den(P) den(U); all terms are
    added on ints over the lcm of those.  They share one space V and one arity.
    A term with c = 0 or a zero operand adds nothing and is skipped.  A
    self-bracket of a homogeneous P of bidegree (n, f) is one insertion
    product, [P, P] = (1 - (-1)^(n + f)) circ(P, P): zero when n + f is even.
    """
    V = terms[0][1].source
    arity = terms[0][1].arity + terms[0][2].arity - 1
    prepared = []
    for c, P, U in terms:
        if V != P.target or P.source != V or U.source != V or U.target != V:
            raise SpaceMismatch("insertion product needs cochains on one space V -> V")
        if P.arity + U.arity - 1 != arity:
            raise ArityMismatch("the terms of a bracket sum have different arities")
        if not c or not P.ints or not U.ints:
            continue
        full = bracket
        if bracket and U is P and P.parity() is not None:
            if (P.arity - 1 + P.parity()) % 2 == 0:
                continue
            c, full = 2 * c, False
        prepared.append((c.numerator, c.denominator * P.den * U.den, P.bracket_support(), U.ints, full))
    den = lcm(*(d for _, d, _, _, _ in prepared))
    out = {}
    for m, d, support, rows, full in prepared:
        m *= den // d
        for K, vals in rows.items():
            for w, X, tgt, c in _key_image(V, support, K, [(T, m * v) for T, v in vals.items()], full):
                c *= w
                row = out.get(X)
                if row is None:
                    out[X] = {tgt: c}
                else:
                    row[tgt] = row.get(tgt, 0) + c
    return Cochain._from_ints((V, V, arity), den, out)


def circ(F: Cochain, G: Cochain) -> Cochain:
    """Insertion product F o G, G plugged into the last slot of F, over the units of G."""
    return _expand(((1, F, G),), False)


def nr_bracket(F: Cochain, G: Cochain) -> Cochain:
    """Graded commutator [F, G] of the insertion product, over the units of G."""
    return _expand(((1, F, G),), True)


def bracket_sum(terms) -> Cochain:
    """sum c [P, U] over (c, P, U) terms of one space and arity, c an int or ``Fraction``."""
    return _expand(tuple(terms), True)


def order_pairs(n: int):
    """(i, n - i, w) for i <= n - i: sum_{i+j=n} B(x_i, x_j) for a symmetric bilinear B
    is sum w B(x_i, x_(n-i)), each unordered pair taken once with weight w = 2 (1 on
    the diagonal i = n - i)."""
    return [(i, n - i, 1 if 2 * i == n else 2) for i in range(n // 2 + 1)]


def bracket_matrix(P: Cochain, cols, rows) -> Matrix:
    """Matrix of U -> [P, U] for an even arity-2 cochain P on V.

    ``cols`` and ``rows`` list units (key, target, sign), sign = +-1: the
    cochain with value sign * e_target at the normal-form key, read back
    through the same sign.  The columns that share a key are expanded by one
    ``_key_image``, summed on ints over the denominator of P; ``Matrix``
    keeps those int rows over that denominator.
    """
    V = P.source
    if P.target != V or P.arity != 2 or P.parity() != 0:
        raise ShapeMismatch("the differential needs an even arity-2 cochain V -> V")
    support = P.bracket_support()
    data = [{} for _ in rows]
    row_of = {(key, tgt): (data[r], sign) for r, (key, tgt, sign) in enumerate(rows)}
    by_key = {}
    for j, (K, T, s) in enumerate(cols):
        by_key.setdefault(K, []).append((T, (j, s)))
    for K, targets in by_key.items():
        for (j, s), X, tgt, c in _key_image(V, support, K, targets):
            hit = row_of.get((X, tgt))
            if hit is not None:
                row, sign = hit
                v = c if sign == s else -c
                row[j] = row[j] + v if j in row else v
    return Matrix._from_ints(len(rows), len(cols), P.den, data)


def block_key(ds: DirectSum, gk, hk):
    """(key on g + h, sign) of the block slots gk on g followed by hk on h.

    The one map between block coordinates and the direct sum: a block value
    at (gk, hk) is the value of its extension at ``key`` times ``sign``, the
    Koszul sign of sorting the g entries and the h entries together.  Block
    keys are normal forms on disjoint sides, and each side's positions keep
    their order on g + h, so the sign is the ``shuffle`` of the two sides; it
    is never 0 and the map is injective.
    """
    g_slots = tuple(map(ds.left_pos.__getitem__, gk))
    return shuffle(g_slots, tuple(map(ds.right_pos.__getitem__, hk)), len(ds.space.even_basis))


class BlockCochain(_CoefficientMap):
    """Map on wedge(g)^gn x wedge(h)^hn into g or into h.

    Super-antisymmetric separately in the g slots and in the h slots;
    coefficients are stored on pairs of normal-form keys.
    """

    __slots__ = ("g_space", "h_space", "g_arity", "h_arity", "target_side")
    _kind = "block"

    def __init__(self, g_space, h_space, g_arity, h_arity, target_side, coeffs):
        if g_arity < 0 or h_arity < 0 or g_arity + h_arity < 1:
            raise ArityMismatch("block arities must be >= 0 and sum to >= 1")
        if target_side not in ("g", "h"):
            raise ShapeMismatch("target side must be 'g' or 'h'")
        self.g_space = g_space
        self.h_space = h_space
        self.g_arity = g_arity
        self.h_arity = h_arity
        self.target_side = target_side
        self._set_coeffs(coeffs)

    @property
    def shape(self):
        return (self.g_space, self.h_space, self.g_arity, self.h_arity, self.target_side)

    @property
    def target_space(self) -> GradedSpace:
        return self.g_space if self.target_side == "g" else self.h_space

    def _check_key(self, key):
        gk, hk = key
        if len(gk) != self.g_arity or len(hk) != self.h_arity:
            raise ArityMismatch("block key arity mismatch")
        _require_normal_key(self.g_space, gk, "block g")
        _require_normal_key(self.h_space, hk, "block h")
        return (tuple(gk), tuple(hk))

    def key_parity(self, key) -> int:
        gk, hk = key
        return (sum(self.g_space.parities_of(gk)) + sum(self.h_space.parities_of(hk))) % 2

    def eval(self, g_slots, h_slots):
        """Value at arbitrary tuples of g and h basis positions."""
        if len(g_slots) != self.g_arity or len(h_slots) != self.h_arity:
            raise ArityMismatch(
                f"expected ({self.g_arity}, {self.h_arity}) slots, got ({len(g_slots)}, {len(h_slots)})"
            )
        gk, gs = normalize_tuple(self.g_space, tuple(g_slots))
        hk, hs = normalize_tuple(self.h_space, tuple(h_slots))
        return dense(self._value_at((gk, hk), gs * hs), self.target_space.dim, self.den)

    def __repr__(self):
        return (
            f"BlockCochain(({self.g_arity},{self.h_arity})->{self.target_side}, "
            f"keys={len(self.ints)})"
        )


def hat_extend(block: BlockCochain, ds: DirectSum) -> Cochain:
    """Extend a block map to the direct sum ``ds`` = g + h of its two spaces.

    The extension is zero on every key without exactly (g_arity, h_arity)
    entries from the two sides.  At the ``block_key`` of a block pair it is
    the block value, re-keyed to the target side's positions, times the key's
    sign, so that reading the g entries first gives the block value back.
    A block on other spaces than ``ds``'s is refused (``SpaceMismatch``).
    """
    if ds.left != block.g_space or ds.right != block.h_space:
        raise SpaceMismatch("block does not live on the given direct sum")
    pos = ds.left_pos if block.target_side == "g" else ds.right_pos
    out = {}
    for (gk, hk), row in block.ints.items():
        key, sign = block_key(ds, gk, hk)
        out[key] = {pos[k]: sign * x for k, x in row.items()}
    return Cochain._from_ints((ds.space, ds.space, block.g_arity + block.h_arity), block.den, out)


def hat_sum(blocks, ds: DirectSum) -> Cochain:
    """The sum of the ``hat_extend``s of blocks of one total arity on one g + h, ``ds``."""
    return reduce(Cochain.add, (hat_extend(b, ds) for b in blocks))


def project_block(F: Cochain, ds: DirectSum, g_arity: int, h_arity: int, target_side: str) -> BlockCochain:
    """Read one (g_arity, h_arity) block back out of a cochain on g + h.

    Each key of F splits by side into a block pair (gk, hk); a key with
    g_arity g entries contributes its target-side part times the
    ``block_key`` sign.
    """
    if F.source != ds.space or F.target != ds.space:
        raise SpaceMismatch("cochain does not live on the given direct sum")
    if g_arity + h_arity != F.arity:
        raise ArityMismatch("block arities do not sum to the cochain arity")
    side_of = ds.side_of
    coeffs = {}
    for key, row in F.ints.items():
        sides = [side_of[pos] for pos in key]
        gk = tuple(i for side, i in sides if side == "g")
        if len(gk) != g_arity:
            continue
        value = {}
        for t, x in row.items():
            side, k = side_of[t]
            if side == target_side:
                value[k] = x
        if value:
            hk = tuple(j for side, j in sides if side == "h")
            if block_key(ds, gk, hk)[1] < 0:
                value = {k: -x for k, x in value.items()}
            coeffs[(gk, hk)] = value
    return BlockCochain._from_ints((ds.left, ds.right, g_arity, h_arity, target_side), F.den, coeffs)
