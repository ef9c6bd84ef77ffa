"""Z2-graded spaces, Koszul signs, super-wedge bases and direct sums.

The canonical total order on a basis puts every even vector before every odd
one.  A wedge key is then a weakly increasing tuple of basis positions with no
even position repeated: strictly increasing on the even block, weakly
increasing on the odd block.

Sorting a tuple of positions into its key has the Koszul sign of the stable
sort, and under this order that sign is an inversion count: it is (-1) to
the number of pairs i < j with ``slots[j] < slots[i]`` and ``slots[j]``
even, and 0 if an even position repeats.  An inversion whose smaller entry
is even swaps that entry with some other entry (signature -1, no odd pair);
one whose smaller entry is odd swaps two odd entries (signature -1 times
(-1) for the odd pair).  ``normalize_tuple`` counts these pairs directly and
``shuffle`` counts them for two keys already in normal form.  These two
counts are the only Koszul signs the library computes; the test oracles
check them against the permutation form of the sign (the signature times
(-1) to the number of inversions between two odd entries).

Nothing here keeps a cache: ``wedge_basis`` lists its keys and
``direct_sum`` builds its tables on each call, so a long-lived process holds
no table it is not using.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations, combinations_with_replacement
from math import comb

from .errors import ValidationError
from .util import Frozen

WedgeKey = tuple  # tuple[int, ...], normal-form basis positions


class GradedSpace(Frozen):
    """Finite-dimensional Z2-graded vector space with a named, ordered basis."""

    __slots__ = ("even_basis", "odd_basis")

    def __init__(self, even_basis: tuple, odd_basis: tuple):
        even_basis, odd_basis = tuple(even_basis), tuple(odd_basis)
        labels = even_basis + odd_basis
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate basis labels in {labels}")
        super().__init__(even_basis, odd_basis)

    @property
    def dim(self) -> int:
        return len(self.even_basis) + len(self.odd_basis)

    @property
    def dims(self):
        """(even dimension, odd dimension)."""
        return (len(self.even_basis), len(self.odd_basis))

    @property
    def labels(self):
        return self.even_basis + self.odd_basis

    def parity(self, position: int) -> int:
        if not 0 <= position < self.dim:
            raise ValidationError(f"basis position {position} out of range")
        return 0 if position < len(self.even_basis) else 1

    @property
    def parities(self):
        return (0,) * len(self.even_basis) + (1,) * len(self.odd_basis)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValidationError(f"unknown basis label {label!r}") from None

    def parities_of(self, slots):
        p = len(self.even_basis)
        return tuple(0 if s < p else 1 for s in slots)


def _multiset_count(q: int, j: int) -> int:
    if j == 0:
        return 1
    if q == 0:
        return 0
    return comb(q + j - 1, j)


def wedge_dim(space: GradedSpace, n: int) -> int:
    p, q = space.dims
    return sum(comb(p, k) * _multiset_count(q, n - k) for k in range(min(p, n) + 1))


def wedge_basis(space: GradedSpace, n: int):
    """Normal-form keys of the n-th super-wedge power, lexicographic.

    Even positions appear at most once, odd positions may repeat; entries are
    weakly increasing, which under the canonical order lists the even block
    before the odd block.  A key joins k distinct even positions and n - k odd
    ones with repetition.
    """
    if n < 0:
        raise ValidationError("wedge arity must be >= 0")
    p, dim = len(space.even_basis), space.dim
    return tuple(sorted(
        evens + odds
        for k in range(min(p, n) + 1)
        for evens in combinations(range(p), k)
        for odds in combinations_with_replacement(range(p, dim), n - k)
    ))


def normalize_tuple(space: GradedSpace, slots):
    """Sort ``slots`` into wedge normal form with its Koszul sign.

    Returns ``(key, sign)``; ``sign == 0`` marks a repeated even position (the
    zero element of the wedge power).  Evaluation of a super-antisymmetric map
    at an arbitrary tuple is the stored normal-form value times ``sign``.
    The sign counts the inversions whose smaller entry is even (see the
    module docstring).
    """
    slots = tuple(slots)
    even_dim = len(space.even_basis)
    key = tuple(sorted(slots))
    flips = 0
    for i, x in enumerate(slots):
        for y in slots[i + 1 :]:
            if y <= x and y < even_dim:
                if y == x:
                    return key, 0
                flips += 1
    return key, -1 if flips & 1 else 1


def shuffle(a: WedgeKey, b: WedgeKey, even_dim: int):
    """``normalize_tuple`` of ``a + b`` for two keys ``a`` and ``b`` in normal form.

    Returns ``(key, sign)``.  Each entry x of ``a`` passes the entries of ``b``
    below x, and each even one it passes flips the sign: an odd x passes
    every even entry of ``b``, an even x the even entries that bisecting
    ``b`` puts below it.  An even entry in both keys gives 0.  ``even_dim``
    is the even dimension of the space: position p is even when p < even_dim.
    A one-entry ``a`` is one bisect insertion into ``b``.
    """
    if len(a) == 1:
        x = a[0]
        i = bisect_left(b, x)
        key = b[:i] + a + b[i:]
        if x >= even_dim:
            flips = bisect_left(b, even_dim, 0, i)
        elif i < len(b) and b[i] == x:
            return key, 0
        else:
            flips = i
        return key, -1 if flips & 1 else 1
    key = tuple(sorted(a + b))
    m = bisect_left(a, even_dim)
    n_even = bisect_left(b, even_dim)
    flips = (len(a) - m) * n_even
    for x in a[:m]:
        i = bisect_left(b, x, 0, n_even)
        if i < n_even and b[i] == x:
            return key, 0
        flips += i
    return key, -1 if flips & 1 else 1


class DirectSum:
    """A direct sum of two graded spaces with position translation tables.

    The summands keep their own canonical orders; the sum interleaves them as
    (left evens, right evens, left odds, right odds).  Labels are prefixed
    only when the two summands collide.
    """

    __slots__ = ("left", "right", "space", "left_pos", "right_pos", "side_of")

    def __init__(self, left: GradedSpace, right: GradedSpace):
        collide = set(left.labels) & set(right.labels)
        if collide:
            lmap = {lab: f"g.{lab}" for lab in left.labels}
            rmap = {lab: f"h.{lab}" for lab in right.labels}
        else:
            lmap = {lab: lab for lab in left.labels}
            rmap = {lab: lab for lab in right.labels}
        even = [lmap[l] for l in left.even_basis] + [rmap[l] for l in right.even_basis]
        odd = [lmap[l] for l in left.odd_basis] + [rmap[l] for l in right.odd_basis]
        space = GradedSpace(tuple(even), tuple(odd))
        pl, ql = left.dims
        pr, qr = right.dims
        left_pos = tuple(range(pl)) + tuple(pl + pr + i for i in range(ql))
        right_pos = tuple(pl + i for i in range(pr)) + tuple(pl + pr + ql + i for i in range(qr))
        side_of = [None] * space.dim
        for i, pos in enumerate(left_pos):
            side_of[pos] = ("g", i)
        for i, pos in enumerate(right_pos):
            side_of[pos] = ("h", i)
        self.left = left
        self.right = right
        self.space = space
        self.left_pos = left_pos
        self.right_pos = right_pos
        self.side_of = tuple(side_of)


def direct_sum(left: GradedSpace, right: GradedSpace) -> DirectSum:
    return DirectSum(left, right)
