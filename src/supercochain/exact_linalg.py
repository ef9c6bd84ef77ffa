"""Exact rational linear algebra: sparse matrices, rank, kernels.

A ``Matrix`` stores, per row, a dict from column to nonzero int, all over one
positive denominator for the whole matrix; the differentials of the
cohomology pipeline are only a few percent dense.  Assembly hands its int
rows over as they are, ``mul`` multiplies on ints, and ``rank`` and
``kernel_basis`` start from the int rows; the one ``Fraction`` view,
``entries``, is built only when read.  All arithmetic is over ``int``
and ``fractions.Fraction``, never rounded, with no modular or randomized
shortcut.  Elimination is fraction-free, as in Bareiss (1968), but on sparse
rows: each row is divided by its content gcd and each update is
``a * row - b * pivot_row`` divided by the new row's content gcd (not by the
previous pivot), so entries stay integral and small, and every division is
exact.  One Markowitz reduction (sparsest key, then its shortest line)
returns the (pivot row, pivot column) pairs behind ``rank``, which ranks a
matrix on its rows, or on its columns when it is tall, without the columns
the caller clears; ``cohomology_table`` clears from d_n the pivot rows of
d_(n-1).  ``kernel_basis`` eliminates left to right so that its basis is the
canonical one of the pivot columns.
"""

from __future__ import annotations

import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from .errors import CompositionNonzero, DimensionMismatch, InternalInvariantError, ValidationError
from .util import addmul, canonical, scaled_rows


_INTEGER = re.compile(r"[+-]?[0-9]+")
_ZERO = Fraction(0)


def parse_scalar(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` into an exact rational; reject q = 0.

    Each part is ASCII ``[+-]?[0-9]+``: no spaces, underscores or non-ASCII
    digits, all of which ``int`` would accept.
    """
    if not isinstance(text, str):
        raise ValidationError(f"scalar must be a string, got {text!r}")
    parts = text.split("/")
    if not all(_INTEGER.fullmatch(part) for part in parts):
        raise ValidationError(f"bad scalar literal {text!r}")
    try:
        if len(parts) == 1:
            return Fraction(int(parts[0]))
        if len(parts) == 2:
            num, den = int(parts[0]), int(parts[1])
            if den == 0:
                raise ValidationError(f"zero denominator in scalar {text!r}")
            return Fraction(num, den)
    except ValueError as exc:
        raise ValidationError(f"bad scalar literal {text!r}") from exc
    raise ValidationError(f"bad scalar literal {text!r}")


def format_scalar(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class Matrix:
    """Immutable sparse matrix of exact rationals, stored as int rows over one denominator.

    ``ints[r]`` maps each column of row r that holds a nonzero entry to an
    int; every entry is that int over ``den``, a positive int.  No zero is
    stored and ``den`` shares no factor with all the entries at once, so
    equal matrices have equal ``(den, ints)``.  Treat the dicts as read-only.
    ``entries`` is a dense ``Fraction`` view, built on demand for inspection.
    """

    __slots__ = ("rows", "cols", "den", "ints")

    def __init__(self, rows: int, cols: int, data, den: int = 1):
        """``data`` holds one ``{column: value}`` mapping per row, each value an int or a
        ``Fraction`` over ``den``; zero values are dropped and ``Fraction``s scaled to ints."""
        if type(den) is not int or den < 1:
            raise ValidationError(f"matrix denominator must be a positive int, got {den!r}")
        data = dict(enumerate(data))
        if len(data) != rows:
            raise DimensionMismatch(f"need {rows} rows for a {rows}x{cols} matrix, got {len(data)}")
        for row in data.values():
            if row and (min(row) < 0 or max(row) >= cols):
                c = min(row) if min(row) < 0 else max(row)
                raise DimensionMismatch(f"column {c} outside a {rows}x{cols} matrix")
        if any(type(v) is not int for row in data.values() for v in row.values()):
            s, data = scaled_rows(data)
            den *= s
        self._store(rows, cols, den, data)

    @classmethod
    def _from_ints(cls, rows: int, cols: int, den: int, data) -> "Matrix":
        """The matrix with one ``{column: int}`` row per entry of ``data`` over ``den``, taken
        as it is: columns and value types are not checked, only the canonical form is kept."""
        out = cls.__new__(cls)
        out._store(rows, cols, den, dict(enumerate(data)))
        return out

    def _store(self, rows, cols, den, data):
        """Keep the int rows {row: {column: int}} over ``den`` in canonical form (``util.canonical``)."""
        den, data = canonical(den, data)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "ints", tuple(data.get(r, {}) for r in range(rows)))

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def entries(self):
        """All rows*cols entries, row-major: a dense view, never for work."""
        out = [_ZERO] * (self.rows * self.cols)
        for r, row in enumerate(self.ints):
            base = r * self.cols
            for c, v in row.items():
                out[base + c] = Fraction(v, self.den)
        return tuple(out)

    def is_zero(self) -> bool:
        return not any(self.ints)

    def mul(self, other: "Matrix") -> "Matrix":
        """Sparse product on ints: (a / dA)(b / dB) = ab / (dA dB), row by row."""
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        rhs = other.ints
        out = []
        for row in self.ints:
            acc = {}
            for k, a in row.items():
                addmul(acc, rhs[k], a)
            out.append(acc)
        return Matrix._from_ints(self.rows, other.cols, self.den * other.den, out)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.ints == other.ints
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def _content_free(line: dict) -> dict:
    """``line`` divided by the gcd of its entries: neither the rank nor the kernel changes."""
    if line:
        g = gcd(*line.values())
        if g > 1:
            return {c: v // g for c, v in line.items()}
    return line


def _column_index(rows):
    """column -> set of indices of the rows with an entry in that column."""
    where = {}
    for i, row in enumerate(rows):
        for c in row:
            where.setdefault(c, set()).add(i)
    return where


def _eliminate(rows, where, i, c, holders):
    """Clear column c from every row in ``holders`` but row i, the pivot row.

    Each update is row <- a*row - b*pivot with a/b = pivot[c]/row[c] in lowest
    terms, then division by the new row's content gcd: integer arithmetic
    only, and every division is exact.  Row i leaves ``where`` and ``rows``.
    Returns the columns whose entry count changed.
    """
    pivot = rows[i]
    rows[i] = None
    p = pivot[c]
    changed = set()
    for k in pivot:
        if k != c:
            where[k].discard(i)
            changed.add(k)
    for j in holders:
        if j == i:
            continue
        row = rows[j]
        f = row[c]
        g = gcd(p, f)
        a, b = p // g, f // g
        new = {k: a * v for k, v in row.items()} if a != 1 else dict(row)
        for k, v in pivot.items():
            w = new.get(k)
            if w is None:
                new[k] = -b * v
                where.setdefault(k, set()).add(j)
                changed.add(k)
            elif w != b * v:
                new[k] = w - b * v
            else:
                del new[k]
                if k != c:
                    where[k].discard(j)
                    changed.add(k)
        if new:
            g = gcd(*new.values())
            if g > 1:
                new = {k: v // g for k, v in new.items()}
        rows[j] = new
    return changed


def _shortest(rows, holders):
    return min(holders, key=lambda i: (len(rows[i]), i))


def _markowitz(lines):
    """Reduce the sparse int ``lines`` in place; returns the (line, key) pivot pairs in pivot order.

    Markowitz pivot choice (Markowitz 1957): eliminate the key with the
    fewest entries next, on its shortest line, which keeps fill-in low on the
    sparse differentials.  A lazy heap holds the key counts.  The pivot lines
    and keys index an invertible minor: each pivot line, as reduced, has its
    pivot entry and none at the keys pivoted before it.
    """
    where = _column_index(lines)
    heap = [(len(s), c) for c, s in where.items()]
    heapify(heap)
    pivots = []
    while heap:
        n, c = heappop(heap)
        holders = where.get(c)
        if holders is None or len(holders) != n:
            continue
        del where[c]
        i = _shortest(lines, holders)
        for k in _eliminate(lines, where, i, c, holders):
            s = where[k]
            if s:
                heappush(heap, (len(s), k))
            else:
                del where[k]
        pivots.append((i, c))
    return pivots


def rank(m: Matrix, cleared=(), pivots=None) -> int:
    """Exact rank over the rationals of ``m`` without the columns in ``cleared``.

    The caller vouches that the columns left reach the whole image of ``m``:
    ``cohomology_table`` clears the pivot rows of the incoming differential.
    The lines reduced are the rows of what is left, or its columns when it
    has more rows than columns (the transpose has the same rank, and tall
    differentials rank faster on their columns).  ``pivots``, if a list, is
    extended by the (row, column) pairs of ``m`` that index an invertible
    r x r minor, r the rank returned.
    """
    cleared = set(cleared)
    if m.rows > m.cols - len(cleared):
        cols = [{} for _ in range(m.cols)]
        for r, row in enumerate(m.ints):
            for c, v in row.items():
                if c not in cleared:
                    cols[c][r] = v
        found = [(r, c) for c, r in _markowitz(list(map(_content_free, cols)))]
    else:
        rows = [{c: v for c, v in row.items() if c not in cleared} for row in m.ints] if cleared else m.ints
        found = _markowitz(list(map(_content_free, rows)))
    if pivots is not None:
        pivots.extend(found)
    return len(found)


def kernel_basis(m: Matrix):
    """Basis of the right null space: vectors v of ``Fraction``s with m v = 0.

    Columns are eliminated left to right, so the pivot columns are those not
    spanned by the columns before them.  The basis vector of a free column f
    has v[f] = 1 and 0 at every other free column, which fixes it: the basis
    does not depend on the pivot rows chosen.
    """
    n = m.cols
    rows = list(map(_content_free, m.ints))
    where = _column_index(rows)
    pivots = []
    for c in sorted(where):
        holders = where.pop(c)
        if not holders:
            continue
        i = _shortest(rows, holders)
        pivot = rows[i]
        _eliminate(rows, where, i, c, holders)
        pivots.append((c, pivot))
    pivot_cols = {c for c, _ in pivots}
    basis = []
    for f in range(n):
        if f in pivot_cols:
            continue
        v = {f: Fraction(1)}
        for c, row in reversed(pivots):
            s = sum(e * v[k] for k, e in row.items() if k in v)
            if s:
                v[c] = -s / row[c]
        basis.append(tuple(v.get(k, _ZERO) for k in range(n)))
    return basis


def _require_composite_zero(d_in: Matrix, d_out: Matrix):
    """Re-check d_out . d_in == 0; a failure is an assembly bug, not bad data."""
    if d_in.cols > 0 and d_out.rows > 0:
        if d_in.rows != d_out.cols:
            raise DimensionMismatch("d_in codomain != d_out domain")
        if not d_out.mul(d_in).is_zero():
            raise CompositionNonzero("d_out . d_in != 0")


def _cohomology_dim(d: Matrix, r: int, prev_rank: int, n=None) -> int:
    """dim ker d - prev_rank, once rank-nullity holds for d of rank r.

    Requires r <= min(rows, cols) and prev_rank, the rank of the incoming
    differential, <= dim ker d; a failure is a rank bug, not bad data.
    """
    # Under clearing, r is the rank of d without prev_rank of its columns, so
    # the incoming bound holds by construction and only catches a rank that
    # exceeds its columns; a certificate of each rank is what would test it.
    if r > min(d.rows, d.cols) or prev_rank > d.cols - r:
        where = "" if n is None else f" in degree {n}"
        raise InternalInvariantError(
            f"rank-nullity fails{where}: rank {r} on a {d.rows}x{d.cols} differential, "
            f"incoming rank {prev_rank}"
        )
    return d.cols - r - prev_rank


def cohomology_table(differential, degrees, parities=(0, 1)):
    """{n: {parity: dim H^n}} over consecutive ``degrees`` of a complex starting at 1.

    ``differential(n, parity)`` returns the Matrix of d_n: C^n -> C^(n+1).
    Each d_n is built and ranked once; d_0 is zero.  Every adjacent pair is
    re-checked for d_n . d_(n-1) == 0, and every degree for rank-nullity.
    Clearing: d_n is ranked without the columns that are pivot rows of
    d_(n-1).  Those rows index an invertible minor of d_(n-1), so C^n is
    im d_(n-1) plus the span of the other units, and d_n vanishes on
    im d_(n-1); the rank is unchanged.
    """
    if not degrees or degrees[0] < 1:
        raise ValidationError("cohomology degree must be >= 1")
    table = {n: {} for n in degrees}
    for parity in parities:
        prev, prev_rank, cleared = None, 0, ()
        for n in range(max(degrees[0] - 1, 1), degrees[-1] + 1):
            d = differential(n, parity)
            if prev is not None:
                _require_composite_zero(prev, d)
            pivots = []
            r = rank(d, cleared, pivots)
            h = _cohomology_dim(d, r, prev_rank, n)
            if n in table:
                table[n][parity] = h
            prev, prev_rank, cleared = d, r, [row for row, _ in pivots]
    return table
