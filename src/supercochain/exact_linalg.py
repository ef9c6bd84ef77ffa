"""Exact rational linear algebra: dense matrices, rank, kernels.

All arithmetic is over ``fractions.Fraction`` (always lowest terms, positive
denominator, never rounded).  Elimination is fraction-free: rows are scaled
to integers and reduced Bareiss-style so intermediate entries stay integral,
which keeps coefficient growth under control on the desk-scale matrices the
cohomology pipeline produces.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import CompositionNonzero, DimensionMismatch, InternalInvariantError, ValidationError


_INTEGER = re.compile(r"[+-]?[0-9]+")


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
    """Immutable dense matrix of exact rationals, row-major storage."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(Fraction(e) for e in entries)
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"need {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        ent = [Fraction(0)] * (n * n)
        for i in range(n):
            ent[i * n + i] = Fraction(1)
        return cls(n, n, ent)

    @classmethod
    def from_rows(cls, rows_data) -> "Matrix":
        rows_data = [list(r) for r in rows_data]
        nrows = len(rows_data)
        ncols = len(rows_data[0]) if nrows else 0
        flat = []
        for r in rows_data:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
            flat.extend(r)
        return cls(nrows, ncols, flat)

    @classmethod
    def from_cols(cls, cols_data, rows: int) -> "Matrix":
        cols_data = [tuple(c) for c in cols_data]
        for c in cols_data:
            if len(c) != rows:
                raise DimensionMismatch("column of wrong height")
        ncols = len(cols_data)
        flat = [cols_data[c][r] for r in range(rows) for c in range(ncols)]
        return cls(rows, ncols, flat)

    def entry(self, r: int, c: int) -> Fraction:
        return self.entries[r * self.cols + c]

    def row(self, r: int):
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        out = [Fraction(0)] * (self.rows * other.cols)
        for i in range(self.rows):
            base = i * self.cols
            for k in range(self.cols):
                a = self.entries[base + k]
                if a == 0:
                    continue
                obase = k * other.cols
                orow = other.entries
                obase_i = i * other.cols
                for j in range(other.cols):
                    b = orow[obase + j]
                    if b != 0:
                        out[obase_i + j] += a * b
        return Matrix(self.rows, other.cols, out)

    def apply(self, vec):
        """Matrix-vector product, vec indexed over columns."""
        vec = tuple(vec)
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length != cols")
        out = []
        for i in range(self.rows):
            base = i * self.cols
            s = Fraction(0)
            for j, v in enumerate(vec):
                if v != 0:
                    e = self.entries[base + j]
                    if e != 0:
                        s += e * v
            out.append(s)
        return tuple(out)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def _integer_rows(m: Matrix):
    """Rows rescaled to coprime integers; preserves rank and kernel."""
    out = []
    for r in range(m.rows):
        row = m.row(r)
        lcm = 1
        for e in row:
            d = e.denominator
            lcm = lcm * d // gcd(lcm, d)
        ints = [int(e * lcm) for e in row]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def _bareiss(rows):
    """Fraction-free forward elimination in place; returns pivot columns.

    Entries stay integral: every division below is exact by the Sylvester
    determinant identity, and that exactness is asserted.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    piv_cols = []
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        p = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                p = i
                break
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
        pivot = rows[r][c]
        for i in range(r + 1, nrows):
            fac = rows[i][c]
            ri = rows[i]
            rr = rows[r]
            for j in range(c, ncols):
                num = pivot * ri[j] - fac * rr[j]
                q, rem = divmod(num, prev)
                if rem:
                    raise InternalInvariantError("fraction-free elimination lost exactness")
                ri[j] = q
        prev = pivot
        piv_cols.append(c)
        r += 1
    return piv_cols


def rank(m: Matrix) -> int:
    """Exact rank over the rationals."""
    if m.rows == 0 or m.cols == 0:
        return 0
    rows = _integer_rows(m)
    return len(_bareiss(rows))


def kernel_basis(m: Matrix):
    """Basis of the right null space; each vector satisfies m.apply(v) == 0."""
    n = m.cols
    if n == 0:
        return []
    if m.rows == 0:
        return [tuple(Fraction(1 if j == f else 0) for j in range(n)) for f in range(n)]
    rows = _integer_rows(m)
    piv_cols = _bareiss(rows)
    piv_set = set(piv_cols)
    free_cols = [c for c in range(n) if c not in piv_set]
    basis = []
    for f in free_cols:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for k in range(len(piv_cols) - 1, -1, -1):
            p = piv_cols[k]
            s = Fraction(0)
            row = rows[k]
            for j in range(p + 1, n):
                if row[j] and v[j]:
                    s += Fraction(row[j]) * v[j]
            v[p] = -s / row[p]
        basis.append(tuple(v))
    return basis


def _require_composite_zero(d_in: Matrix, d_out: Matrix):
    """Re-check d_out . d_in == 0; a failure is an assembly bug, not bad data."""
    if d_in.cols > 0 and d_out.rows > 0:
        if d_in.rows != d_out.cols:
            raise DimensionMismatch("d_in codomain != d_out domain")
        if not d_out.mul(d_in).is_zero():
            raise CompositionNonzero("d_out . d_in != 0")


def cohomology_dims(d_in: Matrix, d_out: Matrix) -> int:
    """dim ker(d_out) - rank(d_in) for one degree of a cochain complex."""
    _require_composite_zero(d_in, d_out)
    return (d_out.cols - rank(d_out)) - rank(d_in)


def cohomology_table(differential, degrees, parities=(0, 1)):
    """{n: {parity: dim H^n}} over consecutive ``degrees`` of a complex starting at 1.

    ``differential(n, parity)`` returns the Matrix of d_n: C^n -> C^(n+1).
    Each d_n is built and ranked once; d_0 is zero, and every adjacent pair is
    re-checked for d_n . d_(n-1) == 0.
    """
    if not degrees or degrees[0] < 1:
        raise ValidationError("cohomology degree must be >= 1")
    table = {n: {} for n in degrees}
    for parity in parities:
        prev, prev_rank = None, 0
        for n in range(max(degrees[0] - 1, 1), degrees[-1] + 1):
            d = differential(n, parity)
            if prev is not None:
                _require_composite_zero(prev, d)
            r = rank(d)
            if n in table:
                table[n][parity] = d.cols - r - prev_rank
            prev, prev_rank = d, r
    return table
