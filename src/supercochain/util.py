"""Shared helpers: an immutable record base, coordinate vectors, exact storage and the integer kernels.

A sparse vector is a dict {position: nonzero coefficient}; structure-constant
tables store one per basis pair, so a check touches only the support of the
constants.  ``dense`` turns a sparse result back into the coordinate tuple a
report shows.

The kernel rule: ``Fraction`` at the API and report boundary, ints inside the
loops.  Every exact object (``Matrix``, ``Cochain``, ``BlockCochain``,
``LinearMap``, ``SuperAlgebra``, ``ActionMap``) stores int rows over one
positive denominator in the canonical form ``canonical`` gives: no zero
stored and no factor common to the denominator and every entry, so equal
objects store equal ints.  Their ``Fraction`` views are built only when
read.  Input entries are ints or ``Fraction``s and nothing else
(``require_exact``, ``exact_rows``); ``scaled_rows`` writes rows of them as
ints over one common denominator.  ``addmul``, ``lincomb``, ``combine`` and
``bilinear`` then run on those ints, and only the nonzero entries of a
result become ``Fraction``s again (``dense``).  The trilinear axiom checks contract two int tables at a
time over their support (``support``, ``contract_*``).  An identity whose
terms carry different denominators is compared after multiplying each side
by the denominators it lacks, so every comparison is exact and made on ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

from .errors import DimensionMismatch, ValidationError

_ZERO = Fraction(0)


class Frozen:
    """Immutable record over ``__slots__``: fields are stored, compared (same
    class only), hashed and printed in slot order, and never assigned again."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = property(attrgetter(*cls.__slots__))

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self):
        return hash(self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def sparse(vec) -> dict:
    """The nonzero entries of a coordinate vector, in position order."""
    return {k: x for k, x in enumerate(vec) if x}


def dense(vec: dict, dim: int, den: int = 1):
    """Coordinate tuple of ``Fraction``s of a sparse vector of ints over ``den``."""
    out = [_ZERO] * dim
    for k, x in vec.items():
        if x:
            out[k] = Fraction(x, den)
    return tuple(out)


def require_exact(x, what):
    """Refuse ``x`` with ``ValidationError`` unless it is an int (not a bool) or a ``Fraction``."""
    if type(x) is not int and not isinstance(x, Fraction):
        raise ValidationError(f"{what} must be an int or a Fraction, got {x!r}")


def exact_rows(vectors: dict, dim: int, what: str) -> dict:
    """{key: sparse vector} of a dict of coordinate vectors of length ``dim`` whose entries
    are ints or ``Fraction``s; ``what`` names one vector in the errors."""
    out = {}
    for key, vec in vectors.items():
        vec = tuple(vec)
        if len(vec) != dim:
            raise DimensionMismatch(f"{what} has wrong length")
        for x in vec:
            require_exact(x, f"a {what} entry")
        out[key] = sparse(vec)
    return out


def scaled_rows(rows: dict):
    """(den, {key: {k: int}}) with rows[key][k] == ints[key][k] / den, for sparse rows of ints
    and ``Fraction``s; den is the lcm of their denominators."""
    den = lcm(*(x.denominator for row in rows.values() for x in row.values()))
    return den, {
        key: {k: x.numerator * (den // x.denominator) for k, x in row.items()} for key, row in rows.items()
    }


def canonical(den: int, rows: dict):
    """(den, rows) for int rows {key: {position: int}} over ``den``, in canonical form: zero
    entries and empty rows dropped, the factor common to ``den`` and every entry cancelled.
    A row with nothing to drop or cancel is kept, not copied."""
    out = {}
    g = den
    for key, row in rows.items():
        if not all(row.values()):
            row = nonzero(row)
        if row:
            out[key] = row
            if g != 1:
                g = gcd(g, *row.values())
    if g > 1:
        out = {key: {k: x // g for k, x in row.items()} for key, row in out.items()}
        den //= g
    return den, out


def addmul(acc: dict, vec: dict, c):
    """acc += c * vec in place; cancelled entries stay as zeros until ``nonzero``."""
    get = acc.get
    for k, x in vec.items():
        acc[k] = get(k, 0) + c * x


def nonzero(acc: dict) -> dict:
    """Drop cancelled entries, so that equal vectors compare equal."""
    return {k: x for k, x in acc.items() if x}


def lincomb(*terms) -> dict:
    """sum c * v over (c, v) terms of sparse vectors."""
    acc = {}
    for c, vec in terms:
        addmul(acc, vec, c)
    return nonzero(acc)


def combine(coeffs: dict, columns) -> dict:
    """sum_m coeffs[m] * columns[m]: a column-stored sparse map applied to a vector."""
    return lincomb(*((c, columns[m]) for m, c in coeffs.items()))


def bilinear(table, x: dict, y: dict) -> dict:
    """sum_{a,b} x_a y_b table[a][b] for a table of sparse vectors on basis pairs."""
    acc = {}
    get = acc.get
    for a, xa in x.items():
        row = table[a]
        for b, yb in y.items():
            c = xa * yb
            for k, v in row[b].items():
                acc[k] = get(k, 0) + c * v
    return nonzero(acc)


def support(table):
    """(rows, cols) of a table of sparse vectors on index pairs: rows[m] lists the nonzero
    (q, table[m][q]) and cols[m] the nonzero (p, table[p][m])."""
    rows = [[(q, vec) for q, vec in enumerate(row) if vec] for row in table]
    cols = [[] for _ in (table[0] if table else ())]
    for p, entries in enumerate(rows):
        for q, vec in entries:
            cols[q].append((p, vec))
    return rows, cols


# One side of a trilinear identity at a fixed first index, as a table {(p, q): int vector}:
# each term contracts ``row``, the vectors of that index in one table, with the support of a
# table Y, pairing every nonzero entry with only the nonzero entries listed under its
# index (a row-by-row sparse product, Gustavson 1978).

def contract_pairs(acc: dict, rows, row, c=1):
    """acc[(p, q)] += c * sum_m Y[p][q][m] row[m] over the nonzero Y[p][q], ``rows`` of Y."""
    for p, entries in enumerate(rows):
        for q, vec in entries:
            out = acc.setdefault((p, q), {})
            for m, x in vec.items():
                addmul(out, row[m], c * x)


def contract_rows(acc: dict, row, rows, c=1):
    """acc[(p, q)] += c * sum_m row[p][m] Y[m][q], ``rows`` of Y."""
    for p, vec in enumerate(row):
        for m, x in vec.items():
            for q, v in rows[m]:
                addmul(acc.setdefault((p, q), {}), v, c * x)


def contract_cols(acc: dict, row, cols, pars, signs):
    """acc[(p, q)] += signs[pars[p]] * sum_m row[q][m] Y[p][m], ``cols`` of Y: the factor
    goes by the parity of the first slot."""
    for q, vec in enumerate(row):
        for m, x in vec.items():
            for p, v in cols[m]:
                addmul(acc.setdefault((p, q), {}), v, signs[pars[p]] * x)
