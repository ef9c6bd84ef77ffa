"""Shared helpers: an immutable record base, coordinate vectors and the integer kernels.

A sparse vector is a dict {position: nonzero coefficient}; structure-constant
tables store one per basis pair, so a check touches only the support of the
constants.  ``dense`` turns a sparse result back into the coordinate tuple a
report shows.

The kernel rule: ``Fraction`` at the API and report boundary, ints inside the
loops.  ``scaled_to_ints`` writes an operand as ints over one common
denominator (``scaled_vectors`` applies it to a table of vectors); ``addmul``,
``lincomb``, ``combine`` and ``bilinear`` then run on those ints, and only
the nonzero entries of a result become ``Fraction``s again (``dense``).  A
``Matrix`` keeps its int rows over one denominator from assembly to rank, and
a cochain (``Cochain``, ``BlockCochain``) keeps its values the same way from
parse to report; both build ``Fraction``s only when read.  The trilinear axiom checks contract two
such tables at a time over their support (``support``, ``contract_*``).
An identity whose terms carry different denominators is compared after
multiplying each side by the denominators it lacks, so every comparison is
exact and made on ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import attrgetter

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


def zero_vec(n: int):
    return (_ZERO,) * n


def vec_is_zero(v) -> bool:
    return not any(v)


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_scale(v, c):
    """c * v; a sign c = -1 negates entry by entry, with no multiplication."""
    if c == 1:
        return tuple(v)
    if c == -1:
        return tuple(-x for x in v)
    return tuple(c * x for x in v)


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


def scaled_to_ints(values: dict):
    """(s, {key: int}) with values == ints / s entry by entry, s the lcm of the denominators."""
    s = lcm(*(v.denominator for v in values.values()))
    return s, {k: v.numerator * (s // v.denominator) for k, v in values.items()}


def scaled_vectors(vectors: dict):
    """(den, {name: {k: int}}): ``scaled_to_ints`` over every entry of a dict of coordinate
    vectors; an all-zero vector is left out."""
    den, ints = scaled_to_ints(
        {(name, k): x for name, vec in vectors.items() for k, x in enumerate(vec) if x}
    )
    out = {}
    for (name, k), v in ints.items():
        out.setdefault(name, {})[k] = v
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
