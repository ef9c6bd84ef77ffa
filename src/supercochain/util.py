"""Shared helpers: an immutable record base and coordinate-vector arithmetic, dense and sparse.

A sparse vector is a dict {position: nonzero coefficient}; structure-constant
tables store one per basis pair, so a check touches only the support of the
constants.  ``dense`` turns a sparse result back into the coordinate tuple a
report shows.
"""

from __future__ import annotations

from fractions import Fraction
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
    if c == 1:
        return tuple(v)
    return tuple(c * x for x in v)


def sparse(vec) -> dict:
    """The nonzero entries of a coordinate vector, in position order."""
    return {k: x for k, x in enumerate(vec) if x != 0}


def dense(vec: dict, dim: int):
    """Coordinate tuple of a sparse vector."""
    out = [_ZERO] * dim
    for k, x in vec.items():
        out[k] = x
    return tuple(out)


def addmul(acc: dict, vec: dict, c):
    """acc += c * vec in place; cancelled entries stay as zeros until ``nonzero``."""
    for k, x in vec.items():
        acc[k] = acc.get(k, _ZERO) + c * x


def nonzero(acc: dict) -> dict:
    """Drop cancelled entries, so that equal vectors compare equal."""
    return {k: x for k, x in acc.items() if x != 0}


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
                acc[k] = get(k, _ZERO) + c * v
    return nonzero(acc)


def units(n: int):
    """The basis vectors e_0..e_{n-1} as sparse vectors."""
    return [{i: 1} for i in range(n)]
