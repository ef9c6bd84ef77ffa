"""Small shared helpers: coordinate-vector arithmetic."""

from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)


def zero_vec(n: int):
    return (_ZERO,) * n


def vec_is_zero(v) -> bool:
    return all(x == 0 for x in v)


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_scale(v, c):
    if c == 1:
        return tuple(v)
    return tuple(c * x for x in v)


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))
