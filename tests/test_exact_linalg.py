from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercochain.errors import CompositionNonzero, ValidationError
from supercochain.exact_linalg import (
    Matrix,
    cohomology_dims,
    format_scalar,
    kernel_basis,
    parse_scalar,
    rank,
)

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def mat(rows):
    return Matrix.from_rows([[F(x) for x in r] for r in rows])


def test_rank_identity():
    assert rank(Matrix.identity(3)) == 3


def test_rank_zero():
    assert rank(Matrix.zeros(2, 2)) == 0


def test_rank_dependent_rows():
    assert rank(mat([[1, 2], [2, 4]])) == 1


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(2)) == []


def test_kernel_dependent_rows():
    basis = kernel_basis(mat([[1, 2], [2, 4]]))
    assert len(basis) == 1
    v = basis[0]
    # spans (-2, 1)
    assert v[0] * F(1) == -2 * v[1]
    assert mat([[1, 2], [2, 4]]).apply(v) == (F(0), F(0))


def test_kernel_zero_row_full():
    basis = kernel_basis(Matrix.zeros(1, 3))
    assert len(basis) == 3


def test_cohomology_dims_all_cocycles():
    assert cohomology_dims(Matrix.zeros(2, 0), Matrix.zeros(2, 2)) == 2


def test_cohomology_dims_mixed():
    d_in = mat([[1], [0]])
    d_out = Matrix.zeros(1, 2)
    assert cohomology_dims(d_in, d_out) == 1


def test_cohomology_dims_everything_boundary():
    assert cohomology_dims(Matrix.identity(2), Matrix.zeros(1, 2)) == 0


def test_cohomology_dims_rejects_nonzero_composite():
    with pytest.raises(CompositionNonzero):
        cohomology_dims(Matrix.identity(2), Matrix.identity(2))


def test_parse_scalar():
    assert parse_scalar("3/6") == F(1, 2)
    assert parse_scalar("-4") == F(-4)
    assert parse_scalar("-3/-6") == F(1, 2)
    with pytest.raises(ValidationError):
        parse_scalar("1/0")
    with pytest.raises(ValidationError):
        parse_scalar("x")
    with pytest.raises(ValidationError):
        parse_scalar("1/2/3")
    # int() reads these; the "p"/"p/q" grammar takes ASCII [+-]?[0-9]+ only
    for text in ("1_0", " 1 ", "1 ", "\u0661", "1/\u0662", "1/ 2", "+-1", ""):
        with pytest.raises(ValidationError):
            parse_scalar(text)


def test_format_scalar_round_trip():
    for s in ("0", "7", "-7", "2/3", "-5/9"):
        assert format_scalar(parse_scalar(s)) == s


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_rank_nullity(nrows, ncols, data):
    entries = data.draw(
        st.lists(fractions, min_size=nrows * ncols, max_size=nrows * ncols)
    )
    m = Matrix(nrows, ncols, entries)
    basis = kernel_basis(m)
    assert rank(m) + len(basis) == ncols
    for v in basis:
        assert all(x == 0 for x in m.apply(v))


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_rank_invariant_under_row_ops(nrows, ncols, data):
    entries = data.draw(st.lists(fractions, min_size=nrows * ncols, max_size=nrows * ncols))
    m = Matrix(nrows, ncols, entries)
    r0, r1 = data.draw(st.integers(0, nrows - 1)), data.draw(st.integers(0, nrows - 1))
    scale = data.draw(st.sampled_from([F(2), F(-1), F(3, 2), F(1, 3)]))
    rows = [list(m.row(i)) for i in range(nrows)]
    rows[r0], rows[r1] = rows[r1], rows[r0]
    rows[0] = [scale * x for x in rows[0]]
    assert rank(Matrix.from_rows(rows)) == rank(m)


@given(fractions, fractions)
@settings(max_examples=100, deadline=None)
def test_scalar_arithmetic_round_trips(a, b):
    assert (a + b) - b == a
    if b != 0:
        assert (a / b) * b == a
