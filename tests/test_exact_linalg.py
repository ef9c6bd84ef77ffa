import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from supercochain import cli
from supercochain import cochains
from supercochain import crossed
from supercochain import deformation
from supercochain import exact_linalg
from supercochain import graded
from supercochain import io as sio
from supercochain import triple
from supercochain.crossed import ChComplex, CrossedHom, ch_cohomology_table
from supercochain.deformation import CrossedHomDeformation
from supercochain.errors import (
    CompositionNonzero,
    DimensionMismatch,
    InternalInvariantError,
    ValidationError,
)
from supercochain.exact_linalg import (
    Matrix,
    cohomology_table,
    format_scalar,
    kernel_basis,
    parse_scalar,
    rank,
)
from supercochain.superalgebra import gl
from supercochain.triple import LieSupActTriple, triple_cohomology_table

import oracles
from oracles import cohomology_dims
from helpers import adjoint_triple, identity_map, identity_matrix, matrix_apply, matrix_data, matrix_entry
from helpers import matrix_from_cols, matrix_from_rows, matrix_row, zero_matrix

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def mat(rows):
    return matrix_from_rows([[F(x) for x in r] for r in rows])


def test_rank_identity():
    assert rank(identity_matrix(3)) == 3


def test_rank_zero():
    assert rank(zero_matrix(2, 2)) == 0


def test_rank_dependent_rows():
    assert rank(mat([[1, 2], [2, 4]])) == 1


def test_rank_and_kernel_with_fill_in():
    # eliminating either of the first two rows with the other fills in an
    # entry the row did not hold; the third row is their difference
    m = mat([[1, 1, 0], [1, 0, 1], [0, 1, -1]])
    assert rank(m) == oracles.dense_rank(m) == 2
    assert kernel_basis(m) == oracles.dense_kernel_basis(m)


def test_kernel_identity_empty():
    assert kernel_basis(identity_matrix(2)) == []


def test_kernel_dependent_rows():
    basis = kernel_basis(mat([[1, 2], [2, 4]]))
    assert len(basis) == 1
    v = basis[0]
    # spans (-2, 1)
    assert v[0] * F(1) == -2 * v[1]
    assert matrix_apply(mat([[1, 2], [2, 4]]), v) == (F(0), F(0))


def test_kernel_zero_row_full():
    basis = kernel_basis(zero_matrix(1, 3))
    assert len(basis) == 3


def test_cohomology_dims_all_cocycles():
    assert cohomology_dims(zero_matrix(2, 0), zero_matrix(2, 2)) == 2


def test_cohomology_dims_mixed():
    d_in = mat([[1], [0]])
    d_out = zero_matrix(1, 2)
    assert cohomology_dims(d_in, d_out) == 1


def test_cohomology_dims_everything_boundary():
    assert cohomology_dims(identity_matrix(2), zero_matrix(1, 2)) == 0


def test_cohomology_dims_rejects_nonzero_composite():
    with pytest.raises(CompositionNonzero):
        cohomology_dims(identity_matrix(2), identity_matrix(2))


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
    m = matrix_from_rows([entries[i * ncols : (i + 1) * ncols] for i in range(nrows)])
    basis = kernel_basis(m)
    assert rank(m) + len(basis) == ncols
    for v in basis:
        assert all(x == 0 for x in matrix_apply(m, v))


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_rank_invariant_under_row_ops(nrows, ncols, data):
    entries = data.draw(st.lists(fractions, min_size=nrows * ncols, max_size=nrows * ncols))
    m = matrix_from_rows([entries[i * ncols : (i + 1) * ncols] for i in range(nrows)])
    r0, r1 = data.draw(st.integers(0, nrows - 1)), data.draw(st.integers(0, nrows - 1))
    scale = data.draw(st.sampled_from([F(2), F(-1), F(3, 2), F(1, 3)]))
    rows = [list(matrix_row(m, i)) for i in range(nrows)]
    rows[r0], rows[r1] = rows[r1], rows[r0]
    rows[0] = [scale * x for x in rows[0]]
    assert rank(matrix_from_rows(rows)) == rank(m)


@given(fractions, fractions)
@settings(max_examples=100, deadline=None)
def test_scalar_arithmetic_round_trips(a, b):
    assert (a + b) - b == a
    if b != 0:
        assert (a / b) * b == a


nonzero_fractions = fractions.filter(lambda x: x != 0)


@st.composite
def dense_matrices(draw):
    """Dense rows of shape 0..12 x 0..12 at 0-60% density.

    Up to three structural edits follow: repeat a row, scale a row, zero a
    row or zero a column, so that dependent rows and empty lines are common.
    """
    nrows, ncols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    density = draw(st.integers(0, 60))
    rows = [
        [draw(nonzero_fractions) if draw(st.integers(0, 99)) < density else F(0) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    for edit in draw(st.lists(st.sampled_from(["repeat", "scale", "zero_row", "zero_col"]), max_size=3)):
        if not rows or not ncols:
            break
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        if edit == "repeat":
            rows[i] = list(rows[j])
        elif edit == "scale":
            factor = draw(nonzero_fractions)
            rows[i] = [factor * x for x in rows[j]]
        elif edit == "zero_row":
            rows[i] = [F(0)] * ncols
        else:
            c = draw(st.integers(0, ncols - 1))
            for row in rows:
                row[c] = F(0)
    return nrows, ncols, rows


def _matrix(nrows, ncols, rows):
    return matrix_from_rows(rows) if nrows else zero_matrix(0, ncols)


@given(dense_matrices())
@settings(max_examples=200, deadline=None)
def test_rank_and_kernel_match_dense_reference(shape_rows):
    m = _matrix(*shape_rows)
    assert rank(m) == oracles.dense_rank(m)
    assert kernel_basis(m) == oracles.dense_kernel_basis(m)


def _minor(m, pivots):
    """The square submatrix of ``m`` on the rows and columns of its (row, column) pivots."""
    return matrix_from_rows([[matrix_entry(m, r, c) for _, c in pivots] for r, _ in pivots])


@given(dense_matrices(), st.integers(0, 8), st.data())
@settings(max_examples=150, deadline=None)
def test_cleared_rank_of_a_random_complex_matches_dense_rank(shape_rows, width, data):
    # d_(n-1) = K R for a kernel basis K of d_n and a random R, so d_n d_(n-1) = 0;
    # clearing ranks d_n without the pivot rows of d_(n-1)
    d_n = _matrix(*shape_rows)
    kernel = kernel_basis(d_n)
    mix = [[data.draw(st.integers(-2, 2)) for _ in range(width)] for _ in kernel]
    cols = [[sum(v[i] * mix[j][c] for j, v in enumerate(kernel)) for i in range(d_n.cols)] for c in range(width)]
    d_prev = matrix_from_cols(cols, d_n.cols)
    assert d_n.mul(d_prev).is_zero()
    below = []
    assert rank(d_prev, pivots=below) == len(below) == oracles.dense_rank(d_prev)
    cleared = [r for r, _ in below]
    if below:
        assert oracles.dense_rank(_minor(d_prev, below)) == len(below)
    pivots = []
    assert rank(d_n, cleared=cleared, pivots=pivots) == len(pivots) == oracles.dense_rank(d_n)
    assert not {c for _, c in pivots} & set(cleared)
    if pivots:
        assert oracles.dense_rank(_minor(d_n, pivots)) == len(pivots)


@given(dense_matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_storage_round_trips_dense_input(shape_rows, data):
    nrows, ncols, rows = shape_rows
    m = _matrix(nrows, ncols, rows)
    flat = tuple(x for row in rows for x in row)
    # the dense view is the input, and storage holds exactly its nonzeros
    assert m.entries == flat
    assert all(v != 0 for row in matrix_data(m) for v in row.values())
    assert sum(len(row) for row in matrix_data(m)) == sum(1 for x in flat if x != 0)
    assert [matrix_row(m, r) for r in range(nrows)] == [tuple(row) for row in rows]
    assert all(matrix_entry(m, r, c) == rows[r][c] for r in range(nrows) for c in range(ncols))
    # the same matrix from columns, from sparse rows and from sparse rows with explicit zeros
    assert matrix_from_cols([[rows[r][c] for r in range(nrows)] for c in range(ncols)], nrows) == m
    assert Matrix(nrows, ncols, [dict(enumerate(row)) for row in rows]) == m
    assert Matrix(nrows, ncols, [{c: v for c, v in enumerate(row) if v} for row in rows]) == m
    vec = data.draw(st.lists(fractions, min_size=ncols, max_size=ncols))
    assert matrix_apply(m, vec) == tuple(sum((a * b for a, b in zip(row, vec)), F(0)) for row in rows)
    if any(flat):
        r, c = next((r, c) for r in range(nrows) for c in range(ncols) if rows[r][c])
        bumped = [list(row) for row in rows]
        bumped[r][c] += 1
        assert _matrix(nrows, ncols, bumped) != m


def test_sparse_product_matches_dense_product():
    a = mat([[1, 0, 2], [0, 0, 0], [F(1, 2), -1, 0]])
    b = mat([[0, 3], [1, 0], [F(-1, 4), 0]])
    assert a.mul(b) == mat([[F(-1, 2), 3], [0, 0], [-1, F(3, 2)]])
    # cancellation leaves no stored zero
    assert matrix_data(mat([[1, 1]]).mul(mat([[1], [-1]]))) == ({},)


def test_matrix_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        Matrix(2, 2, [{0: 1}])
    with pytest.raises(DimensionMismatch):
        Matrix(1, 2, [{2: 1}])
    with pytest.raises(DimensionMismatch):
        matrix_from_rows([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        matrix_from_cols([[1, 2]], 3)


@pytest.mark.parametrize("r, c", [(-1, 0), (2, 0), (0, -1), (0, 2), (-3, 5)])
def test_entry_and_row_refuse_indices_outside_the_shape(r, c):
    m = mat([[1, 2], [3, 4]])
    with pytest.raises(IndexError, match=r"outside a 2x2 matrix"):
        matrix_entry(m, r, c)
    if not 0 <= r < 2:
        with pytest.raises(IndexError, match=rf"row {r} outside a 2x2 matrix"):
            matrix_row(m, r)
    assert matrix_entry(m, 1, 0) == 3 and matrix_row(m, 1) == (3, 4)


def test_int_rows_over_a_denominator_are_stored_as_ints():
    m = Matrix(2, 3, [{0: 3, 2: 0}, {1: -4}], den=6)
    assert (m.den, m.ints) == (6, ({0: 3}, {1: -4}))
    assert matrix_data(m) == ({0: F(1, 2)}, {1: F(-2, 3)})
    assert all(type(v) is F for row in matrix_data(m) for v in row.values())
    assert m == mat([[F(1, 2), 0, 0], [0, F(-2, 3), 0]])
    # Fraction input is scaled to ints once, and a common factor of den and entries cancels
    stored = lambda m: (m.den, m.ints)
    assert stored(mat([[F(1, 2), F(-1, 3)]])) == (6, ({0: 3, 1: -2},))
    assert stored(Matrix(1, 2, [{0: 4, 1: 6}], den=8)) == (4, ({0: 2, 1: 3},))
    assert stored(Matrix(2, 2, [{}, {}], den=7)) == (1, ({}, {}))


@pytest.mark.parametrize("den", [0, -3, 2.0, F(3), True, "2"])
def test_matrix_refuses_a_denominator_that_is_not_a_positive_int(den):
    with pytest.raises(ValidationError, match="denominator"):
        Matrix(1, 1, [{0: 1}], den=den)


@st.composite
def int_rows(draw, nrows=None, ncols=None):
    """(nrows, ncols, rows): 0..8 x 0..8 ints, mostly zero, with small common factors."""
    nrows = draw(st.integers(0, 8)) if nrows is None else nrows
    ncols = draw(st.integers(0, 8)) if ncols is None else ncols
    entry = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3, 4, -6, 9])
    return nrows, ncols, [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]


def _sparse(rows, k=1):
    return [{c: k * v for c, v in enumerate(row) if v} for row in rows]


@given(int_rows(), st.integers(1, 12), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_int_storage_is_canonical_for_every_common_factor(shape_rows, den, k):
    nrows, ncols, rows = shape_rows
    m = Matrix(nrows, ncols, _sparse(rows), den)
    assert Matrix(nrows, ncols, _sparse(rows, k), k * den) == m
    assert _matrix(nrows, ncols, [[F(v, den) for v in row] for row in rows]) == m
    assert m.entries == tuple(F(v, den) for row in rows for v in row)
    stored = [v for row in m.ints for v in row.values()]
    assert all(type(v) is int and v for v in stored) and type(m.den) is int
    assert math.gcd(m.den, *stored) == 1


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.data())
@settings(max_examples=100, deadline=None)
def test_product_over_denominators_matches_dense_product(n, m, p, data):
    da, db = data.draw(st.integers(2, 9)), data.draw(st.integers(2, 9))
    _, _, a = data.draw(int_rows(n, m))
    _, _, b = data.draw(int_rows(m, p))
    product = Matrix(n, m, _sparse(a), da).mul(Matrix(m, p, _sparse(b), db))
    dense = [
        [sum((F(a[i][k], da) * F(b[k][j], db) for k in range(m)), F(0)) for j in range(p)]
        for i in range(n)
    ]
    assert product == matrix_from_rows(dense)
    assert all(v for row in product.ints for v in row.values())


def test_product_cancellation_over_denominators_stores_no_zero():
    product = Matrix(1, 2, [{0: 1, 1: 1}], 3).mul(Matrix(2, 1, [{0: 1}, {0: -1}], 5))
    assert (product.den, product.ints) == (1, ({},))
    assert product.is_zero()


@given(int_rows(), st.integers(2, 30))
@settings(max_examples=100, deadline=None)
def test_rank_and_kernel_over_a_denominator_match_dense_reference(shape_rows, den):
    nrows, ncols, rows = shape_rows
    m = Matrix(nrows, ncols, _sparse(rows), den)
    assert rank(m) == oracles.dense_rank(m)
    assert kernel_basis(m) == oracles.dense_kernel_basis(m)


def _mixed21_triple():
    pf = sio.parse(FIXTURES / "mixed21.json")
    return LieSupActTriple(pf.g, pf.h, pf.action)


def test_cohomology_table_multiplies_once_per_adjacent_pair(monkeypatch):
    products = []
    real_mul = Matrix.mul

    def counting_mul(self, other):
        products.append((self.rows, self.cols, other.rows, other.cols))
        return real_mul(self, other)

    monkeypatch.setattr(Matrix, "mul", counting_mul)
    triple_cohomology_table(_mixed21_triple(), range(1, 4))
    # d1, d2, d3 per parity (d1 is 46x13 even, 46x12 odd): d2 . d1 and d3 . d2
    assert products == [
        (110, 46, 46, 13), (206, 110, 110, 46),
        (110, 46, 46, 12), (206, 110, 110, 46),
    ]


def _mixed21_crossed():
    pf = sio.parse(FIXTURES / "mixed21.json")
    return CrossedHom(LieSupActTriple(pf.g, pf.h, pf.action), pf.crossed)


@pytest.mark.parametrize(
    "table",
    [
        lambda: triple_cohomology_table(_mixed21_triple(), range(1, 4)),
        lambda: ch_cohomology_table(_mixed21_crossed(), range(1, 4)),
    ],
    ids=["triple", "crossed"],
)
def test_cohomology_table_builds_each_unit_list_once(monkeypatch, table):
    calls, ranked = [], []
    real_units, real_rank = triple.block_units, exact_linalg.rank
    monkeypatch.setattr(triple, "block_units", lambda *a, **k: calls.append(a) or real_units(*a, **k))
    monkeypatch.setattr(exact_linalg, "rank", lambda m, *a: ranked.append(m) or real_rank(m, *a))
    table()
    # C^1..C^4, one walk each for both parities: each list gives the rows of d_(n-1)
    # and the columns of d_n
    assert len(calls) == 4
    # d1, d2, d3 per parity, each handed to rank as int rows over an int denominator
    assert len(ranked) == 6
    assert all(type(m.den) is int for m in ranked)
    assert all(type(v) is int for m in ranked for row in m.ints for v in row.values())


def test_residual_pass_builds_each_support_once(monkeypatch, tmp_path, capsys):
    # the residuals of orders 0..2 and the cocycle test of D_1 on the gl(2|1) adjoint triple
    built = []
    real = cochains._bracket_support
    monkeypatch.setattr(cochains, "_bracket_support", lambda P: built.append(P) or real(P))
    t = adjoint_triple(gl(2, 1))
    D = CrossedHom(t, identity_map(t.g.space).scale(-1))
    one = identity_map(t.g.space)
    d = CrossedHomDeformation.build(D, [one, one.scale(F(1, 2))], order=2)
    series = d.series()
    series.infinitesimal(series.residuals())
    # pi + rho, mu, [mu, D_0], [mu, D_1] and P_D: one support each
    assert len(built) == len({id(P) for P in built}) == 5
    # check-crossed on the same D reads the order-0 residual and builds no complex at D:
    # one [mu, D], one more expansion each for the residual and for the semidirect
    # product's [Pi, Pi] (a self-bracket), and no direct sum for P_D
    calls = dict.fromkeys(("nr_bracket", "_expand", "direct_sum"), 0)
    for name in calls:
        original = getattr(graded if name == "direct_sum" else cochains, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (cochains, graded, triple, crossed, deformation):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    path = tmp_path / "gl21_adjoint.json"
    problem = {"g": sio.algebra_to_obj(t.g), "h": sio.algebra_to_obj(t.h),
               "action": sio.action_to_obj(t.rho), "D": sio.crossed_to_obj(D.linmap)}
    path.write_text(json.dumps(problem), encoding="utf-8")
    assert cli.main(["check-crossed", str(path), "--format", "json"]) == 0
    capsys.readouterr()
    assert calls == {"nr_bracket": 2, "_expand": 3, "direct_sum": 13}
    # ch-deform of the deformation above: [mu, D_0] and [mu, D_1] of the residual pass,
    # then d D_1 in the complex at D_0, whose P_D reuses the pass's [mu, D_0]
    problem["deformation"] = {"order": 2, "coefficients": [
        {"order": 1, "D": sio.crossed_to_obj(one)}, {"order": 2, "D": sio.crossed_to_obj(one.scale(F(1, 2)))},
    ]}
    path.write_text(json.dumps(problem), encoding="utf-8")
    calls["nr_bracket"] = 0
    cli.main(["ch-deform", str(path), "--format", "json"])
    capsys.readouterr()
    assert calls["nr_bracket"] == 3


def test_cohomology_tables_build_each_support_once(monkeypatch):
    # every d_n of both parities, in degrees 1..3 of the gl(1|1) adjoint triple
    built = []
    real = cochains._bracket_support
    monkeypatch.setattr(cochains, "_bracket_support", lambda P: built.append(P) or real(P))
    t = adjoint_triple(gl(1, 1))
    triple_cohomology_table(t, range(1, 4))
    # Pi alone
    assert built == [triple.mc_element(t)]
    built.clear()
    D = CrossedHom(t, identity_map(t.g.space).scale(-1))
    ch_cohomology_table(D, range(1, 4))
    # mu, for [mu, D], then P_D = pi + rho + [mu, D]
    mu, P_D = built
    cc = ChComplex(t)
    assert mu == cc.mu_hat and P_D == cc.twisted(D.as_block()).P

@pytest.mark.parametrize("wrong", [lambda m, *a: min(m.rows, m.cols) + 1, lambda m, *a: min(m.rows, m.cols)])
def test_cohomology_table_checks_rank_nullity(monkeypatch, wrong):
    # over-large in the first case; in the second, rank d_1 = 2 leaves ker d_2 = 0 < rank d_1
    monkeypatch.setattr(exact_linalg, "rank", wrong)
    with pytest.raises(InternalInvariantError, match="rank-nullity"):
        cohomology_table(lambda n, parity: zero_matrix(2, 2), range(1, 3), parities=(0,))


@pytest.mark.parametrize("wrong", [lambda m: min(m.rows, m.cols) + 1, lambda m: min(m.rows, m.cols)])
def test_cohomology_dims_checks_rank_nullity(monkeypatch, wrong):
    # over-large in the first case; in the second, rank d_in = 2 leaves ker d_out = 0 < rank d_in
    monkeypatch.setattr(exact_linalg, "rank", wrong)
    with pytest.raises(InternalInvariantError, match="rank-nullity"):
        cohomology_dims(zero_matrix(2, 2), zero_matrix(2, 2))


def test_wrong_rank_is_exit_3(monkeypatch, capsys):
    monkeypatch.setattr(exact_linalg, "rank", lambda m, *a: m.cols + 1)
    assert cli.main(["cohomology", str(FIXTURES / "mixed21.json"), "--max-n", "2"]) == 3
    assert "rank-nullity" in capsys.readouterr().err
