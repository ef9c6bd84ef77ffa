"""Shared builders for the test suite: example algebras, triples, random data,
dense vectors and matrices, and the unit bases and cohomology of one degree."""

from fractions import Fraction as F

from supercochain.cochains import BlockCochain, Cochain
from supercochain.errors import DimensionMismatch
from supercochain.exact_linalg import Matrix
from supercochain.graded import GradedSpace, wedge_basis
from supercochain.superalgebra import LinearMap, SuperAlgebra, abelian, gl
from supercochain.crossed import CrossedHom, ch_blocks, ch_cohomology_table
from supercochain.deformation import CrossedHomDeformation, TripleDeformation
from supercochain.triple import ActionMap, LieSupActTriple, adjoint_action, block_units, semidirect
from supercochain.triple import triple_blocks, triple_cohomology_table

__all__ = [
    "zero_vec",
    "vec_is_zero",
    "zero_matrix",
    "identity_matrix",
    "matrix_from_rows",
    "matrix_from_cols",
    "matrix_data",
    "matrix_entry",
    "matrix_row",
    "matrix_apply",
    "identity_map",
    "compose_maps",
    "parity_units",
    "triple_units",
    "ch_units",
    "triple_cohomology",
    "ch_cohomology",
    "embed_left",
    "embed_right",
    "split",
    "ad",
    "parity_component",
    "super_commutator",
    "aff11",
    "sl2",
    "osp12",
    "heisenberg3",
    "heisenberg",
    "sl2_module",
    "adjoint_action",
    "adjoint_triple",
    "solvable_triple",
    "defining_triple",
    "mixed21_triple",
    "random_cochain",
    "random_homogeneous_cochain",
    "random_block",
    "random_parity_zero_map",
    "random_valid_triple",
    "perturb_triple_data",
    "scaling_semidirect",
    "triple_axioms_ok",
    "SMALL_SPACES",
    "RESCALINGS",
    "draw_scales",
    "rescale_cochain",
    "rescale_triple",
    "rescale_crossed",
    "rescale_deformation",
    "rescale_ch_deformation",
    "REBASE_DIAGONAL",
    "rebasing",
    "rebase_triple",
    "rebase_crossed",
]


def zero_vec(n: int):
    return (F(0),) * n


def vec_is_zero(v) -> bool:
    return not any(v)


# ---------------------------------------------------------------------------
# dense constructors and ``Fraction`` views of a ``Matrix``


def zero_matrix(rows: int, cols: int) -> Matrix:
    return Matrix(rows, cols, [{}] * rows)


def identity_matrix(n: int) -> Matrix:
    return Matrix(n, n, [{i: 1} for i in range(n)])


def matrix_from_rows(rows_data) -> Matrix:
    rows_data = [tuple(r) for r in rows_data]
    ncols = len(rows_data[0]) if rows_data else 0
    if any(len(r) != ncols for r in rows_data):
        raise DimensionMismatch("ragged rows")
    return Matrix(len(rows_data), ncols, [dict(enumerate(r)) for r in rows_data])


def matrix_from_cols(cols_data, rows: int) -> Matrix:
    cols_data = [tuple(c) for c in cols_data]
    if any(len(c) != rows for c in cols_data):
        raise DimensionMismatch("column of wrong height")
    data = [{} for _ in range(rows)]
    for c, col in enumerate(cols_data):
        for r, v in enumerate(col):
            data[r][c] = v
    return Matrix(rows, len(cols_data), data)


def matrix_data(m: Matrix):
    """Per row, ``{column: Fraction}`` of its nonzero entries."""
    return tuple({c: F(v, m.den) for c, v in row.items()} for row in m.ints)


def _stored_row(m: Matrix, r: int) -> dict:
    """The stored row r; an index outside 0..rows-1, negative ones included, is refused."""
    if not 0 <= r < m.rows:
        raise IndexError(f"row {r} outside a {m.rows}x{m.cols} matrix")
    return m.ints[r]


def matrix_entry(m: Matrix, r: int, c: int) -> F:
    row = _stored_row(m, r)
    if not 0 <= c < m.cols:
        raise IndexError(f"column {c} outside a {m.rows}x{m.cols} matrix")
    return F(row.get(c, 0), m.den)


def matrix_row(m: Matrix, r: int):
    """Row r as a dense tuple."""
    row = _stored_row(m, r)
    return tuple(F(row.get(c, 0), m.den) for c in range(m.cols))


def matrix_apply(m: Matrix, vec):
    """Matrix-vector product, vec indexed over columns."""
    vec = tuple(vec)
    if len(vec) != m.cols:
        raise DimensionMismatch("vector length != cols")
    return tuple(F(sum(e * vec[j] for j, e in row.items() if vec[j]), m.den) for row in m.ints)


def identity_map(space: GradedSpace) -> LinearMap:
    return LinearMap._from_ints((space, space), 1, {j: {j: 1} for j in range(space.dim)})


def compose_maps(f: LinearMap, g: LinearMap) -> LinearMap:
    """f after g: f applied to each column of g."""
    return LinearMap(g.source, f.target, tuple(f.apply(col) for col in g.cols))


# ---------------------------------------------------------------------------
# unit bases and cohomology of one degree


def parity_units(g_space, h_space, sigs, parity=None):
    """``block_units`` over ``sigs`` of one map parity (all of them with ``parity=None``)."""
    return [u for u in block_units(g_space, h_space, sigs) if parity is None or u[4] == parity % 2]


def triple_units(g_space, h_space, n: int, parity=None):
    """Coordinate basis of the triple C^n: ``block_units`` over ``triple_blocks(n)``."""
    return parity_units(g_space, h_space, triple_blocks(n), parity)


def ch_units(g_space, h_space, n: int, parity=None):
    """Coordinate basis of Hom(wedge^n g, h): ``block_units`` over ``ch_blocks(n)``."""
    return parity_units(g_space, h_space, ch_blocks(n), parity)


def triple_cohomology(t: LieSupActTriple, n: int):
    """(even, odd) dimensions of the degree-n triple cohomology, read from its table."""
    row = triple_cohomology_table(t, range(n, n + 1))[n]
    return row[0], row[1]


def ch_cohomology(D: CrossedHom, n: int):
    """(even, odd) dimensions of the degree-n crossed-homomorphism cohomology, read from its table."""
    row = ch_cohomology_table(D, range(n, n + 1))[n]
    return row[0], row[1]


def embed_left(ds, vec):
    """A coordinate vector on the left summand of ``ds`` as one on the direct sum."""
    out = [F(0)] * ds.space.dim
    for i, pos in enumerate(ds.left_pos):
        out[pos] = vec[i]
    return tuple(out)


def embed_right(ds, vec):
    """A coordinate vector on the right summand of ``ds`` as one on the direct sum."""
    out = [F(0)] * ds.space.dim
    for i, pos in enumerate(ds.right_pos):
        out[pos] = vec[i]
    return tuple(out)


def split(ds, vec):
    """(left part, right part) of a coordinate vector on the direct sum ``ds``."""
    return tuple(vec[pos] for pos in ds.left_pos), tuple(vec[pos] for pos in ds.right_pos)


def aff11(labels=("e", "f")) -> SuperAlgebra:
    """One even, one odd generator with [e, f] = f."""
    space = GradedSpace((labels[0],), (labels[1],))
    return SuperAlgebra(space, {(0, 1): (F(0), F(1))})


def ad(A: SuperAlgebra, i: int) -> LinearMap:
    """Adjoint map of the i-th basis vector."""
    return LinearMap(A.space, A.space, tuple(A.bracket_basis(i, j) for j in range(A.dim)))


def parity_component(m: LinearMap, s: int) -> LinearMap:
    """The entries of m shifting parity by s; the rest zeroed."""
    cols = tuple(
        tuple(
            v if (m.target.parity(k) - m.source.parity(j)) % 2 == s % 2 else F(0)
            for k, v in enumerate(col)
        )
        for j, col in enumerate(m.cols)
    )
    return LinearMap(m.source, m.target, cols)


def super_commutator(f: LinearMap, g: LinearMap) -> LinearMap:
    """[f, g] = f g - (-1)^{|f||g|} g f of homogeneous maps."""
    pf, pg = f.parity(), g.parity()
    assert pf is not None and pg is not None, "super commutator needs homogeneous maps"
    return compose_maps(f, g).add(compose_maps(g, f).scale(1 if pf * pg % 2 else -1))


def _algebra(even, odd, brackets) -> SuperAlgebra:
    """A table from {(left, right): {label: coefficient}} on labels, left before right."""
    space = GradedSpace(even, odd)
    sc = {}
    for (a, b), value in brackets.items():
        vec = [F(0)] * space.dim
        for label, c in value.items():
            vec[space.index(label)] = F(c)
        sc[(space.index(a), space.index(b))] = tuple(vec)
    return SuperAlgebra(space, sc)


def sl2() -> SuperAlgebra:
    """sl(2): [h, e] = 2e, [h, f] = -2f, [e, f] = h."""
    return _algebra(("h", "e", "f"), (), {
        ("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1},
    })


def osp12() -> SuperAlgebra:
    """osp(1|2): sl(2) on h, e, f acting on the odd x, y as on its defining module,
    with [x, x] = 2e, [y, y] = -2f and [x, y] = h."""
    return _algebra(("h", "e", "f"), ("x", "y"), {
        ("h", "e"): {"e": 2}, ("h", "f"): {"f": -2}, ("e", "f"): {"h": 1},
        ("h", "x"): {"x": 1}, ("h", "y"): {"y": -1}, ("e", "y"): {"x": -1}, ("f", "x"): {"y": -1},
        ("x", "x"): {"e": 2}, ("y", "y"): {"f": -2}, ("x", "y"): {"h": 1},
    })


def heisenberg3() -> SuperAlgebra:
    """The Heisenberg algebra h_3: [x, y] = z, z central."""
    return _algebra(("x", "y", "z"), (), {("x", "y"): {"z": 1}})


def heisenberg(n: int) -> SuperAlgebra:
    """The Heisenberg algebra h_(2n+1): [x_i, y_i] = z for i = 1..n, z central."""
    xs = tuple(f"x{i}" for i in range(1, n + 1))
    ys = tuple(f"y{i}" for i in range(1, n + 1))
    return _algebra(xs + ys + ("z",), (), {(x, y): {"z": 1} for x, y in zip(xs, ys)})


def sl2_module(k: int) -> LieSupActTriple:
    """sl(2) on its irreducible V_k, h = V_k abelian with basis v_0..v_k:
    h v_j = (k - 2j) v_j, e v_j = j (k - j + 1) v_(j-1) and f v_j = v_(j+1)."""
    g = sl2()
    V = abelian(k + 1, 0, even_prefix="v")
    images = {
        "h": lambda j: {j: k - 2 * j},
        "e": lambda j: {j - 1: j * (k - j + 1)} if j > 0 else {},
        "f": lambda j: {j + 1: 1} if j < k else {},
    }
    table = [
        [tuple(F(images[x](j).get(i, 0)) for i in range(k + 1)) for j in range(k + 1)]
        for x in g.space.labels
    ]
    return LieSupActTriple(g, V, ActionMap(g.space, V.space, table))


def adjoint_triple(A: SuperAlgebra) -> LieSupActTriple:
    return LieSupActTriple(A, A, adjoint_action(A))


def solvable_triple() -> LieSupActTriple:
    """g = <x> abelian acting on h = <u> by rho(x)u = u."""
    g = abelian(1, 0, even_prefix="x")
    h = abelian(1, 0, even_prefix="u")
    return LieSupActTriple(g, h, ActionMap(g.space, h.space, [[(F(1),)]]))


def defining_triple(m: int, n: int) -> LieSupActTriple:
    """gl(m,n) acting on the abelian (m|n)-dimensional space it is built on."""
    G = gl(m, n)
    V = abelian(m, n, even_prefix="p", odd_prefix="q")
    d = m + n

    def side(p):
        return 0 if p < m else 1

    pairs = [(p, q) for p in range(d) for q in range(d) if side(p) == side(q)]
    pairs += [(p, q) for p in range(d) for q in range(d) if side(p) != side(q)]
    table = []
    for (p, q) in pairs:
        row = []
        for j in range(d):
            vec = list(zero_vec(d))
            if j == q:
                vec[p] = F(1)
            row.append(tuple(vec))
        table.append(row)
    return LieSupActTriple(G, V, ActionMap(G.space, V.space, table))


def mixed21_triple() -> LieSupActTriple:
    """(2|1)-dimensional solvable algebra acting on gl(1,1) through E11, E12."""
    gspace = GradedSpace(("e", "w"), ("z",))
    g = SuperAlgebra(
        gspace,
        {(0, 1): (F(0), F(1), F(0)), (0, 2): (F(0), F(0), F(1))},
    )
    h = gl(1, 1)
    phi = {0: h.space.index("E11"), 2: h.space.index("E12")}
    table = []
    for i in range(g.dim):
        if i in phi:
            table.append([h.bracket_basis(phi[i], j) for j in range(h.dim)])
        else:
            table.append([zero_vec(h.dim)] * h.dim)
    return LieSupActTriple(g, h, ActionMap(g.space, h.space, table))


def random_cochain(space, arity, rng, max_keys=2, bound=2) -> Cochain:
    """Sparse random cochain with entries in [-bound, bound]."""
    keys = list(wedge_basis(space, arity))
    rng.shuffle(keys)
    coeffs = {}
    for key in keys[: max_keys if keys else 0]:
        vec = tuple(F(rng.randint(-bound, bound)) for _ in range(space.dim))
        coeffs[key] = vec
    return Cochain(space, space, arity, coeffs)


def random_homogeneous_cochain(space, arity, parity, rng, max_keys=2, bound=2) -> Cochain:
    keys = list(wedge_basis(space, arity))
    rng.shuffle(keys)
    coeffs = {}
    for key in keys[:max_keys]:
        kp = sum(space.parities_of(key)) % 2
        vec = [F(0)] * space.dim
        hits = 0
        for k in range(space.dim):
            if (space.parity(k) + kp) % 2 == parity % 2:
                vec[k] = F(rng.randint(-bound, bound))
                hits += 1
        if hits:
            coeffs[key] = tuple(vec)
    return Cochain(space, space, arity, coeffs)


def random_block(g_space, h_space, g_arity, h_arity, side, rng, max_keys=2, bound=2) -> BlockCochain:
    gkeys = list(wedge_basis(g_space, g_arity))
    hkeys = list(wedge_basis(h_space, h_arity))
    pairs = [(gk, hk) for gk in gkeys for hk in hkeys]
    rng.shuffle(pairs)
    tdim = (g_space if side == "g" else h_space).dim
    coeffs = {}
    for key in pairs[:max_keys]:
        coeffs[key] = tuple(F(rng.randint(-bound, bound)) for _ in range(tdim))
    return BlockCochain(g_space, h_space, g_arity, h_arity, side, coeffs)


def random_parity_zero_map(source, target, rng, bound=2) -> LinearMap:
    cols = []
    for j in range(source.dim):
        pj = source.parity(j)
        cols.append(
            tuple(
                F(rng.randint(-bound, bound)) if target.parity(k) == pj else F(0)
                for k in range(target.dim)
            )
        )
    return LinearMap(source, target, tuple(cols))


SMALL_SPACES = (
    GradedSpace(("a",), ("b",)),
    GradedSpace(("a", "c"), ("b",)),
    GradedSpace(("a",), ("b", "d")),
    GradedSpace(("a", "c"), ("b", "d")),
)


def scaling_semidirect(p: int, q: int) -> SuperAlgebra:
    """gl(1,0) twisted onto abelian(p,q) by the identity action."""
    g = gl(1, 0)
    h = abelian(p, q, even_prefix="m", odd_prefix="n")
    table = [
        [
            tuple(F(1 if k == j else 0) for k in range(h.dim))
            for j in range(h.dim)
        ]
    ]
    return semidirect(g, h, ActionMap(g.space, h.space, table))


def random_valid_triple(rng) -> LieSupActTriple:
    """Valid triples drawn from the stock constructions."""
    kind = rng.randrange(6)
    if kind == 0:
        g = rng.choice((gl(1, 1), abelian(2, 1), aff11()))
        h = rng.choice((abelian(1, 1, even_prefix="u", odd_prefix="v"), gl(1, 1)))
        return LieSupActTriple(g, h, ActionMap.zero(g.space, h.space))
    if kind == 1:
        return adjoint_triple(rng.choice((aff11(), gl(1, 1))))
    if kind == 2:
        return defining_triple(*rng.choice(((1, 1), (1, 0), (0, 1))))
    if kind == 3:
        # one even generator acting diagonally on an abelian target
        g = abelian(1, 0, even_prefix="s")
        h = abelian(1, 1, even_prefix="u", odd_prefix="v")
        op = [
            tuple(F(rng.randint(-2, 2)) if k == j else F(0) for k in range(h.dim))
            for j in range(h.dim)
        ]
        return LieSupActTriple(g, h, ActionMap(g.space, h.space, [op]))
    if kind == 4:
        return adjoint_triple(scaling_semidirect(*rng.choice(((1, 1), (1, 0)))))
    return mixed21_triple()


def perturb_triple_data(t: LieSupActTriple, rng):
    """One parity-legal single-entry change in a bracket or action table.

    Only wedge-visible slots are touched (no even diagonal), so both the axiom
    checkers and the residual computation see the same candidate structure.
    """
    which = rng.randrange(3)
    if which in (0, 1):
        A = t.g if which == 0 else t.h
        keys = [
            (i, j)
            for i in range(A.dim)
            for j in range(i, A.dim)
            if not (i == j and A.space.parity(i) == 0)
        ]
        if not keys:
            return None
        i, j = rng.choice(keys)
        parity = (A.space.parity(i) + A.space.parity(j)) % 2
        slots = [k for k in range(A.dim) if A.space.parity(k) == parity]
        if not slots:
            return None
        slot = rng.choice(slots)
        sc = {k: list(v) for k, v in A.sc.items()}
        vec = sc.setdefault((i, j), [F(0)] * A.dim)
        vec[slot] += rng.choice((F(1), F(-1), F(2)))
        B = SuperAlgebra(A.space, {k: tuple(v) for k, v in sc.items()})
        return (B, t.h, t.rho) if which == 0 else (t.g, B, t.rho)
    g, h = t.g, t.h
    i = rng.randrange(g.dim)
    j = rng.randrange(h.dim)
    parity = (g.space.parity(i) + h.space.parity(j)) % 2
    slots = [k for k in range(h.dim) if h.space.parity(k) == parity]
    if not slots:
        return None
    slot = rng.choice(slots)
    table = [[list(v) for v in row] for row in t.rho.table]
    table[i][j][slot] += rng.choice((F(1), F(-1), F(2)))
    rho = ActionMap(g.space, h.space, [[tuple(v) for v in row] for row in table])
    return (g, h, rho)


def triple_axioms_ok(g, h, rho) -> bool:
    from supercochain.superalgebra import check_jacobi, check_super_skew
    from supercochain.triple import check_action

    return (
        check_super_skew(g).ok
        and check_jacobi(g).ok
        and check_super_skew(h).ok
        and check_jacobi(h).ok
        and check_action(g, h, rho).ok
    )


# ---------------------------------------------------------------------------
# diagonal rescaling e_i -> c_i e_i: an isomorphism that puts rational
# denominators into every table

RESCALINGS = tuple(F(s * n, d) for s in (1, -1) for n, d in ((1, 1), (2, 1), (1, 2), (3, 2)))


def draw_scales(space, rng):
    """One factor c_i in +-1, +-2, +-1/2, +-3/2 per basis vector of ``space``."""
    return tuple(rng.choice(RESCALINGS) for _ in range(space.dim))


def _scaled_vec(factor, vec, target):
    return tuple(factor * x / target[k] for k, x in enumerate(vec))


def _key_factor(key, scales):
    out = F(1)
    for i in key:
        out *= scales[i]
    return out


def rescale_cochain(c: Cochain, s) -> Cochain:
    """A cochain V -> V in the basis c_i e_i of V, ``s`` the factors c_i."""
    return Cochain(c.source, c.target, c.arity, {
        key: _scaled_vec(_key_factor(key, s), vec, s) for key, vec in c.coeffs.items()
    })


def _rescale_algebra(A: SuperAlgebra, s) -> SuperAlgebra:
    return SuperAlgebra(A.space, {
        key: _scaled_vec(_key_factor(key, s), vec, s) for key, vec in A.sc.items()
    })


def _rescale_action(rho: ActionMap, a, b) -> ActionMap:
    return ActionMap(rho.g_space, rho.h_space, [
        [_scaled_vec(a[i] * b[j], vec, b) for j, vec in enumerate(row)]
        for i, row in enumerate(rho.table)
    ])


def _rescale_map(m: LinearMap, a, b) -> LinearMap:
    return LinearMap(m.source, m.target, tuple(
        _scaled_vec(a[j], col, b) for j, col in enumerate(m.cols)
    ))


def rescale_triple(t: LieSupActTriple, a, b) -> LieSupActTriple:
    """The triple in the bases a_i g_i and b_j h_j: the same structure up to isomorphism."""
    return LieSupActTriple(_rescale_algebra(t.g, a), _rescale_algebra(t.h, b), _rescale_action(t.rho, a, b))


def rescale_crossed(D: CrossedHom, a, b) -> CrossedHom:
    return CrossedHom(rescale_triple(D.triple, a, b), _rescale_map(D.linmap, a, b))


def rescale_deformation(d: TripleDeformation, a, b) -> TripleDeformation:
    """Every coefficient (pi_k, rho_k, mu_k) rescaled like the base triple."""
    return TripleDeformation.build(
        rescale_triple(d.triple, a, b),
        [rescale_cochain(c, a) for c in d.pis[1:]],
        [_rescale_action(r, a, b) for r in d.rhos[1:]],
        [rescale_cochain(c, b) for c in d.mus[1:]],
        order=d.order,
    )


def rescale_ch_deformation(d: CrossedHomDeformation, a, b) -> CrossedHomDeformation:
    return CrossedHomDeformation.build(
        rescale_crossed(d.crossed, a, b), [_rescale_map(m, a, b) for m in d.maps[1:]], order=d.order
    )


# ---------------------------------------------------------------------------
# triangular change of basis mixed within each parity: an isomorphism whose new
# basis vectors are sums of several old ones of one parity

REBASE_DIAGONAL = (1, 2, 3, -2)


def rebasing(space):
    """Coordinate columns of a new basis of ``space``, upper triangular: column j has the
    diagonal entry REBASE_DIAGONAL[j mod 4] and +-1 on each earlier basis vector of its parity."""
    pars = space.parities
    return tuple(
        tuple(
            F(REBASE_DIAGONAL[j % 4]) if i == j else F((-1) ** (i + j)) if i < j and pars[i] == pars[j] else F(0)
            for i in range(space.dim)
        )
        for j in range(space.dim)
    )


def _new_coords(M, vec):
    """Coordinates on the basis with upper-triangular columns ``M`` of a vector in the old basis."""
    x = [F(0)] * len(vec)
    for i in reversed(range(len(vec))):
        x[i] = (vec[i] - sum(M[k][i] * x[k] for k in range(i + 1, len(vec)))) / M[i][i]
    return tuple(x)


def _rebase_algebra(A: SuperAlgebra, M) -> SuperAlgebra:
    return SuperAlgebra(A.space, {
        (a, b): _new_coords(M, A.bracket_eval(M[a], M[b])) for a in range(A.dim) for b in range(a, A.dim)
    })


def rebase_triple(t: LieSupActTriple, Mg, Mh) -> LieSupActTriple:
    """The triple in the bases with coordinate columns ``Mg`` of g and ``Mh`` of h (see
    ``rebasing``): the same structure up to isomorphism."""
    rho = ActionMap(t.g.space, t.h.space, [[_new_coords(Mh, t.rho.apply(x, u)) for u in Mh] for x in Mg])
    return LieSupActTriple(_rebase_algebra(t.g, Mg), _rebase_algebra(t.h, Mh), rho)


def rebase_crossed(D: CrossedHom, Mg, Mh) -> CrossedHom:
    """D in the same bases: the map M_h^-1 D M_g of the rebased triple."""
    f = D.linmap
    m = LinearMap(f.source, f.target, tuple(_new_coords(Mh, f.apply(x)) for x in Mg))
    return CrossedHom(rebase_triple(D.triple, Mg, Mh), m)


def residual(d, n):
    """The order-n report of the deformation ``d``: its series read at order n alone."""
    return d.series().residuals((n,))[0]


def infinitesimal(d):
    """The infinitesimal of the deformation ``d``, checked against its residuals."""
    series = d.series()
    return series.infinitesimal(series.residuals())
