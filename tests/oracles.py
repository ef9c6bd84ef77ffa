"""Brute-force oracles, independent of the wedge/shuffle/hat pipeline.

Cochains live here as raw coefficient tables over *all* basis tuples.  The
invariant subspace is spanned by full symmetrizations of elementary tables;
the insertion product is the average of the starred composite over the whole
symmetric group divided by the block redundancy; differentials are assembled
by direct evaluation of those raw brackets at basis tuples and the resulting
matrices go through the exact rank/kernel engine.

The per-unit reference path (one ``nr_bracket`` per basis cochain, then the
hat projection back to block coordinates) and the closed double-shuffle form
of the crossed-homomorphism bracket live here too: they reuse the pipeline's
cochains but none of its direct matrix assembly.
"""

import itertools
import math
from fractions import Fraction as F

from supercochain.cochains import BlockCochain
from supercochain.exact_linalg import Matrix
from supercochain.graded import direct_sum, koszul_sign, shuffles, wedge_basis
from supercochain.triple import (
    TripleCochain,
    coboundary_of,
    triple_blocks,
    triple_cochain_vector,
    triple_units,
)
from supercochain.crossed import ChComplex, block_vector, ch_units
from supercochain.util import vec_add, vec_is_zero, vec_scale, zero_vec


def all_perms(n):
    return [tuple(p) for p in itertools.permutations(range(n))]


def sym_table(space, key, t):
    """Full symmetrization of the elementary table supported at (key, e_t)."""
    n = len(key)
    dim = space.dim
    out = {}
    for sigma in all_perms(n):
        inv = [0] * n
        for i, v in enumerate(sigma):
            inv[v] = i
        X = tuple(key[inv[i]] for i in range(n))
        sign = koszul_sign(sigma, space.parities_of(X))
        vec = [F(0)] * dim
        vec[t] = F(sign)
        cur = out.get(X)
        out[X] = vec_add(cur, tuple(vec)) if cur is not None else tuple(vec)
    return {k: v for k, v in out.items() if not vec_is_zero(v)}


def stabilizer_size(key):
    counts = {}
    for x in key:
        counts[x] = counts.get(x, 0) + 1
    size = 1
    for c in counts.values():
        size *= math.factorial(c)
    return size


def table_eval(table, X, dim):
    vec = table.get(tuple(X))
    return vec if vec is not None else zero_vec(dim)


def raw_circ_eval(Ftab, aF, Gtab, aG, g_parity, space, X):
    """(F o G)(X) by symmetrizing the starred composite over all permutations."""
    N = aF + aG - 1
    assert len(X) == N
    nF = aF - 1
    dim = space.dim
    pars = space.parities
    px = tuple(pars[i] for i in X)
    total = None
    for sigma in all_perms(N):
        Y = tuple(X[sigma[i]] for i in range(N))
        sign = koszul_sign(sigma, px)
        if g_parity and sum(pars[y] for y in Y[:nF]) % 2:
            sign = -sign
        inner = table_eval(Gtab, Y[nF:], dim)
        if vec_is_zero(inner):
            continue
        for k, c in enumerate(inner):
            if c == 0:
                continue
            fv = table_eval(Ftab, Y[:nF] + (k,), dim)
            if vec_is_zero(fv):
                continue
            term = vec_scale(fv, F(sign) * c)
            total = term if total is None else vec_add(total, term)
    if total is None:
        return zero_vec(dim)
    red = math.factorial(nF) * math.factorial(aG)
    return vec_scale(total, F(1, red))


def raw_bracket_eval(Ftab, aF, f_parity, Gtab, aG, g_parity, space, X):
    first = raw_circ_eval(Ftab, aF, Gtab, aG, g_parity, space, X)
    second = raw_circ_eval(Gtab, aG, Ftab, aF, f_parity, space, X)
    sign = F(-1 if ((aF - 1) * (aG - 1) + f_parity * g_parity) % 2 == 0 else 1)
    return vec_add(first, vec_scale(second, sign))


def raw_structure_table(t):
    """Pi as a raw arity-2 table on g + h, assembled from the three tables."""
    ds = direct_sum(t.g.space, t.h.space)
    dim = ds.space.dim
    out = {}
    for i in range(dim):
        side_i, li = ds.side_of[i]
        for j in range(dim):
            side_j, lj = ds.side_of[j]
            if side_i == "g" and side_j == "g":
                vec = ds.embed_left(t.g.bracket_basis(li, lj))
            elif side_i == "h" and side_j == "h":
                vec = ds.embed_right(t.h.bracket_basis(li, lj))
            elif side_i == "g":
                vec = ds.embed_right(t.rho.value(li, lj))
            else:
                sign = F(-1 if (ds.space.parity(i) * ds.space.parity(j)) % 2 == 0 else 1)
                vec = ds.embed_right(vec_scale(t.rho.value(lj, li), sign))
            if not vec_is_zero(vec):
                out[(i, j)] = vec
    return out


def pi_rho_table(t):
    """pi + rho only (the h-h block left out)."""
    ds = direct_sum(t.g.space, t.h.space)
    out = {}
    for key, vec in raw_structure_table(t).items():
        sides = {ds.side_of[k][0] for k in key}
        if sides == {"h"}:
            continue
        out[key] = vec
    return out


def mu_table(t):
    ds = direct_sum(t.g.space, t.h.space)
    out = {}
    for key, vec in raw_structure_table(t).items():
        sides = {ds.side_of[k][0] for k in key}
        if sides == {"h"}:
            out[key] = vec
    return out


def _unit_sum_key_and_target(ds, unit_blocks, unit):
    b, gk, hk, tpos, parity = unit
    ga, ha, side = unit_blocks[b]
    key = tuple(ds.left_pos[i] for i in gk) + tuple(ds.right_pos[j] for j in hk)
    t_sum = (ds.left_pos if side == "g" else ds.right_pos)[tpos]
    return key, t_sum, parity


def triple_oracle_matrix(t, n, parity):
    """Raw-table matrix of the degree-n differential of the triple complex."""
    ds = direct_sum(t.g.space, t.h.space)
    space = ds.space
    blocks_n = triple_blocks(n)
    blocks_n1 = triple_blocks(n + 1)
    cols = triple_units(t.g.space, t.h.space, n, parity)
    rows = triple_units(t.g.space, t.h.space, n + 1, parity)
    Pi = raw_structure_table(t)
    row_meta = [_unit_sum_key_and_target(ds, blocks_n1, u) for u in rows]
    columns = []
    for unit in cols:
        key, t_sum, up = _unit_sum_key_and_target(ds, blocks_n, unit)
        Ftab = sym_table(space, key, t_sum)
        col = []
        for rkey, r_t, _ in row_meta:
            val = raw_bracket_eval(Pi, 2, 0, Ftab, n, up, space, rkey)
            col.append(val[r_t] / stabilizer_size(rkey))
        columns.append(col)
    return Matrix.from_cols(columns, len(rows))


def triple_oracle_cohomology(t, n):
    """(even, odd) cohomology dims computed entirely from raw tables."""
    from supercochain.exact_linalg import cohomology_dims

    dims = []
    for parity in (0, 1):
        d_out = triple_oracle_matrix(t, n, parity)
        if n == 1:
            d_in = Matrix.zeros(len(triple_units(t.g.space, t.h.space, 1, parity)), 0)
        else:
            d_in = triple_oracle_matrix(t, n - 1, parity)
        dims.append(cohomology_dims(d_in, d_out))
    return tuple(dims)


def _materialize_bracket(Ftab, aF, fp, Gtab, aG, gp, space):
    N = aF + aG - 1
    out = {}
    for X in itertools.product(range(space.dim), repeat=N):
        val = raw_bracket_eval(Ftab, aF, fp, Gtab, aG, gp, space, X)
        if not vec_is_zero(val):
            out[X] = val
    return out


def ch_oracle_matrix(D, n, parity):
    """Raw-table matrix of the twisted differential on Hom(wedge^n g, h)."""
    t = D.triple
    ds = direct_sum(t.g.space, t.h.space)
    space = ds.space
    PR = pi_rho_table(t)
    MU = mu_table(t)
    Dtab = {
        (ds.left_pos[i],): ds.embed_right(col)
        for i, col in enumerate(D.linmap.cols)
        if not vec_is_zero(col)
    }
    A = _materialize_bracket(MU, 2, 0, Dtab, 1, 0, space)
    cols = ch_units(t.g.space, t.h.space, n, parity)
    rows = ch_units(t.g.space, t.h.space, n + 1, parity)
    row_meta = [
        (tuple(ds.left_pos[i] for i in gk), ds.right_pos[tpos]) for gk, tpos, _ in rows
    ]
    columns = []
    for gk, tpos, up in cols:
        key = tuple(ds.left_pos[i] for i in gk)
        Ftab = sym_table(space, key, ds.right_pos[tpos])
        col = []
        for rkey, r_t in row_meta:
            val = vec_add(
                raw_bracket_eval(PR, 2, 0, Ftab, n, up, space, rkey),
                raw_bracket_eval(A, 2, 0, Ftab, n, up, space, rkey),
            )
            col.append(val[r_t] / stabilizer_size(rkey))
        columns.append(col)
    return Matrix.from_cols(columns, len(rows))


def ch_oracle_cohomology(D, n):
    from supercochain.exact_linalg import cohomology_dims

    t = D.triple
    dims = []
    for parity in (0, 1):
        d_out = ch_oracle_matrix(D, n, parity)
        if n == 1:
            d_in = Matrix.zeros(len(ch_units(t.g.space, t.h.space, 1, parity)), 0)
        else:
            d_in = ch_oracle_matrix(D, n - 1, parity)
        dims.append(cohomology_dims(d_in, d_out))
    return tuple(dims)


def naive_circ_table(Fc, Gc):
    """Full-symmetrization insertion product of two pipeline cochains.

    Returns (raw table over all tuples, redundancy factor): the table is the
    plain sum over the whole symmetric group, so table / redundancy should
    match the pipeline's shuffle-sum product everywhere.
    """
    space = Fc.source
    N = Fc.arity + Gc.arity - 1
    nF = Fc.arity - 1
    out = {}
    for Gp, gpar in Gc.parity_parts():
        Gtab = {}
        for X in itertools.product(range(space.dim), repeat=Gc.arity):
            v = Gp.eval(X)
            if not vec_is_zero(v):
                Gtab[X] = v
        Ftab = {}
        for X in itertools.product(range(space.dim), repeat=Fc.arity):
            v = Fc.eval(X)
            if not vec_is_zero(v):
                Ftab[X] = v
        for X in itertools.product(range(space.dim), repeat=N):
            px = space.parities_of(X)
            total = None
            for sigma in all_perms(N):
                Y = tuple(X[sigma[i]] for i in range(N))
                sign = koszul_sign(sigma, px)
                if gpar and sum(space.parities[y] for y in Y[:nF]) % 2:
                    sign = -sign
                inner = Gtab.get(Y[nF:])
                if inner is None:
                    continue
                for k, c in enumerate(inner):
                    if c == 0:
                        continue
                    fv = Ftab.get(Y[:nF] + (k,))
                    if fv is None:
                        continue
                    term = vec_scale(fv, F(sign) * c)
                    total = term if total is None else vec_add(total, term)
            if total is not None and not vec_is_zero(total):
                cur = out.get(X)
                out[X] = vec_add(cur, total) if cur is not None else total
    return out, math.factorial(nF) * math.factorial(Gc.arity)


def invariant_form_dimension(space, n):
    """Dimension of sign-invariant n-linear forms, by symmetrizing every table."""
    rows = []
    tuples = list(itertools.product(range(space.dim), repeat=n))
    index = {X: i for i, X in enumerate(tuples)}
    for key in tuples:
        table = sym_table(GradedSpaceScalar(space), key, 0)
        row = [F(0)] * len(tuples)
        for X, vec in table.items():
            row[index[X]] = vec[0]
        if any(row):
            rows.append(row)
    if not rows:
        return 0
    from supercochain.exact_linalg import rank

    return rank(Matrix.from_rows(rows))


class GradedSpaceScalar:
    """Adapter: reuse sym_table for scalar-valued forms on an arbitrary space."""

    def __init__(self, space):
        self._space = space
        self.dim = 1

    def parities_of(self, slots):
        return self._space.parities_of(slots)


def unit_triple_cochain(g_space, h_space, n, unit) -> TripleCochain:
    """The basis cochain of C^n named by one ``triple_units`` entry."""
    b, gk, hk, t, _ = unit
    sigs = triple_blocks(n)
    ga, ha, side = sigs[b]
    tdim = (g_space if side == "g" else h_space).dim
    vec = [F(0)] * tdim
    vec[t] = F(1)
    block = BlockCochain(g_space, h_space, ga, ha, side, {(gk, hk): tuple(vec)})
    return TripleCochain.from_blocks(g_space, h_space, n, {sigs[b]: block})


def triple_reference_matrix(t, n, parity):
    """Degree-n triple differential, one ``coboundary_of`` per unit column."""
    gs, hs = t.g.space, t.h.space
    cols = triple_units(gs, hs, n, parity)
    rows = triple_units(gs, hs, n + 1, parity)
    columns = [
        triple_cochain_vector(coboundary_of(t, unit_triple_cochain(gs, hs, n, u)), rows)
        for u in cols
    ]
    return Matrix.from_cols(columns, len(rows))


def unit_ch_block(g_space, h_space, n, unit):
    """The basis cochain of Hom(wedge^n g, h) named by one ``ch_units`` entry."""
    gk, t, _ = unit
    vec = [F(0)] * h_space.dim
    vec[t] = F(1)
    return BlockCochain(g_space, h_space, n, 0, "h", {(gk, ()): tuple(vec)})


def ch_reference_matrix(D, n, parity):
    """Degree-n twisted differential, one ``ChComplex.d_D`` per unit column."""
    t = D.triple
    gs, hs = t.g.space, t.h.space
    cc = ChComplex(t)
    D_block = D.as_block()
    cols = ch_units(gs, hs, n, parity)
    rows = ch_units(gs, hs, n + 1, parity)
    columns = [block_vector(cc.d_D(D_block, unit_ch_block(gs, hs, n, u)), rows) for u in cols]
    return Matrix.from_cols(columns, len(rows))


def ch_bracket_closed(t, f1, f2):
    """[[f1, f2]] from the closed double-shuffle formula.

        [[f1, f2]](X) = sum over (m,n)-shuffles of
            koszul_sign * (-1)^(s * parity of the first m shuffled entries)
            * mu(f1(shuffled head), f2(shuffled tail)),         s = parity of f2.
    """
    gspace, h = t.g.space, t.h
    m, n = f1.g_arity, f2.g_arity
    shs = shuffles((m, n))
    pars = gspace.parities
    out = {}
    for f2p, s in f2.parity_parts():
        for X in wedge_basis(gspace, m + n):
            px = tuple(pars[i] for i in X)
            acc = None
            for sigma in shs:
                sign = koszul_sign(sigma, px)
                if s and sum(px[sigma[i]] for i in range(m)) % 2:
                    sign = -sign
                head = tuple(X[sigma[i]] for i in range(m))
                tail = tuple(X[sigma[i]] for i in range(m, m + n))
                v1 = f1.eval(head, ())
                if vec_is_zero(v1):
                    continue
                v2 = f2p.eval(tail, ())
                if vec_is_zero(v2):
                    continue
                term = vec_scale(h.bracket_eval(v1, v2), F(sign))
                acc = term if acc is None else vec_add(acc, term)
            if acc is not None and not vec_is_zero(acc):
                cur = out.get((X, ()))
                out[(X, ())] = vec_add(cur, acc) if cur is not None else acc
    return BlockCochain(gspace, h.space, m + n, 0, "h", out)
