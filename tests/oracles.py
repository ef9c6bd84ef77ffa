"""Brute-force oracles, independent of the library's bracket expansion and block maps.

Cochains live here as raw coefficient tables over *all* basis tuples.  The
invariant subspace is spanned by full symmetrizations of elementary tables;
the insertion product is the average of the starred composite over the whole
symmetric group divided by the block redundancy; differentials are assembled
by direct evaluation of those raw brackets at basis tuples and the resulting
matrices go through the exact rank/kernel engine.

The shuffle-sum insertion product and bracket (``shuffle_circ``,
``shuffle_nr_bracket``) live here too: they sum Koszul-signed shuffles over a
whole wedge basis and read none of the library's unit expansion.  The
per-unit reference path (one ``shuffle_nr_bracket`` per basis cochain, then
the hat projection back to block coordinates), the [mu, D] of the twisted
differential, the closed double-shuffle form of the crossed-homomorphism
bracket and the dense deformation residual use only them.  So do the
shuffle-sum hat extension and the whole-basis block projection, which read
no ``block_key``.

So do the dense axiom checks, the graph criterion and the deformation
residuals: every term is a dense coordinate vector of ``Fraction``s pushed
through the ``cols`` of a ``LinearMap`` (``dense_apply``, ``dense_compose``)
and a dense bilinear bracket read from ``bracket_basis``, with none of the
sparse int tables and common denominators the library checks read.
``dense_apply`` is the reference for ``LinearMap.apply`` too, and
``dense_is_homomorphism`` decides whether a map is an algebra homomorphism.

So does the dense exact rank and kernel: every row of every matrix is read
in full, scaled to integers and reduced by Bareiss elimination in leftmost
column order, with no sparse storage or pivot choice.  ``uncleared_rank`` is
the sparse rank as it was before clearing and orientation: every column
kept, rows as the lines, on the library's own ``_eliminate``.

So do the hand-assembled derivation system and the four-case semidirect
table, each with its own Koszul sign: the library reads both from the
structure element Pi and its complex.  So do the four component brackets of
the Maurer-Cartan residual (``mc_residual_components_reference``, shuffle
sums only): the library projects the one self-bracket [Pi, Pi].

The per-unit assembly (``unit_image``, ``per_unit_matrix``) is the one
reference here that reads the library's own pieces, ``_bracket_support``,
``_multiplicity`` and ``shuffle``: it expands [P, U] unit by unit, every
shuffle and every circ(U, P) term redone for each unit, as the library did
before it expanded all units of one key at once.  So it checks the sharing
per key of ``bracket_matrix``, entry for entry; the signs themselves are
checked against the shuffle sums above.

The permutation form of the Koszul sign (``koszul_sign``: the signature
times (-1) to the odd inversions) is the reference for the library's one
sign path, the inversion counts of ``graded.normalize_tuple`` and
``graded.shuffle``; ``f_membership`` tests the block support of a cochain on
g + h; ``cohomology_dims`` gives one degree of a complex from its two
differentials, for the per-degree oracle cohomology.

``argparse_parser`` is the command line as ``cli.main`` read it through
``argparse`` before its own parser: the same positionals and options, with
argparse's defaults (``allow_abbrev`` on).
"""

import argparse
import functools
import heapq
import itertools
import math
from fractions import Fraction as F

from supercochain import exact_linalg
from supercochain.cochains import BlockCochain, Cochain, _multiplicity, hat_extend, project_block
from supercochain.errors import ArityMismatch, DimensionMismatch, InternalInvariantError, InvalidAction
from supercochain.errors import SpaceMismatch, ValidationError
from supercochain.exact_linalg import Matrix
from supercochain.graded import DirectSum, normalize_tuple, shuffle, wedge_basis
from supercochain.triple import check_action as triple_check_action
from supercochain.triple import (
    McResidual,
    mc_element,
    mu_block,
    pi_block,
    triple_blocks,
)
from supercochain.crossed import ch_blocks
from supercochain.superalgebra import CheckReport, Failure, LinearMap, SuperAlgebra
from supercochain.superalgebra import check_jacobi as superalgebra_check_jacobi

from helpers import ch_units, embed_left, embed_right, matrix_from_cols, matrix_from_rows, matrix_row, split
from helpers import parity_units, triple_units, vec_is_zero, zero_matrix, zero_vec


# ---------------------------------------------------------------------------
# the permutation form of the Koszul sign
#
# A permutation ``sigma`` is a tuple of 0-based images: ``sigma[i]`` is where
# position ``i`` is sent, and ``compose(s, t)[i] == s[t[i]]`` (apply ``t``
# first).  It acts on an argument tuple by ``(sigma . X)[i] = X[inv(sigma)[i]]``,
# so ``inverse_act(sigma, X)[i] = X[sigma[i]]`` is the tuple the
# multiplicativity law feeds to the second factor.  ``koszul_K(sigma,
# parities)`` counts the inversions of ``sigma`` whose two moved entries are
# both odd; ``koszul_sign`` is the signature times ``(-1)**K``.  The
# composition law ``koszul_sign(s*t, X) == koszul_sign(s, X) * koszul_sign(t,
# inverse_act(s, X))`` is what makes the symmetric group act on multilinear
# maps; the tests pin it exhaustively for small n, and the library's
# inversion counts (``graded.normalize_tuple`` and ``graded.shuffle``) against
# it.


def compose(outer, inner):
    """Composite permutation applying ``inner`` first, then ``outer``."""
    if len(outer) != len(inner):
        raise ArityMismatch("permutation degrees differ")
    return tuple(outer[inner[i]] for i in range(len(inner)))


def inverse_act(sigma, values):
    """inverse(sigma) . X, i.e. slot i receives X[sigma[i]]."""
    return tuple(values[sigma[i]] for i in range(len(sigma)))


def perm_signature(sigma) -> int:
    n = len(sigma)
    inv = 0
    for i in range(n):
        si = sigma[i]
        for j in range(i + 1, n):
            if sigma[j] < si:
                inv += 1
    return -1 if inv & 1 else 1


def koszul_K(sigma, parities) -> int:
    """Number of inversions of sigma moving two odd entries past each other."""
    parities = tuple(parities)
    if len(sigma) != len(parities):
        raise ArityMismatch(f"permutation degree {len(sigma)} != parity vector length {len(parities)}")
    count = 0
    n = len(sigma)
    for i in range(n):
        si = sigma[i]
        if parities[si] == 0:
            continue
        for j in range(i + 1, n):
            sj = sigma[j]
            if sj < si and parities[sj] == 1:
                count += 1
    return count


def koszul_sign(sigma, parities) -> int:
    """The signature of sigma times (-1) to ``koszul_K(sigma, parities)``."""
    k = koszul_K(sigma, parities)
    return perm_signature(sigma) * (-1 if k & 1 else 1)


@functools.lru_cache(maxsize=None)
def shuffles(block_sizes: tuple):
    """All permutations increasing within each consecutive block, lex order.

    Returned permutations are images tuples; the count is the multinomial
    coefficient of ``block_sizes``.
    """
    blocks = tuple(int(b) for b in block_sizes)
    if any(b < 0 for b in blocks):
        raise ValidationError("block sizes must be >= 0")
    n = sum(blocks)
    results = []

    def assign(remaining, blocks_left, acc):
        if not blocks_left:
            results.append(tuple(acc))
            return
        size = blocks_left[0]
        for chosen in itertools.combinations(remaining, size):
            rest = tuple(x for x in remaining if x not in chosen)
            assign(rest, blocks_left[1:], acc + list(chosen))

    assign(tuple(range(n)), blocks, [])
    return tuple(results)


def _require_endo_pair(Fc, Gc):
    if Fc.source != Fc.target or Gc.source != Gc.target or Fc.source != Gc.source:
        raise SpaceMismatch("insertion product needs cochains on one space V -> V")


def evaluator(c: Cochain):
    """slots -> value of ``c``, read from one ``coeffs`` view (``Cochain.eval`` builds the
    ``Fraction`` tuple on every call)."""
    coeffs, zero = c.coeffs, zero_vec(c.target.dim)

    def value(slots):
        key, sign = normalize_tuple(c.source, slots)
        vec = coeffs.get(key) if sign else None
        return zero if vec is None else vec if sign == 1 else vec_scale(vec, -1)

    return value


def shuffle_circ(Fc, Gc):
    """Insertion product: shuffle-sum over G plugged into the last slot of F.

    For homogeneous G of parity g the summand on an argument tuple Y is
    (-1)^(g * (parity of the first weight-of-F entries)) F(Y_head, G(Y_tail));
    summing over the (weight, arity-of-G) shuffles with Koszul signs lands back
    in the wedge-invariant maps.  Mixed G is handled per parity part.
    """
    _require_endo_pair(Fc, Gc)
    V = Fc.source
    nF = Fc.arity - 1
    N = Fc.arity + Gc.arity - 1
    out = {}
    if Fc.is_zero() or Gc.is_zero():
        return Cochain.zero(V, V, N)
    shs = shuffles((nF, Gc.arity))
    pars = V.parities
    keys = wedge_basis(V, N)
    f_at = evaluator(Fc)
    for Gpart, gpar in Gc.parity_parts():
        g_at = evaluator(Gpart)
        for X in keys:
            px = tuple(pars[i] for i in X)
            acc = None
            for sigma in shs:
                sign = koszul_sign(sigma, px)
                Y = tuple(X[sigma[i]] for i in range(N))
                if gpar and sum(px[sigma[i]] for i in range(nF)) % 2:
                    sign = -sign
                inner = g_at(Y[nF:])
                head = Y[:nF]
                for k, c in enumerate(inner):
                    if c == 0:
                        continue
                    fv = f_at(head + (k,))
                    if vec_is_zero(fv):
                        continue
                    term = vec_scale(fv, sign * c)
                    acc = term if acc is None else vec_add(acc, term)
            if acc is not None and not vec_is_zero(acc):
                cur = out.get(X)
                out[X] = vec_add(cur, acc) if cur is not None else acc
    return Cochain(V, V, N, out)


def shuffle_nr_bracket(Fc, Gc):
    """Graded commutator of ``shuffle_circ``, bilinear over parity parts."""
    _require_endo_pair(Fc, Gc)
    V = Fc.source
    nF, nG = Fc.arity - 1, Gc.arity - 1
    total = Cochain.zero(V, V, Fc.arity + Gc.arity - 1)
    for Gpart, g in Gc.parity_parts():
        total = total.add(shuffle_circ(Fc, Gpart))
        for Fpart, f in Fc.parity_parts():
            sign = F(-1 if (nF * nG + f * g) % 2 == 0 else 1)
            total = total.add(shuffle_circ(Gpart, Fpart).scale(sign))
    return total


def hat_extend_reference(block):
    """Extension of a block map to g + h, one Koszul-signed block shuffle per key.

    Walks every normal-form key of wedge^N(g + h); a key with exactly
    g_arity g entries takes the block value times the Koszul sign of the
    shuffle pulling its g entries to the front in order.
    """
    ds = DirectSum(block.g_space, block.h_space)
    V = ds.space
    N = block.g_arity + block.h_arity
    pars = V.parities
    embed = functools.partial(embed_left if block.target_side == "g" else embed_right, ds)
    coeffs = block.coeffs
    out = {}
    for X in wedge_basis(V, N):
        g_sub, h_sub, g_idx, h_idx = [], [], [], []
        for idx, pos in enumerate(X):
            side, local = ds.side_of[pos]
            if side == "g":
                g_sub.append(local)
                g_idx.append(idx)
            else:
                h_sub.append(local)
                h_idx.append(idx)
        if len(g_sub) != block.g_arity:
            continue
        vec = coeffs.get((tuple(g_sub), tuple(h_sub)))
        if vec is None:
            continue
        sigma = tuple(g_idx + h_idx)
        sign = koszul_sign(sigma, tuple(pars[i] for i in X))
        out[X] = embed(vec_scale(vec, F(sign)))
    return Cochain(V, V, N, out)


def f_membership(Fc: Cochain, ds) -> bool:
    """Support test for the subalgebra of structure-carrying maps on g + h.

    True when every all-g tuple maps into g and every tuple containing at
    least one h entry maps into h.
    """
    if Fc.source != ds.space or Fc.target != ds.space:
        raise SpaceMismatch("cochain does not live on the given direct sum")
    side_of = ds.side_of
    for key, row in Fc.ints.items():
        side = "h" if any(side_of[pos][0] == "h" for pos in key) else "g"
        if any(side_of[t][0] != side for t in row):
            return False
    return True


def project_block_reference(Fc, ds, g_arity, h_arity, target_side):
    """One block of a cochain on g + h, by evaluating it on every block key pair."""
    coeffs = {}
    for gk in wedge_basis(ds.left, g_arity):
        g_slots = tuple(ds.left_pos[i] for i in gk)
        for hk in wedge_basis(ds.right, h_arity):
            slots = g_slots + tuple(ds.right_pos[j] for j in hk)
            part = split(ds, Fc.eval(slots))[0 if target_side == "g" else 1]
            if not vec_is_zero(part):
                coeffs[(gk, hk)] = part
    return BlockCochain(ds.left, ds.right, g_arity, h_arity, target_side, coeffs)


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
    ds = DirectSum(t.g.space, t.h.space)
    dim = ds.space.dim
    out = {}
    for i in range(dim):
        side_i, li = ds.side_of[i]
        for j in range(dim):
            side_j, lj = ds.side_of[j]
            if side_i == "g" and side_j == "g":
                vec = embed_left(ds, t.g.bracket_basis(li, lj))
            elif side_i == "h" and side_j == "h":
                vec = embed_right(ds, t.h.bracket_basis(li, lj))
            elif side_i == "g":
                vec = embed_right(ds, t.rho.value(li, lj))
            else:
                sign = F(-1 if (ds.space.parity(i) * ds.space.parity(j)) % 2 == 0 else 1)
                vec = embed_right(ds, vec_scale(t.rho.value(lj, li), sign))
            if not vec_is_zero(vec):
                out[(i, j)] = vec
    return out


def pi_rho_table(t):
    """pi + rho only (the h-h block left out)."""
    ds = DirectSum(t.g.space, t.h.space)
    out = {}
    for key, vec in raw_structure_table(t).items():
        sides = {ds.side_of[k][0] for k in key}
        if sides == {"h"}:
            continue
        out[key] = vec
    return out


def mu_table(t):
    ds = DirectSum(t.g.space, t.h.space)
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
    ds = DirectSum(t.g.space, t.h.space)
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
    return matrix_from_cols(columns, len(rows))


def cohomology_dims(d_in, d_out) -> int:
    """dim ker(d_out) - rank(d_in) for one degree of a cochain complex, the per-degree
    form of ``exact_linalg.cohomology_table``, with its d.d and rank-nullity checks."""
    exact_linalg._require_composite_zero(d_in, d_out)
    return exact_linalg._cohomology_dim(d_out, exact_linalg.rank(d_out), exact_linalg.rank(d_in))


def triple_oracle_cohomology(t, n):
    """(even, odd) cohomology dims computed entirely from raw tables."""
    dims = []
    for parity in (0, 1):
        d_out = triple_oracle_matrix(t, n, parity)
        if n == 1:
            d_in = zero_matrix(len(triple_units(t.g.space, t.h.space, 1, parity)), 0)
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
    ds = DirectSum(t.g.space, t.h.space)
    space = ds.space
    PR = pi_rho_table(t)
    MU = mu_table(t)
    Dtab = {
        (ds.left_pos[i],): embed_right(ds, col)
        for i, col in enumerate(D.linmap.cols)
        if not vec_is_zero(col)
    }
    A = _materialize_bracket(MU, 2, 0, Dtab, 1, 0, space)
    cols = ch_units(t.g.space, t.h.space, n, parity)
    rows = ch_units(t.g.space, t.h.space, n + 1, parity)
    row_meta = [
        (tuple(ds.left_pos[i] for i in gk), ds.right_pos[tpos]) for _, gk, _, tpos, _ in rows
    ]
    columns = []
    for _, gk, _, tpos, up in cols:
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
    return matrix_from_cols(columns, len(rows))


def ch_oracle_cohomology(D, n):
    t = D.triple
    dims = []
    for parity in (0, 1):
        d_out = ch_oracle_matrix(D, n, parity)
        if n == 1:
            d_in = zero_matrix(len(ch_units(t.g.space, t.h.space, 1, parity)), 0)
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
    return exact_linalg.rank(matrix_from_rows(rows))


class GradedSpaceScalar:
    """Adapter: reuse sym_table for scalar-valued forms on an arbitrary space."""

    def __init__(self, space):
        self._space = space
        self.dim = 1

    def parities_of(self, slots):
        return self._space.parities_of(slots)


def unit_image(V, support, K, T):
    """Terms (key, target, coefficient) of [P, U] for the one unit U = (key K -> e_T).

    ``support`` is ``cochains._bracket_support(P)``.  [P, U] = circ(P, U) -
    (-1)^(nP nU + f u) circ(U, P) for U of arity nU + 1 and parity u: in
    circ(P, U), P(H, T) lands on sort(H + K) with (-1)^(u |H|); in circ(U, P),
    each entry k of K, read as U(head, k), takes P(key)_k to sort(head + key)
    with (-1)^(f |head|) (-1)^(f u).  Coefficients are ints over ``P.den``.
    """
    nP, by_entry, by_comp = support
    pars = V.parities
    p = len(V.even_basis)
    u = (sum(pars[i] for i in K) + pars[T]) % 2
    for H, hpar, counts, vals in by_entry.get(T, ()):
        X, s = shuffle(H, K, p)
        if s:
            c = s * _multiplicity(X, counts) * (-1 if u and hpar else 1)
            for tgt, v in vals.items():
                yield X, tgt, c * v
    outer = -1 if nP * (len(K) - 1) % 2 == 0 else 1  # -(-1)^(nP nU)
    for k in set(K):
        i = K.index(k)
        head = K[:i] + K[i + 1 :]
        s2 = outer * shuffle(head, (k,), p)[1]
        flip = (sum(pars[j] for j in head) + u) % 2
        for key, f, counts, v in by_comp.get(k, ()):
            X, s3 = shuffle(head, key, p)
            if s3:
                c = s2 * s3 * _multiplicity(X, counts)
                yield X, T, (-c if f and flip else c) * v


def per_unit_matrix(P, cols, rows):
    """``bracket_matrix(P, cols, rows)``, one ``unit_image`` per column, through the public
    ``Matrix`` constructor."""
    support = P.bracket_support()
    data = [{} for _ in rows]
    row_of = {(key, tgt): (data[r], sign) for r, (key, tgt, sign) in enumerate(rows)}
    for j, (K, T, s) in enumerate(cols):
        for X, tgt, c in unit_image(P.source, support, K, T):
            hit = row_of.get((X, tgt))
            if hit is not None:
                row, sign = hit
                row[j] = row.get(j, 0) + (c if sign == s else -c)
    return Matrix(len(rows), len(cols), data, P.den)


def unit_blocks(g_space, h_space, sigs, unit):
    """The basis element named by one ``block_units`` entry over ``sigs``, as blocks."""
    b, gk, hk, t, _ = unit
    blocks = [BlockCochain.zero(g_space, h_space, *sig) for sig in sigs]
    ga, ha, side = sigs[b]
    vec = [F(0)] * (g_space if side == "g" else h_space).dim
    vec[t] = F(1)
    blocks[b] = BlockCochain(g_space, h_space, ga, ha, side, {(gk, hk): tuple(vec)})
    return tuple(blocks)


def unit_triple_cochain(g_space, h_space, n, unit):
    """The basis cochain of C^n named by one ``triple_units`` entry."""
    return unit_blocks(g_space, h_space, triple_blocks(n), unit)


def _reference_matrix(g_space, h_space, P, sigs, n, parity):
    """Matrix of [P, .] from C^n to C^(n+1), one ``shuffle_nr_bracket`` per unit column.

    Each unit block is hat-extended, bracketed with P by the shuffle-sum
    product and projected back onto every block signature of degree n + 1.
    """
    ds = DirectSum(g_space, h_space)
    cols = parity_units(g_space, h_space, sigs(n), parity)
    rows = parity_units(g_space, h_space, sigs(n + 1), parity)
    columns = []
    for u in cols:
        unit = unit_blocks(g_space, h_space, sigs(n), u)[u[0]]
        image = shuffle_nr_bracket(P, hat_extend(unit, ds))
        blocks = tuple(project_block(image, ds, *sig) for sig in sigs(n + 1))
        columns.append(blocks_vector(blocks, rows))
    return matrix_from_cols(columns, len(rows))


def blocks_vector(blocks, units):
    """Coordinates of a tuple of blocks on ``block_units`` of their signatures."""
    out = []
    for b, gk, hk, t, _ in units:
        x = blocks[b].ints.get((gk, hk), {}).get(t, 0)
        out.append(F(x, blocks[b].den) if x else F(0))
    return tuple(out)


def triple_reference_matrix(t, n, parity):
    """Degree-n triple differential [Pi, .], one ``shuffle_nr_bracket`` per unit column."""
    return _reference_matrix(t.g.space, t.h.space, mc_element(t), triple_blocks, n, parity)


def ch_reference_matrix(D, n, parity):
    """Degree-n twisted differential [pi + rho + [mu, D], .], one ``shuffle_nr_bracket`` per column."""
    t = D.triple
    gs, hs = t.g.space, t.h.space
    ds = DirectSum(gs, hs)
    mu_D = shuffle_nr_bracket(hat_extend(mu_block(gs, t.h), ds), hat_extend(D.as_block(), ds))
    P_D = hat_extend(pi_block(t.g, hs), ds).add(hat_extend(t.rho.as_block(), ds)).add(mu_D)
    return _reference_matrix(gs, hs, P_D, ch_blocks, n, parity)


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


# ---------------------------------------------------------------------------
# dense coordinate vectors and maps, column by column


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_scale(v, c):
    """c * v; a sign c = -1 negates entry by entry, with no multiplication."""
    if c == 1:
        return tuple(v)
    if c == -1:
        return tuple(-x for x in v)
    return tuple(c * x for x in v)


def dense_apply(m, vec):
    """m(vec): the ``Fraction`` columns of m summed with the coefficients of vec."""
    vec = tuple(vec)
    if len(vec) != m.source.dim:
        raise DimensionMismatch("vector length != source dimension")
    cols = m.cols
    out = list(zero_vec(m.target.dim))
    for j, c in enumerate(vec):
        if c == 0:
            continue
        for k, v in enumerate(cols[j]):
            if v != 0:
                out[k] += c * v
    return tuple(out)


def dense_compose(f, g):
    """f after g: ``dense_apply`` of f to each column of g."""
    if g.target != f.source:
        raise DimensionMismatch("composition spaces do not match")
    return LinearMap(g.source, f.target, tuple(dense_apply(f, c) for c in g.cols))


def dense_is_homomorphism(f, A, B):
    """f([a, b]) == [f(a), f(b)] on all basis pairs, by ``dense_apply`` and ``dense_bracket``."""
    if f.source != A.space or f.target != B.space:
        raise DimensionMismatch("map does not connect the given algebras")
    cols = f.cols
    return all(
        dense_apply(f, A.bracket_basis(i, j)) == dense_bracket(B, cols[i], cols[j])
        for i in range(A.dim)
        for j in range(A.dim)
    )


# ---------------------------------------------------------------------------
# dense axiom checks and deformation residuals


def dense_bracket(A, x, y):
    """[x, y] for coordinate vectors, summed over basis pairs via ``bracket_basis``."""
    out = list(zero_vec(A.dim))
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            vec = A.bracket_basis(i, j)
            c = xi * yj
            for k, v in enumerate(vec):
                if v != 0:
                    out[k] += c * v
    return tuple(out)


def _basis(dim, i):
    return tuple(F(1 if k == i else 0) for k in range(dim))


def _operator_of(rho, xvec):
    """rho(x) for an arbitrary coordinate vector x."""
    h = rho.h_space
    cols = [list(zero_vec(h.dim)) for _ in range(h.dim)]
    for i, c in enumerate(xvec):
        if c == 0:
            continue
        for j in range(h.dim):
            for k, v in enumerate(rho.table[i][j]):
                if v != 0:
                    cols[j][k] += c * v
    return LinearMap(h, h, tuple(tuple(c) for c in cols))


def _bilinear(c: Cochain, xvec, yvec):
    """Bilinear evaluation of an arity-2 cochain on coordinate vectors."""
    out = list(zero_vec(c.target.dim))
    for i, a in enumerate(xvec):
        if a == 0:
            continue
        for j, b in enumerate(yvec):
            if b == 0:
                continue
            val = c.eval((i, j))
            coef = a * b
            for k, v in enumerate(val):
                if v != 0:
                    out[k] += coef * v
    return tuple(out)


def check_super_skew(A):
    """Dense reference for ``superalgebra.check_super_skew``, on ``bracket_basis`` tuples."""
    failures = []
    labels = A.space.labels
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = A.bracket_basis(i, j)
            sign = F(-1 if (A.space.parity(i) * A.space.parity(j)) % 2 == 0 else 1)
            rhs = tuple(sign * x for x in A.bracket_basis(j, i))
            if lhs != rhs:
                failures.append(Failure("super_skew", (labels[i], labels[j]), lhs, rhs))
    return CheckReport("super_skew", tuple(failures))


def check_jacobi(A):
    """Dense reference for ``superalgebra.check_jacobi``."""
    failures = []
    labels = A.space.labels
    basis = [_basis(A.dim, i) for i in range(A.dim)]
    for i in range(A.dim):
        for j in range(A.dim):
            sign = F(-1 if (A.space.parity(i) * A.space.parity(j)) % 2 else 1)
            for k in range(A.dim):
                lhs = dense_bracket(A, basis[i], dense_bracket(A, basis[j], basis[k]))
                rhs = vec_add(
                    dense_bracket(A, dense_bracket(A, basis[i], basis[j]), basis[k]),
                    vec_scale(dense_bracket(A, basis[j], dense_bracket(A, basis[i], basis[k])), sign),
                )
                if lhs != rhs:
                    failures.append(Failure("jacobi", (labels[i], labels[j], labels[k]), lhs, rhs))
    return CheckReport("jacobi", tuple(failures))


def check_action(g, h, rho):
    """Dense reference for ``triple.check_action``."""
    failures = []
    glab, hlab = g.space.labels, h.space.labels
    for i in range(g.dim):
        pi = g.space.parity(i)
        for j in range(h.dim):
            want = (pi + h.space.parity(j)) % 2
            vec = rho.value(i, j)
            for k, x in enumerate(vec):
                if x != 0 and h.space.parity(k) != want:
                    failures.append(
                        Failure("action_degree", (glab[i], hlab[j], hlab[k]), (x,), (F(0),))
                    )
    hbasis = [_basis(h.dim, j) for j in range(h.dim)]
    for i in range(g.dim):
        op = rho.operator(i)
        sgn = F(-1 if g.space.parity(i) else 1)
        for a in range(h.dim):
            for b in range(h.dim):
                lhs = dense_apply(op, h.bracket_basis(a, b))
                first = dense_bracket(h, dense_apply(op, hbasis[a]), hbasis[b])
                second = dense_bracket(h, hbasis[a], dense_apply(op, hbasis[b]))
                if h.space.parity(a):
                    second = vec_scale(second, sgn)
                rhs = vec_add(first, second)
                if lhs != rhs:
                    failures.append(Failure("action_derivation", (glab[i], hlab[a], hlab[b]), lhs, rhs))
    for i in range(g.dim):
        for j in range(g.dim):
            lhs_op = _operator_of(rho, g.bracket_basis(i, j))
            # rho([x,y]) = rho(x) rho(y) - (-1)^{|x||y|} rho(y) rho(x)
            sign = F(1 if (g.space.parity(i) * g.space.parity(j)) % 2 else -1)
            rhs_op = dense_compose(rho.operator(i), rho.operator(j)).add(
                dense_compose(rho.operator(j), rho.operator(i)).scale(sign)
            )
            for j2 in range(h.dim):
                if lhs_op.cols[j2] != rhs_op.cols[j2]:
                    failures.append(Failure(
                        "action_morphism", (glab[i], glab[j], hlab[j2]),
                        lhs_op.cols[j2], rhs_op.cols[j2],
                    ))
    return CheckReport("action", tuple(failures))


def check_crossed(D):
    """Dense reference for ``crossed.check_crossed``."""
    t = D.triple
    g, h, rho = t.g, t.h, t.rho
    failures = []
    labels = g.space.labels
    for i in range(g.dim):
        for j in range(g.dim):
            lhs = dense_apply(D.linmap, g.bracket_basis(i, j))
            di, dj = D.linmap.cols[i], D.linmap.cols[j]
            term1 = dense_apply(rho.operator(i), dj)
            term2 = dense_apply(rho.operator(j), di)
            sign = F(1 if (g.space.parity(i) * g.space.parity(j)) % 2 else -1)
            rhs = vec_add(vec_add(term1, vec_scale(term2, sign)), dense_bracket(h, di, dj))
            if lhs != rhs:
                failures.append(Failure("crossed", (labels[i], labels[j]), lhs, rhs))
    return CheckReport("crossed", tuple(failures))


def graph_failures(D):
    """Dense reference for ``crossed.graph_failures``: lifts (x, D x) bracketed in
    the four-case table of ``semidirect_reference``."""
    t = D.triple
    g = t.g
    sd = semidirect_reference(g, t.h, t.rho)
    ds = DirectSum(g.space, t.h.space)

    def lift(x):
        return vec_add(embed_left(ds, x), embed_right(ds, dense_apply(D.linmap, x)))

    failures = []
    labels = g.space.labels
    for i in range(g.dim):
        for j in range(g.dim):
            got = dense_bracket(sd, lift(_basis(g.dim, i)), lift(_basis(g.dim, j)))
            want = lift(g.bracket_basis(i, j))
            if got != want:
                failures.append(Failure("graph", (labels[i], labels[j]), got, want))
    return tuple(failures)


def mc_residual_components_reference(g, h, rho):
    """The four component brackets of ``triple.mc_residual``, shuffle sums throughout.

    [pi, pi]; 2 rho.pi + [rho, rho]; 2 [rho, mu]; [mu, mu], each taken in the
    big algebra on g + h and projected to its block, and each checked against
    the same block of [Pi, Pi]; a mismatch would be a bug in the bracket, not
    in the candidate data.
    """
    ds = DirectSum(g.space, h.space)
    P, R, M = (
        hat_extend_reference(b) for b in (pi_block(g, h.space), rho.as_block(), mu_block(g.space, h))
    )
    components = (
        shuffle_nr_bracket(P, P),
        # [R, P] = circ(R, P): circ(P, R) vanishes, as P reads only g and R lands in h
        shuffle_nr_bracket(R, P).scale(2).add(shuffle_nr_bracket(R, R)),
        shuffle_nr_bracket(R, M).scale(2),
        shuffle_nr_bracket(M, M),
    )
    Pi = P.add(R).add(M)
    full = shuffle_nr_bracket(Pi, Pi)
    blocks = []
    for sig, comp in zip(McResidual.SIGNATURES, components):
        block = project_block_reference(comp, ds, *sig)
        if block != project_block_reference(full, ds, *sig):
            raise InternalInvariantError(
                "component form of the self-bracket disagrees with its projection"
            )
        blocks.append(block)
    return McResidual(*blocks)


def triple_deformation_residual(d, n):
    """Dense reference for the order-n report of ``TripleDeformation.series``."""
    t = d.triple
    gs, hs = t.g.space, t.h.space
    pairs = [(i, n - i) for i in range(n + 1)]

    eq1 = Cochain.zero(gs, gs, 3)
    eq2 = Cochain.zero(hs, hs, 3)
    for i, j in pairs:
        eq1 = eq1.add(shuffle_nr_bracket(d.pis[i], d.pis[j]))
        eq2 = eq2.add(shuffle_nr_bracket(d.mus[i], d.mus[j]))
    ggg = BlockCochain(gs, hs, 3, 0, "g", {(k, ()): v for k, v in eq1.coeffs.items()})
    hhh = BlockCochain(gs, hs, 0, 3, "h", {((), k): v for k, v in eq2.coeffs.items()})

    ggh_coeffs = {}
    for gk in wedge_basis(gs, 2):
        u, v = gk
        swap_sign = F(-1 if (gs.parity(u) * gs.parity(v)) % 2 else 1)
        for x in range(hs.dim):
            xvec = _basis(hs.dim, x)
            acc = zero_vec(hs.dim)
            for i, j in pairs:
                rho_i, rho_j = d.rhos[i], d.rhos[j]
                lhs = dense_apply(_operator_of(rho_i, d.pis[j].eval((u, v))), xvec)
                r1 = dense_apply(rho_i.operator(u), dense_apply(rho_j.operator(v), xvec))
                r2 = dense_apply(rho_i.operator(v), dense_apply(rho_j.operator(u), xvec))
                acc = vec_add(acc, lhs)
                acc = vec_add(acc, vec_scale(r1, F(-1)))
                acc = vec_add(acc, vec_scale(r2, swap_sign))
            if not vec_is_zero(acc):
                ggh_coeffs[(gk, (x,))] = acc
    ggh = BlockCochain(gs, hs, 2, 1, "h", ggh_coeffs)

    ghh_coeffs = {}
    for u in range(gs.dim):
        pu = gs.parity(u)
        for hk in wedge_basis(hs, 2):
            x, y = hk
            leib_sign = F(-1 if (pu * hs.parity(x)) % 2 else 1)
            acc = zero_vec(hs.dim)
            for i, j in pairs:
                rho_i = d.rhos[i]
                mu_i, mu_j = d.mus[i], d.mus[j]
                lhs = dense_apply(rho_i.operator(u), mu_j.eval((x, y)))
                r1 = _bilinear(mu_i, dense_apply(d.rhos[j].operator(u), _basis(hs.dim, x)), _basis(hs.dim, y))
                r2 = _bilinear(mu_i, _basis(hs.dim, x), dense_apply(d.rhos[j].operator(u), _basis(hs.dim, y)))
                acc = vec_add(acc, lhs)
                acc = vec_add(acc, vec_scale(r1, F(-1)))
                acc = vec_add(acc, vec_scale(r2, -leib_sign))
            if not vec_is_zero(acc):
                ghh_coeffs[((u,), hk)] = acc
    ghh = BlockCochain(gs, hs, 1, 2, "h", ghh_coeffs)

    return McResidual(ggg, ggh, ghh, hhh)


def ch_deformation_residual(d, n):
    """Dense reference for the order-n report of ``CrossedHomDeformation.series``."""
    t = d.crossed.triple
    g, h, rho = t.g, t.h, t.rho
    gs, hs = g.space, h.space
    Dn = d.maps[n]
    coeffs = {}
    for gk in wedge_basis(gs, 2):
        x, y = gk
        sgn = F(1 if (gs.parity(x) * gs.parity(y)) % 2 else -1)
        acc = vec_scale(dense_apply(Dn, g.bracket_basis(x, y)), F(-1))
        acc = vec_add(acc, dense_apply(rho.operator(x), Dn.cols[y]))
        acc = vec_add(acc, vec_scale(dense_apply(rho.operator(y), Dn.cols[x]), sgn))
        for i in range(n + 1):
            acc = vec_add(acc, dense_bracket(h, d.maps[i].cols[x], d.maps[n - i].cols[y]))
        if not vec_is_zero(acc):
            coeffs[(gk, ())] = acc
    return BlockCochain(gs, hs, 2, 0, "h", coeffs)


def _dense_integer_rows(m):
    """Every row as a dense list of coprime integers; preserves rank and kernel."""
    out = []
    for r in range(m.rows):
        row = matrix_row(m, r)
        lcm = 1
        for e in row:
            d = e.denominator
            lcm = lcm * d // math.gcd(lcm, d)
        ints = [int(e * lcm) for e in row]
        g = 0
        for v in ints:
            g = math.gcd(g, abs(v))
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def _dense_bareiss(rows):
    """Fraction-free forward elimination in place; returns pivot columns.

    Every division is exact by the Sylvester determinant identity, and that
    exactness is asserted.
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
                q, rem = divmod(pivot * ri[j] - fac * rr[j], prev)
                assert rem == 0, "fraction-free elimination lost exactness"
                ri[j] = q
        prev = pivot
        piv_cols.append(c)
        r += 1
    return piv_cols


def dense_rank(m) -> int:
    """Exact rank by dense Bareiss elimination over every cell."""
    if m.rows == 0 or m.cols == 0:
        return 0
    return len(_dense_bareiss(_dense_integer_rows(m)))


def uncleared_rank(m) -> int:
    """The rank as ``exact_linalg.rank`` gave it before clearing: every column of ``m``
    kept and its rows always the lines, Markowitz pivots (sparsest column, then its
    shortest row) through the library's ``_eliminate``."""
    rows = [exact_linalg._content_free(row) for row in m.ints if row]
    where = exact_linalg._column_index(rows)
    heap = [(len(s), c) for c, s in where.items()]
    heapq.heapify(heap)
    r = 0
    while heap:
        n, c = heapq.heappop(heap)
        holders = where.get(c)
        if holders is None or len(holders) != n:
            continue
        del where[c]
        for k in exact_linalg._eliminate(rows, where, exact_linalg._shortest(rows, holders), c, holders):
            s = where[k]
            if s:
                heapq.heappush(heap, (len(s), k))
            else:
                del where[k]
        r += 1
    return r


def dense_kernel_basis(m):
    """Right null space by dense Bareiss elimination and back substitution.

    The vector of free column f has v[f] = 1 and 0 at the other free columns.
    """
    n = m.cols
    if n == 0:
        return []
    if m.rows == 0:
        return [tuple(F(1 if j == f else 0) for j in range(n)) for f in range(n)]
    rows = _dense_integer_rows(m)
    piv_cols = _dense_bareiss(rows)
    piv_set = set(piv_cols)
    basis = []
    for f in (c for c in range(n) if c not in piv_set):
        v = [F(0)] * n
        v[f] = F(1)
        for k in range(len(piv_cols) - 1, -1, -1):
            p = piv_cols[k]
            s = F(0)
            row = rows[k]
            for j in range(p + 1, n):
                if row[j] and v[j]:
                    s += F(row[j]) * v[j]
            v[p] = -s / row[p]
        basis.append(tuple(v))
    return basis


def derivation_space_reference(A):
    """Hand-assembled linear system for the even and odd derivations of A.

    A degree-s endomorphism D is a derivation when
    D[a,b] = [D a, b] + (-1)^{s |a|} [a, D b] on all basis pairs; the
    conditions form a linear system in the matrix entries of D, solved by
    the dense kernel.
    """
    out = []
    dim = A.dim
    for s in (0, 1):
        slots = [
            (k, j)
            for j in range(dim)
            for k in range(dim)
            if (A.space.parity(k) - A.space.parity(j)) % 2 == s
        ]
        index = {kj: t for t, kj in enumerate(slots)}
        rows = []
        for i in range(dim):
            pi = A.space.parity(i)
            sign = F(-1 if (s * pi) % 2 else 1)
            for j in range(dim):
                bracket = A.bracket_basis(i, j)
                for comp in range(dim):
                    row = {}
                    # D applied to [b_i, b_j], component `comp`
                    for k, c in enumerate(bracket):
                        if c != 0 and (comp, k) in index:
                            t = index[(comp, k)]
                            row[t] = row.get(t, 0) + c
                    # minus [D b_i, b_j]
                    for k in range(dim):
                        if (k, i) in index:
                            v = A.bracket_basis(k, j)[comp]
                            if v != 0:
                                t = index[(k, i)]
                                row[t] = row.get(t, 0) - v
                    # minus (-1)^{s|b_i|} [b_i, D b_j]
                    for k in range(dim):
                        if (k, j) in index:
                            v = A.bracket_basis(i, k)[comp]
                            if v != 0:
                                t = index[(k, j)]
                                row[t] = row.get(t, 0) - sign * v
                    rows.append(row)
        kernel = dense_kernel_basis(Matrix(len(rows), len(slots), rows))
        maps = []
        for vec in kernel:
            cols = [[F(0)] * dim for _ in range(dim)]
            for t, (k, j) in enumerate(slots):
                cols[j][k] = vec[t]
            maps.append(LinearMap(A.space, A.space, tuple(tuple(c) for c in cols)))
        out.append(maps)
    return out[0], out[1]


def semidirect_reference(g, h, rho):
    """Four-case table of g x| h on g + h, with its own super-skew sign.

    The action must pass ``triple.check_action``; the table is re-checked
    with ``superalgebra.check_jacobi``.
    """
    report = triple_check_action(g, h, rho)
    if not report.ok:
        raise InvalidAction(f"action fails {len(report.failures)} axiom checks")
    ds = DirectSum(g.space, h.space)
    dim = ds.space.dim
    sc = {}
    for i in range(dim):
        side_i, li = ds.side_of[i]
        for j in range(i, dim):
            side_j, lj = ds.side_of[j]
            if side_i == "g" and side_j == "g":
                vec = embed_left(ds, g.bracket_basis(li, lj))
            elif side_i == "h" and side_j == "h":
                vec = embed_right(ds, h.bracket_basis(li, lj))
            elif side_i == "g" and side_j == "h":
                vec = embed_right(ds, rho.value(li, lj))
            else:
                sign = -1 if (ds.space.parity(i) * ds.space.parity(j)) % 2 == 0 else 1
                vec = embed_right(ds, vec_scale(rho.value(lj, li), F(sign)))
            if not vec_is_zero(vec):
                sc[(i, j)] = vec
    result = SuperAlgebra(ds.space, sc)
    jac = superalgebra_check_jacobi(result)
    if not jac.ok:
        raise InternalInvariantError(
            f"semidirect product violates the super Jacobi identity at {jac.failures[0].where}"
        )
    return result


# ---------------------------------------------------------------------------
# the command line as argparse read it


def argparse_parser(commands):
    """The ``argparse`` parser ``cli.main`` built, for the command names ``commands``."""
    parser = argparse.ArgumentParser(
        prog="supercochain",
        description="Exact checks and cohomology for Lie superalgebra triples, "
        "crossed homomorphisms and their deformations.",
    )
    parser.add_argument("command", choices=sorted(commands))
    parser.add_argument("file", help="JSON problem file")
    parser.add_argument("--max-n", type=int, default=2, dest="max_n", help="top cohomology degree")
    parser.add_argument("--parity", choices=("even", "odd", "both"), default="both")
    parser.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")
    parser.add_argument("--order", type=int, default=None, help="deformation truncation order")
    parser.add_argument("--seed", type=int, default=0, help="seed recorded in the report")
    return parser
