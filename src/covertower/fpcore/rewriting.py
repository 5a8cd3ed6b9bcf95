"""Abelianized Reidemeister-Schreier rewriting of finite-index subgroups.

Given a presentation and a permutation action of its generators, the point
stabilizer of a transitive action is a finite-index subgroup.  Only the
exponent vectors of the rewritten relators are produced, which is all the
first-homology rank needs; full subgroup relator words are never
materialized.

The Schreier transversal is fixed as BFS first-discovery with generators
tried in index order, positive before negative (`perms.schreier_tree`),
and the Schreier generator at (coset, generator) off the tree is column
number k when it is the k-th such pair in (coset, generator) order, so
matrices are reproducible bit for bit.

The matrix is built by walking each relator once, letter by letter, over
the whole array of cosets at the same time: the generators act on coset
positions as integer arrays (one forward and one backward per
generator), and a (coset, generator) -> column table holds -1 for tree
edges.  Every letter step emits one (row, column, +-1) coordinate per
coset off the tree, and SparseMatModP sums the duplicates mod P.

Power relators are folded out of the walk (the abelian form of the
Tietze eliminations in Havas, "A Reidemeister-Schreier program", 1974).
Let s^e or s^-e be the first relator that is a pure power of the
generator s.  It fixes every coset, so every s-cycle C of the cosets has
a length L dividing e, and its L rows all equal +-(e/L) * sum of the
columns x_(c,s), c in C (every cycle has a column off the tree, since the
tree holds no cycle).  When P does not divide e/L, the cycle's
lowest-numbered column x_piv is eliminated: with R every other row and K
the substitution x_piv = -(sum of the cycle's other columns),

    rank M = #eliminated cycles + rank(R K),

so dim H_1(stabilizer; F_P) = (#columns - #eliminated) - rank(R K).  In
the coordinates, each walked entry v on a pivot column becomes -v on each
of the cycle's other columns; the pivots are deleted and the remaining
columns renumbered in order.  When P divides e/L the cycle's rows vanish
mod P and nothing is eliminated.  Other relators, later powers of s
included, are walked.  A kernel vector of R K lifts to one of M by
v_piv = -(sum of the cycle's other entries).
"""

import numpy as np

from ..errors import InternalInvariantError, ParameterError
from .perms import schreier_tree
from .sparse import SparseMatModP, sparse_rank_mod_p
from .words import Presentation


def _first_powers(pres: Presentation):
    """{generator index: index of its first relator that is a pure power}"""
    first = {}
    for r, rel in enumerate(pres.relators):
        if rel and len(set(rel)) == 1:
            first.setdefault(abs(rel[0]) - 1, r)
    return first


def abelianized_rewriting_matrix(pres: Presentation, images, point: int, P: int):
    """A matrix over F_P presenting H_1 of the stabilizer of `point`, and
    its number of generators: (mat, ngens) with
    dim H_1(stabilizer; F_P) = ngens - rank(mat).  If the action is not
    transitive it is restricted to the orbit of `point`.

    The generators are the Schreier generators off the tree, less one per
    folded power-relator cycle (see the module docstring), numbered in
    order.  Row w*n + c is the w-th walked relator (in order, folded ones
    skipped) rewritten starting at coset c, for n cosets.
    """
    if len(images) != pres.ngens:
        raise ParameterError("need one permutation per generator")
    degree = images[0].degree
    if not 0 <= point < degree:
        raise ParameterError(f"point {point} outside degree {degree}")
    orbit, parent, gen, sign = schreier_tree(images, point)
    n = len(orbit)
    ngens = pres.ngens
    # the actions on coset positions
    starts = np.arange(n)
    position = np.empty(degree, dtype=np.int64)
    position[orbit] = starts
    fwd = [position[np.array(g.images)[orbit]] for g in images]
    bwd = [np.empty_like(f) for f in fwd]
    for f, b in zip(fwd, bwd):
        b[f] = starts
    # A +1 tree edge (parent --g--> child) kills the Schreier generator at
    # (parent, g); a -1 edge (parent --g^-1--> child) kills the one at
    # (child, g).  (coset, generator) -> column, -1 for a tree edge.
    tree = np.zeros((n, ngens), dtype=bool)
    tree[np.where(sign > 0, position[parent], starts[1:]), gen] = True
    ncols = n * (ngens - 1) + 1
    if tree.sum() != n - 1:
        raise InternalInvariantError("Schreier index formula violated")
    table = np.full((n, ngens), -1, dtype=np.int64)
    table[~tree] = np.arange(ncols)

    folded = _first_powers(pres)
    # cycle length at each pivot column, 0 elsewhere
    pivot_len = np.zeros(ncols, dtype=np.int64)
    for gi, r in folded.items():
        e = len(pres.relators[r])
        off_tree = np.where(table[:, gi] >= 0, starts, n)
        cur, low, length = starts, off_tree, np.zeros(n, dtype=np.int64)
        for j in range(1, e + 1):
            cur = fwd[gi][cur]
            low = np.minimum(low, off_tree[cur])
            length[(length == 0) & (cur == starts)] = j
        if not np.array_equal(cur, starts):
            raise InternalInvariantError("relator does not stabilize the coset")
        # columns grow with the coset, so the cycle's lowest off-tree coset
        # holds its lowest-numbered column
        piv = np.flatnonzero((low == starts) & ((e // length) % P != 0))
        pivot_len[table[piv, gi]] = length[piv]

    steps = []  # (rows, columns, sign) per letter, for the cosets off the tree
    walked = [rel for r, rel in enumerate(pres.relators) if r not in folded.values()]
    for w, rel in enumerate(walked):
        pt = starts
        for letter in rel:
            gi = abs(letter) - 1
            if letter > 0:
                col = table[pt, gi]
                pt = fwd[gi][pt]
            else:
                pt = bwd[gi][pt]
                col = table[pt, gi]
            keep = col >= 0
            steps.append((starts[keep] + w * n, col[keep], 1 if letter > 0 else -1))
        if not np.array_equal(pt, starts):
            raise InternalInvariantError("relator does not stabilize the coset")
    rows = np.concatenate([s[0] for s in steps] or [starts[:0]])
    cols = np.concatenate([s[1] for s in steps] or [starts[:0]])
    vals = np.repeat(np.array([s[2] for s in steps], dtype=np.int64), [len(s[0]) for s in steps])

    # an entry v on a pivot column becomes -v on the cycle's other columns
    on = pivot_len[cols] > 0
    parts = [(rows[~on], cols[~on], vals[~on])]
    if on.any():
        prow, pval, plen = rows[on], -vals[on], pivot_len[cols[on]]
        col_coset, col_gen = np.nonzero(~tree)  # in column order
        cur, pgen = col_coset[cols[on]], col_gen[cols[on]]
        fwd_all = np.stack(fwd, axis=1)
        for j in range(1, int(plen.max())):
            cur = fwd_all[cur, pgen]
            other = table[cur, pgen]
            ok = (j < plen) & (other >= 0)
            parts.append((prow[ok], other[ok], pval[ok]))
    rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
    kept = pivot_len == 0
    renumber = np.cumsum(kept) - 1
    ngens_h1 = int(kept.sum())
    mat = SparseMatModP(len(walked) * n, ngens_h1, P, rows, renumber[cols], vals)
    return mat, ngens_h1


def betti_proxy_cover(pres: Presentation, images, point: int, P: int) -> int:
    """dim H_1(stabilizer subgroup; F_P) — the cover's first-Betti proxy.

    Over a prime missing all torsion this equals the rational Betti number;
    false positives are possible, false negatives are not.
    """
    mat, ngens = abelianized_rewriting_matrix(pres, images, point, P)
    return ngens - sparse_rank_mod_p(mat)
