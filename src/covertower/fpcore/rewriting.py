"""Abelianized Reidemeister-Schreier rewriting of finite-index subgroups.

Given a presentation and a permutation action of its generators, the point
stabilizer of a transitive action is a finite-index subgroup.  Only the
exponent vectors of the rewritten relators are produced (one row per
relator per coset), which is all the first-homology rank needs; full
subgroup relator words are never materialized.

The Schreier transversal is fixed as BFS first-discovery with generators
tried in index order, positive before negative, so matrices are
reproducible bit for bit.

The matrix is built by walking each relator once, letter by letter, over
the whole array of cosets at the same time: the generators act on coset
positions as integer arrays (one forward and one backward per
generator), and a (coset, generator) -> column table holds -1 for tree
edges.  Every letter step emits one (row, column, +-1) triple per coset
off the tree, and SparseMatModP sums the duplicates mod P.
"""

from itertools import chain, repeat

import numpy as np

from ..errors import InternalInvariantError, ParameterError
from .perms import orbit_and_transversal
from .sparse import SparseMatModP, sparse_rank_mod_p
from .words import Presentation


def schreier_data(pres: Presentation, images, point: int):
    """Cosets, tree edges and Schreier-generator numbering for the stabilizer
    of `point`.  If the action is not transitive it is restricted to the
    orbit of `point`.

    Returns (cosets, coset_index, tree_edges, schreier_cols) where
    tree_edges is the set of (coset position, generator index) pairs
    identified with the identity, and schreier_cols maps the remaining
    pairs to column numbers.
    """
    if len(images) != pres.ngens:
        raise ParameterError("need one permutation per generator")
    degree = images[0].degree
    if not 0 <= point < degree:
        raise ParameterError(f"point {point} outside degree {degree}")
    orbit, tree = orbit_and_transversal(images, point)
    coset_index = {pt: i for i, pt in enumerate(orbit)}
    # A +1 tree edge (parent --g--> child) kills the Schreier generator at
    # (parent, g); a -1 edge (parent --g^-1--> child) kills the one at
    # (child, g).
    tree_edges = set()
    for child, (parent, gi, sign) in tree.items():
        if sign > 0:
            tree_edges.add((coset_index[parent], gi))
        else:
            tree_edges.add((coset_index[child], gi))
    schreier_cols = {}
    for ci in range(len(orbit)):
        for gi in range(pres.ngens):
            if (ci, gi) not in tree_edges:
                schreier_cols[(ci, gi)] = len(schreier_cols)
    return orbit, coset_index, tree_edges, schreier_cols


def abelianized_rewriting_matrix(pres: Presentation, images, point: int, P: int):
    """Exponent-sum matrix of the Reidemeister-Schreier rewrite, mod P.

    Row r*n + c is relator r rewritten starting at coset c; column g is the
    g-th Schreier generator (tree-edge generators are identified with the
    identity and have no column).  Also returns the Schreier generator
    count n*(ngens-1)+1.
    """
    orbit, _index, _tree, cols = schreier_data(pres, images, point)
    n = len(orbit)
    ngens = pres.ngens
    ngens_schreier = n * (ngens - 1) + 1
    if len(cols) != ngens_schreier:
        raise InternalInvariantError("Schreier index formula violated")
    # the actions on coset positions, and (coset, generator) -> column,
    # -1 for a tree edge
    starts = np.arange(n)
    position = np.empty(images[0].degree, dtype=np.int64)
    position[orbit] = starts
    fwd = [position[np.asarray(g.images)[orbit]] for g in images]
    bwd = [np.empty_like(f) for f in fwd]
    for f, b in zip(fwd, bwd):
        b[f] = starts
    table = np.full((n, ngens), -1, dtype=np.int64)
    cosets, gens = zip(*cols)
    table[cosets, gens] = list(cols.values())
    steps = []  # (rows, columns, sign) per letter, for the cosets off the tree
    for r, rel in enumerate(pres.relators):
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
            steps.append((starts[keep] + r * n, col[keep], 1 if letter > 0 else -1))
        if not np.array_equal(pt, starts):
            raise InternalInvariantError("relator does not stabilize the coset")
    # Python ints are made one letter at a time, so only one step's worth
    # is alive at once
    triples = chain.from_iterable(
        zip(ids.tolist(), columns.tolist(), repeat(sign)) for ids, columns, sign in steps
    )
    mat = SparseMatModP(len(pres.relators) * n, ngens_schreier, P, triples)
    return mat, ngens_schreier


def betti_proxy_cover(pres: Presentation, images, point: int, P: int) -> int:
    """dim H_1(stabilizer subgroup; F_P) — the cover's first-Betti proxy.

    Over a prime missing all torsion this equals the rational Betti number;
    false positives are possible, false negatives are not.
    """
    mat, ngens_schreier = abelianized_rewriting_matrix(pres, images, point, P)
    return ngens_schreier - sparse_rank_mod_p(mat)
