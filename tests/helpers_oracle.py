"""Independent oracle implementations used only by the tests.

Everything here recomputes results by a different route than the library:
Reidemeister-Schreier rewriting coset by coset and letter by letter over
Z, fed to sympy's Smith normal form or reduced mod P as the reference for
the library's all-cosets walk, brute-force enumeration of matrix pairs
over small PSL2(F_q), and multiplication-table checks for small
pc-groups.
"""

import numpy as np
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from covertower.fpcore.rewriting import schreier_data
from covertower.fpcore.sparse import SparseMatModP, sparse_rank_mod_p


def snf_diagonal(rows):
    if not rows or not rows[0]:
        return []
    m = smith_normal_form(Matrix(rows))
    return [int(m[i, i]) for i in range(min(m.shape)) if m[i, i] != 0]


def full_rewrite_rows(pres, images, point):
    """Rewrite every relator at every coset into Schreier-generator
    exponent rows over Z (walks words directly; shares no code with the
    library's sparse mod-p builder)."""
    orbit, cindex, _tree, cols = schreier_data(pres, images, point)
    invs = [g.inverse() for g in images]
    rows = []
    for rel in pres.relators:
        for start in orbit:
            row = [0] * len(cols)
            pt = start
            for letter in rel:
                gi = abs(letter) - 1
                if letter > 0:
                    key = (cindex[pt], gi)
                    if key in cols:
                        row[cols[key]] += 1
                    pt = images[gi](pt)
                else:
                    prev = invs[gi](pt)
                    key = (cindex[prev], gi)
                    if key in cols:
                        row[cols[key]] -= 1
                    pt = prev
            assert pt == start
            rows.append(row)
    return rows, len(cols)


def reference_rewriting_matrix(pres, images, point, P):
    """The abelianized rewriting matrix mod P from the letter-by-letter,
    coset-by-coset walk of `full_rewrite_rows`: the same
    (SparseMatModP, Schreier generator count) that
    `abelianized_rewriting_matrix` returns."""
    rows, ncols = full_rewrite_rows(pres, images, point)
    triples = [(i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v]
    return SparseMatModP(len(rows), ncols, P, triples), ncols


def to_dense(mat):
    """The int64 array of a SparseMatModP."""
    a = np.zeros((mat.nrows, mat.ncols), dtype=np.int64)
    for (r, c), v in mat.entries.items():
        a[r, c] = v
    return a


def mod_p_rank_h1(pres, P):
    """dim H_1(pres; F_P) = ngens - rank of the exponent matrix over F_P."""
    rows = pres.exponent_matrix()
    entries = [(i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v]
    mat = SparseMatModP(len(rows), pres.ngens, P, entries)
    return pres.ngens - sparse_rank_mod_p(mat)


def oracle_cover_betti(pres, images, point):
    """Rational first Betti number of the point stabilizer by integer SNF."""
    rows, ncols = full_rewrite_rows(pres, images, point)
    diag = snf_diagonal(rows)
    torsion = [d for d in diag if d > 1]
    return ncols - len(diag), torsion


# --- brute-force PSL2 ------------------------------------------------------


class BrutePSL2:
    """All of PSL2(F_q) as canonicalized matrix tuples, with multiplication
    and conjugation done directly; independent of the library's P^1 action
    and Schreier-Sims machinery."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.elements = set()
        q = ctx.q
        for ai in range(q):
            for bi in range(q):
                for ci in range(q):
                    a, b, c = ctx.elem(ai), ctx.elem(bi), ctx.elem(ci)
                    if a == ctx.zero:
                        if b == ctx.zero:
                            continue
                        # det = -bc = 1
                        d_candidates = range(q)
                        cc = ctx.neg(ctx.inv(b))
                        if c != cc:
                            continue
                        for di in range(q):
                            self.elements.add(self.canon((a, b, c, ctx.elem(di))))
                        continue
                    # d = (1 + bc)/a
                    d = ctx.mul(ctx.add(ctx.one, ctx.mul(b, c)), ctx.inv(a))
                    self.elements.add(self.canon((a, b, c, d)))
        self.elements = sorted(self.elements)

    def canon(self, m):
        """Projective representative: negate so the first nonzero entry has
        the smaller encoding."""
        neg = tuple(self.ctx.neg(x) for x in m)
        for x, y in zip(m, neg):
            if x != y:
                return m if self.ctx.index(x) < self.ctx.index(y) else neg
        return m

    def mul(self, A, B):
        ctx = self.ctx
        a, b, c, d = A
        e, f, g, h = B
        return self.canon(
            (
                ctx.add(ctx.mul(a, e), ctx.mul(b, g)),
                ctx.add(ctx.mul(a, f), ctx.mul(b, h)),
                ctx.add(ctx.mul(c, e), ctx.mul(d, g)),
                ctx.add(ctx.mul(c, f), ctx.mul(d, h)),
            )
        )

    def inv(self, A):
        a, b, c, d = A
        n = self.ctx.neg
        return self.canon((d, n(b), n(c), a))

    def identity(self):
        ctx = self.ctx
        return self.canon((ctx.one, ctx.zero, ctx.zero, ctx.one))

    def order_of(self, A):
        cur = A
        n = 1
        ident = self.identity()
        while cur != ident:
            cur = self.mul(cur, A)
            n += 1
        return n

    def closure_size(self, gens, stop_above=None):
        seen = set(gens) | {self.identity()}
        frontier = list(seen)
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.mul(x, g)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
                        if stop_above is not None and len(seen) > stop_above:
                            return len(seen)
            frontier = nxt
        return len(seen)

    def word_value(self, word, A, B):
        table = {1: A, -1: self.inv(A), 2: B, -2: self.inv(B)}
        out = self.identity()
        for letter in word:
            out = self.mul(out, table[letter])
        return out


def brute_epimorphism_classes(spec, ctx, relators):
    """Aut-classes of surjections <a,b> -> PSL2(F_q) satisfying the
    relators, counted by orbit canonical forms under PGL2-conjugation and
    Frobenius.  Returns the set of canonical pair keys."""
    from covertower.finfield import psl2_order

    G = BrutePSL2(ctx)
    q = ctx.q
    target = psl2_order(q)
    # elements of order dividing k (primary filter for a^k = 1)
    k = spec.k
    ident = G.identity()
    pow_ok = [g for g in G.elements if G.word_value((1,) * k, g, ident) == ident]
    # conjugating set: SL2 reps plus one determinant-nonsquare twist
    conjugators = list(G.elements)
    twist = None
    if ctx.p != 2:
        # diag(e, 1) with e a non-square
        for ei in range(1, q):
            e = ctx.elem(ei)
            if ctx.sqrt(e) is None:
                twist = (e, ctx.zero, ctx.zero, ctx.one)
                break
    max_proper = target // 2
    survivors = []
    for A in pow_ok:
        if A == ident:
            continue
        for B in pow_ok:
            if B == ident:
                continue
            if G.word_value(relators[2], A, B) != ident:
                continue
            if G.closure_size([A, B], stop_above=max_proper) <= max_proper:
                continue
            survivors.append((A, B))
    keys = set()

    def frob(mat):
        return tuple(ctx.frobenius(x) for x in mat)

    def conj(g, mat):
        gi_a, gi_b, gi_c, gi_d = g
        det = ctx.sub(ctx.mul(gi_a, gi_d), ctx.mul(gi_b, gi_c))
        di = ctx.inv(det)
        inv = (
            ctx.mul(di, gi_d),
            ctx.mul(di, ctx.neg(gi_b)),
            ctx.mul(di, ctx.neg(gi_c)),
            ctx.mul(di, gi_a),
        )
        t = G.mul(G.mul(g, mat), G.canon(inv))
        return t

    for A, B in survivors:
        best = None
        for g in conjugators + ([G.mul(twist, c) for c in conjugators] if twist else []):
            pa, pb = conj(g, A), conj(g, B)
            for _ in range(ctx.m):
                cand = (pa, pb)
                if best is None or cand < best:
                    best = cand
                pa, pb = G.canon(frob(pa)), G.canon(frob(pb))
        keys.add(best)
    return keys


# --- plain 2x2 powering ---------------------------------------------------


def _mat_mul(ctx, A, B):
    a, b, c, d = A
    e, f, g, h = B
    return (
        ctx.add(ctx.mul(a, e), ctx.mul(b, g)),
        ctx.add(ctx.mul(a, f), ctx.mul(b, h)),
        ctx.add(ctx.mul(c, e), ctx.mul(d, g)),
        ctx.add(ctx.mul(c, f), ctx.mul(d, h)),
    )


def _is_scalar_one(ctx, M):
    """M = +-I?"""
    return M[1] == M[2] == ctx.zero and M[0] == M[3] and ctx.mul(M[0], M[0]) == ctx.one


def companion_projective_order(ctx, x, bound):
    """Least j <= bound with M^j = +-I for M = [[x,-1],[1,0]], found by
    multiplying out the powers; None when there is none."""
    M = (x, ctx.neg(ctx.one), ctx.one, ctx.zero)
    cur = M
    for j in range(1, bound + 1):
        if _is_scalar_one(ctx, cur):
            return j
        cur = _mat_mul(ctx, cur, M)
    return None


def word_is_scalar(ctx, word, A, B):
    """Evaluate a word in det-1 matrices A, B letter by letter (inverses
    by the adjugate); True when the product is +-I."""
    def inv(M):
        a, b, c, d = M
        return (d, ctx.neg(b), ctx.neg(c), a)

    table = {1: A, 2: B, -1: inv(A), -2: inv(B)}
    out = (ctx.one, ctx.zero, ctx.zero, ctx.one)
    for letter in word:
        out = _mat_mul(ctx, out, table[letter])
    return _is_scalar_one(ctx, out)
