"""Independent oracle implementations used only by the tests.

Everything here recomputes results by a different route than the library:
a point-by-point BFS for the Schreier tree and dict-built Schreier data,
Reidemeister-Schreier rewriting coset by coset and letter by letter over
Z, fed to sympy's Smith normal form or reduced mod P (and folded with
dicts) as the reference for the library's all-cosets walk and its
power-relator fold, brute-force enumeration of matrix pairs
over small PSL2(F_q), multiplication-table checks for small pc-groups,
a reference field on coefficient tuples, and a few cross-checks that only
tests call.
"""

import itertools

import numpy as np
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from covertower.arith import factorize
from covertower.errors import DomainError, InternalInvariantError
from covertower.fpcore.sparse import SparseMatModP, sparse_rank_mod_p


def snf_diagonal(rows):
    if not rows or not rows[0]:
        return []
    m = smith_normal_form(Matrix(rows))
    return [int(m[i, i]) for i in range(min(m.shape)) if m[i, i] != 0]


def reference_orbit_and_transversal(gens, base):
    """Point-by-point BFS orbit of `base` and its Schreier tree
    {point: (parent, generator index, sign)}, generators tried in index
    order, positive before negative: the reference for the library's
    level-by-level `schreier_tree`."""
    invs = [g.inverse() for g in gens]
    orbit = [base]
    tree = {}
    seen = {base}
    qi = 0
    while qi < len(orbit):
        pt = orbit[qi]
        qi += 1
        for i, g in enumerate(gens):
            for sign, h in ((1, g), (-1, invs[i])):
                img = h(pt)
                if img not in seen:
                    seen.add(img)
                    orbit.append(img)
                    tree[img] = (pt, i, sign)
    return orbit, tree


def schreier_data(pres, images, point):
    """Cosets, tree edges and Schreier-generator numbering for the
    stabilizer of `point`, with dicts, from the reference BFS.

    Returns (cosets, coset_index, tree_edges, schreier_cols) where
    tree_edges is the set of (coset position, generator index) pairs
    identified with the identity, and schreier_cols maps the remaining
    pairs, in (coset, generator) order, to column numbers.
    """
    orbit, tree = reference_orbit_and_transversal(images, point)
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
    return SparseMatModP(len(rows), ncols, P, *zip(*triples)), ncols


def reference_folded_matrix(pres, images, point, P):
    """The power-relator fold of `abelianized_rewriting_matrix`, with dicts
    over the rows of `full_rewrite_rows`: the first pure power s^+-e of
    each generator s is dropped, and for each s-cycle C of length L with
    e/L != 0 mod P the lowest column of C is replaced by minus the sum of
    C's other columns and deleted.  Returns (SparseMatModP, generator
    count) in the library's row and column order."""
    orbit, cindex, _tree, cols = schreier_data(pres, images, point)
    first = {}
    for r, rel in enumerate(pres.relators):
        if rel and len(set(rel)) == 1:
            first.setdefault(abs(rel[0]) - 1, r)
    subst = {}  # pivot column -> the other columns of its cycle
    for gi, r in first.items():
        e, g, done = len(pres.relators[r]), images[gi], set()
        for start in orbit:
            if start in done:
                continue
            cycle = [start]
            while g(cycle[-1]) != start:
                cycle.append(g(cycle[-1]))
            done.update(cycle)
            if e % len(cycle):
                raise InternalInvariantError("power relator moves a coset")
            if e // len(cycle) % P:
                ccols = sorted(cols[(cindex[c], gi)] for c in cycle if (cindex[c], gi) in cols)
                subst[ccols[0]] = ccols[1:]
    rows, ncols = full_rewrite_rows(pres, images, point)
    n = len(orbit)
    renumber = {c: i for i, c in enumerate(c for c in range(ncols) if c not in subst)}
    triples = []
    walked = [r for r in range(len(pres.relators)) if r not in first.values()]
    for w, r in enumerate(walked):
        for c in range(n):
            acc = {}
            for j, v in enumerate(rows[r * n + c]):
                targets = [(o, -v) for o in subst[j]] if j in subst else [(j, v)]
                for k, x in targets:
                    acc[renumber[k]] = acc.get(renumber[k], 0) + x
            triples += [(w * n + c, k, x) for k, x in acc.items() if x]
    mat = SparseMatModP(len(walked) * n, len(renumber), P, *zip(*triples))
    return mat, len(renumber)


def to_dense(mat):
    """The int64 array of a SparseMatModP."""
    a = np.zeros((mat.nrows, mat.ncols), dtype=np.int64)
    a[mat.rows, mat.cols] = mat.vals
    return a


def mod_p_rank_h1(pres, P):
    """dim H_1(pres; F_P) = ngens - rank of the exponent matrix over F_P."""
    rows = pres.exponent_matrix()
    entries = [(i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v]
    mat = SparseMatModP(len(rows), pres.ngens, P, *zip(*entries))
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
        for a in range(q):
            for b in range(q):
                for c in range(q):
                    if a == 0:
                        if b == 0:
                            continue
                        # det = -bc = 1
                        if c != ctx.neg(ctx.inv(b)):
                            continue
                        for d in range(q):
                            self.elements.add(self.canon((a, b, c, d)))
                        continue
                    # d = (1 + bc)/a
                    d = ctx.mul(ctx.add(1, ctx.mul(b, c)), ctx.inv(a))
                    self.elements.add(self.canon((a, b, c, d)))
        self.elements = sorted(self.elements)

    def canon(self, m):
        """Projective representative: negate so the first nonzero entry has
        the smaller encoding."""
        neg = tuple(self.ctx.neg(x) for x in m)
        for x, y in zip(m, neg):
            if x != y:
                return m if x < y else neg
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
        return self.canon((1, 0, 0, 1))

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
        for e in range(1, q):
            if ctx.sqrt(e) is None:
                twist = (e, 0, 0, 1)
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
    return M[1] == M[2] == 0 and M[0] == M[3] and ctx.mul(M[0], M[0]) == 1


def companion_projective_order(ctx, x, bound):
    """Least j <= bound with M^j = +-I for M = [[x,-1],[1,0]], found by
    multiplying out the powers; None when there is none."""
    M = (x, ctx.neg(1), 1, 0)
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
    out = (1, 0, 0, 1)
    for letter in word:
        out = _mat_mul(ctx, out, table[letter])
    return _is_scalar_one(ctx, out)


# --- reference field on coefficient tuples ----------------------------------


def _poly_mul_mod(a, b, modulus, p):
    """Schoolbook product of coefficient tuples (low degree first) mod p,
    then long division by the monic `modulus`."""
    m = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(len(prod) - 1, m - 1, -1):
        c = prod[d]
        if c:
            for j, mj in enumerate(modulus):
                prod[d - m + j] = (prod[d - m + j] - c * mj) % p
    return tuple(prod[:m]) + (0,) * (m - len(prod[:m]))


def _poly_rem(a, f, p):
    """Remainder of a by the monic f over F_p, both low degree first."""
    a = list(a)
    for d in range(len(a) - 1, len(f) - 2, -1):
        c = a[d]
        if c:
            for j, fj in enumerate(f):
                a[d - len(f) + 1 + j] = (a[d - len(f) + 1 + j] - c * fj) % p
    return a[: len(f) - 1]


def _monic_polys(p, degree):
    for low in itertools.product(range(p), repeat=degree):
        yield low + (1,)


class ReferenceField:
    """F_{p^m} on coefficient tuples, low degree first.

    The modulus is the monic irreducible of degree m with the least
    base-p number, found by trial division by every monic polynomial of
    degree <= m/2.  Inverse, square root and powers are found by search or
    repeated multiplication, with no tables.  `encode` and `decode` map
    tuples to the library's ints (the base-p number of the coefficients)."""

    def __init__(self, p, m):
        self.p, self.m, self.q = p, m, p**m
        factors = [g for d in range(1, m // 2 + 1) for g in _monic_polys(p, d)]
        self.modulus = (0, 1)  # the polynomial z when m = 1
        if m > 1:
            # itertools.product runs through the base-p numbers in order,
            # most significant digit (the top coefficient) first
            self.modulus = next(
                f
                for f in (tuple(reversed(v)) + (1,) for v in itertools.product(range(p), repeat=m))
                if all(any(_poly_rem(f, g, p)) for g in factors)
            )
        self.elements = [self.decode(i) for i in range(self.q)]
        self.zero, self.one = self.elements[0], self.elements[1]

    def decode(self, i):
        out = []
        for _ in range(self.m):
            i, c = divmod(i, self.p)
            out.append(c)
        return tuple(out)

    def encode(self, a):
        return sum(c * self.p**i for i, c in enumerate(a))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.m == 1:
            return (a[0] * b[0] % self.p,)
        return _poly_mul_mod(a, b, self.modulus, self.p)

    def inv(self, a):
        for b in self.elements:
            if self.mul(a, b) == self.one:
                return b
        raise DomainError("inverse of zero")

    def pow(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        out = self.one
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def frobenius(self, a):
        return self.pow(a, self.p)

    def square_roots(self, a):
        return [r for r in self.elements if self.mul(r, r) == a]


# --- cross-checks that only tests call --------------------------------------


def element_order(ctx, e) -> int:
    """Multiplicative order, via the factorization of q-1."""
    if not e:
        raise DomainError("order of zero is undefined")
    order = ctx.q - 1
    for ell in factorize(order):
        while order % ell == 0 and ctx.pow(e, order // ell) == 1:
            order //= ell
    return order


def zeta_k2_by_ideal_count(limit: int = 10**6) -> float:
    """Slow cross-check of zeta_K(2) for K = Q(sqrt(-2)): the sum of
    1/N(I)^2 over ideals of norm <= limit.

    The ideal count of norm n is the divisor sum of the character of
    discriminant -8, accumulated by a direct sieve; no L-series shortcut.
    """
    chi = {1: 1, 3: 1, 5: -1, 7: -1}
    counts = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1, 2):
        counts[d::d] += chi[d % 8]
    n = np.arange(1, limit + 1, dtype=np.float64)
    return float((counts[1:] / (n * n)).sum())
