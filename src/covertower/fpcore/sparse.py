"""Exact rank of sparse matrices over a prime field.

A matrix is built from coordinate arrays: repeated positions are summed
by one sort and `np.add.reduceat`, reduced mod p, and zero sums dropped.
The cover matrices of `fpcore.rewriting` arrive with their power relators
folded out.  An s-cycle of length L under a power relator s^e gives L
equal rows +-(e/L) * (sum of the cycle's columns); when e/L is a unit mod
p, the fold has already eliminated one column of the cycle and dropped
those rows (rank M = #eliminated cycles + rank(R K), R the other rows and
K the substitution), and when p divides e/L the rows are zero mod p and
nothing is eliminated.  So a rank here is that of the folded matrix.

Elimination keeps the live rows as dicts keyed by their original index and
picks pivots by a Markowitz-style cost (fill minimization): the shortest
row, lowest index first, then its rarest column, lowest index first.

A column index makes each pivot cost only the rows it touches: each column
keeps a list of the rows that may hold it, the live counts sit in
`col_count`, buckets of row ids sorted by id, one per row length, give
the pivot row, and the non-zero count is kept up to date.  Ids that went
stale in a list or a bucket are skipped on reading.  On each pivot only
the rows in the pivot column's list are eliminated.

Once the live block is at most _DENSE_DIM square, or its fill exceeds
_DENSE_FILL, the remainder is copied into a numpy block, the sparse rows
and the index are dropped, and a dense elimination finishes.  The pivots,
and so the dense block, depend only on the matrix, not on how the rows are
indexed.

The dense finish (`rank_dense_mod_p`) works in int64 and reduces mod p
lazily, as FFLAS-FFPACK does (Dumas-Giorgi-Pernet, ACM TOMS 2008): per
pivot it reduces only the pivot column and the pivot row, updates the rows
below on a contiguous slice, and reduces the trailing block only when one
more update could leave int64.  Below DENSE_MODULUS_BOUND = 2^31 that
happens after every second update at worst and never near p = 32000, and
all integers stay exact, so the rank is that of eager reduction.
"""

from bisect import insort

import numpy as np

from ..errors import ParameterError
from ..arith import is_prime

_DENSE_DIM = 400
_DENSE_FILL = 0.18
# the dense elimination subtracts products of two residues in int64: below
# 2^31 each product stays below 2^62, and two such updates fit between
# reductions.  SparseMatModP sums residues in int64 and refuses the same
# moduli, which the finish could not rank anyway.
DENSE_MODULUS_BOUND = 2**31


class SparseMatModP:
    """A matrix over F_p in coordinate form: int64 arrays `rows`, `cols`
    and `vals`, sorted by (row, column), one entry per position, values in
    1..p-1.

    The constructor takes coordinate arrays (array-likes of equal length)
    and sums the values of repeated positions mod p; positions whose sum
    is 0 mod p are dropped.
    """

    __slots__ = ("nrows", "ncols", "p", "rows", "cols", "vals")

    def __init__(self, nrows: int, ncols: int, p: int, rows=(), cols=(), vals=()):
        if not is_prime(p):
            raise ParameterError(f"modulus {p} is not prime")
        if p >= DENSE_MODULUS_BOUND:
            raise ParameterError(f"modulus {p} is not below 2^31")
        if nrows < 0 or ncols < 0:
            raise ParameterError("negative matrix dimension")
        rows, cols, vals = (np.asarray(x, dtype=np.int64).ravel() for x in (rows, cols, vals))
        if not rows.size == cols.size == vals.size:
            raise ParameterError("coordinate arrays of different lengths")
        outside = (rows < 0) | (rows >= nrows) | (cols < 0) | (cols >= ncols)
        if outside.any():
            i = int(np.argmax(outside))
            raise ParameterError(f"entry ({rows[i]},{cols[i]}) outside {nrows}x{ncols}")
        self.nrows = nrows
        self.ncols = ncols
        self.p = p
        key = rows * ncols + cols
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        # residues first, so that a sum of k of them stays below k * p
        sums = np.add.reduceat(vals[order] % p, starts) % p if starts.size else vals[:0]
        key = key[starts][sums != 0]
        self.rows, self.cols = np.divmod(key, max(ncols, 1))
        self.vals = sums[sums != 0]

    @property
    def entries(self):
        """The {(row, col): value} dict of the stored entries, built on
        each access."""
        return dict(zip(zip(self.rows.tolist(), self.cols.tolist()), self.vals.tolist()))

    def row_dicts(self):
        """One {col: value} dict per row."""
        cols, vals = self.cols.tolist(), self.vals.tolist()
        bounds = np.searchsorted(self.rows, np.arange(self.nrows + 1)).tolist()
        return [dict(zip(cols[a:b], vals[a:b])) for a, b in zip(bounds, bounds[1:])]


def rank_dense_mod_p(a: np.ndarray, p: int) -> int:
    """Gaussian elimination rank of an integer array mod p (a is consumed
    when it is already a contiguous int64 array).

    p must be below DENSE_MODULUS_BOUND and the dtype must cast safely to
    int64 (a narrower block is copied to int64 first); anything else
    raises ParameterError.

    Reduction mod p is lazy.  Per pivot, only the pivot column below the
    rank (before the non-zero test) and the pivot row are reduced; the
    rows below are updated on a contiguous slice without reduction.  An
    update subtracts the product of two reduced residues, at most (p-1)^2,
    from entries that start in [0, p-1], so after k updates every entry
    lies in [-k(p-1)^2, p-1].  The trailing block is reduced only after
    budget = (2^63 - 1 - (p-1)) // (p-1)^2 updates, the most that keep
    that interval inside int64.  Below 2^31 the budget is at least 2 (it
    is 2 at 2^31 - 1, 128 at the largest prime below 2^28 and about 9e9
    near 32000), so every integer is exact and the pivots are those of
    eager reduction.
    """
    if p >= DENSE_MODULUS_BOUND:
        raise ParameterError(f"modulus {p} is not below 2^31")
    if not np.can_cast(a.dtype, np.int64):
        raise ParameterError(f"dense block of dtype {a.dtype} does not cast to int64")
    a = np.ascontiguousarray(a, dtype=np.int64)
    a %= p  # in place, so that no second copy of the block is held
    m, n = a.shape
    budget = (2**63 - 1 - (p - 1)) // (p - 1) ** 2
    pending = 0  # updates since the trailing block was last reduced
    rank = 0
    for col in range(n):
        below = a[rank:, col]
        below %= p
        nz = np.flatnonzero(below)
        if nz.size == 0:
            continue
        if nz[0]:
            piv = rank + int(nz[0])
            a[[rank, piv], col:] = a[[piv, rank], col:]
        row = a[rank, col:]
        row %= p
        row *= pow(int(row[0]), p - 2, p)
        row %= p
        if nz.size > 1:
            # rows from `rank` down are zero mod p left of `col`, and only
            # rows rank + nz[1] to rank + nz[-1] hold `col`
            rest = a[rank + int(nz[1]) : rank + 1 + int(nz[-1]), col:]
            rest -= np.outer(rest[:, 0], row)
            pending += 1
            if pending == budget:
                a[rank + 1 :, col + 1 :] %= p
                pending = 0
        rank += 1
        if rank == m:
            break
    return rank


def sparse_rank_mod_p(mat: SparseMatModP) -> int:
    """Deterministic rank over F_p."""
    p = mat.p
    rows = {i: r for i, r in enumerate(mat.row_dicts()) if r}
    col_count = {}
    col_rows = {}  # column -> ids of rows that held it at some point
    by_len = {}  # length -> sorted ids of rows that had it
    nnz = 0
    for i, r in rows.items():
        nnz += len(r)
        by_len.setdefault(len(r), []).append(i)
        for c in r:
            col_count[c] = col_count.get(c, 0) + 1
            col_rows.setdefault(c, []).append(i)
    rank = 0
    while rows:
        live_cols = len(col_count)
        if (
            len(rows) <= _DENSE_DIM
            and live_cols <= _DENSE_DIM
            or nnz > _DENSE_FILL * len(rows) * max(live_cols, 1)
        ):
            cmap = {c: j for j, c in enumerate(sorted(col_count))}
            a = np.zeros((len(rows), len(cmap)), dtype=np.int64)
            for k, r in enumerate(rows.values()):
                for c, v in r.items():
                    a[k, cmap[c]] = v
            del rows, col_rows, by_len  # freed before the dense peak
            return rank + rank_dense_mod_p(a, p)
        # Markowitz-style pivot: shortest row, then rarest column inside it
        while True:
            length = min(by_len)
            bucket = by_len[length]
            while bucket and len(rows.get(bucket[0], ())) != length:
                del bucket[0]
            if bucket:
                break
            del by_len[length]
        prow = rows.pop(bucket.pop(0))
        nnz -= length
        pc = min(prow, key=lambda c: (col_count[c], c))
        rank += 1
        inv = pow(prow.pop(pc), p - 2, p)
        prow = [(c, v * inv % p) for c, v in prow.items()]
        del col_count[pc]
        for c, _ in prow:
            col_count[c] -= 1
            if not col_count[c]:
                del col_count[c]
        for i in col_rows.pop(pc):
            r = rows.get(i)
            if r is None or pc not in r:
                continue
            before = len(r)
            f = r.pop(pc)
            for c, v in prow:
                old = r.get(c)
                if old is None:
                    r[c] = -f * v % p
                    col_count[c] = col_count.get(c, 0) + 1
                    col_rows[c].append(i)
                else:
                    w = (old - f * v) % p
                    if w:
                        r[c] = w
                    else:
                        del r[c]
                        col_count[c] -= 1
                        if not col_count[c]:
                            del col_count[c]
            after = len(r)
            nnz += after - before
            if not after:
                del rows[i]
            elif after != before:
                insort(by_len.setdefault(after, []), i)
    return rank

