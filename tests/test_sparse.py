import random

import numpy as np
import pytest

from covertower.errors import ParameterError
from covertower.fpcore import SparseMatModP, rank_dense_mod_p, sparse, sparse_rank_mod_p
from helpers_oracle import to_dense


def test_identity_rank():
    m = SparseMatModP(3, 3, 31991, range(3), range(3), [1, 1, 1])
    assert sparse_rank_mod_p(m) == 3


def test_zero_matrix():
    assert sparse_rank_mod_p(SparseMatModP(4, 5, 31991)) == 0


def test_value_vanishing_mod_p():
    m = SparseMatModP(1, 1, 31991, [0], [0], [31991 * 7])
    assert m.entries == {}
    assert sparse_rank_mod_p(m) == 0


def test_duplicate_triples_sum():
    m = SparseMatModP(1, 1, 5, [0, 0], [0, 0], [3, 2])
    assert m.entries == {}
    m2 = SparseMatModP(1, 1, 5, [0, 0], [0, 0], [3, 3])
    assert m2.entries == {(0, 0): 1}


def test_bad_construction():
    with pytest.raises(ParameterError):
        SparseMatModP(2, 2, 6)
    with pytest.raises(ParameterError):
        SparseMatModP(2, 2, 5, [2], [0], [1])
    with pytest.raises(ParameterError):
        SparseMatModP(2, 2, 5, [0], [-1], [1])
    with pytest.raises(ParameterError):
        SparseMatModP(2, 2, 5, [0, 1], [0], [1])
    with pytest.raises(ParameterError):
        SparseMatModP(2, 2, 4294967311)  # prime, past 2^31


def test_construction_matches_the_triple_loop():
    """Coordinate arrays with repeated positions and values of both signs
    give the entries of summing each triple into a dict mod p, stored
    sorted by (row, column)."""
    rng = random.Random(11)
    for p in (2, 3, 31991):
        for _ in range(20):
            m, n = rng.randint(1, 9), rng.randint(1, 9)
            triples = [
                (rng.randrange(m), rng.randrange(n), rng.randint(-3 * p, 3 * p))
                for _ in range(rng.randint(0, 60))
            ]
            acc = {}
            for r, c, v in triples:
                acc[(r, c)] = (acc.get((r, c), 0) + v) % p
            mat = SparseMatModP(m, n, p, *zip(*triples))
            assert mat.entries == {k: v for k, v in acc.items() if v}
            keys = list(zip(mat.rows.tolist(), mat.cols.tolist()))
            assert keys == sorted(acc.keys() & mat.entries.keys())


@pytest.mark.parametrize("p", [2, 5, 31991])
def test_random_ranks_match_numpy_reference(p):
    rng = random.Random(p)
    for _ in range(25):
        m = rng.randint(1, 12)
        n = rng.randint(1, 12)
        triples = []
        for _ in range(rng.randint(0, 3 * max(m, n))):
            triples.append((rng.randrange(m), rng.randrange(n), rng.randint(-20, 20)))
        mat = SparseMatModP(m, n, p, *zip(*triples))
        want = _reference_rank(to_dense(mat), p)
        assert sparse_rank_mod_p(mat) == want
        assert rank_dense_mod_p(to_dense(mat), p) == want


def test_dense_rank_at_the_modulus_bound():
    """The largest prime below 2^31 still ranks exactly; a modulus past the
    bound (where int64 products of residues overflow) is refused."""
    P = 2**31 - 1
    rng = random.Random(7)
    for _ in range(20):
        m, n, r = rng.randint(2, 6), rng.randint(2, 6), rng.randint(1, 3)
        left = [[rng.randrange(P) for _ in range(r)] for _ in range(m)]
        right = [[rng.randrange(P) for _ in range(n)] for _ in range(r)]
        rows = [[sum(x * y for x, y in zip(row, col)) % P for col in zip(*right)]
                for row in left]
        a = np.array(rows, dtype=np.int64)
        assert rank_dense_mod_p(a.copy(), P) == _reference_rank(a, P)
    with pytest.raises(ParameterError):
        rank_dense_mod_p(np.eye(2, dtype=np.int64), 4294967311)


def _product_mod(left, right, p):
    """left @ right mod p for int64 residues, one rank-one term at a time,
    so that nothing overflows below 2^31."""
    a = np.zeros((left.shape[0], right.shape[1]), dtype=np.int64)
    for i in range(left.shape[1]):
        a = (a + np.outer(left[:, i], right[i])) % p
    return a


def _low_rank(rng, m, n, r, p):
    """An m x n product of random m x r and r x n matrices mod p."""
    nprng = np.random.default_rng(rng.randrange(2**32))
    left = nprng.integers(0, p, size=(m, r), dtype=np.int64)
    right = nprng.integers(0, p, size=(r, n), dtype=np.int64)
    return _product_mod(left, right, p)


@pytest.mark.parametrize("P", [65537, 2**31 - 1])
def test_dense_rank_of_a_narrow_integer_block(P):
    """An int32 block is ranked as int64; an int32 product of residues
    would wrap.  A dtype that does not cast to int64 safely is refused."""
    rng = random.Random(P)
    for _ in range(20):
        a = _low_rank(rng, 6, 6, 2, P)
        assert rank_dense_mod_p(a.astype(np.int32), P) == _reference_rank(a, P)
    for a in (np.eye(2), np.eye(2, dtype=np.uint64), np.eye(2, dtype=object)):
        with pytest.raises(ParameterError):
            rank_dense_mod_p(a, 5)


@pytest.mark.parametrize("p", [2, 3, 31991, 268435399, 2**31 - 1])
def test_dense_rank_matches_sympy_on_low_rank_blocks(p):
    """Lazy reduction against sympy on a random rank-100 150 x 120 block
    whose entries are shifted by multiples of p, some of them negative."""
    rng = random.Random(f"budget-{p}")
    a = _low_rank(rng, 150, 120, 100, p)
    shift = np.random.default_rng(rng.randrange(2**32)).integers(-3, 2, size=a.shape)
    assert rank_dense_mod_p(a + shift * p, p) == _reference_rank(a, p)


@pytest.mark.parametrize(
    "p,shape,r", [(268435399, (140, 134), 131), (2**31 - 1, (12, 10), 6)]
)
def test_dense_rank_at_the_worst_case_of_the_update_budget(p, shape, r):
    """L @ U with unit triangular L (m x r) and U (r x n) whose other
    entries are p - 1: every pivot is 1 and every update subtracts
    (p-1)^2 from each trailing entry, the most the update budget allows.
    The budget is 128 below 2^28, crossed once by 131 pivots, and 2 at
    2^31 - 1.  The rank is r, as L has full column rank and U full row
    rank; an overflow shows up as a larger rank."""
    m, n = shape
    left = np.tril(np.full((m, r), p - 1, dtype=np.int64), -1) + np.eye(m, r, dtype=np.int64)
    right = np.triu(np.full((r, n), p - 1, dtype=np.int64), 1) + np.eye(r, n, dtype=np.int64)
    assert rank_dense_mod_p(_product_mod(left, right, p), p) == r


def _block_diagonal(p, seed):
    """Block-diagonal sum of small random blocks, rows and columns permuted.

    Returns the triples, the shape and the expected rank (the sum of the
    blocks' reference ranks).  Non-zero rows hold 3-4 entries, so pivots
    fill in; some blocks are zero and some repeat a row, scaled."""
    rng = random.Random(seed)
    triples, want, nrows, ncols = [], 0, 0, 0
    while nrows <= 600:
        m = rng.randint(3, 10)
        n = rng.randint(m, 10)
        block = np.zeros((m, n), dtype=np.int64)
        if rng.random() >= 0.1:
            for i in range(m):
                for j in rng.sample(range(n), rng.randint(3, min(4, n))):
                    block[i, j] = rng.randint(1, p - 1)
            block[rng.randrange(m)] = block[rng.randrange(m)] * rng.randint(1, p - 1)
        want += _reference_rank(block % p, p)
        for i, j in zip(*np.nonzero(block)):
            triples.append((nrows + int(i), ncols + int(j), int(block[i, j])))
        nrows, ncols = nrows + m, ncols + n
    rperm, cperm = list(range(nrows)), list(range(ncols))
    rng.shuffle(rperm)
    rng.shuffle(cperm)
    triples = [(rperm[r], cperm[c], v) for r, c, v in triples]
    return triples, (nrows, ncols), want


def _reference_dense_block(mat):
    """The elimination loop without the column index: every pivot scans all
    rows.  Returns the rank found before the dense switch and the dense
    block handed on, which the indexed loop must reproduce exactly."""
    p = mat.p
    rows = [r for r in mat.row_dicts() if r]
    rank = 0
    while rows:
        counts = {}
        for r in rows:
            for c in r:
                counts[c] = counts.get(c, 0) + 1
        nnz = sum(len(r) for r in rows)
        if (
            len(rows) <= sparse._DENSE_DIM
            and len(counts) <= sparse._DENSE_DIM
            or nnz > sparse._DENSE_FILL * len(rows) * max(len(counts), 1)
        ):
            cols = sorted(counts)
            a = np.zeros((len(rows), len(cols)), dtype=np.int64)
            for i, r in enumerate(rows):
                for c, v in r.items():
                    a[i, cols.index(c)] = v
            return rank, a
        pi = min(range(len(rows)), key=lambda i: (len(rows[i]), i))
        prow = rows.pop(pi)
        pc = min(prow, key=lambda c: (counts[c], c))
        rank += 1
        inv = pow(prow[pc], p - 2, p)
        out = []
        for r in rows:
            f = r.get(pc)
            if f is not None:
                r = {c: (r.get(c, 0) - f * inv * prow.get(c, 0)) % p for c in set(r) | set(prow)}
                r = {c: v for c, v in r.items() if v}
            if r:
                out.append(r)
        rows = out
    return rank, None


@pytest.mark.parametrize("p", [2, 5, 31991])
def test_sparse_elimination_on_block_diagonal(p, monkeypatch):
    blocks = []
    real = sparse.rank_dense_mod_p

    def spy(a, q):
        blocks.append(a.copy())
        return real(a, q)

    monkeypatch.setattr(sparse, "rank_dense_mod_p", spy)
    for seed in range(3):
        triples, (m, n), want = _block_diagonal(p, f"{p}-{seed}")
        mat = SparseMatModP(m, n, p, *zip(*triples))
        assert len({r for r, _ in mat.entries}) > 400  # too tall to start dense
        entries = dict(mat.entries)
        blocks.clear()
        assert sparse_rank_mod_p(mat) == want
        assert mat.entries == entries
        # same pivots as the unindexed loop, so the same dense block
        rank, block = _reference_dense_block(mat)
        assert block is not None and rank > 0
        assert len(blocks) == 1 and np.array_equal(blocks[0], block)


def _reference_rank(a, p):
    """Rank over GF(p) via sympy's DomainMatrix, independent of the library."""
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    if a.size == 0:
        return 0
    K = GF(p)
    dm = DomainMatrix(
        [[K(int(x)) for x in row] for row in a.tolist()], a.shape, K
    )
    return dm.rank()


def test_reference_rank_is_sane():
    a = np.array([[1, 2], [2, 4]])
    assert _reference_rank(a, 5) == 1
