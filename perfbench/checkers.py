"""Arithmetic the benchmark checks results with, written apart from covertower.

Nothing here imports the program under test.  Field elements use the
program's published encoding (base-p digits of the coefficient vector, low
degree first, with the least irreducible modulus in that order) only so
that reports can be compared; every operation is recomputed here.
"""

import numpy as np


# --- finite fields ------------------------------------------------------------


def is_prime(n):
    """Trial division; meant for the small moduli used here."""
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def _digits(v, p, m):
    out = []
    for _ in range(m):
        out.append(v % p)
        v //= p
    return out


def _poly_mod(a, f, p):
    """Remainder of a modulo the monic f (coefficient lists, low first)."""
    a = list(a)
    d = len(f) - 1
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i] % p
        if c:
            for j in range(d + 1):
                a[i - d + j] = (a[i - d + j] - c * f[j]) % p
    return [x % p for x in a[:d]] + [0] * max(0, d - len(a))


def _has_factor(f, p):
    """True when the monic f has a monic factor of degree 1..deg(f)//2
    (trial division by every such polynomial)."""
    m = len(f) - 1
    for d in range(1, m // 2 + 1):
        for v in range(p**d):
            g = _digits(v, p, d) + [1]
            if not any(_poly_mod(f, g, p)):
                return True
    return False


def least_irreducible(p, m):
    """Monic irreducible of degree m whose low-first coefficients, read as
    base-p digits, are least."""
    for v in range(p**m):
        f = _digits(v, p, m) + [1]
        if m == 1 or not _has_factor(f, p):
            return f
    raise ValueError(f"no irreducible of degree {m} over F_{p}")


class Field:
    """F_q with elements 0..q-1.  Prime fields compute mod p directly; an
    extension keeps full addition and multiplication tables, so keep q small."""

    def __init__(self, p, m=1):
        self.p, self.m, self.q = p, m, p**m
        if m == 1:
            return
        q = self.q
        f = least_irreducible(p, m)
        polys = [_digits(v, p, m) for v in range(q)]
        weights = [p**i for i in range(m)]

        def enc(c):
            return sum(x * w for x, w in zip(c, weights))

        self._add = [[enc([(x + y) % p for x, y in zip(a, b)]) for b in polys] for a in polys]
        mul = []
        for a in polys:
            row = []
            for b in polys:
                prod = [0] * (2 * m - 1)
                for i, x in enumerate(a):
                    if x:
                        for j, y in enumerate(b):
                            prod[i + j] += x * y
                row.append(enc(_poly_mod(prod, f, p)))
            mul.append(row)
        self._mul = mul
        self._neg = [enc([(-x) % p for x in a]) for a in polys]
        self._inv = [None] + [row.index(1) for row in mul[1:]]

    def encode(self, coeffs):
        """Element from a low-first coefficient list."""
        return sum(c * self.p**i for i, c in enumerate(coeffs))

    def const(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.q if self.m == 1 else self._add[a][b]

    def neg(self, a):
        return (-a) % self.q if self.m == 1 else self._neg[a]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        return a * b % self.q if self.m == 1 else self._mul[a][b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.q - 2, self.q) if self.m == 1 else self._inv[a]

    def frobenius(self, a):
        out = 1
        for _ in range(self.p):
            out = self.mul(out, a)
        return out

    def sqrt(self, a):
        """Some square root of a, or None."""
        if a == 0:
            return 0
        if self.m > 1 or self.q == 2:
            for r in range(self.q):
                if self.mul(r, r) == a:
                    return r
            return None
        return _tonelli(a, self.q)


def _tonelli(a, p):
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    s, d = 0, p - 1
    while d % 2 == 0:
        s, d = s + 1, d // 2
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, d, p), pow(a, d, p), pow(a, (d + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


# --- 2x2 matrices as (a, b, c, d) -------------------------------------------


def mat_mul(F, A, B):
    a, b, c, d = A
    e, f, g, h = B
    return (
        F.add(F.mul(a, e), F.mul(b, g)),
        F.add(F.mul(a, f), F.mul(b, h)),
        F.add(F.mul(c, e), F.mul(d, g)),
        F.add(F.mul(c, f), F.mul(d, h)),
    )


def mat_adj(F, A):
    """Inverse of a determinant-1 matrix."""
    a, b, c, d = A
    return (d, F.neg(b), F.neg(c), a)


def mat_det(F, A):
    a, b, c, d = A
    return F.sub(F.mul(a, d), F.mul(b, c))


def mat_trace(F, A):
    return F.add(A[0], A[3])


def is_scalar_pm_one(F, A):
    a, b, c, d = A
    return b == 0 and c == 0 and a == d and a in (1, F.neg(1))


def word_matrix(F, word, mats):
    """Product of mats[g] (or its inverse for -g) along word, left to right."""
    out = (1, 0, 0, 1)
    for letter in word:
        M = mats[abs(letter)]
        out = mat_mul(F, out, M if letter > 0 else mat_adj(F, M))
    return out


def projective_order(F, A, limit):
    cur, n = A, 1
    while n <= limit:
        if is_scalar_pm_one(F, cur):
            return n
        cur, n = mat_mul(F, cur, A), n + 1
    return None


def twist_words(n, k):
    """Relators a^k, b^k, w^n a w^-n b^-1 with w = b a^-1 b^-1 a."""
    w = (2, -1, -2, 1)
    wn = w * n if n > 0 else tuple(-x for x in reversed(w)) * (-n)
    wn_inv = tuple(-x for x in reversed(wn))
    return ((1,) * k, (2,) * k, wn + (1,) + wn_inv + (-2,))


def pair_from_traces(F, x, y):
    """(A, B) of determinant 1 with tr A = tr B = x and tr AB = y:
    A the companion matrix of x, B = [[c, b], [g, x - c]] for the least c
    whose quadratic in g has a root over F."""
    A = (x, F.neg(1), 1, 0)
    for c in range(F.q):
        beta = F.sub(y, F.mul(x, c))
        const = F.sub(1, F.mul(c, F.sub(x, c)))
        g = _quadratic_root(F, beta, const)
        if g is None:
            continue
        B = (c, F.add(g, beta), g, F.sub(x, c))
        if mat_det(F, B) != 1 or mat_trace(F, mat_mul(F, A, B)) != y:
            raise ArithmeticError("trace-pair solve drifted")
        return A, B
    raise ArithmeticError("no pair with these traces over F")


def _quadratic_root(F, beta, const):
    """A root of g^2 + beta g + const over F, or None."""
    if F.p == 2:
        for g in range(F.q):
            if F.add(F.add(F.mul(g, g), F.mul(beta, g)), const) == 0:
                return g
        return None
    disc = F.sub(F.mul(beta, beta), F.mul(F.const(4), const))
    r = F.sqrt(disc)
    if r is None:
        return None
    return F.mul(F.sub(r, beta), F.inv(F.const(2)))


def fricke_commutator_trace(F, x, y):
    """tr[A, B] for tr A = tr B = x, tr AB = y: 2x^2 + y^2 - x^2 y - 2."""
    xx = F.mul(x, x)
    return F.sub(F.add(F.add(F.add(xx, xx), F.mul(y, y)), F.neg(F.mul(xx, y))), F.const(2))


def check_pair(F, n, k, x, y):
    """Reasons the trace pair fails as a twist-knot representation (empty
    when it holds): relators projectively trivial, tr[A,B] != 2, and the
    meridian of projective order dividing k."""
    reasons = []
    A, B = pair_from_traces(F, x, y)
    for word in twist_words(n, k):
        if not is_scalar_pm_one(F, word_matrix(F, word, {1: A, 2: B})):
            reasons.append(f"relator {word} is not +-I")
    if fricke_commutator_trace(F, x, y) == F.const(2):
        reasons.append("tr[A,B] = 2 (reducible)")
    order = projective_order(F, A, k)
    if order is None or k % order:
        reasons.append(f"meridian projective order {order} does not divide {k}")
    return reasons


def p1_images(F, M):
    """Images of the points of P^1(F): i < q is (i : 1), q is (1 : 0)."""
    a, b, c, d = M
    q = F.q
    out = []
    for z in range(q):
        num = F.add(F.mul(a, z), b)
        den = F.add(F.mul(c, z), d)
        out.append(q if den == 0 else F.mul(num, F.inv(den)))
    out.append(q if c == 0 else F.mul(a, F.inv(c)))
    return out


def is_transitive(perms):
    degree = len(perms[0])
    invs = []
    for g in perms:
        inv = [0] * degree
        for i, x in enumerate(g):
            inv[x] = i
        invs.append(inv)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for pt in frontier:
            for g in perms + invs:
                img = g[pt]
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return len(seen) == degree


def canonical_trace_key(F, x, y):
    """Least (x, y) over Frobenius twists and the sign flips (x, y) -> (-x, y),
    and (0, y) -> (0, -y)."""
    cands = []
    for _ in range(F.m):
        for sx in (x, F.neg(x)):
            cands.append((sx, y))
            if sx == 0:
                cands.append((sx, F.neg(y)))
        x, y = F.frobenius(x), F.frobenius(y)
    return min(cands)


# --- brute-force class count over PSL2(F_q), q prime --------------------------


def _canon(q, M):
    """Projective representative: the first nonzero entry made <= its negative."""
    for v in M:
        if v:
            return M if v <= q - v else tuple((-x) % q for x in M)
    return M


def brute_class_count(q, n, k):
    """Surjections of <a, b | a^k, b^k, w^n a w^-n b^-1> onto PSL2(F_q) up to
    PGL2(F_q) conjugation (all of Aut(PSL2(F_q)) for prime q), by direct
    search over matrices."""
    if q < 5:
        raise ValueError("brute force is set up for primes q >= 5")
    F = Field(q)

    def mul(A, B):
        return _canon(q, mat_mul(F, A, B))

    ident = _canon(q, (1, 0, 0, 1))
    psl = set()
    for a in range(q):
        for b in range(q):
            for c in range(q):
                if a:
                    psl.add(_canon(q, (a, b, c, (1 + b * c) * pow(a, q - 2, q) % q)))
                elif b and c == (-pow(b, q - 2, q)) % q:
                    for d in range(q):
                        psl.add(_canon(q, (a, b, c, d)))
    order = q * (q * q - 1) // 2
    if len(psl) != order:
        raise ArithmeticError("PSL2 element count is off")

    def power(A, e):
        out = ident
        for _ in range(e):
            out = mul(out, A)
        return out

    torsion = sorted(g for g in psl if g != ident and power(g, k) == ident)
    third = twist_words(n, k)[2]

    def word_value(word, A, B):
        out = ident
        for letter in word:
            M = {1: A, 2: B}[abs(letter)]
            out = mul(out, M if letter > 0 else _canon(q, mat_adj(F, M)))
        return out

    def generates(gens):
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = mul(x, g)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
            if len(seen) > order // 2:
                return True
        return False

    # PGL2 conjugation orbits of the meridian image, with centralizer sizes
    pgl = []
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    M = (a, b, c, d)
                    if (a * d - b * c) % q and M == _pgl_canon(q, M):
                        pgl.append(M)
    total = 0
    done = set()
    for A in torsion:
        if A in done:
            continue
        orbit = set()
        for g in pgl:
            # g A adj(g) / det(g) is the determinant-1 conjugate
            s = pow((g[0] * g[3] - g[1] * g[2]) % q, q - 2, q)
            conj = _mm(q, _mm(q, g, A), _pgl_inverse(q, g))
            orbit.add(_canon(q, tuple(x * s % q for x in conj)))
        done |= orbit
        centralizer = len(pgl) // len(orbit)
        count = sum(
            1
            for B in torsion
            if word_value(third, A, B) == ident and generates([A, B])
        )
        if count % centralizer:
            raise ArithmeticError("PGL2 action on generating pairs is not free")
        total += count // centralizer
    return total


def _mm(q, A, B):
    a, b, c, d = A
    e, f, g, h = B
    return ((a * e + b * g) % q, (a * f + b * h) % q, (c * e + d * g) % q, (c * f + d * h) % q)


def _pgl_canon(q, M):
    """Scale so the first nonzero entry is 1."""
    for v in M:
        if v:
            s = pow(v, q - 2, q)
            return tuple(x * s % q for x in M)
    return M


def _pgl_inverse(q, M):
    a, b, c, d = M
    return (d, (-b) % q, (-c) % q, a)


# --- free groups, abelianization, homology ------------------------------------


def cumulative_necklaces(d, cmax):
    """[sum_{j<=c} L_d(j) for c = 1..cmax], L_d(j) the number of Lyndon words
    of length j over d letters, counted by Duval's generation."""
    counts = [0] * (cmax + 1)
    w = [-1]
    while w:
        w[-1] += 1
        counts[len(w)] += 1
        m = len(w)
        while len(w) < cmax:
            w.append(w[len(w) - m])
        while w and w[-1] == d - 1:
            w.pop()
    out, acc = [], 0
    for j in range(1, cmax + 1):
        acc += counts[j]
        out.append(acc)
    return out


def abelianized_rank_mod_p(ngens, relators, p):
    """dim_F_p of the abelianization tensored with F_p: ngens minus the rank
    of the exponent-sum matrix mod p."""
    rows = []
    for rel in relators:
        row = [0] * ngens
        for letter in rel:
            row[abs(letter) - 1] += 1 if letter > 0 else -1
        rows.append(row)
    if not rows:
        return ngens
    return ngens - dense_rank_mod_p(np.array(rows, dtype=np.int64), p)


def dense_rank_mod_p(a, P):
    """Rank over F_P by Gauss-Jordan elimination on a dense int64 array
    (P < 2^31, so products fit)."""
    a = np.array(a, dtype=np.int64) % P
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        nz = np.flatnonzero(a[rank:, col])
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        a[[rank, piv]] = a[[piv, rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), P - 2, P) % P
        below = rank + 1 + np.flatnonzero(a[rank + 1 :, col])
        if below.size:
            a[below] = (a[below] - np.outer(a[below, col], a[rank])) % P
        rank += 1
    return rank


def cover_betti_dense(relators, perms, P):
    """dim H_1 of the cover of the presentation 2-complex given by a transitive
    permutation action, over F_P: N + 1 minus the rank of the face boundary
    matrix (one row per relator and start point, one column per edge)."""
    N = len(perms[0])
    ngens = len(perms)
    invs = []
    for g in perms:
        inv = [0] * N
        for i, x in enumerate(g):
            inv[x] = i
        invs.append(inv)
    mat = np.zeros((len(relators) * N, ngens * N), dtype=np.int64)
    for r, rel in enumerate(relators):
        for start in range(N):
            row = mat[r * N + start]
            pt = start
            for letter in rel:
                g = abs(letter) - 1
                if letter > 0:
                    row[g * N + pt] += 1
                    pt = perms[g][pt]
                else:
                    pt = invs[g][pt]
                    row[g * N + pt] -= 1
            if pt != start:
                raise ArithmeticError("relator does not close up on P^1")
    return N + 1 - dense_rank_mod_p(mat, P)
