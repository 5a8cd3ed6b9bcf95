"""Arithmetic in F_q = F_{p^m}, 2x2 matrices, and the projective-line action.

Field elements are coefficient tuples of length m, low degree first, with
entries in 0..p-1; this is the only field representation in the package.
Each context owns a deterministic modulus: the monic irreducible of degree
m whose coefficient vector, read as base-p digits (low degree least
significant), is smallest.  No Conway-polynomial tables.

All computation stays inside F_q: the traces of a prescribed projective
order come from Chebyshev polynomials evaluated at x in F_q.
"""

from functools import lru_cache

from .arith import divisors, factorize, is_prime
from .errors import DomainError, ParameterError
from .fpcore.perms import Permutation


def _poly_mul_mod(a, b, p, red):
    """Product of coefficient tuples mod p, reduced by the table `red`
    (red[j] = coeffs of z^(m+j))."""
    m = len(red[0]) if red else 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(len(prod) - 1, m - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j, rj in enumerate(red[d - m]):
                prod[j] = (prod[j] + c * rj) % p
    out = prod[:m]
    out += [0] * (m - len(out))
    return tuple(out)


def _poly_is_irreducible(coeffs, p):
    """Monic polynomial z^m + sum coeffs[i] z^i irreducible over F_p?

    Checks gcd(f, z^(p^d) - z) = 1 for d <= m/2 (no factor of degree <= m/2).
    """
    m = len(coeffs)
    if m == 1:
        return True
    f = list(coeffs) + [1]

    def polymod(a, g):
        a = list(a)
        while len(a) >= len(g):
            c = a[-1]
            if c:
                shift = len(a) - len(g)
                for i, gi in enumerate(g):
                    a[shift + i] = (a[shift + i] - c * gi) % p
            a.pop()
        while a and a[-1] == 0:
            a.pop()
        return a

    def polmulmod(a, b):
        prod = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        return polymod(prod, f)

    def polpow_p(a):
        result = [1]
        base = list(a)
        e = p
        while e:
            if e & 1:
                result = polmulmod(result, base)
            base = polmulmod(base, base)
            e >>= 1
        return result

    def monicize(a):
        if not a:
            return a
        lead = a[-1]
        if lead != 1:
            inv = pow(lead, p - 2, p)
            a = [(x * inv) % p for x in a]
        return a

    cur = polpow_p([0, 1])  # z^p mod f
    for _ in range(m // 2):
        h = list(cur) + [0, 0]
        h[1] = (h[1] - 1) % p
        while h and h[-1] == 0:
            h.pop()
        a, b = list(f), monicize(h)
        while b:
            a, b = b, monicize(polymod(a, b))
        if len(a) != 1:
            return False
        cur = polpow_p(cur)
    return True


class FqCtx:
    """Immutable finite-field context; shareable across tasks."""

    def __init__(self, p, m):
        if not is_prime(p):
            raise ParameterError(f"{p} is not prime")
        if not 1 <= m <= 8:
            raise ParameterError(f"extension degree {m} outside 1..8")
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = self._find_modulus(p, m)
        # reduction table: z^(m+j) for j = 0..m-2 expressed in degrees < m
        red = []
        if m > 1:
            base = tuple((-c) % p for c in self.modulus[:m])
            red.append(base)
            for _ in range(m - 2):
                prev = red[-1]
                shifted = [0] + list(prev)
                carry = shifted[m] if len(shifted) > m else 0
                shifted = shifted[:m]
                if carry:
                    shifted = [(x + carry * b) % p for x, b in zip(shifted, base)]
                red.append(tuple(shifted))
        self._red = red
        self.zero = (0,) * m
        self.one = (1,) + (0,) * (m - 1)
        self._sqrt_cache = None

    @staticmethod
    def _find_modulus(p, m):
        if m == 1:
            return (0, 1)  # the polynomial z
        for v in range(p**m):
            coeffs = []
            x = v
            for _ in range(m):
                coeffs.append(x % p)
                x //= p
            if _poly_is_irreducible(coeffs, p):
                return tuple(coeffs) + (1,)
        raise ParameterError(f"no irreducible of degree {m} over F_{p}")  # unreachable

    # --- element plumbing -------------------------------------------------
    def elem(self, i: int):
        """i-th element: base-p digits of i, little-endian."""
        if not 0 <= i < self.q:
            raise ParameterError(f"element index {i} outside 0..{self.q - 1}")
        coeffs = []
        for _ in range(self.m):
            coeffs.append(i % self.p)
            i //= self.p
        return tuple(coeffs)

    def index(self, a) -> int:
        i = 0
        for c in reversed(a):
            i = i * self.p + c
        return i

    def from_int(self, n: int):
        return (n % self.p,) + (0,) * (self.m - 1)

    def elements(self):
        return (self.elem(i) for i in range(self.q))

    # --- field arithmetic -------------------------------------------------
    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def mul(self, a, b):
        if self.m == 1:
            return ((a[0] * b[0]) % self.p,)
        return _poly_mul_mod(a, b, self.p, self._red)

    def square(self, a):
        return self.mul(a, a)

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a):
        if a == self.zero:
            raise DomainError("inverse of zero")
        if self.m == 1:
            return (pow(a[0], self.p - 2, self.p),)
        return self.pow(a, self.q - 2)

    def frobenius(self, a):
        """a -> a^p."""
        return self.pow(a, self.p)

    def sqrt(self, a):
        """A square root in this field, or None.  Table-based; cached."""
        if self._sqrt_cache is None:
            table = {}
            for i in range(self.q):
                e = self.elem(i)
                s = self.mul(e, e)
                if s not in table:
                    table[s] = e
            self._sqrt_cache = table
        return self._sqrt_cache.get(a)

    def __eq__(self, other):
        return (
            isinstance(other, FqCtx) and self.p == other.p and self.m == other.m
        )

    def __hash__(self):
        return hash((self.p, self.m))

    def __repr__(self):
        return f"FqCtx(p={self.p}, m={self.m})"


@lru_cache(maxsize=None)
def fq_context(p: int, m: int) -> FqCtx:
    """Public context constructor (degrees 1..8)."""
    return FqCtx(p, m)


def element_order(ctx: FqCtx, e) -> int:
    """Multiplicative order, via the factorization of q-1."""
    if e == ctx.zero:
        raise DomainError("order of zero is undefined")
    order = ctx.q - 1
    for ell in factorize(order):
        while order % ell == 0 and ctx.pow(e, order // ell) == ctx.one:
            order //= ell
    return order


def order_k_traces(ctx: FqCtx, k: int, exact: bool = True):
    """Traces of 2x2 determinant-1 matrices of prescribed projective order.

    The companion matrix M of trace x satisfies M^j = S_{j-1}(x) M -
    S_{j-2}(x) I with S the Chebyshev polynomials of the second kind
    (S_{-1} = 0, S_0 = 1, S_j = x S_{j-1} - S_{j-2}), so M is scalar
    exactly when S_{j-1}(x) = 0.  With `exact`, x is returned when M has
    projective order exactly k: S_{k-1}(x) = 0 and S_{k/l-1}(x) != 0 for
    every prime l dividing k.  Without `exact`, the union over divisors
    k' >= 2 of k.  Every det-1 matrix of trace x other than +-I is
    conjugate to M, and x is semisimple exactly when x is not +-2.

    Returns a set of (x, semisimple) pairs.
    """
    if k < 2:
        raise ParameterError("projective order must be at least 2")
    ks = [k] if exact else [d for d in divisors(k) if d >= 2]
    primes = {kk: list(factorize(kk)) for kk in ks}
    unipotent = (ctx.from_int(2), ctx.from_int(-2))
    out = set()
    for x in ctx.elements():
        s = [ctx.zero, ctx.one]  # s[j] = S_{j-1}(x)
        for _ in range(max(ks) - 1):
            s.append(ctx.sub(ctx.mul(x, s[-1]), s[-2]))
        for kk in ks:
            if s[kk] == ctx.zero and all(s[kk // ell] != ctx.zero for ell in primes[kk]):
                out.add((x, x not in unipotent))
    return out


# --- 2x2 matrices ---------------------------------------------------------
# A matrix is a 4-tuple (a11, a12, a21, a22) of field elements.


def mat_identity(ctx):
    return (ctx.one, ctx.zero, ctx.zero, ctx.one)


def mat_mul(ctx, A, B):
    a, b, c, d = A
    e, f, g, h = B
    return (
        ctx.add(ctx.mul(a, e), ctx.mul(b, g)),
        ctx.add(ctx.mul(a, f), ctx.mul(b, h)),
        ctx.add(ctx.mul(c, e), ctx.mul(d, g)),
        ctx.add(ctx.mul(c, f), ctx.mul(d, h)),
    )


def mat_det(ctx, A):
    a, b, c, d = A
    return ctx.sub(ctx.mul(a, d), ctx.mul(b, c))


def mat_trace(ctx, A):
    return ctx.add(A[0], A[3])


def mat_neg(ctx, A):
    return tuple(ctx.neg(x) for x in A)


def mat_inv(ctx, A):
    """Inverse; for det 1 this is the adjugate (fast path)."""
    a, b, c, d = A
    det = mat_det(ctx, A)
    if det == ctx.zero:
        raise DomainError("matrix is singular")
    adj = (d, ctx.neg(b), ctx.neg(c), a)
    if det == ctx.one:
        return adj
    di = ctx.inv(det)
    return tuple(ctx.mul(di, x) for x in adj)


def mat_pow(ctx, A, e: int):
    if e < 0:
        return mat_pow(ctx, mat_inv(ctx, A), -e)
    result = mat_identity(ctx)
    base = A
    while e:
        if e & 1:
            result = mat_mul(ctx, result, base)
        base = mat_mul(ctx, base, base)
        e >>= 1
    return result


def p1_action(ctx, M):
    """Permutation of P^1(F_q) induced by a nonsingular matrix.

    Point i < q is (elem(i) : 1); point q is (1 : 0).  The action is by
    Moebius transformation on projective columns.
    """
    if mat_det(ctx, M) == ctx.zero:
        raise DomainError("singular matrix does not act on P^1")
    a, b, c, d = M
    q = ctx.q
    images = []
    for i in range(q):
        z = ctx.elem(i)
        num = ctx.add(ctx.mul(a, z), b)
        den = ctx.add(ctx.mul(c, z), d)
        if den == ctx.zero:
            images.append(q)
        else:
            images.append(ctx.index(ctx.mul(num, ctx.inv(den))))
    # (1 : 0) -> (a : c)
    if c == ctx.zero:
        images.append(q)
    else:
        images.append(ctx.index(ctx.mul(a, ctx.inv(c))))
    return Permutation(images)


def psl2_order(q: int) -> int:
    return q * (q * q - 1) // (2 if q % 2 else 1)
