"""Arithmetic in F_q = F_{p^m}, 2x2 matrices, and the projective-line action.

A field element is a plain int in 0..q-1: the base-p number whose digits,
least significant first, are the element's coefficients in low-degree-first
order, so sum c_i z^i is the int sum c_i p^i.  This is the only field
representation in the package.  0 and 1 are the field's zero and one, an
int c < p is the prime-field element c, and point i < q of P^1 is (i : 1).
`FqCtx.coeffs` gives the coefficient tuple back; reports print that.

Ordering rule: where an order among elements reaches a report (the scan
order of meridian traces, the least member of a Frobenius orbit, the order
of classes), it is the lexicographic order of coefficient tuples.  For
m > 1 that is not the order of the ints (which compares the top degree
first), so such orders sort by `coeffs`.  Orders that are by index (the
t-scan, the least root of a quadratic, the scan for B0) are the int order.

Each context owns a deterministic modulus: the monic irreducible of degree
m whose coefficient vector, read as base-p digits (low degree least
significant), is smallest.  No Conway-polynomial tables.

At m = 1 the arithmetic is integer arithmetic mod p.  At m > 1 the context
builds three tables once, for g the least primitive element and
L = q - 1:
  _exp[k]   g^(k mod L) for 0 <= k < 2L, and 0 for 2L <= k <= 4L;
  _log[a]   the k < L with g^k = a, and _log[0] = 2L;
  _zech[k]  _log[1 + g^k] for 0 <= k < L (2L where 1 + g^k = 0).
A sum of two logs then indexes _exp directly and lands on 0 when a factor
is 0, so mul, inv, pow and frobenius are lookups; a + b is
g^(la + _zech[(lb - la) mod L]), and XOR at p = 2.  The polynomial product
mod the modulus (`_poly_mul_mod`) only builds the tables.  They take O(q)
memory, so a field with m > 1 and q > MAX_TABLE_ORDER is refused.

All computation stays inside F_q: the traces of a prescribed projective
order come from Chebyshev polynomials evaluated at x in F_q.
"""

from functools import lru_cache

from .arith import divisors, factorize, is_prime
from .errors import DomainError, ParameterError, ResourceError
from .fpcore.perms import Permutation

MAX_TABLE_ORDER = 1 << 16


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


def _find_modulus(p, m):
    if m == 1:
        return (0, 1)  # the polynomial z
    for v in range(p**m):
        coeffs = _digits(v, p, m)
        if _poly_is_irreducible(coeffs, p):
            return coeffs + (1,)
    raise ParameterError(f"no irreducible of degree {m} over F_{p}")  # unreachable


def _digits(i, p, m):
    """Base-p digits of i, least significant first, as an m-tuple."""
    out = []
    for _ in range(m):
        i, c = divmod(i, p)
        out.append(c)
    return tuple(out)


def _from_digits(coeffs, p):
    i = 0
    for c in reversed(coeffs):
        i = i * p + c
    return i


def _zech_tables(p, m, modulus):
    """(_exp, _log, _zech) of the module docstring for F_{p^m}, m > 1."""
    q = p**m
    L = q - 1
    # reduction table: z^(m+j) for j = 0..m-2 expressed in degrees < m
    base = tuple((-c) % p for c in modulus[:m])
    red = [base]
    for _ in range(m - 2):
        shifted = (0,) + red[-1][:-1]
        carry = red[-1][-1]
        red.append(tuple((x + carry * b) % p for x, b in zip(shifted, base)))
    one = _digits(1, p, m)

    def power(g, e):
        result = one
        while e:
            if e & 1:
                result = _poly_mul_mod(result, g, p, red)
            g = _poly_mul_mod(g, g, p, red)
            e >>= 1
        return result

    cofactors = [L // ell for ell in factorize(L)]
    g = next(
        g
        for g in (_digits(i, p, m) for i in range(p, q))
        if all(power(g, c) != one for c in cofactors)
    )
    exp = [0] * (4 * L + 1)
    log = [2 * L] * q
    cur = one
    for k in range(L):
        e = _from_digits(cur, p)
        exp[k] = exp[k + L] = e
        log[e] = k
        cur = _poly_mul_mod(cur, g, p, red)
    # 1 + e changes the constant coefficient, the lowest digit, alone
    zech = [log[e - e % p + (e + 1) % p] for e in exp[:L]]
    return exp, log, zech


class FqCtx:
    """F_q on int elements; immutable and shareable.  Built by
    `fq_context`, which picks the prime-field or the table-driven kind."""

    def __init__(self, p, m):
        if not is_prime(p):
            raise ParameterError(f"{p} is not prime")
        if m < 1:
            raise ParameterError(f"extension degree {m} is not positive")
        if m > 1 and p**m > MAX_TABLE_ORDER:
            raise ResourceError(
                f"F_{p**m} would need field tables of {p**m} entries, "
                f"more than {MAX_TABLE_ORDER}"
            )
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = _find_modulus(p, m)

    def coeffs(self, a):
        """Coefficient tuple of a, low degree first."""
        return _digits(a, self.p, self.m)

    def from_int(self, n: int):
        """The image of the integer n in the prime field."""
        return n % self.p

    def elements(self):
        return range(self.q)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def inv(self, a):
        return self.div(1, a)

    def __eq__(self, other):
        return (
            isinstance(other, FqCtx) and self.p == other.p and self.m == other.m
        )

    def __hash__(self):
        return hash((self.p, self.m))

    def __repr__(self):
        return f"FqCtx(p={self.p}, m={self.m})"


class _PrimeField(FqCtx):
    """m = 1: integer arithmetic mod p, with tables of inverses and least
    square roots built on first use."""

    def __init__(self, p):
        super().__init__(p, 1)
        self._sqrt = None
        self._inv = None

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def inv(self, a):
        """Table-based; the table is built on first use by
        inv[i] = -(p // i) * inv[p mod i], from p = (p // i) i + p mod i."""
        if not a:
            raise DomainError("inverse of zero")
        if self._inv is None:
            p = self.p
            table = [0, 1] + [0] * (p - 2)
            for i in range(2, p):
                table[i] = -(p // i) * table[p % i] % p
            self._inv = table
        return self._inv[a]

    def pow(self, a, e: int):
        if e < 0:
            a, e = self.inv(a), -e
        return pow(a, e, self.p)

    def frobenius(self, a):
        return a

    def sqrt(self, a):
        """The least square root of a, or None.  Table-based; cached."""
        if self._sqrt is None:
            table = [None] * self.p
            for e in range(self.p):
                s = e * e % self.p
                if table[s] is None:
                    table[s] = e
            self._sqrt = table
        return self._sqrt[a]

    def evaluate(self, coefs, y):
        """Polynomial with coefficients `coefs` (highest first) at y."""
        p = self.p
        acc = 0
        for c in coefs:
            acc = (acc * y + c) % p
        return acc


class _TableField(FqCtx):
    """m > 1: log, antilog and Zech tables (see the module docstring)."""

    def __init__(self, p, m):
        super().__init__(p, m)
        self._exp, self._log, self._zech = _zech_tables(p, m, self.modulus)

    def add(self, a, b):
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        return self._exp[la + self._zech[(self._log[b] - la) % (self.q - 1)]]

    def neg(self, a):
        if self.p == 2:
            return a
        return self._exp[self._log[a] + (self.q - 1) // 2]

    def mul(self, a, b):
        return self._exp[self._log[a] + self._log[b]]

    def div(self, a, b):
        if not b:
            raise DomainError("inverse of zero")
        return self._exp[self._log[a] + self.q - 1 - self._log[b]]

    def pow(self, a, e: int):
        if not a:
            if e < 0:
                raise DomainError("inverse of zero")
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.q - 1)]

    def frobenius(self, a):
        """a -> a^p."""
        return self.pow(a, self.p)

    def sqrt(self, a):
        """A square root of a, or None."""
        if not a:
            return 0
        k = self._log[a]
        if k % 2:
            if self.p != 2:
                return None
            k += self.q - 1  # q - 1 is odd: every element is a square
        return self._exp[k // 2]

    def evaluate(self, coefs, y):
        """Polynomial with coefficients `coefs` (highest first) at y."""
        exp, log, zech = self._exp, self._log, self._zech
        ly = log[y]
        acc = 0
        if self.p == 2:
            for c in coefs:
                acc = exp[log[acc] + ly] ^ c
            return acc
        if not y:
            return coefs[-1]
        L = self.q - 1
        for c in coefs:
            if not acc:
                acc = c
                continue
            la = (log[acc] + ly) % L  # log of acc * y
            acc = exp[la + zech[(log[c] - la) % L]] if c else exp[la]
        return acc


@lru_cache(maxsize=None)
def fq_context(p: int, m: int) -> FqCtx:
    """The context of F_{p^m}; one per (p, m) in a process."""
    return _PrimeField(p) if m == 1 else _TableField(p, m)


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
    mul, sub = ctx.mul, ctx.sub
    out = set()
    for x in ctx.elements():
        s = [0, 1]  # s[j] = S_{j-1}(x)
        for _ in range(max(ks) - 1):
            s.append(sub(mul(x, s[-1]), s[-2]))
        for kk in ks:
            if not s[kk] and all(s[kk // ell] for ell in primes[kk]):
                out.add((x, x not in unipotent))
    return out


# --- 2x2 matrices ---------------------------------------------------------
# A matrix is a 4-tuple (a11, a12, a21, a22) of field elements.


def mat_identity(ctx):
    return (1, 0, 0, 1)


def mat_mul(ctx, A, B):
    a, b, c, d = A
    e, f, g, h = B
    add, mul = ctx.add, ctx.mul
    return (
        add(mul(a, e), mul(b, g)),
        add(mul(a, f), mul(b, h)),
        add(mul(c, e), mul(d, g)),
        add(mul(c, f), mul(d, h)),
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
    if not det:
        raise DomainError("matrix is singular")
    adj = (d, ctx.neg(b), ctx.neg(c), a)
    if det == 1:
        return adj
    return tuple(ctx.div(x, det) for x in adj)


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

    Point i < q is (i : 1); point q is (1 : 0).  The action is by Moebius
    transformation on projective columns.
    """
    if not mat_det(ctx, M):
        raise DomainError("singular matrix does not act on P^1")
    a, b, c, d = M
    q = ctx.q
    add, mul, div = ctx.add, ctx.mul, ctx.div
    images = []
    for z in range(q):
        den = add(mul(c, z), d)
        images.append(div(add(mul(a, z), b), den) if den else q)
    # (1 : 0) -> (a : c)
    images.append(div(a, c) if c else q)
    return Permutation(images)


def psl2_order(q: int) -> int:
    return q * (q * q - 1) // (2 if q % 2 else 1)
