"""Exact arithmetic in the quaternion algebra (-1,-3) over Q(sqrt(-2)).

Verifies the unit-group presentation of the base orbifold group, the local
filtration quotients at the even split prime above 3, the trace growth
bound behind the injectivity-radius estimate, the hyperbolic volume
constant, and the cube-residue obstruction mod 9.

All algebra is exact (Fraction coordinates); the only floating-point
surface is the numeric matrix-embedding check, which carries explicit
tolerances.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, ParameterError

# --- the quadratic field K = Q(sqrt(-2)) -----------------------------------


@dataclass(frozen=True)
class KElem:
    """u + v*sqrt(-2) with exact rational u, v."""

    u: Fraction = Fraction(0)
    v: Fraction = Fraction(0)

    @staticmethod
    def of(u, v=0):
        return KElem(Fraction(u), Fraction(v))

    def __add__(self, o):
        return KElem(self.u + o.u, self.v + o.v)

    def __sub__(self, o):
        return KElem(self.u - o.u, self.v - o.v)

    def __neg__(self):
        return KElem(-self.u, -self.v)

    def __mul__(self, o):
        return KElem(self.u * o.u - 2 * self.v * o.v, self.u * o.v + self.v * o.u)

    def scale(self, r):
        r = Fraction(r)
        return KElem(self.u * r, self.v * r)

    def field_norm(self) -> Fraction:
        return self.u * self.u + 2 * self.v * self.v

    def inverse(self) -> "KElem":
        n = self.field_norm()
        if n == 0:
            raise DomainError("inverse of zero in K")
        return KElem(self.u / n, -self.v / n)

    def is_integral(self) -> bool:
        return self.u.denominator == 1 and self.v.denominator == 1

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def complex_value(self) -> complex:
        return complex(self.u) + complex(self.v) * 1j * math.sqrt(2)

    def __repr__(self):
        return f"({self.u}+{self.v}*sqrt(-2))"


K_ZERO = KElem.of(0)
K_ONE = KElem.of(1)
SQRT_M2 = KElem.of(0, 1)
PI_K = KElem.of(1, -1)  # 1 - sqrt(-2), norm 3
PI_BAR_K = KElem.of(1, 1)  # 1 + sqrt(-2), norm 3

# --- the quaternion algebra (i^2, j^2) = (-1, -3) over K --------------------

_A = KElem.of(-1)
_B = KElem.of(-3)


@dataclass(frozen=True)
class QuatElem:
    """c1 + ci*i + cj*j + cij*ij with i^2 = -1, j^2 = -3, ij = -ji."""

    c1: KElem = K_ZERO
    ci: KElem = K_ZERO
    cj: KElem = K_ZERO
    cij: KElem = K_ZERO

    def __add__(self, o):
        return QuatElem(self.c1 + o.c1, self.ci + o.ci, self.cj + o.cj, self.cij + o.cij)

    def __sub__(self, o):
        return QuatElem(self.c1 - o.c1, self.ci - o.ci, self.cj - o.cj, self.cij - o.cij)

    def __neg__(self):
        return QuatElem(-self.c1, -self.ci, -self.cj, -self.cij)

    def __mul__(self, o):
        x1, x2, x3, x4 = self.c1, self.ci, self.cj, self.cij
        y1, y2, y3, y4 = o.c1, o.ci, o.cj, o.cij
        a, b = _A, _B
        return QuatElem(
            x1 * y1 + a * (x2 * y2) + b * (x3 * y3) - a * b * (x4 * y4),
            x1 * y2 + x2 * y1 - b * (x3 * y4) + b * (x4 * y3),
            x1 * y3 + x3 * y1 + a * (x2 * y4) - a * (x4 * y2),
            x1 * y4 + x4 * y1 + x2 * y3 - x3 * y2,
        )

    def scale_k(self, k: KElem):
        return QuatElem(self.c1 * k, self.ci * k, self.cj * k, self.cij * k)

    def conj(self) -> "QuatElem":
        return QuatElem(self.c1, -self.ci, -self.cj, -self.cij)

    def reduced_norm(self) -> KElem:
        prod = self * self.conj()
        assert prod.ci.is_zero() and prod.cj.is_zero() and prod.cij.is_zero()
        return prod.c1

    def reduced_trace(self) -> KElem:
        return self.c1 + self.c1

    def unit_inverse(self) -> "QuatElem":
        n = self.reduced_norm()
        if n == K_ONE:
            return self.conj()
        if n == -K_ONE:
            return -self.conj()
        raise DomainError("unit_inverse requires reduced norm +-1")

    def is_one(self):
        return self == QUAT_ONE

    def __repr__(self):
        return f"Quat({self.c1},{self.ci},{self.cj},{self.cij})"


QUAT_ONE = QuatElem(K_ONE)
QUAT_I = QuatElem(K_ZERO, K_ONE)
QUAT_J = QuatElem(K_ZERO, K_ZERO, K_ONE)
QUAT_IJ = QuatElem(K_ZERO, K_ZERO, K_ZERO, K_ONE)


def quat_pow(g: QuatElem, e: int) -> QuatElem:
    if e < 0:
        return quat_pow(g.unit_inverse(), -e)
    out = QUAT_ONE
    base = g
    while e:
        if e & 1:
            out = out * base
        base = base * base
        e >>= 1
    return out


# --- the maximal order <1, i, (i+j)/2, (1+ij)/2> ----------------------------

E_S = QuatElem(K_ZERO, KElem.of(Fraction(1, 2)), KElem.of(Fraction(1, 2)), K_ZERO)
E_T = QuatElem(KElem.of(Fraction(1, 2)), K_ZERO, K_ZERO, KElem.of(Fraction(1, 2)))
ORDER_BASIS = (QUAT_ONE, QUAT_I, E_S, E_T)

# Coordinates of {1, i, j, ij} in the order basis: j = 2*e_s - i,
# ij = 2*e_t - 1, so x1 + x2 i + x3 j + x4 ij =
# (x1 - x4)*1 + (x2 - x3)*i + (2 x3)*e_s + (2 x4)*e_t.


def order_coordinates(g: QuatElem):
    """Coordinates of g in the order basis (exact KElem 4-vector)."""
    return (
        g.c1 - g.cij,
        g.ci - g.cj,
        g.cj + g.cj,
        g.cij + g.cij,
    )


def in_order(g: QuatElem) -> bool:
    return all(c.is_integral() for c in order_coordinates(g))


def verify_order_closure() -> dict:
    """All 16 products of order-basis vectors expressed in the basis; the
    order property is that every coordinate is integral in Z[sqrt(-2)]."""
    names = ("1", "i", "s", "t")
    products = {}
    ok = True
    for ii, gi in enumerate(ORDER_BASIS):
        for jj, gj in enumerate(ORDER_BASIS):
            coords = order_coordinates(gi * gj)
            integral = all(c.is_integral() for c in coords)
            ok = ok and integral
            products[f"{names[ii]}*{names[jj]}"] = {
                "coords": [[str(c.u), str(c.v)] for c in coords],
                "integral": integral,
            }
    return {"closed": ok, "products": products}


# --- unit generators and the orbifold-group relators ------------------------

GEN_U = QUAT_I
GEN_V = QUAT_I.scale_k(KElem.of(-2)) + E_S.scale_k(PI_K)
GEN_X = (
    QuatElem(SQRT_M2)
    + QUAT_I.scale_k(PI_K)
    + E_S.scale_k(PI_BAR_K)
    - E_T.scale_k(SQRT_M2)
)
GEN_Y = QuatElem(SQRT_M2) + E_S - E_T.scale_k(SQRT_M2)

GENERATORS = {"u": GEN_U, "v": GEN_V, "x": GEN_X, "y": GEN_Y}

# Relator words over letters 1=u, 2=v, 3=x, 4=y.
RELATORS = (
    ("u^2", (1, 1)),
    ("v^2", (2, 2)),
    ("x^4", (3, 3, 3, 3)),
    ("y^4", (4, 4, 4, 4)),
    ("y x y^-1 v x^-1 v", (4, 3, -4, 2, -3, 2)),
    ("x^-1 v x v u y^-1 u y", (-3, 2, 3, 2, 1, -4, 1, 4)),
    ("(u y^-1 u y)^3", (1, -4, 1, 4) * 3),
)

_LETTER = {1: "u", 2: "v", 3: "x", 4: "y"}


def evaluate_word(word, gens=None) -> QuatElem:
    gens = gens or GENERATORS
    table = {i: gens[name] for i, name in _LETTER.items()}
    out = QUAT_ONE
    for letter in word:
        g = table[abs(letter)]
        out = out * (g if letter > 0 else g.unit_inverse())
    return out


def verify_presentation_units() -> dict:
    """Each generator must be an order unit of reduced norm +-1, and each
    relator word must evaluate to +-1 in the quaternion algebra."""
    gens = {}
    ok = True
    for name, g in GENERATORS.items():
        n = g.reduced_norm()
        unit = in_order(g) and n in (K_ONE, -K_ONE)
        ok = ok and unit
        gens[name] = {"norm": str(n), "in_order": in_order(g), "unit": unit}
    rels = {}
    for name, word in RELATORS:
        val = evaluate_word(word)
        if val == QUAT_ONE:
            sign = 1
        elif val == -QUAT_ONE:
            sign = -1
        else:
            sign = 0
        ok = ok and sign != 0
        rels[name] = {"sign": sign}
    return {"ok": ok, "generators": gens, "relators": rels}


# --- numeric embedding into 2x2 complex matrices ----------------------------


def embed_matrix(g: QuatElem) -> np.ndarray:
    """i -> diag(i, -i); j -> [[0, 1], [-3, 0]]."""
    mi = np.array([[1j, 0], [0, -1j]])
    mj = np.array([[0, 1], [-3, 0]], dtype=complex)
    m1 = np.eye(2, dtype=complex)
    return (
        g.c1.complex_value() * m1
        + g.ci.complex_value() * mi
        + g.cj.complex_value() * mj
        + g.cij.complex_value() * (mi @ mj)
    )


def numeric_embedding_check(tolerance: float = 1e-10) -> dict:
    """Relator matrices must be +-identity and matrix traces must match the
    reduced traces, within the tolerance."""
    if tolerance <= 0:
        raise ParameterError("tolerance must be positive")
    ident = np.eye(2)
    checks = {}
    ok = True
    jj = embed_matrix(QUAT_J) @ embed_matrix(QUAT_J)
    j_ok = bool(np.max(np.abs(jj + 3 * ident)) < tolerance)
    checks["j^2 = -3"] = j_ok
    ok = ok and j_ok
    mats = {name: embed_matrix(g) for name, g in GENERATORS.items()}
    inv = {name: embed_matrix(g.unit_inverse()) for name, g in GENERATORS.items()}
    for name, word in RELATORS:
        m = ident.astype(complex)
        for letter in word:
            key = _LETTER[abs(letter)]
            m = m @ (mats[key] if letter > 0 else inv[key])
        err = min(np.max(np.abs(m - ident)), np.max(np.abs(m + ident)))
        checks[f"relator {name}"] = bool(err < tolerance)
        ok = ok and err < tolerance
    for name, g in GENERATORS.items():
        err = abs(np.trace(mats[name]) - g.reduced_trace().complex_value())
        checks[f"trace {name}"] = bool(err < tolerance)
        ok = ok and err < tolerance
    return {"ok": bool(ok), "tolerance": tolerance, "checks": checks}


# --- local division algebra at the prime above 3 ----------------------------


class LocalQuat:
    """Truncated model of the local division algebra.

    Elements are a + b*j with a, b in R_m = (Z/3^m)[omega], omega^2 = -1,
    j^2 = 3 and j*a = conj(a)*j.  The residue ring R_1 is the field with 9
    elements; the valuation is w(a + bj) = min(2 v3(a), 2 v3(b) + 1).
    """

    __slots__ = ("m", "mod", "a", "b")

    def __init__(self, m, a, b):
        self.m = m
        self.mod = 3**m
        self.a = (a[0] % self.mod, a[1] % self.mod)
        self.b = (b[0] % self.mod, b[1] % self.mod)

    @staticmethod
    def _rmul(x, y, mod):
        return ((x[0] * y[0] - x[1] * y[1]) % mod, (x[0] * y[1] + x[1] * y[0]) % mod)

    @staticmethod
    def _rconj(x, mod):
        return (x[0], (-x[1]) % mod)

    def __mul__(self, o):
        if self.m != o.m:
            raise ParameterError("mixed truncation levels")
        mod = self.mod
        a, b, c, d = self.a, self.b, o.a, o.b
        dbar = self._rconj(d, mod)
        cbar = self._rconj(c, mod)
        t1 = self._rmul(b, dbar, mod)
        na = (
            (self._rmul(a, c, mod)[0] + 3 * t1[0]) % mod,
            (self._rmul(a, c, mod)[1] + 3 * t1[1]) % mod,
        )
        t2 = self._rmul(b, cbar, mod)
        ad = self._rmul(a, d, mod)
        nb = ((ad[0] + t2[0]) % mod, (ad[1] + t2[1]) % mod)
        return LocalQuat(self.m, na, nb)

    def norm(self):
        """Reduced norm a*conj(a) - 3*b*conj(b) in Z/3^m."""
        mod = self.mod
        na = (self.a[0] * self.a[0] + self.a[1] * self.a[1]) % mod
        nb = (self.b[0] * self.b[0] + self.b[1] * self.b[1]) % mod
        return (na - 3 * nb) % mod

    @staticmethod
    def _v3(x, m):
        """3-adic valuation of x mod 3^m (v = m for x = 0)."""
        if x == 0:
            return m
        v = 0
        while x % 3 == 0:
            x //= 3
            v += 1
        return v

    def valuation(self):
        """w(a + bj) = min(2 v3(a), 2 v3(b) + 1), capped at 2m."""
        va = min(self._v3(self.a[0], self.m), self._v3(self.a[1], self.m))
        vb = min(self._v3(self.b[0], self.m), self._v3(self.b[1], self.m))
        return min(2 * va, 2 * vb + 1, 2 * self.m)

    def __eq__(self, o):
        return self.m == o.m and self.a == o.a and self.b == o.b

    def __repr__(self):
        return f"LocalQuat(m={self.m}, a={self.a}, b={self.b})"


def local_layer_orders(n_max: int) -> dict:
    """Orders of the unit-filtration quotients of the local algebra.

    Works at truncation m = ceil((n_max+2)/2).  Returns the order of the
    image of the norm-(+-1) units in the residue-field unit group (the
    level-1 quotient) and, for 1 <= n <= n_max, the order of the image of
    the norm-1 units in the elementary layer (1+Q^n)/(1+Q^(n+1)).

    The enumeration of each coset 1+Q^n factors exactly through the two
    halves of the norm form n(a+bj) = N(a) - 3 N(b): the layer image only
    depends on one half, so the halves are enumerated separately and
    joined on the norm condition.
    """
    if not 1 <= n_max <= 5:
        raise ParameterError("layer range 1..5 is supported")
    m = (n_max + 2 + 1) // 2
    mod = 3**m

    # level-1 quotient: residues mod 3 of norm-(+-1) elements a + bj
    bnorms = set()
    for b0 in range(mod):
        for b1 in range(mod):
            bnorms.add((3 * (b0 * b0 + b1 * b1)) % mod)
    level1 = set()
    for a0 in range(mod):
        for a1 in range(mod):
            na = (a0 * a0 + a1 * a1) % mod
            if (na - 1) % mod in bnorms or (na + 1) % mod in bnorms:
                level1.add((a0 % 3, a1 % 3))
    if (0, 0) in level1:
        raise DomainError("non-unit residue appeared among norm +-1 elements")
    unit_quotient_order = len(level1)

    layers = []
    for n in range(1, n_max + 1):
        ea = (n + 1) // 2  # valuation floor for the a-1 part
        eb = n // 2  # valuation floor for the b part
        # a-part: values N(a) mod 3^m and layer reps keyed by them
        a_reps = {}
        for ra in range(3 ** (m - ea)):
            for sa in range(3 ** (m - ea)):
                a0, a1 = (1 + ra * 3**ea) % mod, (sa * 3**ea) % mod
                na = (a0 * a0 + a1 * a1) % mod
                rep = (((a0 - 1) // 3 ** (n // 2)) % 3, (a1 // 3 ** (n // 2)) % 3)
                a_reps.setdefault(na, set()).add(rep)
        b_reps = {}
        for rb in range(3 ** (m - eb)):
            for sb in range(3 ** (m - eb)):
                b0, b1 = (rb * 3**eb) % mod, (sb * 3**eb) % mod
                nb = (3 * (b0 * b0 + b1 * b1)) % mod
                rep = ((b0 // 3**eb) % 3, (b1 // 3**eb) % 3)
                b_reps.setdefault(nb, set()).add(rep)
        reps = set()
        if n % 2 == 0:
            bvals = set(b_reps)
            for na, rset in a_reps.items():
                if (na - 1) % mod in bvals:
                    reps |= rset
        else:
            avals = set(a_reps)
            for nb, rset in b_reps.items():
                if (1 + nb) % mod in avals:
                    reps |= rset
        layers.append(len(reps))
    return {
        "truncation": m,
        "unit_quotient_order": unit_quotient_order,
        "layers": layers,
    }


# --- trace growth and injectivity radius ------------------------------------


@dataclass(frozen=True)
class InjradBound:
    level: int
    trace_floor: float
    length_bound: float

    @property
    def injrad_bound(self):
        return self.length_bound / 2


def injrad_lower_bound(n: int) -> InjradBound:
    """Trace floor 3^(ceil(n/2)/2) - 2 for nontrivial elements at level n;
    geodesic length bound 2*arccosh(floor/2) when the floor reaches 2."""
    if n < 1:
        raise ParameterError("level must be >= 1")
    trace_floor = 3.0 ** (((n + 1) // 2) / 2.0) - 2.0
    length = 2.0 * math.acosh(trace_floor / 2.0) if trace_floor >= 2.0 else 0.0
    return InjradBound(n, trace_floor, length)


# --- hyperbolic volume -------------------------------------------------------


@dataclass(frozen=True)
class VolumeResult:
    value: float  # vol of the base orbifold
    value_norm_one_cover: float  # twice the base volume
    zeta2: float
    l_value: float
    terms: int


def volume_constant(terms: int = 10**7) -> VolumeResult:
    """8*sqrt(2)/pi^2 * zeta(2) * L(2, chi_-8) by direct summation.

    zeta(2) uses an Euler-Maclaurin tail correction; the character series
    is summed in blocks of 8 (block sums decay like n^-3, so the tail after
    `terms` summands is far below the 10-digit target).
    """
    if terms < 1000:
        raise ParameterError("use at least 1000 terms")
    chi = np.zeros(8)
    for r in (1, 3):
        chi[r] = 1.0
    for r in (5, 7):
        chi[r] = -1.0
    zeta2 = 0.0
    lval = 0.0
    chunk = 1_000_000
    for start in range(1, terms + 1, chunk):
        stop = min(start + chunk, terms + 1)
        n = np.arange(start, stop, dtype=np.int64)
        inv2 = 1.0 / (n.astype(np.float64) ** 2)
        zeta2 += float(inv2.sum())
        lval += float((chi[n % 8] * inv2).sum())
    zeta2 += 1.0 / terms - 1.0 / (2.0 * terms**2) + 1.0 / (6.0 * terms**3)
    value = 8.0 * math.sqrt(2.0) / math.pi**2 * zeta2 * lval
    return VolumeResult(value, 2.0 * value, zeta2, lval, terms)


# --- the cube-residue obstruction mod 9 -------------------------------------


def kummer_residues() -> dict:
    """Images of +-(1 - sqrt(-2)) in (Z/9)* up to cubes.

    O_K / pibar^2 is Z/9; sqrt(-2) maps to the square root of -2 mod 9
    that reduces to -1 mod 3.  The obstruction is that 1 is not among
    {+-pi * c^3}: the relevant cubic extension cannot split completely.
    """
    root = None
    for r in range(9):
        if (r * r) % 9 == (-2) % 9 and r % 3 == 2:
            root = r
            break
    if root is None:
        raise DomainError("no square root of -2 mod 9 with the right reduction")
    pi_img = (1 - root) % 9
    cubes = sorted({pow(c, 3, 9) for c in range(1, 9) if math.gcd(c, 9) == 1})
    residues = sorted(
        {(s * pi_img * c) % 9 for s in (1, -1) for c in cubes}
    )
    return {
        "sqrt_minus2_mod9": root,
        "pi_mod9": pi_img,
        "cubes_mod9": cubes,
        "residues": residues,
        "one_absent": 1 not in residues,
    }
