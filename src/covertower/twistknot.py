"""Congruence-style covers of twist-knot orbifolds via epimorphism search.

Pipeline: enumerate surjections of the two-generator orbifold group
<a, b | a^k, b^k, w^n a w^-n b^-1> onto PSL2(F_q) up to the automorphism
group of the target, realize each class on the projective line, cut out
the Borel preimage as a point stabilizer, and measure its first homology
over a large prime field.

The search never leaves F_q.  A class is determined by its trace
coordinates x = tr A = tr B and y = tr AB (Riley 1984; Hoste-Shanahan
2001).  The meridian traces of each projective order come from Chebyshev
polynomials (`finfield.order_k_traces`); the relator is a set of integer
polynomials in (x, y), derived once per twist n in the algebra spanned by
1, A, B, AB, reduced mod p once per characteristic, and evaluated over
F_q: x is substituted once per trace, then each polynomial in y is
evaluated by Horner's rule at every y = x^2 - 2 + t.  Each accepted (x, y)
is realized by an explicit pair over F_q (`conjugate_to_base_field`) on
which the relator is checked again as matrices.

Field elements are the ints of `finfield` (traces, t, matrix entries and
canonical keys); reports write them as coefficient lists (`record_dict`).
Which member of a class is kept, and the order of classes, follow the
ordering rule of `finfield`: x runs in coefficient-tuple order and t in
int order, the first (x, y) met in a class is the one stored, and keys
are compared as coefficient tuples.

Surjectivity is decided by exact permutation-group order, not by a
classification of subgroups.  No trace-variety component filtering is done;
classes whose meridian image has the wrong projective order for a reduction
of the geometric representation are flagged `non_canonical` instead.
"""

from dataclasses import dataclass
from functools import lru_cache

from .arith import divisors, is_prime, prime_power_split
from .errors import InternalInvariantError, ParameterError
from .fpcore.perms import group_order_equals, orbit_and_transversal
from .fpcore.rewriting import betti_proxy_cover
from .fpcore.words import Presentation, cyclic_reduce, word_power
from .finfield import (
    fq_context,
    mat_det,
    mat_identity,
    mat_inv,
    mat_mul,
    mat_neg,
    mat_pow,
    mat_trace,
    order_k_traces,
    p1_action,
    psl2_order,
)

# Twist parameters examined in the source survey: |n| <= 4, 3 <= k <= 7,
# minus the non-hyperbolic cases (n = 0, n = 1, and (n,k) = (-1,3)).
HYPERBOLIC_SPECS = frozenset(
    (n, k)
    for n in (-4, -3, -2, -1, 2, 3, 4)
    for k in (3, 4, 5, 6, 7)
    if (n, k) != (-1, 3)
)

W_WORD = (2, -1, -2, 1)  # w = b a^-1 b^-1 a


@dataclass(frozen=True)
class OrbifoldSpec:
    """Hyperbolic twist-knot orbifold: twist parameter n, cone order k."""

    n: int
    k: int

    def __post_init__(self):
        if (self.n, self.k) not in HYPERBOLIC_SPECS:
            raise ParameterError(
                f"T({self.n},{self.k}) is not in the hyperbolic survey range"
            )


def twist_relators(n: int, k: int):
    """Relators a^k, b^k, w^n a w^-n b^-1 (cyclically reduced) with
    w = b a^-1 b^-1 a; pure word construction, no hyperbolicity screen."""
    third = word_power(W_WORD, n) + (1,) + word_power(W_WORD, -n) + (-2,)
    return ((1,) * k, (2,) * k, cyclic_reduce(third))


def twist_presentation(spec: OrbifoldSpec) -> Presentation:
    """<a, b | a^k, b^k, w^n a w^-n b^-1> with w = b a^-1 b^-1 a."""
    return Presentation(2, twist_relators(spec.n, spec.k))


def canonical_meridian_order(k: int, p: int) -> int:
    """Projective order of the meridian image in reductions of the geometric
    representation at residue characteristic p: k with its p-part removed,
    degenerating to a unipotent of order p when nothing else is left."""
    kk = k
    while kk % p == 0:
        kk //= p
    return kk if kk > 1 else p


@dataclass(frozen=True)
class EpiClass:
    """A surjection onto PSL2(F_q) up to Aut(PSL2(F_q))."""

    q: int
    n: int
    k: int
    canonical_key: tuple
    x: tuple
    y: tuple
    t: tuple
    korder: int
    semisimple: bool
    non_canonical: bool
    A0: tuple
    B0: tuple


@dataclass(frozen=True)
class CoverRecord:
    q: int
    canonical_key: tuple
    betti_proxy: int
    proxy_prime: int
    second_proxy: int = None
    second_prime: int = None

    def positive(self) -> bool:
        if self.betti_proxy <= 0:
            return False
        if self.second_prime is not None:
            return self.second_proxy > 0
        return True


# --- the relator in trace coordinates ---------------------------------------
# For a det-1 pair (A, B) with tr A = tr B = x and tr AB = y, the algebra
# the pair generates is spanned by 1, A, B, AB; it is all of M2 exactly when
# the pair is absolutely irreducible, and then these four are a basis.  An
# element is a 4-tuple of coordinates on that basis, each an integer
# polynomial in (x, y) stored as a dict {(i, j): c} for c x^i y^j.  The
# products follow from A^2 = xA - 1, B^2 = xB - 1 and
# AB + BA = xA + xB + (y - x^2).


def _poly_add(f, g, sign=1):
    out = dict(f)
    for e, c in g.items():
        v = out.get(e, 0) + sign * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _poly_mul(f, g):
    out = {}
    for (i, j), c in f.items():
        for (k, l), d in g.items():
            e = (i + k, j + l)
            out[e] = out.get(e, 0) + c * d
    return {e: c for e, c in out.items() if c}


_Z, _ONE, _M1 = {}, {(0, 0): 1}, {(0, 0): -1}
_X, _MX, _Y = {(1, 0): 1}, {(1, 0): -1}, {(0, 1): 1}
_C = {(0, 1): 1, (2, 0): -1}  # y - x^2

# _BASIS_PRODUCT[i][j]: coordinates of e_i e_j on (1, A, B, AB)
_BASIS_PRODUCT = (
    ((_ONE, _Z, _Z, _Z), (_Z, _ONE, _Z, _Z), (_Z, _Z, _ONE, _Z), (_Z, _Z, _Z, _ONE)),
    ((_Z, _ONE, _Z, _Z), (_M1, _X, _Z, _Z), (_Z, _Z, _Z, _ONE), (_Z, _Z, _M1, _X)),
    ((_Z, _Z, _ONE, _Z), (_C, _X, _X, _M1), (_M1, _Z, _X, _Z), (_MX, _ONE, _Y, _Z)),
    ((_Z, _Z, _Z, _ONE), (_MX, _Y, _ONE, _Z), (_Z, _M1, _Z, _X), (_M1, _Z, _Z, _Y)),
)


def _alg_mul(u, v):
    out = [_Z] * 4
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            if not vj:
                continue
            uv = _poly_mul(ui, vj)
            for r, coef in enumerate(_BASIS_PRODUCT[i][j]):
                if coef:
                    out[r] = _poly_add(out[r], _poly_mul(uv, coef))
    return tuple(out)


_A = (_Z, _ONE, _Z, _Z)
_B = (_Z, _Z, _ONE, _Z)
_A_INV = (_X, _M1, _Z, _Z)  # x - A
_B_INV = (_X, _Z, _M1, _Z)  # x - B


@lru_cache(maxsize=None)
def _relator_polys(n: int):
    """Coordinates of W^n A - B W^n and of W^n A + B W^n, w = b a^-1 b^-1 a.

    An irreducible pair satisfies w^n a w^-n b^-1 = +-1 exactly when one of
    the two 4-tuples vanishes at its (x, y).  Each polynomial is returned
    as a tuple of ((i, j), c) items."""
    if n >= 0:
        W = _alg_mul(_alg_mul(_B, _A_INV), _alg_mul(_B_INV, _A))
    else:
        W = _alg_mul(_alg_mul(_A_INV, _B), _alg_mul(_A, _B_INV))
    Wn = (_ONE, _Z, _Z, _Z)
    for _ in range(abs(n)):
        Wn = _alg_mul(Wn, W)
    left, right = _alg_mul(Wn, _A), _alg_mul(_B, Wn)
    return tuple(
        tuple(tuple(sorted(_poly_add(f, g, sign).items())) for f, g in zip(left, right))
        for sign in (-1, 1)
    )


@lru_cache(maxsize=None)
def _relator_rows(n: int, p: int):
    """`_relator_polys(n)` mod p as nested coefficient lists: for each sign,
    each coordinate as its coefficients in y, highest first, each of which
    is a coefficient list in x, highest first."""
    out = []
    for coords in _relator_polys(n):
        polys = []
        for poly in coords:
            if not poly:
                continue
            dx = max(i for (i, _), _ in poly)
            dy = max(j for (_, j), _ in poly)
            rows = [[0] * (dx + 1) for _ in range(dy + 1)]
            for (i, j), c in poly:
                rows[dy - j][dx - i] = c % p
            polys.append(rows)
        out.append(polys)
    return out


def _relator_in_y(ctx, n, x):
    """The relator polynomials with x substituted: for each sign, the
    nonzero coordinates as coefficient lists in y over F_q, highest first."""
    out = []
    for polys in _relator_rows(n, ctx.p):
        nonzero = []
        for rows in polys:
            coefs = [ctx.evaluate(row, x) for row in rows]
            while coefs and not coefs[0]:
                coefs.pop(0)
            if coefs:
                nonzero.append(coefs)
        out.append(nonzero)
    return out


def _relator_holds(ctx, signs, y):
    """Does some sign's coordinate list vanish at y?"""
    evaluate = ctx.evaluate
    return any(all(not evaluate(coefs, y) for coefs in polys) for polys in signs)


def _relator_matrix(ctx, A, B, n):
    """Image of w^n a w^-n b^-1."""
    W = mat_mul(ctx, mat_mul(ctx, B, mat_inv(ctx, A)), mat_mul(ctx, mat_inv(ctx, B), A))
    Wn = mat_pow(ctx, W, n)
    return mat_mul(
        ctx, mat_mul(ctx, Wn, A), mat_mul(ctx, mat_inv(ctx, Wn), mat_inv(ctx, B))
    )


def _is_pm_identity(ctx, M):
    return M == mat_identity(ctx) or M == mat_neg(ctx, mat_identity(ctx))


def conjugate_to_base_field(ctx, x, y):
    """Base-field pair with the trace triple (x, x, y).

    A0 is the companion matrix [[x,-1],[1,0]]; B0 is solved from
    tr B0 = x, det B0 = 1, tr(A0 B0) = y by scanning its upper-left entry
    (at most q trials; each is a quadratic in the lower-left entry).
    """
    A0 = (x, ctx.neg(1), 1, 0)
    for c in ctx.elements():
        # B0 = [[c, b],[g, x - c]]: b - g = y - x c, det = 1 gives a
        # quadratic g^2 + (y - xc) g + (1 - c(x - c)) = 0
        beta = ctx.sub(y, ctx.mul(x, c))
        const = ctx.sub(1, ctx.mul(c, ctx.sub(x, c)))
        g = _solve_quadratic(ctx, beta, const)
        if g is None:
            continue
        B0 = (c, ctx.add(g, beta), g, ctx.sub(x, c))
        if mat_det(ctx, B0) != 1:
            raise InternalInvariantError("B0 determinant drifted")
        if mat_trace(ctx, mat_mul(ctx, A0, B0)) != y:
            raise InternalInvariantError("tr(A0 B0) drifted")
        return A0, B0
    raise InternalInvariantError(
        "no base-field conjugate found for an irreducible candidate"
    )


def _solve_quadratic(ctx, beta, const):
    """Least root of g^2 + beta g + const = 0 over F_q, or None."""
    if ctx.p == 2:
        for g in ctx.elements():
            if not ctx.add(ctx.mul(ctx.add(g, beta), g), const):
                return g
        return None
    disc = ctx.sub(ctx.mul(beta, beta), ctx.mul(ctx.from_int(4), const))
    r = ctx.sqrt(disc)
    if r is None:
        return None
    return min(ctx.div(ctx.sub(s, beta), ctx.from_int(2)) for s in (r, ctx.neg(r)))


def _frobenius_orbit_key(ctx, x, y):
    """Least member, in coefficient-tuple order, of the trace pair's orbit
    under Frobenius twists and the allowed lift re-signings.  The
    simultaneous flip (x, y) -> (-x, y) is always an equivalence; when
    x = 0 the single-lift flip (0, y) -> (0, -y) is one as well."""
    cands = []
    cx, cy = x, y
    for _ in range(ctx.m):
        for sx in (cx, ctx.neg(cx)):
            cands.append((sx, cy))
            if not sx:
                cands.append((sx, ctx.neg(cy)))
        cx, cy = ctx.frobenius(cx), ctx.frobenius(cy)
    return min(cands, key=lambda pair: _pair_coeffs(ctx, pair))


def _pair_coeffs(ctx, pair):
    return ctx.coeffs(pair[0]), ctx.coeffs(pair[1])


def enumerate_epimorphisms(spec: OrbifoldSpec, q: int, exact_k: bool = False):
    """All surjections onto PSL2(F_q) up to Aut(PSL2(F_q)), as EpiClass list.

    Meridian traces x run over projective orders k' dividing k (k' >= 2),
    or exactly k when exact_k is set; y = x^2 - 2 + t runs over F_q with
    the parameter t = y - x^2 + 2 scanned in int order; x runs in
    coefficient-tuple order, so the first (x, y) met in a Frobenius orbit,
    the one whose class is kept, is the one the report shows.  Candidates must
    be absolutely irreducible (t != 0 and y != 2, the two factors of
    tr[A,B] - 2), satisfy the relator polynomials of the twist, and
    generate the full group (exact permutation order on the projective
    line).
    """
    pm = prime_power_split(q)
    if pm is None:
        raise ParameterError(f"{q} is not a prime power")
    ctx = fq_context(*pm)
    target = psl2_order(q)
    canon_order = canonical_meridian_order(spec.k, ctx.p)
    ks = [spec.k] if exact_k else [d for d in divisors(spec.k) if d >= 2]
    two = ctx.from_int(2)
    classes = {}
    seen_keys = set()
    for korder in ks:
        traces = order_k_traces(ctx, korder, exact=True)
        for x, semisimple in sorted(traces, key=lambda xs: ctx.coeffs(xs[0])):
            signs = _relator_in_y(ctx, spec.n, x)
            shift = ctx.sub(ctx.mul(x, x), two)
            for t in range(1, ctx.q):
                y = ctx.add(shift, t)
                if y == two or not _relator_holds(ctx, signs, y):
                    continue
                key = _frobenius_orbit_key(ctx, x, y)
                if key in seen_keys:
                    continue
                seen_keys.add(key)
                A0, B0 = conjugate_to_base_field(ctx, x, y)
                if not _is_pm_identity(ctx, _relator_matrix(ctx, A0, B0, spec.n)):
                    raise InternalInvariantError(
                        "relator polynomials and relator matrix disagree"
                    )
                pa, pb = p1_action(ctx, A0), p1_action(ctx, B0)
                orbit, _ = orbit_and_transversal([pa, pb], ctx.q)
                if len(orbit) != ctx.q + 1:
                    continue
                if not group_order_equals([pa, pb], target):
                    continue
                classes[key] = EpiClass(
                    q=q,
                    n=spec.n,
                    k=spec.k,
                    canonical_key=key,
                    x=x,
                    y=y,
                    t=t,
                    korder=korder,
                    semisimple=semisimple,
                    non_canonical=(korder != canon_order),
                    A0=A0,
                    B0=B0,
                )
    return [classes[k] for k in sorted(classes, key=lambda k: _pair_coeffs(ctx, k))]


def cover_betti(epi: EpiClass, P: int, second_prime: int = None) -> CoverRecord:
    """Borel-preimage cover homology proxy for one epimorphism class.

    The cover subgroup is the stabilizer of the point (1:0) (index q+1);
    its mod-P first homology rank is computed by abelianized rewriting.
    """
    if not is_prime(P):
        raise ParameterError(f"proxy prime {P} is not prime")
    pm = prime_power_split(epi.q)
    ctx = fq_context(*pm)
    pres = twist_presentation(OrbifoldSpec(epi.n, epi.k))
    images = [p1_action(ctx, epi.A0), p1_action(ctx, epi.B0)]
    value = betti_proxy_cover(pres, images, ctx.q, P)
    second = None
    if second_prime is not None:
        if not is_prime(second_prime):
            raise ParameterError(f"second prime {second_prime} is not prime")
        second = betti_proxy_cover(pres, images, ctx.q, second_prime)
    return CoverRecord(
        q=epi.q,
        canonical_key=epi.canonical_key,
        betti_proxy=value,
        proxy_prime=P,
        second_proxy=second,
        second_prime=second_prime,
    )


def prime_powers_up_to(q_max: int):
    """Every prime power 2 <= q <= q_max, in order."""
    return [q for q in range(2, q_max + 1) if prime_power_split(q)]


@dataclass
class SurveyReport:
    n: int
    k: int
    q_max: int
    proxy_prime: int
    second_prime: int
    exact_k: bool
    records: list  # (EpiClass-lite dict, CoverRecord) per class, sorted
    classes_total: int
    classes_positive: int
    percent: float
    exceptional_norms: list  # positive norms from canonical-order classes
    flagged_positive_norms: list  # positive norms seen only with the flag

    def csv_row(self):
        norms = ",".join(str(q) for q in self.exceptional_norms)
        return (
            f"{self.n},{self.k},{self.q_max},{self.classes_total},"
            f"{self.classes_positive},{self.percent:.4f},\"{norms}\""
        )

    @staticmethod
    def csv_header():
        return "n,k,q_max,classes_total,classes_positive,percent,exceptional_norms"


def compute_q_records(spec_n, spec_k, q, proxy_prime=31991, second_prime=None, exact_k=False):
    """All class records for one (spec, q); importable for worker pools."""
    spec = OrbifoldSpec(spec_n, spec_k)
    out = []
    for epi in enumerate_epimorphisms(spec, q, exact_k=exact_k):
        rec = cover_betti(epi, proxy_prime, second_prime)
        out.append(record_dict(epi, rec))
    return out


def record_dict(epi: EpiClass, rec: CoverRecord) -> dict:
    """The report's record of one class; field elements are written as
    coefficient lists, low degree first."""
    pm = prime_power_split(epi.q)
    ctx = fq_context(*pm)
    return {
        "n": epi.n,
        "k": epi.k,
        "q": epi.q,
        "p": pm[0],
        "m": pm[1],
        "x": list(ctx.coeffs(epi.x)),
        "y": list(ctx.coeffs(epi.y)),
        "t": list(ctx.coeffs(epi.t)),
        "semisimple": epi.semisimple,
        "korder": epi.korder,
        "non_canonical": epi.non_canonical,
        "canonical_key": [list(c) for c in _pair_coeffs(ctx, epi.canonical_key)],
        "betti_proxy": rec.betti_proxy,
        "proxy_prime": rec.proxy_prime,
        "second_proxy": rec.second_proxy,
        "second_prime": rec.second_prime,
    }


def _record_positive(r: dict) -> bool:
    if r["betti_proxy"] is None or r["betti_proxy"] <= 0:
        return False
    if r["second_prime"] is not None:
        return r["second_proxy"] > 0
    return True


def aggregate_records(n, k, q_max, records, proxy_prime, second_prime, exact_k):
    """Deterministic survey report from per-class record dicts."""
    records = sorted(
        (r for r in records if r["q"] <= q_max),
        key=lambda r: (r["q"], r["canonical_key"]),
    )
    total = len(records)
    positive = [r for r in records if _record_positive(r)]
    canonical_norms = sorted({r["q"] for r in positive if not r["non_canonical"]})
    flagged_only = sorted(
        {r["q"] for r in positive if r["non_canonical"]} - set(canonical_norms)
    )
    percent = 100.0 * len(positive) / total if total else 0.0
    return SurveyReport(
        n=n,
        k=k,
        q_max=q_max,
        proxy_prime=proxy_prime,
        second_prime=second_prime,
        exact_k=exact_k,
        records=records,
        classes_total=total,
        classes_positive=len(positive),
        percent=percent,
        exceptional_norms=canonical_norms,
        flagged_positive_norms=flagged_only,
    )
