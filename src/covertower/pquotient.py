"""Lower exponent-p central quotients, powerful-group tests, and the
rational-homology-sphere exhaustion checker.

The p-quotient engine computes, class by class, the maximal quotient of
exponent-p class <= c of a finitely presented group: extend the current
consistent power-commutator presentation by central tails (on its
non-defining relations and on the images of the original generators that
define no pc generator), enforce consistency by collection of
associativity overlaps, impose the images of the defining relators, and
eliminate dead tails by linear algebra over F_p.

Normal forms are words a_1^e1 ... a_n^en with 0 <= e_i < p.  Collection
is from the left on an exponent vector: the collected prefix is a vector
of exponents and the blocks still to multiply in sit on a stack.
Generator numbering is always weight-monotone, so power and commutator
right-hand sides only involve strictly larger generator indices and
collection terminates.

The tails of a cover are central of exponent p, and both sides of an
associativity overlap collect to normal words with the same non-tail
part, so each consistency relation is the difference of the two tail
exponent vectors mod p; no inverse is collected.
"""

from dataclasses import dataclass, field
from itertools import compress
from math import gcd

from .arith import divisors, is_prime, moebius
from .errors import InternalInvariantError, ParameterError, ResourceError
from .fpcore.snf import abelianization
from .fpcore.words import Presentation

MAX_CLASS = 8
MAX_LAYER = 512


@dataclass
class PcGroup:
    """Consistent weighted power-commutator presentation of a finite p-group.

    power[i] is the normal word for a_i^p (missing = trivial); comm[(j, i)]
    for j > i is the normal word for [a_j, a_i] = a_j^-1 a_i^-1 a_j a_i
    (missing = the generators commute).  Words are tuples of (gen, exp).
    """

    p: int
    ngens: int
    weights: list
    power: dict = field(default_factory=dict)
    comm: dict = field(default_factory=dict)
    definitions: dict = field(default_factory=dict)

    def __post_init__(self):
        self._inv_cache = {}

    def order(self) -> int:
        return self.p**self.ngens

    def identity(self):
        return ()

    # --- collection -------------------------------------------------------
    def collect(self, blocks):
        """Normal form of a product of generator-power blocks, collected
        from the left (exponents must be nonnegative; inverses go through
        `inverse`).

        ev[1..n] holds the collected prefix and `stack` the blocks still to
        multiply in, the next one on top.  A block a_g^e with nothing above
        g in the prefix is added to ev[g]; each full p-th power becomes the
        word power[g].  Otherwise the part T of the prefix above g is taken
        out and a_g, then T conjugated by a_g (a_h -> a_h comm[(h, g)]),
        then a_g^(e-1) are multiplied in.
        """
        p, power, comm = self.p, self.power, self.comm
        stack = []
        for g, e in reversed(blocks):
            if e < 0:
                raise ParameterError("collection expects nonnegative exponents")
            if e:
                stack.append((g, e))
        ev = [0] * (self.ngens + 1)
        top = 0  # ev is zero above index `top`
        while stack:
            g, e = stack.pop()
            while top > g and not ev[top]:
                top -= 1
            if top <= g:
                e += ev[g]
                if e >= p:
                    q, e = divmod(e, p)
                    pw = power.get(g)
                    if pw:
                        stack.extend(pw[::-1] * q)
                ev[g] = e
                top = g
                continue
            if e > 1:
                stack.append((g, e - 1))
            for h in range(top, g, -1):
                f = ev[h]
                if f:
                    ev[h] = 0
                    c = comm.get((h, g))
                    if c:
                        stack.extend((c[::-1] + ((h, 1),)) * f)
                    else:
                        stack.append((h, f))
            stack.append((g, 1))
            top = g
        return tuple(compress(enumerate(ev), ev))

    def mult(self, u, v):
        return self.collect(list(u) + list(v))

    def _gen_inverse(self, g):
        """Normal form of a_g^-1."""
        if g not in self._inv_cache:
            pw = self.power.get(g, ())
            self._inv_cache[g] = self.collect(
                [(g, self.p - 1)] + list(self.inverse(pw))
            )
        return self._inv_cache[g]

    def inverse(self, u):
        """Normal form of u^-1 (recursion descends to higher generators)."""
        if not u:
            return ()
        out = ()
        for g, e in reversed(u):
            blk = self._gen_inverse(g)
            for _ in range(e):
                out = self.mult(out, blk)
        return out

    def power_word(self, u, e):
        if e < 0:
            return self.power_word(self.inverse(u), -e)
        out = ()
        base = u
        while e:
            if e & 1:
                out = self.mult(out, base)
            base = self.mult(base, base)
            e >>= 1
        return out


@dataclass(frozen=True)
class LayerRanks:
    """d[k] = dim P_{k-1}/P_k of the lower exponent-p central series."""

    ranks: tuple

    def __iter__(self):
        return iter(self.ranks)

    def __getitem__(self, i):
        return self.ranks[i]

    def __len__(self):
        return len(self.ranks)

    @property
    def d1(self):
        return self.ranks[0] if self.ranks else 0


def _echelon_mod_p(rows, width, p):
    """Row-reduce vectors over F_p; returns dict pivot_col -> reduced row
    (lead entry 1, zeros before the lead; later pivot columns may remain)."""
    pivots = {}
    for row in rows:
        row = list(row)
        while True:
            lead = next((c for c in range(width) if row[c] % p), None)
            if lead is None:
                break
            if lead in pivots:
                f = row[lead] % p
                row = [(a - f * b) % p for a, b in zip(row, pivots[lead])]
            else:
                inv = pow(row[lead], p - 2, p)
                pivots[lead] = [a * inv % p for a in row]
                break
    return pivots


def _rref_mod_p(rows, width, p):
    """Fully back-substituted reduced row echelon form: every pivot row is
    zero at all other pivot columns."""
    pivots = _echelon_mod_p(rows, width, p)
    for lead in sorted(pivots, reverse=True):
        row = pivots[lead]
        for lead2 in sorted(c for c in pivots if c > lead):
            f = row[lead2] % p
            if f:
                row = [(a - f * b) % p for a, b in zip(row, pivots[lead2])]
        pivots[lead] = row
    return pivots


def _class_one(pres: Presentation, p: int):
    """Mod-p abelianization data: pc group, images of the original
    generators, layer dimension."""
    rows = [[v % p for v in row] for row in pres.exponent_matrix()]
    pivots = _rref_mod_p(rows, pres.ngens, p)
    free_cols = [j for j in range(pres.ngens) if j not in pivots]
    d1 = len(free_cols)
    gen_of_col = {j: r + 1 for r, j in enumerate(free_cols)}
    theta = {}
    for j in range(pres.ngens):
        if j in gen_of_col:
            theta[j + 1] = ((gen_of_col[j], 1),)
        else:
            row = pivots[j]
            word = []
            for f in free_cols:
                c = (-row[f]) % p
                if c:
                    word.append((gen_of_col[f], c))
            theta[j + 1] = tuple(sorted(word))
    G = PcGroup(
        p=p,
        ngens=d1,
        weights=[1] * d1,
        definitions={g: ("img", j + 1) for j, g in gen_of_col.items()},
    )
    return G, theta, d1


def _build_cover(G: PcGroup, K: int, theta):
    """Add a central elementary tail to every non-defining relation with
    weight sum <= K, and to the image theta[j] of every original generator
    that defines no pc generator.  Returns the cover group, the tail
    bookkeeping and the images in the cover."""
    p, n = G.p, G.ngens
    tails = []  # (kind, data) per tail, kind in {"pow", "comm", "img"}
    power = {i: list(G.power.get(i, ())) for i in range(1, n + 1)}
    comm = {key: list(w) for key, w in G.comm.items()}
    defined = set()
    for g, d in G.definitions.items():
        defined.add(d)
    for i in range(1, n + 1):
        if ("pow", i) in defined:
            continue
        tails.append(("pow", i))
    for j in range(2, n + 1):
        for i in range(1, j):
            if G.weights[j - 1] + G.weights[i - 1] > K:
                continue
            if ("comm", j, i) in defined:
                continue
            tails.append(("comm", j, i))
    tails.extend(("img", j) for j in sorted(theta) if ("img", j) not in defined)
    T = len(tails)
    cover = PcGroup(
        p=p,
        ngens=n + T,
        weights=list(G.weights) + [K] * T,
        power={},
        comm={},
        definitions=dict(G.definitions),
    )
    theta = dict(theta)
    for idx, tail in enumerate(tails):
        tg = n + 1 + idx
        if tail[0] == "pow":
            i = tail[1]
            power[i] = power.get(i, []) + [(tg, 1)]
        elif tail[0] == "comm":
            _, j, i = tail
            comm[(j, i)] = comm.get((j, i), []) + [(tg, 1)]
        else:
            theta[tail[1]] += ((tg, 1),)
    cover.power = {i: tuple(w) for i, w in power.items() if w}
    cover.comm = {key: tuple(w) for key, w in comm.items() if w}
    return cover, tails, theta


def _tail_difference(u1, u2, n, T, p):
    """Tail vector of u1^-1 u2 for normal words u1, u2 of a cover that have
    the same non-tail part: tails are central of exponent p, so it is the
    tail part of u2 minus that of u1, mod p."""
    if [b for b in u1 if b[0] <= n] != [b for b in u2 if b[0] <= n]:
        raise InternalInvariantError(
            "consistency difference involves non-tail generators"
        )
    vec = [0] * T
    for g, e in u2:
        if g > n:
            vec[g - n - 1] = e
    for g, e in u1:
        if g > n:
            vec[g - n - 1] = (vec[g - n - 1] - e) % p
    return vec


def _consistency_vectors(cover: PcGroup, n: int, T: int, K: int):
    """Tail relations forced by associativity overlaps."""
    p = cover.p
    wts = cover.weights
    vecs = []

    def record(u1, u2):
        if u1 != u2:
            vecs.append(_tail_difference(u1, u2, n, T, p))

    single = {g: ((g, 1),) for g in range(1, n + 1)}
    for k in range(3, n + 1):
        for j in range(2, k):
            if wts[k - 1] + wts[j - 1] >= K:
                break
            for i in range(1, j):
                if wts[k - 1] + wts[j - 1] + wts[i - 1] > K:
                    break
                u1 = cover.mult(single[k], cover.mult(single[j], single[i]))
                u2 = cover.mult(cover.mult(single[k], single[j]), single[i])
                record(u1, u2)
    for j in range(2, n + 1):
        for i in range(1, j):
            if wts[j - 1] + wts[i - 1] > K:
                continue
            pj = cover.power.get(j, ())
            u1 = cover.mult(pj, single[i])
            u2 = cover.mult(
                cover.collect([(j, p - 1)]), cover.mult(single[j], single[i])
            )
            record(u1, u2)
            pi = cover.power.get(i, ())
            u1 = cover.mult(single[j], pi)
            u2 = cover.mult(cover.mult(single[j], single[i]), cover.collect([(i, p - 1)]))
            record(u1, u2)
    for i in range(1, n + 1):
        pi = cover.power.get(i, ())
        record(cover.mult(pi, single[i]), cover.mult(single[i], pi))
    return vecs


def _relator_vectors(cover: PcGroup, theta, pres: Presentation, n: int, T: int):
    vecs = []
    inv_theta = {g: cover.inverse(w) for g, w in theta.items()}
    for rel in pres.relators:
        out = ()
        for letter in rel:
            w = theta[abs(letter)] if letter > 0 else inv_theta[abs(letter)]
            out = cover.mult(out, w)
        vec = _tail_difference((), out, n, T, cover.p)
        if any(vec):
            vecs.append(vec)
    return vecs


def _eliminate(cover: PcGroup, tails, vectors, K: int, theta):
    """Quotient the cover by the span of the tail vectors; surviving tails
    become the weight-K generators of the result.  Returns the result, the
    number of new generators and the images theta in the result."""
    p, n = cover.p, cover.ngens - len(tails)
    T = len(tails)
    pivots = _rref_mod_p(vectors, T, p)
    surviving = [c for c in range(T) if c not in pivots]
    new_index = {c: n + 1 + r for r, c in enumerate(surviving)}

    def substitute(word):
        out = []
        tail_acc = [0] * T
        for g, e in word:
            if g <= n:
                out.append((g, e))
            else:
                c = g - n - 1
                if c in pivots:
                    row = pivots[c]
                    for c2 in surviving:
                        tail_acc[c2] = (tail_acc[c2] - e * row[c2]) % p
                else:
                    tail_acc[c] = (tail_acc[c] + e) % p
        for c2 in surviving:
            if tail_acc[c2]:
                out.append((new_index[c2], tail_acc[c2]))
        return tuple(out)

    result = PcGroup(
        p=p,
        ngens=n + len(surviving),
        weights=cover.weights[:n] + [K] * len(surviving),
        power={},
        comm={},
        definitions=dict(cover.definitions),
    )
    for i, w in cover.power.items():
        sw = substitute(w)
        if sw:
            result.power[i] = sw
    for key, w in cover.comm.items():
        sw = substitute(w)
        if sw:
            result.comm[key] = sw
    for c in surviving:
        kind = tails[c]
        result.definitions[new_index[c]] = kind
    theta = {j: substitute(w) for j, w in theta.items()}
    return result, len(surviving), theta


def p_quotient(pres: Presentation, p: int, max_class: int):
    """Maximal quotient of exponent-p class <= max_class, with layer ranks.

    Returns (PcGroup, LayerRanks).  The rank list ends with a 0 exactly
    when the series stabilized before max_class.
    """
    if not is_prime(p):
        raise ParameterError(f"{p} is not prime")
    if not 1 <= max_class <= MAX_CLASS:
        raise ParameterError(f"class bound outside 1..{MAX_CLASS}")
    G, theta, d1 = _class_one(pres, p)
    ranks = [d1]
    if d1 == 0:
        return G, LayerRanks((0,))
    for K in range(2, max_class + 1):
        cover, tails, theta = _build_cover(G, K, theta)
        n, T = G.ngens, len(tails)
        vectors = _consistency_vectors(cover, n, T, K)
        vectors += _relator_vectors(cover, theta, pres, n, T)
        G, added, theta = _eliminate(cover, tails, vectors, K, theta)
        ranks.append(added)
        if added == 0:
            break
        if added > MAX_LAYER:
            raise ResourceError(
                f"layer {K} has {added} generators (> {MAX_LAYER})",
                partial=LayerRanks(tuple(ranks)),
            )
    return G, LayerRanks(tuple(ranks))


def consistency_check(G: PcGroup) -> bool:
    """Collect all associativity overlaps of the finished presentation."""
    single = {g: ((g, 1),) for g in range(1, G.ngens + 1)}
    for k in range(3, G.ngens + 1):
        for j in range(2, k):
            for i in range(1, j):
                u1 = G.mult(single[k], G.mult(single[j], single[i]))
                u2 = G.mult(G.mult(single[k], single[j]), single[i])
                if u1 != u2:
                    return False
    for j in range(1, G.ngens + 1):
        for i in range(1, G.ngens + 1):
            if i == j:
                continue
            pj = G.power.get(j, ())
            if i < j:
                u1 = G.mult(pj, single[i])
                u2 = G.mult(G.collect([(j, G.p - 1)]), G.mult(single[j], single[i]))
            else:
                u1 = G.mult(single[i], pj)
                u2 = G.mult(G.mult(single[i], single[j]), G.collect([(j, G.p - 1)]))
            if u1 != u2:
                return False
    for i in range(1, G.ngens + 1):
        pi = G.power.get(i, ())
        if G.mult(pi, single[i]) != G.mult(single[i], pi):
            return False
    return True


def class2_truncation(S: PcGroup) -> PcGroup:
    """Quotient by the generators of weight >= 3 (valid because generator
    weights track the lower exponent-p central layers)."""
    keep = [i for i in range(1, S.ngens + 1) if S.weights[i - 1] <= 2]
    if len(keep) != max(keep, default=0):
        raise ParameterError("generator numbering must be weight-monotone")
    n = len(keep)

    def trunc(word):
        return tuple((g, e) for g, e in word if g <= n)

    Q = PcGroup(
        p=S.p,
        ngens=n,
        weights=S.weights[:n],
        power={i: trunc(w) for i, w in S.power.items() if i <= n and trunc(w)},
        comm={
            key: trunc(w)
            for key, w in S.comm.items()
            if key[0] <= n and trunc(w)
        },
        definitions={g: d for g, d in S.definitions.items() if g <= n},
    )
    return Q


def is_powerful(S: PcGroup) -> bool:
    """Powerful test: S/S^p abelian for odd p, S/S^4 abelian for p = 2.

    Reduces to the class-2 truncation Q (powerful iff Q is).  For odd p the
    p-th power map on a class-2 group is a homomorphism, so S^p is spanned
    by generator powers and the test is linear algebra on the weight-2
    layer; for p = 2 the truncation has trivial fourth powers, so powerful
    means abelian.
    """
    Q = class2_truncation(S)
    p = Q.p
    ones = [i for i in range(1, Q.ngens + 1) if Q.weights[i - 1] == 1]
    twos = [i for i in range(1, Q.ngens + 1) if Q.weights[i - 1] == 2]
    col = {g: c for c, g in enumerate(twos)}

    def vec(word):
        v = [0] * len(twos)
        for g, e in word:
            if g in col:
                v[col[g]] = e % p
            elif Q.weights[g - 1] == 1:
                raise InternalInvariantError("weight-1 letter in a layer word")
        return v

    comm_vecs = []
    for j in ones:
        for i in ones:
            if j > i and (j, i) in Q.comm:
                comm_vecs.append(vec(Q.comm[(j, i)]))
    if p == 2:
        return all(not any(v) for v in comm_vecs)
    pow_vecs = [vec(Q.power.get(i, ())) for i in ones]
    pivots = _echelon_mod_p(pow_vecs, len(twos), p)
    for v in comm_vecs:
        row = list(v)
        for c in range(len(twos)):
            if row[c] % p and c in pivots:
                f = row[c] * pow(pivots[c][c], p - 2, p) % p
                row = [(a - f * b) % p for a, b in zip(row, pivots[c])]
        if any(x % p for x in row):
            return False
    return True


def is_p_powerful(pres: Presentation, p: int) -> bool:
    """Every finite p-quotient powerful; equivalent to the class-2 maximal
    p-quotient being powerful."""
    S, _ = p_quotient(pres, p, 2)
    return is_powerful(S)


def growth_label(ranks) -> str:
    """`bounded` when every d_k <= 3, `growing` when the last three
    consecutive ratios all exceed 1.2, `inconclusive` otherwise."""
    ds = list(ranks)
    if all(d <= 3 for d in ds):
        return "bounded"
    if len(ds) >= 4 and all(
        ds[i] > 0 and ds[i + 1] / ds[i] > 1.2 for i in range(len(ds) - 4, len(ds) - 1)
    ):
        return "growing"
    return "inconclusive"


def dk_series_and_classify(pres: Presentation, p: int, max_class: int):
    """Layer ranks of the lower exponent-p central series plus the growth
    label of `growth_label`."""
    _, ranks = p_quotient(pres, p, max_class)
    return ranks, growth_label(ranks)


def witt_cumulative(k: int) -> int:
    """Cumulative necklace counts: sum_{m<=k} (1/m) sum_{d|m} mu(m/d) 2^d."""
    if not 1 <= k <= 30:
        raise ParameterError("supported range is 1..30")
    total = 0
    for m in range(1, k + 1):
        s = sum(moebius(m // d) * 2**d for d in divisors(m))
        if s % m:
            raise InternalInvariantError("necklace sum not divisible")
        total += s // m
    return total


@dataclass(frozen=True)
class Verdict:
    hypotheses: dict
    conclusion: str  # "satisfied" | "not-satisfied"
    witnesses: dict


def exhaustion_check(pres: Presentation, p: int, n: int, h1_order=None) -> Verdict:
    """Hypotheses for exhausting by rational homology spheres, given that
    the associated quaternion algebra ramifies at a prime of norm p^n:
    beta_1 = 0, |H_1| coprime to p^(2n) - 1, and the group is p-powerful.
    """
    if not is_prime(p):
        raise ParameterError(f"{p} is not prime")
    if n < 1:
        raise ParameterError("the norm exponent must be >= 1")
    ab = abelianization(pres)
    witnesses = {"betti": ab.betti, "torsion": list(ab.torsion)}
    hyp = {}
    hyp["betti_zero"] = ab.betti == 0
    if h1_order is None:
        h1_order = ab.h1_order()
    witnesses["h1_order"] = h1_order
    bound = p ** (2 * n) - 1
    witnesses["coprimality_modulus"] = bound
    if h1_order is None:
        hyp["h1_coprime"] = False
        witnesses["gcd"] = None
    else:
        g = gcd(h1_order, bound)
        witnesses["gcd"] = g
        hyp["h1_coprime"] = g == 1
    hyp["p_powerful"] = is_p_powerful(pres, p)
    conclusion = "satisfied" if all(hyp.values()) else "not-satisfied"
    return Verdict(hypotheses=hyp, conclusion=conclusion, witnesses=witnesses)
