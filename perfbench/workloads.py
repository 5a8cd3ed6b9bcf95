"""The three workloads: inputs from a seed, the timed operations, and the
checks on their outputs.

A workload object is built by `setup(seed)` (input generation and
validation, counted in set-up time).  `operations(work_dir)` lists the
timed calls as (name, thunk) pairs, writing files only under work_dir; a
round runs every one of them once.  `check(name,
output)` returns the reasons an output is wrong (empty when it is right)
and `summary(name, output)` a JSON value that must repeat in every round.

Checks never compare against a stored copy of the program's output: they
recompute with `checkers` or test a property the method must have.
"""

import contextlib
import hashlib
import io
import json
import os
import random

import checkers as C
from make_inputs import PAIRS_PATH

from covertower import cli
from covertower.fpcore.perms import Permutation
from covertower.fpcore.rewriting import betti_proxy_cover
from covertower.fpcore.words import Presentation
from covertower.pquotient import consistency_check, p_quotient
from covertower.twistknot import twist_relators


def _prime_powers(qmax):
    """Every prime power 2 <= q <= qmax, in order."""
    out = []
    for q in range(2, qmax + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        r = q
        while r % p == 0:
            r //= p
        if r == 1:
            out.append(q)
    return out


def _prime_in(rng, lo, hi):
    while True:
        n = rng.randrange(lo, hi)
        if C.is_prime(n):
            return n


class TwistSurvey:
    """`twist-survey` through the CLI, extended one prime power at a time.

    Two hyperbolic specs (the arithmetic T(4,4) of the paper and the
    non-arithmetic T(2,5)) over every prime power q <= QMAX, which covers
    primes, characteristic 2 and q = p^m with m > 1.  Each spec gets a
    fresh cache directory per round, and its survey is called once per
    prime power q with `--qmax q`: the survey resumes from its cache, so a
    call computes q alone, and the last call reports every q <= QMAX.
    Timing the calls one by one keeps each timed piece short.  The seed
    draws the proxy prime; the trace enumeration dominates the cost, which
    the proxy prime does not move.
    """

    SPECS = ((4, 4), (2, 5))
    QMAX = 64
    BRUTE_QS = (5, 7, 11, 13, 17)

    def setup(self, seed):
        rng = random.Random(seed)
        self.seed = seed
        self.proxy_prime = _prime_in(rng, 30000, 40000)
        self.qs = _prime_powers(self.QMAX)

    def operations(self, work_dir):
        return [
            (f"T({n},{k}) q<={q}", self._survey_call(n, k, q, work_dir))
            for n, k in self.SPECS
            for q in self.qs
        ]

    def _survey_call(self, n, k, qmax, work_dir):
        def run():
            d = os.path.join(work_dir, f"survey-{n}-{k}")
            report = os.path.join(d, f"report-{qmax}.json")
            out = io.StringIO()
            argv = [
                "twist-survey", "-n", str(n), "-k", str(k), "--qmax", str(qmax),
                "--proxy-prime", str(self.proxy_prime), "--cache-dir", os.path.join(d, "cache"),
                "--format", "json", "--output", report,
            ]
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
            with open(report, encoding="utf-8") as fh:
                data = json.load(fh)
            return {"n": n, "k": k, "qmax": qmax, "rc": rc, "stdout": out.getvalue(), "report": data}

        return run

    def summary(self, name, out):
        return _digest(out["report"])

    def check(self, name, out):
        n, k, qmax, rep = out["n"], out["k"], out["qmax"], out["report"]
        bad = []
        if out["rc"] != 0:
            bad.append(f"exit code {out['rc']}")
        records = rep["records"]
        if f"classes_total={len(records)}" not in out["stdout"].splitlines():
            bad.append("printed classes_total differs from the record count")
        if rep["classes_total"] != len(records):
            bad.append("classes_total differs from the record count")
        if rep["q_max"] != qmax or any(r["q"] > qmax for r in records):
            bad.append(f"report is not the survey up to q = {qmax}")
        if qmax == self.QMAX:
            bad += self._check_classes(n, k, records)
        return bad

    def _check_classes(self, n, k, records):
        """Every class of the full survey, re-verified with the benchmark's
        own arithmetic."""
        bad = []
        by_q = {}
        for r in records:
            by_q.setdefault(r["q"], []).append(r)
        rng = random.Random(f"{self.seed}-survey-points")
        fields = {}
        for q, rs in sorted(by_q.items()):
            F = fields.setdefault(q, C.Field(rs[0]["p"], rs[0]["m"]))
            keys = set()
            for r in rs:
                if r["proxy_prime"] != self.proxy_prime:
                    bad.append(f"q={q}: proxy prime {r['proxy_prime']} was not the one asked for")
                x, y = F.encode(r["x"]), F.encode(r["y"])
                keys.add(C.canonical_trace_key(F, x, y))
                bad += [f"q={q} (x,y)={r['x']},{r['y']}: {why}" for why in C.check_pair(F, n, k, x, y)]
                A, B = C.pair_from_traces(F, x, y)
                perms = [Permutation(C.p1_images(F, A)), Permutation(C.p1_images(F, B))]
                point = rng.randrange(q)
                second = betti_proxy_cover(
                    Presentation(2, C.twist_words(n, k)), perms, point, self.proxy_prime
                )
                if second != r["betti_proxy"]:
                    bad.append(f"q={q}: Betti proxy {r['betti_proxy']} at oo but {second} at {point}")
            if len(keys) != len(rs):
                bad.append(f"q={q}: {len(rs)} classes but {len(keys)} Frobenius/sign orbits")
        for q in self.BRUTE_QS:
            want = C.brute_class_count(q, n, k)
            if want != len(by_q.get(q, [])):
                bad.append(f"q={q}: {len(by_q.get(q, []))} classes, brute force finds {want}")
        return bad


class CoverHomology:
    """`betti_proxy_cover` on Borel covers (stabiliser of oo on P^1) at
    primes q between 440 and 610, where one call takes 0.1-0.35 s.  A round
    runs every stored trace pair of data/cover_pairs.json, so that the
    seed, which draws the proxy prime, the second point of each check and
    the entry that gets the dense check, leaves the cost alone.  The
    permutations are rebuilt here and the presentation is the program's,
    so no enumeration runs.  The checks use the benchmark's own relator
    words."""

    def setup(self, seed):
        rng = random.Random(seed)
        self.seed = seed
        self.proxy_prime = _prime_in(rng, 30000, 40000)
        with open(PAIRS_PATH, encoding="utf-8") as fh:
            entries = json.load(fh)["entries"]
        self.inputs = []
        for e in entries:
            why = _validate_pair(e)
            if why:
                raise ValueError(f"stored trace pair {e} is invalid: {why}")
            F = C.Field(e["q"])
            A, B = C.pair_from_traces(F, e["x"], e["y"])
            perms = [C.p1_images(F, A), C.p1_images(F, B)]
            self.inputs.append(
                {
                    "name": f"T({e['n']},{e['k']}) q={e['q']} x={e['x']} y={e['y']}",
                    "entry": e,
                    "pres": Presentation(2, twist_relators(e["n"], e["k"])),
                    "own_pres": Presentation(2, C.twist_words(e["n"], e["k"])),
                    "perms": perms,
                    "images": [Permutation(p) for p in perms],
                }
            )
        self.dense_check = rng.choice([i["name"] for i in self.inputs])

    def operations(self, work_dir):
        return [(i["name"], self._betti_call(i)) for i in self.inputs]

    def _betti_call(self, inp):
        q = inp["entry"]["q"]
        return lambda: betti_proxy_cover(inp["pres"], inp["images"], q, self.proxy_prime)

    def summary(self, name, out):
        return out

    def check(self, name, out):
        inp = next(i for i in self.inputs if i["name"] == name)
        q = inp["entry"]["q"]
        bad = []
        if not 0 <= out <= q + 2:
            return [f"Betti proxy {out} outside 0..{q + 2}"]
        point = random.Random(f"{self.seed}-{name}").randrange(q)
        second = betti_proxy_cover(inp["own_pres"], inp["images"], point, self.proxy_prime)
        if second != out:
            bad.append(f"Betti proxy {out} at oo but {second} at {point}")
        if name == self.dense_check:
            dense = C.cover_betti_dense(inp["own_pres"].relators, inp["perms"], self.proxy_prime)
            if dense != out:
                bad.append(f"Betti proxy {out}, dense rank gives {dense}")
        return bad


def _validate_pair(e):
    q = e["q"]
    if q == 2 or not C.is_prime(q):
        return f"{q} is not an odd prime"
    F = C.Field(q)
    reasons = C.check_pair(F, e["n"], e["k"], e["x"], e["y"])
    A, B = C.pair_from_traces(F, e["x"], e["y"])
    if not C.is_transitive([C.p1_images(F, A), C.p1_images(F, B)]):
        reasons.append("action on P^1 is not transitive")
    return "; ".join(reasons)


class PqSeries:
    """`p_quotient` at odd p: free groups (class 5 at p = 3, large exponents
    at p = 5 and 7, three and four generators for wide tail sets) and a
    one-relator group on three generators at p = 3, 5 and 7.  Every call
    takes under 0.25 s.  The seed relabels the one-relator group twice per
    prime (permutes and inverts generators, rotates the relator), which
    keeps the isomorphism type and so the cost."""

    FREE = (("F2", 2, 3, 5), ("F2", 2, 5, 4), ("F2", 2, 7, 4), ("F3", 3, 3, 4), ("F4", 4, 3, 3))
    # a commutator [u, v] of two words in a, b, c: d1 = 3 at every p
    RELATOR = (2, 1, -2, -1, -1, 3, 2, -1, -2, -3, 1, 1)
    ONE_RELATOR = ((3, 4), (5, 3), (7, 3))
    RELABELS = 2

    def setup(self, seed):
        rng = random.Random(seed)
        self.inputs = {}
        for label, d, p, c in self.FREE:
            self.inputs[f"{label} p={p} class={c}"] = (Presentation(d, ()), p, c, None)
        for p, c in self.ONE_RELATOR:
            for i in range(self.RELABELS):
                word = _relabel(rng, self.RELATOR, 3)
                self.inputs[f"R{i} p={p} class={c}"] = (Presentation(3, (word,)), p, c, self.RELATOR)

    def operations(self, work_dir):
        return [(name, self._pq_call(*args[:3])) for name, args in self.inputs.items()]

    @staticmethod
    def _pq_call(pres, p, c):
        return lambda: p_quotient(pres, p, c)

    def summary(self, name, out):
        G, ranks = out
        pc = _digest([sorted(G.power.items()), sorted(G.comm.items())])
        return {"ranks": list(ranks), "ngens": G.ngens, "pc": pc}

    def check(self, name, out):
        G, ranks = out
        pres, p, c, base = self.inputs[name]
        ranks = list(ranks)
        bad = []
        d1 = C.abelianized_rank_mod_p(pres.ngens, pres.relators, p)
        if ranks[0] != d1:
            bad.append(f"d1 = {ranks[0]}, the mod-{p} abelianization has rank {d1}")
        if base is None and ranks != C.cumulative_necklaces(pres.ngens, c):
            bad.append(f"free-group ranks {ranks} are not the cumulative necklace counts")
        if base is not None:
            _, base_ranks = p_quotient(Presentation(pres.ngens, (base,)), p, c)
            if list(base_ranks) != ranks:
                bad.append(f"ranks {ranks} change under relabelling (base gives {list(base_ranks)})")
        if sum(ranks) != G.ngens:
            bad.append("layer ranks do not add up to the generator count")
        if not consistency_check(G):
            bad.append("consistency_check fails on the returned group")
        return bad


def _relabel(rng, word, ngens):
    perm = list(range(1, ngens + 1))
    rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in range(ngens)]
    r = rng.randrange(len(word))
    word = word[r:] + word[:r]
    return tuple(
        (1 if x > 0 else -1) * sign[abs(x) - 1] * perm[abs(x) - 1] for x in word
    )


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


WORKLOADS = {"twist-survey": TwistSurvey, "cover-homology": CoverHomology, "pq-series": PqSeries}
