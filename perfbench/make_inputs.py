"""Remake the stored trace-pair list of the cover-homology workload.

    python3 perfbench/make_inputs.py --seed 1

For each slot (one spec over a narrow band of primes) it draws primes from
the seed and solves for trace pairs (x, y) with the benchmark's own
arithmetic: x is the trace of a meridian of projective order dividing k,
y = tr AB runs over F_q, and a pair is kept when the relators hold
projectively, tr[A,B] != 2 and the action on P^1 is transitive.  Keys are taken up to the sign flip
(x, y) -> (-x, y).  No code of the program under test runs.
"""

import argparse
import json
import os
import random
import sys

import checkers as C

HERE = os.path.dirname(os.path.abspath(__file__))
PAIRS_PATH = os.path.join(HERE, "data", "cover_pairs.json")

# Each slot is one twist-knot spec over a narrow band of primes, where one
# rank takes 0.1-0.35 s; a round of the workload runs every entry.
SLOTS = (
    (4, 4, 590, 610),
    (2, 6, 590, 610),
    (3, 3, 540, 575),
    (2, 5, 500, 545),
    (-3, 3, 440, 470),
    (2, 3, 445, 470),
)
PER_SLOT = 2
PER_PRIME = 2


def solve_pairs(n, k, q):
    """Kept trace pairs (x, y) for T(n, k) over the prime field F_q."""
    F = C.Field(q)
    third = C.twist_words(n, k)[2]
    out, seen = [], set()
    for x in range(q):
        order = C.projective_order(F, (x, q - 1, 1, 0), k)
        if order is None or order < 2 or k % order:
            continue
        for y in range(q):
            key = min((x, y), ((-x) % q, y))
            if key in seen:
                continue
            A, B = C.pair_from_traces(F, x, y)
            if not C.is_scalar_pm_one(F, C.word_matrix(F, third, {1: A, 2: B})):
                continue
            if C.fricke_commutator_trace(F, x, y) == 2:
                continue
            if not C.is_transitive([C.p1_images(F, A), C.p1_images(F, B)]):
                continue
            seen.add(key)
            out.append(key)
    return out


def make_pairs(seed):
    rng = random.Random(seed)
    entries = []
    for slot, (n, k, lo, hi) in enumerate(SLOTS):
        primes = [q for q in range(lo, hi) if C.is_prime(q)]
        rng.shuffle(primes)
        found = []
        for q in primes:
            sols = solve_pairs(n, k, q)
            for x, y in rng.sample(sols, min(PER_PRIME, len(sols))):
                if len(found) < PER_SLOT:
                    found.append({"slot": slot, "n": n, "k": k, "q": q, "x": x, "y": y})
                    print(f"slot {slot}: T({n},{k}) q={q} x={x} y={y}", file=sys.stderr)
        if len(found) < PER_SLOT:
            raise SystemExit(f"slot {slot} yielded only {len(found)} entries")
        entries.extend(sorted(found, key=lambda e: (e["q"], e["x"], e["y"])))
    return {"seed": seed, "slots": [list(s) for s in SLOTS], "entries": entries}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    data = make_pairs(args.seed)
    os.makedirs(os.path.dirname(PAIRS_PATH), exist_ok=True)
    with open(PAIRS_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
