import math
import random

import numpy as np
import pytest
from sympy.combinatorics import Permutation as SPerm
from sympy.combinatorics import PermutationGroup

from covertower.errors import ParameterError
from covertower.finfield import fq_context, p1_action, psl2_order
from covertower.fpcore import (
    Permutation,
    group_order_equals,
    orbit_and_transversal,
    schreier_sims_order,
    transversal_word,
)
from helpers_oracle import reference_orbit_and_transversal


def test_permutation_validation():
    for bad in ([0, 0, 1], [1, 2, 2], [0, -1, 1], [0, 1, 3], [3, 0, 1], [-1], [1]):
        with pytest.raises(ParameterError):
            Permutation(bad)
    assert Permutation([]).degree == 0
    assert Permutation(np.array([2, 0, 1])).images == (2, 0, 1)
    p = Permutation.from_cycles(4, [(0, 1, 2)])
    assert p.images == (1, 2, 0, 3)
    assert p.inverse().compose(p) == Permutation.identity(4)


def test_orbit_examples():
    c3 = Permutation.from_cycles(3, [(0, 1, 2)])
    orbit, tree = orbit_and_transversal([c3], 0)
    assert orbit == [0, 1, 2]
    assert set(tree) == {1, 2}
    orbit, tree = orbit_and_transversal([Permutation.identity(5)], 0)
    assert orbit == [0]
    assert tree == {}


def test_orbit_psl2_f3_transitive():
    ctx = fq_context(3, 1)
    t = p1_action(ctx, (1, 1, 0, 1))
    s = p1_action(ctx, (0, 2, 1, 0))
    orbit, _ = orbit_and_transversal([t, s], 3)
    assert len(orbit) == 4


def test_orbit_and_tree_match_the_pointwise_bfs():
    """The level-by-level search gives the orbit list and tree of the
    point-by-point BFS, on random actions with identity generators, short
    cycles and orbits that miss points."""
    rng = random.Random(41)
    seen = set()
    for _ in range(200):
        deg = rng.randint(1, 40)
        gens = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(3)
            if kind == 0:
                gens.append(Permutation.identity(deg))
            elif kind == 1:
                gens.append(Permutation(rng.sample(range(deg), deg)))
            else:
                pts = rng.sample(range(deg), rng.randint(0, deg))
                cycles = [pts[i : i + 3] for i in range(0, len(pts), 3)]
                gens.append(Permutation.from_cycles(deg, cycles))
        base = rng.randrange(deg)
        orbit, tree = orbit_and_transversal(gens, base)
        assert (orbit, tree) == reference_orbit_and_transversal(gens, base)
        seen.add(len(orbit) < deg)
    assert seen == {True, False}


def test_transversal_words_reach_their_points():
    rng = random.Random(3)
    for _ in range(20):
        deg = rng.randint(2, 8)
        gens = [
            Permutation(rng.sample(range(deg), deg)) for _ in range(rng.randint(1, 3))
        ]
        base = rng.randrange(deg)
        orbit, tree = orbit_and_transversal(gens, base)
        for pt in orbit:
            cur = base
            for gi, sign in transversal_word(tree, pt):
                cur = gens[gi](cur) if sign > 0 else gens[gi].inverse()(cur)
            assert cur == pt


def test_order_examples():
    assert schreier_sims_order([]) == 1
    assert schreier_sims_order([Permutation.from_cycles(3, [(0, 1, 2)])]) == 3
    ctx = fq_context(5, 1)
    t = p1_action(ctx, (1, 1, 0, 1))
    s = p1_action(ctx, (0, 4, 1, 0))
    assert schreier_sims_order([t, s]) == 60


@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_psl2_orders_prime_field(q):
    # over a prime field the standard pair generates the whole group
    ctx = fq_context(q, 1)
    t = p1_action(ctx, (1, 1, 0, 1))
    s = p1_action(ctx, (0, ctx.neg(1), 1, 0))
    assert schreier_sims_order([t, s]) == psl2_order(q)
    assert group_order_equals([t, s], psl2_order(q))
    # with no usable early-exit bound the comparison is exact
    assert not group_order_equals(
        [t, s], psl2_order(q) // 2, proper_bound=psl2_order(q)
    )


@pytest.mark.parametrize("q", [9, 25])
def test_prime_field_pair_inside_extension_field(q):
    # entries lie in the prime field, so only PSL2(F_p) is generated;
    # sympy confirms the order of exactly these permutations
    from covertower.arith import prime_power_split

    p, m = prime_power_split(q)
    ctx = fq_context(p, m)
    t = p1_action(ctx, (1, 1, 0, 1))
    s = p1_action(ctx, (0, ctx.neg(1), 1, 0))
    mine = schreier_sims_order([t, s])
    assert mine == psl2_order(p)
    ref = PermutationGroup([SPerm(list(g.images)) for g in (t, s)]).order()
    assert mine == ref


def test_random_groups_match_sympy():
    rng = random.Random(11)
    for _ in range(30):
        deg = rng.randint(1, 9)
        gens = [
            Permutation(rng.sample(range(deg), deg)) for _ in range(rng.randint(1, 3))
        ]
        mine = schreier_sims_order(gens)
        ref = PermutationGroup([SPerm(list(g.images)) for g in gens]).order()
        assert mine == ref
        assert math.factorial(deg) % mine == 0


def test_order_multiplicative_along_chain():
    # |G| = |orbit| * |stabilizer| for the point stabilizer
    rng = random.Random(5)
    for _ in range(10):
        deg = rng.randint(2, 8)
        gens = [Permutation(rng.sample(range(deg), deg)) for _ in range(2)]
        G = PermutationGroup([SPerm(list(g.images)) for g in gens])
        orbit, _ = orbit_and_transversal(gens, 0)
        stab = G.stabilizer(0)
        assert schreier_sims_order(gens) == len(orbit) * stab.order()
