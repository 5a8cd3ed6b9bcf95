import random

import pytest

from covertower.errors import ParameterError
from covertower.fpcore import Presentation
from covertower.pquotient import (
    LayerRanks,
    PcGroup,
    class2_truncation,
    consistency_check,
    dk_series_and_classify,
    exhaustion_check,
    growth_label,
    is_p_powerful,
    is_powerful,
    p_quotient,
    witt_cumulative,
)
from covertower.twistknot import OrbifoldSpec, twist_presentation
from helpers_groups import all_subgroups, brute_is_powerful, min_generators

F2 = Presentation(2, [])
Z2 = Presentation(2, [(1, 2, -1, -2)])
Z3 = Presentation(3, [(1, 2, -1, -2), (1, 3, -1, -3), (2, 3, -2, -3)])
D8 = Presentation(2, [(1, 1), (2, 2), (1, 2) * 4])

BASE_ORBIFOLD = Presentation(
    4,
    [
        (1, 1),
        (2, 2),
        (3,) * 4,
        (4,) * 4,
        (4, 3, -4, 2, -3, 2),
        (-3, 2, 3, 2, 1, -4, 1, 4),
        (1, -4, 1, 4) * 3,
    ],
)

# --- hand-built pc groups for the powerful corpus ---------------------------

Z9 = PcGroup(p=3, ngens=2, weights=[1, 2], power={1: ((2, 1),)},
             definitions={2: ("pow", 1)})
Z3xZ9 = PcGroup(p=3, ngens=3, weights=[1, 1, 2], power={1: ((3, 1),)},
                definitions={3: ("pow", 1)})
EXTRASPECIAL27 = PcGroup(p=3, ngens=3, weights=[1, 1, 2],
                         comm={(2, 1): ((3, 1),)},
                         definitions={3: ("comm", 2, 1)})
M27 = PcGroup(p=3, ngens=3, weights=[1, 1, 2], power={1: ((3, 1),)},
              comm={(2, 1): ((3, 1),)}, definitions={3: ("pow", 1)})
Z81 = PcGroup(p=3, ngens=4, weights=[1, 2, 3, 4],
              power={1: ((2, 1),), 2: ((3, 1),), 3: ((4, 1),)},
              definitions={2: ("pow", 1), 3: ("pow", 2), 4: ("pow", 3)})
Z9xZ9 = PcGroup(p=3, ngens=4, weights=[1, 1, 2, 2],
                power={1: ((3, 1),), 2: ((4, 1),)},
                definitions={3: ("pow", 1), 4: ("pow", 2)})


def test_p_quotient_cyclic_tower():
    G, ranks = p_quotient(Presentation(1, []), 3, 4)
    assert list(ranks) == [1, 1, 1, 1]
    assert G.order() == 81
    assert consistency_check(G)


def test_p_quotient_free_group_class2():
    G, ranks = p_quotient(F2, 3, 2)
    assert list(ranks) == [2, 3]
    assert G.order() == 3**5
    assert consistency_check(G)


def test_p2_free_group_beyond_class2():
    _, ranks = p_quotient(F2, 2, 2)
    assert list(ranks) == [2, 3]
    for c in (3, 4, 5):
        G, ranks = p_quotient(F2, 2, c)
        assert list(ranks) == [witt_cumulative(k) for k in range(1, c + 1)]
        assert consistency_check(G)


def test_p2_quotient_orders():
    """Maximal 2-quotients of finite 2-groups are the groups themselves."""
    d16 = Presentation(2, [(1, 1), (2, 2), (1, 2) * 8])
    q8 = Presentation(2, [(1,) * 4, (1, 1, -2, -2), (-2, 1, 2, 1)])
    # i^2 = j^2 = k^2 = ijk: k is dependent mod 2
    q8_ijk = Presentation(3, [(1, 1, -2, -2), (2, 2, -3, -3), (3, 3, -3, -2, -1)])
    for pres, order in ((D8, 8), (d16, 16), (q8, 8), (q8_ijk, 8)):
        G, ranks = p_quotient(pres, 2, 6)
        assert G.order() == order
        assert list(ranks)[-1] == 0
        assert consistency_check(G)
    assert list(p_quotient(d16, 2, 6)[1]) == [2, 1, 1, 0]


def test_p2_base_orbifold():
    G, ranks = p_quotient(BASE_ORBIFOLD, 2, 4)
    assert list(ranks) == [4, 5, 7, 12]
    assert consistency_check(G)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_free_group_layers_match_witt(p):
    _, ranks = p_quotient(F2, p, 5)
    assert list(ranks) == [witt_cumulative(k) for k in range(1, 6)]


def _add_redundant_generator(pres, word, first):
    """Tietze move: a new generator x with the relator word * x^-1 (an
    isomorphic group); `first` puts x before the old generators."""
    m = pres.ngens
    if not first:
        return Presentation(m + 1, list(pres.relators) + [tuple(word) + (-(m + 1),)])

    def shift(w):
        return tuple(x + 1 if x > 0 else x - 1 for x in w)

    return Presentation(m + 1, [shift(r) for r in pres.relators] + [shift(word) + (-1,)])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ranks_invariant_under_redundant_generators(p):
    """Generators that are dependent mod p get tails on their images, so a
    redundant generator changes nothing."""
    for pres, c in ((F2, 4), (Z3, 3), (D8, 4)):
        _, want = p_quotient(pres, p, c)
        for word, first in (((1, 2, 1), False), ((1, 1, -2, 1, 2), True), ((1,) * p, False)):
            G, got = p_quotient(_add_redundant_generator(pres, word, first), p, c)
            assert list(got) == list(want), (pres, word, first)
            assert consistency_check(G)


def test_cyclic_group_with_a_dependent_generator():
    """<a, b | a^3 b> is infinite cyclic: its class-c quotient is Z/p^c."""
    for p in (2, 3, 5):
        G, ranks = p_quotient(Presentation(2, [(1, 1, 1, 2)]), p, 4)
        assert list(ranks) == [1, 1, 1, 1]
        assert consistency_check(G)


def test_witt_examples():
    assert witt_cumulative(1) == 2
    assert witt_cumulative(2) == 3
    assert witt_cumulative(5) == 14
    with pytest.raises(ParameterError):
        witt_cumulative(0)


def test_trivial_quotient():
    G, ranks = p_quotient(twist_presentation(OrbifoldSpec(4, 5)), 3, 4)
    assert list(ranks) == [0]
    assert G.order() == 1


def test_z3_layers_bounded():
    ranks, label = dk_series_and_classify(Z3, 3, 5)
    assert list(ranks) == [3, 3, 3, 3, 3]
    assert label == "bounded"


def test_f2_layers_growing():
    ranks, label = dk_series_and_classify(F2, 3, 5)
    assert list(ranks) == [2, 3, 5, 8, 14]
    assert label == "growing"


def test_trivial_group_bounded():
    ranks, label = dk_series_and_classify(Presentation(1, [(1,)]), 3, 3)
    assert list(ranks) == [0]
    assert label == "bounded"


def test_growth_label_edge():
    assert growth_label([1, 2, 3]) == "bounded"
    assert growth_label([4, 4, 4, 4]) == "inconclusive"
    assert growth_label([2, 3, 5, 8, 14]) == "growing"


def test_quotient_tower_compatibility():
    for pres in (F2, Z3, Presentation(2, [(1, 1, 2, 2, 2)])):
        _, r4 = p_quotient(pres, 3, 4)
        _, r3 = p_quotient(pres, 3, 3)
        assert list(r4)[: len(list(r3))][: 3] == list(r3)[:3]


def test_emitted_groups_are_consistent():
    for pres, p, c in [(F2, 3, 4), (F2, 5, 3), (Z3, 3, 4), (F2, 2, 5),
                       (Z3, 2, 4), (Presentation(2, [(1, 1, 1, 2)]), 3, 4),
                       (Presentation(2, [(1, 1, 1, 2)]), 2, 5)]:
        G, _ = p_quotient(pres, p, c)
        assert consistency_check(G)


def test_powerful_corpus_against_brute_force():
    corpus = {
        "Z9": Z9,
        "Z3xZ9": Z3xZ9,
        "extraspecial27": EXTRASPECIAL27,
        "M27": M27,
        "Z81": Z81,
        "Z9xZ9": Z9xZ9,
        "free class-2 3-quotient": p_quotient(F2, 3, 2)[0],
    }
    expected_false = {"extraspecial27", "free class-2 3-quotient"}
    for name, G in corpus.items():
        got = is_powerful(G)
        assert got == brute_is_powerful(G), name
        assert got == (name not in expected_false), name


def test_powerful_class2_free5():
    G5, _ = p_quotient(F2, 5, 2)
    assert not is_powerful(G5)
    assert brute_is_powerful(G5) is False


def test_is_p_powerful_examples():
    for p in (2, 3, 5, 7):
        assert is_p_powerful(Z2, p)
    assert not is_p_powerful(F2, 5)
    assert is_p_powerful(Presentation(1, [(1,) * 12]), 3)
    assert is_p_powerful(Presentation(1, [(1,) * 12]), 2)


def test_subgroup_rank_bound_for_powerful_groups():
    """d(H) <= d(S) for every subgroup of a powerful p-group."""
    for S in (Z9, Z3xZ9, M27, Z81):
        assert is_powerful(S)
        dS = min_generators(S, set(__import__("helpers_groups").all_elements(S)))
        for H in all_subgroups(S):
            assert min_generators(S, H) <= dS


def test_class2_truncation_weights():
    G, _ = p_quotient(F2, 3, 4)
    Q = class2_truncation(G)
    assert max(Q.weights) <= 2
    assert Q.order() == 3**5


def test_exhaustion_examples():
    v = exhaustion_check(Presentation(2, []), 3, 1)
    assert v.conclusion == "not-satisfied"
    assert not v.hypotheses["betti_zero"]

    v = exhaustion_check(Presentation(1, [(1,) * 5]), 3, 1)
    assert v.conclusion == "satisfied"
    assert v.witnesses["gcd"] == 1

    v = exhaustion_check(BASE_ORBIFOLD, 3, 1)
    assert v.conclusion == "not-satisfied"
    assert v.hypotheses["betti_zero"]
    assert not v.hypotheses["h1_coprime"]
    assert v.hypotheses["p_powerful"]
    assert v.witnesses["gcd"] == 8

    with pytest.raises(ParameterError):
        exhaustion_check(F2, 4, 1)


def test_exhaustion_explicit_h1_override():
    v = exhaustion_check(Presentation(1, [(1,) * 5]), 3, 1, h1_order=8)
    assert not v.hypotheses["h1_coprime"]


def test_layer_ranks_type():
    r = LayerRanks((2, 3))
    assert r.d1 == 2 and len(r) == 2 and r[1] == 3


def test_parameter_guards():
    with pytest.raises(ParameterError):
        p_quotient(F2, 6, 2)
    with pytest.raises(ParameterError):
        p_quotient(F2, 3, 0)
    with pytest.raises(ParameterError):
        p_quotient(F2, 3, 9)


# --- collection oracle ------------------------------------------------------


def _reference_collect(G, blocks):
    """The former splice collector: rewrites the word in place, one
    adjacent pair at a time (merge equal generators, expand a p-th power,
    swap an out-of-order pair through its commutator)."""
    p = G.p
    w = [(g, e) for g, e in blocks if e]
    i = 0
    while i < len(w):
        g, e = w[i]
        if i + 1 < len(w) and w[i + 1][0] == g:
            e += w[i + 1][1]
            del w[i + 1]
            w[i] = (g, e)
            continue
        if e >= p:
            pw = G.power.get(g, ())
            repl = ([(g, e - p)] if e > p else []) + list(pw)
            w[i : i + 1] = repl
            i = max(i - 1, 0)
            continue
        if i + 1 < len(w) and w[i + 1][0] < g:
            h, f = w[i + 1]
            c = G.comm.get((g, h), ())
            seg = []
            if e > 1:
                seg.append((g, e - 1))
            seg.append((h, 1))
            seg.append((g, 1))
            seg.extend(c)
            if f > 1:
                seg.append((h, f - 1))
            w[i : i + 2] = seg
            i = max(i - 1, 0)
            continue
        i += 1
    return tuple(b for b in w if b[1])


def _oracle_groups():
    groups = {
        "Z9": Z9,
        "M27": M27,
        "extraspecial27": EXTRASPECIAL27,
        "Z81": Z81,
        "Z9xZ9": Z9xZ9,
    }
    for pres, p, c in [(F2, 2, 4), (BASE_ORBIFOLD, 2, 3), (F2, 3, 3),
                       (Presentation(2, [(1, 1, 1, 2)]), 3, 4), (F2, 5, 3)]:
        groups[f"{pres.ngens} gens p={p} class={c}"] = p_quotient(pres, p, c)[0]
    return groups


def _random_blocks(rng, G, length):
    return [(rng.randint(1, G.ngens), rng.randint(0, 2 * G.p)) for _ in range(length)]


def _random_element(rng, G):
    return tuple((g, e) for g in range(1, G.ngens + 1) if (e := rng.randrange(G.p)))


def test_collect_matches_reference_collector():
    rng = random.Random(2024)
    for name, G in _oracle_groups().items():
        assert consistency_check(G), name
        for _ in range(60):
            blocks = _random_blocks(rng, G, rng.randint(1, 8))
            assert G.collect(blocks) == _reference_collect(G, blocks), (name, blocks)


def test_mult_is_associative():
    rng = random.Random(99)
    for name, G in _oracle_groups().items():
        for _ in range(40):
            x, y, z = (_random_element(rng, G) for _ in range(3))
            assert G.mult(G.mult(x, y), z) == G.mult(x, G.mult(y, z)), name
        x = _random_element(rng, G)
        assert G.mult(x, G.inverse(x)) == ()
        assert G.power_word(x, G.p**G.ngens) == ()


def test_collect_refuses_negative_exponents():
    with pytest.raises(ParameterError):
        M27.collect([(1, 1), (2, -1)])
