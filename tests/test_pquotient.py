import pytest

from covertower.errors import DomainError, ParameterError
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


def test_p2_refused_beyond_class2():
    _, ranks = p_quotient(F2, 2, 2)
    assert list(ranks) == [2, 3]
    for c in (3, 4):
        with pytest.raises(DomainError):
            p_quotient(F2, 2, c)


@pytest.mark.parametrize("p", [3, 5])
def test_free_group_layers_match_witt(p):
    _, ranks = p_quotient(F2, p, 5)
    assert list(ranks) == [witt_cumulative(k) for k in range(1, 6)]


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
    for pres, p, c in [(F2, 3, 4), (F2, 5, 3), (Z3, 3, 4),
                       (Presentation(2, [(1, 1, 1, 2)]), 3, 4)]:
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
