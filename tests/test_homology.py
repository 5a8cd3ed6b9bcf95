import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form

from covertower.errors import ParameterError
from covertower.fpcore import (
    AbelianInvariants,
    Presentation,
    abelianization,
    smith_invariants,
)
from helpers_oracle import mod_p_rank_h1


def _sympy_invariants(rows):
    if not rows:
        return []
    m = smith_normal_form(Matrix(rows))
    return [abs(int(m[i, i])) for i in range(min(m.shape)) if m[i, i] != 0]


def test_snf_examples():
    assert smith_invariants([[4, 0], [0, 4], [1, -1]]) == [1, 4]
    assert smith_invariants([[2, 0], [0, 3]]) == [1, 6]
    assert smith_invariants([[0, 0], [0, 0]]) == []


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 5),
    st.data(),
)
def test_snf_matches_sympy(m, n, data):
    rows = [
        [data.draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(m)
    ]
    mine = smith_invariants(rows)
    assert mine == _sympy_invariants(rows)
    # divisibility chain
    for a, b in zip(mine, mine[1:]):
        assert b % a == 0


def test_abelianization_free_rank_one():
    assert abelianization(Presentation(1, [])) == AbelianInvariants(1, ())


def test_abelianization_twist_44():
    p = Presentation(2, [(1,) * 4, (2,) * 4, (1, -2)])
    ab = abelianization(p)
    assert ab.betti == 0
    assert ab.torsion == (4,)
    assert ab.h1_order() == 4


def test_abelianization_base_orbifold_group():
    # the 4-generator 7-relator unit-group presentation
    p = Presentation(
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
    ab = abelianization(p)
    assert ab.betti == 0
    assert ab.torsion == (2, 2, 4, 4)


def test_mod_p_rank_examples():
    assert mod_p_rank_h1(Presentation(2, []), 31991) == 2
    assert mod_p_rank_h1(Presentation(1, [(1, 1)]), 2) == 1
    p44 = Presentation(2, [(1,) * 4, (2,) * 4, (1, -2)])
    assert mod_p_rank_h1(p44, 31991) == 0


def test_mod_p_rank_rejects_composite():
    with pytest.raises(ParameterError):
        mod_p_rank_h1(Presentation(1, []), 6)


def test_betti_equals_mod_p_rank_away_from_torsion():
    rng = random.Random(7)
    for _ in range(40):
        ngens = rng.randint(1, 4)
        rels = []
        for _ in range(rng.randint(0, 4)):
            length = rng.randint(1, 12)
            rels.append(
                tuple(
                    rng.choice([i for i in range(-ngens, ngens + 1) if i])
                    for _ in range(length)
                )
            )
        pres = Presentation(ngens, rels)
        ab = abelianization(pres)
        for P in (31991, 65537):
            if all(d % P for d in ab.torsion):
                assert mod_p_rank_h1(pres, P) == ab.betti
