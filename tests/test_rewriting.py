import random

import pytest

from covertower.arith import prime_power_split
from covertower.errors import InternalInvariantError, ParameterError
from covertower.finfield import fq_context, p1_action
from covertower.fpcore import (
    Permutation,
    Presentation,
    abelianized_rewriting_matrix,
    betti_proxy_cover,
)
from covertower.twistknot import OrbifoldSpec, enumerate_epimorphisms, twist_presentation
from helpers_oracle import (
    mod_p_rank_h1,
    oracle_cover_betti,
    reference_rewriting_matrix,
    to_dense,
)

P = 31991


def test_index_one_is_the_plain_exponent_matrix():
    pres = Presentation(2, [(1, 1, 2), (2, 2)])
    images = [Permutation.identity(1)] * 2
    mat, ns = abelianized_rewriting_matrix(pres, images, 0, P)
    assert ns == 2
    assert to_dense(mat).tolist() == [[2, 1], [0, 2]]
    assert betti_proxy_cover(pres, images, 0, P) == mod_p_rank_h1(pres, P)


def test_index_three_subgroup_of_z():
    pres = Presentation(1, [])
    img = Permutation.from_cycles(3, [(0, 1, 2)])
    mat, ns = abelianized_rewriting_matrix(pres, [img], 0, P)
    assert ns == 1
    assert mat.nrows == 0
    assert betti_proxy_cover(pres, [img], 0, P) == 1


def test_schreier_formula_for_f2_index_two():
    pres = Presentation(2, [])
    images = [Permutation.from_cycles(2, [(0, 1)]), Permutation.identity(2)]
    _, ns = abelianized_rewriting_matrix(pres, images, 0, P)
    assert ns == 3


def test_point_out_of_range():
    pres = Presentation(1, [])
    with pytest.raises(ParameterError):
        abelianized_rewriting_matrix(pres, [Permutation.identity(2)], 5, P)


def test_intransitive_action_restricts_to_orbit():
    pres = Presentation(1, [(1, 1)])
    img = Permutation.from_cycles(4, [(0, 1)])  # orbit of 0 has size 2
    mat, ns = abelianized_rewriting_matrix(pres, [img], 0, P)
    assert ns == 1  # Schreier formula on the size-2 orbit: 2*(1-1)+1
    assert mat.nrows == 2  # one relator rewritten at two cosets
    assert betti_proxy_cover(pres, [img], 0, P) == 0  # trivial subgroup


def test_schreier_formula_on_random_transitive_actions():
    rng = random.Random(17)
    for _ in range(30):
        deg = rng.randint(1, 8)
        ngens = rng.randint(1, 3)
        gens = [
            Permutation(rng.sample(range(deg), deg)) for _ in range(ngens)
        ]
        orbit_len = len(_orbit(gens, 0))
        pres = Presentation(ngens, [])
        _, ns = abelianized_rewriting_matrix(pres, gens, 0, P)
        assert ns == orbit_len * (ngens - 1) + 1


def _orbit(gens, base):
    from covertower.fpcore import orbit_and_transversal

    return orbit_and_transversal(gens, base)[0]


def test_proxy_matches_integer_snf_oracle_on_random_covers():
    """Brute-force oracle equivalence: full rewriting + integer SNF versus
    the abelianized mod-p proxy, whenever p misses the torsion."""
    rng = random.Random(23)
    checked = 0
    while checked < 25:
        deg = rng.randint(1, 8)
        ngens = rng.randint(1, 3)
        gens = [Permutation(rng.sample(range(deg), deg)) for _ in range(ngens)]
        rels = []
        for _ in range(rng.randint(0, 3)):
            rels.append(
                tuple(
                    rng.choice([i for i in range(-ngens, ngens + 1) if i])
                    for _ in range(rng.randint(1, 8))
                )
            )
        pres = Presentation(ngens, rels)
        # relators must act trivially on the orbit for the cover to make sense
        if not _relators_fix_orbit(pres, gens, 0):
            continue
        betti, torsion = oracle_cover_betti(pres, gens, 0)
        if any(d % P == 0 for d in torsion):
            continue
        assert betti_proxy_cover(pres, gens, 0, P) == betti
        checked += 1


def _relators_fix_orbit(pres, gens, base):
    from covertower.fpcore import orbit_and_transversal

    orbit, _ = orbit_and_transversal(gens, base)
    for rel in pres.relators:
        for pt in orbit:
            cur = pt
            for letter in rel:
                g = gens[abs(letter) - 1]
                cur = g(cur) if letter > 0 else g.inverse()(cur)
            if cur != pt:
                return False
    return True


def _assert_matches_reference(pres, images, point, p):
    mat, ns = abelianized_rewriting_matrix(pres, images, point, p)
    ref, ref_ns = reference_rewriting_matrix(pres, images, point, p)
    assert (mat.entries, mat.nrows, mat.ncols, ns) == (
        ref.entries, ref.nrows, ref.ncols, ref_ns
    )


def _random_action(rng, degree, ngens):
    """Generators that are either a shuffled degree-cycle or a product of
    short cycles, so that the orders of the letters stay small."""
    gens = []
    for _ in range(ngens):
        pts = rng.sample(range(degree), degree)
        if rng.random() < 0.3:
            cycles = [pts]
        else:
            cycles, i = [], 0
            while i < degree:
                ln = rng.choice((1, 2, 3, 4))
                cycles.append(pts[i : i + ln])
                i += ln
        gens.append(Permutation.from_cycles(degree, cycles))
    return gens


def _order(perm):
    n, cur = 1, perm
    while not cur.is_identity():
        cur, n = cur.compose(perm), n + 1
    return n


def _trivial_relator(rng, gens):
    """v w^e v^-1 with w a letter or a two-letter word and e its order, so
    the relator fixes every point; v brings in inverse letters."""
    ngens = len(gens)
    letters = [i for i in range(-ngens, ngens + 1) if i]
    while True:
        w = tuple(rng.choice(letters) for _ in range(rng.randint(1, 2)))
        perm = Permutation.identity(gens[0].degree)
        for x in w:
            g = gens[abs(x) - 1]
            perm = (g if x > 0 else g.inverse()).compose(perm)
        e = _order(perm)
        if e <= 40:
            break
    v = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
    return v + w * e + tuple(-x for x in reversed(v))


def test_matrix_matches_reference_on_random_actions():
    """The walk over all cosets at once gives the reference loop's entries,
    shape and generator count, on transitive and intransitive actions."""
    rng = random.Random(29)
    seen = set()
    for _ in range(60):
        degree = rng.randint(1, 40)
        ngens = rng.randint(1, 3)
        gens = _random_action(rng, degree, ngens)
        rels = [_trivial_relator(rng, gens) for _ in range(rng.randint(0, 3))]
        point = rng.randrange(degree)
        pres = Presentation(ngens, rels)
        seen.add((len(_orbit(gens, point)) == degree, bool(rels)))
        for p in (2, P):
            _assert_matches_reference(pres, gens, point, p)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


# T(4,4) has no epimorphism onto PSL2(F_q) at q = 13 or 29, so it is taken
# at q = 23 and 47; q = 25 runs the Borel cover over a proper prime power
@pytest.mark.parametrize("n,k,q", [(4, 4, 23), (4, 4, 47), (2, 5, 25), (2, 5, 29)])
def test_matrix_matches_reference_on_borel_covers(n, k, q):
    pres = twist_presentation(OrbifoldSpec(n, k))
    ctx = fq_context(*prime_power_split(q))
    epis = enumerate_epimorphisms(OrbifoldSpec(n, k), q)
    assert epis
    for epi in epis:
        images = [p1_action(ctx, epi.A0), p1_action(ctx, epi.B0)]
        _assert_matches_reference(pres, images, q, P)


def test_relator_that_moves_a_coset_is_refused():
    pres = Presentation(2, [(1, 1), (2,)])
    images = [Permutation.identity(3), Permutation.from_cycles(3, [(0, 1, 2)])]
    with pytest.raises(InternalInvariantError):
        abelianized_rewriting_matrix(pres, images, 0, P)
