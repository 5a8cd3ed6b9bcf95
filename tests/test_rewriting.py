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
    sparse_rank_mod_p,
)
from covertower.twistknot import OrbifoldSpec, enumerate_epimorphisms, twist_presentation
from helpers_oracle import (
    mod_p_rank_h1,
    oracle_cover_betti,
    reference_folded_matrix,
    reference_rewriting_matrix,
    schreier_data,
    to_dense,
)

P = 31991


def test_index_one_is_the_plain_exponent_matrix():
    pres = Presentation(2, [(1, 1, 2), (2, 2)])
    images = [Permutation.identity(1)] * 2
    ref, ref_ns = reference_rewriting_matrix(pres, images, 0, P)
    assert ref_ns == 2
    assert to_dense(ref).tolist() == [[2, 1], [0, 2]]
    # b^2 is folded: its one cycle eliminates the b column, and the row of
    # a^2 b keeps the a entry
    mat, ns = abelianized_rewriting_matrix(pres, images, 0, P)
    assert ns == 1
    assert to_dense(mat).tolist() == [[2]]
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
    cols = schreier_data(pres, [img], 0)[3]
    assert len(cols) == 1  # Schreier formula on the size-2 orbit: 2*(1-1)+1
    # a^2 is folded: the one 2-cycle on the orbit eliminates that generator
    mat, ns = abelianized_rewriting_matrix(pres, [img], 0, P)
    assert (ns, mat.nrows) == (0, 0)
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
    """The library's matrix equals the oracle's fold entry for entry, and
    presents the same H_1 as the unfolded reference matrix."""
    mat, ns = abelianized_rewriting_matrix(pres, images, point, p)
    ref, ref_ns = reference_folded_matrix(pres, images, point, p)
    assert (mat.entries, mat.nrows, mat.ncols, ns) == (
        ref.entries, ref.nrows, ref.ncols, ref_ns
    )
    full, full_ns = reference_rewriting_matrix(pres, images, point, p)
    assert full_ns - sparse_rank_mod_p(full) == ns - sparse_rank_mod_p(mat)


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
    """The walk over all cosets at once gives the oracle fold's entries,
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
    images = [Permutation.identity(3), Permutation.from_cycles(3, [(0, 1, 2)])]
    # b is folded and a b is walked
    for rels in ([(1, 1), (2,)], [(1, 2)]):
        with pytest.raises(InternalInvariantError):
            abelianized_rewriting_matrix(Presentation(2, rels), images, 0, P)


def test_power_that_is_no_multiple_of_a_cycle_length_is_refused():
    two_cycles = Permutation.from_cycles(4, [(0, 1), (2, 3)])
    four_cycle = Permutation.from_cycles(4, [(0, 1, 2, 3)])
    for img, rel in ((two_cycles, (1, 1, 1)), (two_cycles, (-1,) * 3), (four_cycle, (1, 1))):
        with pytest.raises(InternalInvariantError):
            abelianized_rewriting_matrix(Presentation(1, [rel]), [img], 0, P)


def _power_relators(rng, gens):
    """Pure powers s^(+-e), e = m * order(s) with m in 1, 2, 3, 6, so that
    e/L is 0 mod 2 or mod 3 on the cycles of length order(s); zero, one or
    two per generator.  Returns the relators and the m of each generator's
    first one."""
    rels, first = [], {}
    for i, g in enumerate(gens):
        for _ in range(rng.choice((0, 1, 1, 2))):
            m = rng.choice((1, 2, 3, 6))
            first.setdefault(i, m)
            rels.append((rng.choice((i + 1, -i - 1)),) * (m * _order(g)))
    return rels, first


def test_fold_keeps_the_rank_identity():
    """On random actions with power relators, the folded matrix equals the
    oracle's fold and has len(columns) - rank(M) = ngens - rank(mat) for
    the unfolded reference M, at P = 2 and 3 (where e/L can vanish) and at
    31991: negative powers, two powers of one generator and intransitive
    actions included."""
    rng = random.Random(31)
    seen = set()
    for _ in range(40):
        degree = rng.randint(1, 30)
        ngens = rng.randint(1, 3)
        gens = _random_action(rng, degree, ngens)
        rels, first = _power_relators(rng, gens)
        rels += [_trivial_relator(rng, gens) for _ in range(rng.randint(0, 2))]
        rng.shuffle(rels)
        point = rng.randrange(degree)
        pres = Presentation(ngens, rels)
        for p in (2, 3, P):
            _assert_matches_reference(pres, gens, point, p)
        powers = [rel[0] for rel in rels if len(set(rel)) == 1]
        seen.update(
            flag
            for flag, holds in (
                ("negative", any(x < 0 for x in powers)),
                ("two of one", len({abs(x) for x in powers}) < len(powers)),
                ("intransitive", len(_orbit(gens, point)) < degree),
                ("vanishes mod 2", any(m % 2 == 0 for m in first.values())),
                ("vanishes mod 3", any(m % 3 == 0 for m in first.values())),
            )
            if holds
        )
    assert len(seen) == 5, seen
