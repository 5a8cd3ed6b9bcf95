import hashlib
import json

import pytest

from covertower.errors import ParameterError
from covertower.arith import prime_power_split
from covertower.finfield import (
    fq_context,
    mat_det,
    mat_inv,
    mat_mul,
    mat_trace,
    p1_action,
    psl2_order,
)
from covertower.fpcore import (
    abelianization,
    orbit_and_transversal,
    schreier_sims_order,
)
from covertower.fpcore.rewriting import betti_proxy_cover
from covertower.twistknot import (
    HYPERBOLIC_SPECS,
    twist_relators,
    OrbifoldSpec,
    _relator_holds,
    _relator_in_y,
    canonical_meridian_order,
    conjugate_to_base_field,
    cover_betti,
    enumerate_epimorphisms,
    prime_powers_up_to,
    twist_presentation,
)
from helpers_oracle import (
    brute_epimorphism_classes,
    oracle_cover_betti,
    schreier_data,
    word_is_scalar,
)


def test_allowlist():
    assert (4, 4) in HYPERBOLIC_SPECS
    assert (0, 4) not in HYPERBOLIC_SPECS
    assert (1, 5) not in HYPERBOLIC_SPECS
    assert (-1, 3) not in HYPERBOLIC_SPECS
    assert len(HYPERBOLIC_SPECS) == 34
    with pytest.raises(ParameterError):
        OrbifoldSpec(0, 4)
    with pytest.raises(ParameterError):
        OrbifoldSpec(-1, 3)


def test_twist_presentation_words():
    # word-level construction for (1,3): the orbifold itself is not
    # hyperbolic, but the relator shapes are still pinned
    r13 = twist_relators(1, 3)
    assert r13[0] == (1, 1, 1)
    assert r13[1] == (2, 2, 2)
    assert len(r13[2]) == 6  # cyclically reduced conjugation relator
    # sign convention for negative twists: w^-1 leads
    pm15 = twist_presentation(OrbifoldSpec(-1, 5))
    assert pm15.relators[2][:4] == (-1, 2, 1, -2)


def test_twist_presentation_abelianization():
    ab = abelianization(twist_presentation(OrbifoldSpec(4, 4)))
    assert (ab.betti, ab.torsion) == (0, (4,))


def test_canonical_meridian_order():
    assert canonical_meridian_order(4, 3) == 4
    assert canonical_meridian_order(4, 2) == 2  # forced unipotent collapse
    assert canonical_meridian_order(3, 3) == 3  # 3-part removed -> unipotent
    assert canonical_meridian_order(6, 2) == 3
    assert canonical_meridian_order(6, 3) == 2
    assert canonical_meridian_order(5, 5) == 5


def _irreducible_trace_pairs(ctx):
    """Every (x, y) over F_q with t = y - x^2 + 2 != 0 and y != 2."""
    two = ctx.from_int(2)
    for x in ctx.elements():
        shift = ctx.sub(ctx.mul(x, x), two)
        for y in ctx.elements():
            if y != two and y != shift:
                yield x, y


def test_reducible_candidates_rejected():
    """The base-field pair of (x, y) is reducible (commutator trace 2)
    exactly at t = 0 and y = 2, the two values the enumerator skips, and
    no class carries them."""
    spec = OrbifoldSpec(2, 3)
    ctx = fq_context(7, 1)
    two = ctx.from_int(2)
    irreducible = set(_irreducible_trace_pairs(ctx))
    for x, _ in order_traces(ctx, 3):
        for t in ctx.elements():
            y = ctx.add(ctx.sub(ctx.mul(x, x), two), t)
            if (x, y) not in irreducible:
                assert t == 0 or y == two
                continue
            A0, B0 = conjugate_to_base_field(ctx, x, y)
            inverses = mat_mul(ctx, mat_inv(ctx, A0), mat_inv(ctx, B0))
            comm = mat_mul(ctx, mat_mul(ctx, A0, B0), inverses)
            assert mat_trace(ctx, comm) != two
    for c in enumerate_epimorphisms(spec, 7):
        assert c.t != 0 and c.y != two


@pytest.mark.parametrize("q", [5, 7, 8, 9, 25, 27])
def test_relator_polynomials_match_matrix_relator(q):
    """For every irreducible (x, y) over F_q and every twist n, the relator
    polynomials vanish exactly when the relator word, multiplied out on
    conjugate_to_base_field's pair, is +-1."""
    ctx = fq_context(*prime_power_split(q))
    twists = sorted({n for n, _ in HYPERBOLIC_SPECS})
    polys = {(n, x): _relator_in_y(ctx, n, x) for n in twists for x in ctx.elements()}
    hits = 0
    for x, y in _irreducible_trace_pairs(ctx):
        A0, B0 = conjugate_to_base_field(ctx, x, y)
        for n in twists:
            want = word_is_scalar(ctx, twist_relators(n, 3)[2], A0, B0)
            assert _relator_holds(ctx, polys[n, x], y) == want, (n, x, y)
            hits += want
    assert hits


def order_traces(ctx, k):
    from covertower.finfield import order_k_traces

    return sorted(order_k_traces(ctx, k, exact=True))


def test_accepted_set_matches_brute_force_2_3_q5():
    """Spec example: (n,k)=(2,3) at q=5 against full enumeration of pairs
    of order-dividing-3 elements of PSL2(F_5)."""
    spec = OrbifoldSpec(2, 3)
    ctx = fq_context(5, 1)
    classes = enumerate_epimorphisms(spec, 5)
    brute = brute_epimorphism_classes(spec, ctx, twist_presentation(spec).relators)
    assert len(classes) == len(brute)


@pytest.mark.parametrize(
    "n,k,q",
    [
        (2, 3, 5),
        (2, 3, 7),
        (4, 4, 9),
        (4, 4, 13),
        (-1, 4, 7),
        (3, 4, 7),
        (-2, 5, 4),
        (2, 7, 5),
        (4, 4, 8),
    ],
)
def test_class_counts_match_brute_force(n, k, q):
    spec = OrbifoldSpec(n, k)
    ctx = fq_context(*prime_power_split(q))
    classes = enumerate_epimorphisms(spec, q)
    brute = brute_epimorphism_classes(spec, ctx, twist_presentation(spec).relators)
    assert len(classes) == len(brute)


def test_dedupe_idempotent():
    spec = OrbifoldSpec(4, 4)
    a = enumerate_epimorphisms(spec, 23)
    b = enumerate_epimorphisms(spec, 23)
    assert [c.canonical_key for c in a] == [c.canonical_key for c in b]


def test_epi_class_invariants():
    """Relator images trivial, transitive P^1 action, full group order."""
    for (n, k, q) in [(4, 4, 23), (2, 3, 5), (-1, 4, 7), (3, 4, 17)]:
        spec = OrbifoldSpec(n, k)
        for epi in enumerate_epimorphisms(spec, q):
            ctx = fq_context(q, 1)
            pa, pb = p1_action(ctx, epi.A0), p1_action(ctx, epi.B0)
            orbit, _ = orbit_and_transversal([pa, pb], 0)
            assert len(orbit) == q + 1
            assert schreier_sims_order([pa, pb]) == psl2_order(q)


def test_exact_flag_restricts_orders():
    spec = OrbifoldSpec(4, 4)
    assert enumerate_epimorphisms(spec, 3, exact_k=True) == []
    exact = enumerate_epimorphisms(spec, 23, exact_k=True)
    assert all(c.korder == 4 for c in exact)


def test_q2_surjection_exists_with_zero_proxy():
    """Exhaustive fact: T(4,4) does surject onto PSL2(F_2) = S_3 (the
    conjugation relator holds for two involutions with a 3-cycle w), and
    the index-3 cover has no homology over the proxy prime."""
    spec = OrbifoldSpec(4, 4)
    classes = enumerate_epimorphisms(spec, 2)
    assert len(classes) == 1
    ctx = fq_context(2, 1)
    brute = brute_epimorphism_classes(spec, ctx, twist_presentation(spec).relators)
    assert len(brute) == 1
    rec = cover_betti(classes[0], 31991)
    assert rec.betti_proxy == 0


def test_paper_positive_norms_for_t44():
    spec = OrbifoldSpec(4, 4)
    for q, expect_positive in [(23, True), (103, True), (31, False)]:
        classes = enumerate_epimorphisms(spec, q)
        positives = [
            c for c in classes if cover_betti(c, 31991).betti_proxy > 0
        ]
        assert bool(positives) == expect_positive


def test_cover_betti_point_independent():
    """Borel subgroups are conjugate: the proxy must not depend on which
    projective point is stabilized."""
    for (n, k, q) in [(4, 4, 23), (2, 3, 5), (-1, 4, 7)]:
        spec = OrbifoldSpec(n, k)
        pres = twist_presentation(spec)
        ctx = fq_context(q, 1)
        for epi in enumerate_epimorphisms(spec, q):
            images = [p1_action(ctx, epi.A0), p1_action(ctx, epi.B0)]
            at_inf = betti_proxy_cover(pres, images, q, 31991)
            at_zero = betti_proxy_cover(pres, images, 0, 31991)
            assert at_inf == at_zero
            assert cover_betti(epi, 31991).betti_proxy == at_inf


def test_cover_betti_against_integer_snf_oracle():
    spec = OrbifoldSpec(2, 3)
    pres = twist_presentation(spec)
    ctx = fq_context(5, 1)
    for epi in enumerate_epimorphisms(spec, 5):
        images = [p1_action(ctx, epi.A0), p1_action(ctx, epi.B0)]
        betti, torsion = oracle_cover_betti(pres, images, 5)
        assert all(d % 31991 for d in torsion)
        assert cover_betti(epi, 31991).betti_proxy == betti


def test_schreier_generator_count_in_cover():
    spec = OrbifoldSpec(4, 4)
    pres = twist_presentation(spec)
    ctx = fq_context(23, 1)
    epi = enumerate_epimorphisms(spec, 23)[0]
    from covertower.fpcore.rewriting import abelianized_rewriting_matrix

    images = [p1_action(ctx, epi.A0), p1_action(ctx, epi.B0)]
    cols = schreier_data(pres, images, 23)[3]
    assert len(cols) == 23 + 2  # n(gens-1)+1 with n = q+1, gens = 2
    # a and b have order 4 and no fixed point on the 24 points (23 = 3 mod 4),
    # so each has 6 cycles of length 4, and each cycle folds one generator
    _, ns = abelianized_rewriting_matrix(pres, images, 23, 31991)
    assert ns == len(cols) - 12


def test_conjugate_to_base_field_preserves_traces():
    for q in (7, 8, 9):
        ctx = fq_context(*prime_power_split(q))
        for x, y in _irreducible_trace_pairs(ctx):
            A0, B0 = conjugate_to_base_field(ctx, x, y)
            assert mat_trace(ctx, A0) == x
            assert mat_trace(ctx, B0) == x
            assert mat_det(ctx, A0) == 1
            assert mat_det(ctx, B0) == 1
            assert mat_trace(ctx, mat_mul(ctx, A0, B0)) == y


def test_prime_powers_up_to():
    qs = prime_powers_up_to(30)
    assert qs == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29]
    # no cap on the degree: 2^9 and 2^10 are surveyed, not skipped
    qs = prime_powers_up_to(1100)
    assert 512 in qs and 1024 in qs and 3**6 in qs


def test_enumeration_at_degree_nine():
    """T(2,7) has one class at q = 512 = 2^9, where the trace x of order 7
    lies in F_8 and y generates F_512; it is surjective and checked as
    matrices like every other class."""
    (epi,) = enumerate_epimorphisms(OrbifoldSpec(2, 7), 512)
    ctx = fq_context(2, 9)
    assert epi.korder == 7 and not epi.non_canonical
    assert mat_trace(ctx, epi.A0) == epi.x == mat_trace(ctx, epi.B0)
    assert mat_trace(ctx, mat_mul(ctx, epi.A0, epi.B0)) == epi.y
    assert word_is_scalar(ctx, twist_relators(2, 7)[2], epi.A0, epi.B0)


# sha256 of `twist-survey -n N -k K --qmax 100 --format json` (default proxy
# prime, no cache), recorded with the coefficient-tuple field arithmetic
# that the int encoding replaced: reports must stay byte-identical.
SURVEY_DIGESTS = {
    (4, 4): "799bb33ddadf136d60b3287d7196f43f5ffb0e704b357a729f638fbef53b2616",
    (2, 5): "020beb3e22d4b946d080f505a7f91bd04c696a972489e992930c6f2b7d857bcc",
    (-1, 5): "c3ae2f132c7151ac1bdc95ea0b9d26bee30dd5bb063458692d8ef5e8fa4a88ec",
}


@pytest.mark.parametrize("n,k", sorted(SURVEY_DIGESTS))
def test_survey_report_is_byte_identical(n, k, tmp_path, monkeypatch, capsys):
    from covertower import cli

    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    out = tmp_path / "report.json"
    argv = ["twist-survey", "-n", str(n), "-k", str(k), "--qmax", "100"]
    assert cli.main(argv + ["--format", "json", "--output", str(out)]) == 0
    capsys.readouterr()
    data = out.read_bytes()
    assert json.loads(data)["classes_total"] > 0
    assert hashlib.sha256(data).hexdigest() == SURVEY_DIGESTS[n, k]
