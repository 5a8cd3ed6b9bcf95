import random

import pytest

from covertower.arith import divisors, prime_power_split
from covertower.errors import DomainError, ParameterError, ResourceError
from covertower.finfield import (
    MAX_TABLE_ORDER,
    fq_context,
    mat_det,
    mat_inv,
    mat_mul,
    mat_pow,
    mat_trace,
    order_k_traces,
    p1_action,
)
from covertower.fpcore import Permutation
from covertower.twistknot import prime_powers_up_to
from helpers_oracle import ReferenceField, companion_projective_order, element_order


def test_context_moduli():
    assert fq_context(3, 1).modulus == (0, 1)  # the polynomial z
    assert fq_context(3, 2).modulus == (1, 0, 1)  # z^2 + 1
    assert fq_context(2, 3).modulus == (1, 1, 0, 1)  # z^3 + z + 1


def test_context_validation():
    with pytest.raises(ParameterError):
        fq_context(4, 1)
    with pytest.raises(ParameterError):
        fq_context(3, 0)
    assert fq_context(3, 9).q == 3**9  # no cap on the degree
    # the tables are O(q): a larger field with m > 1 is refused, not skipped
    assert 2**16 <= MAX_TABLE_ORDER < 2**17
    with pytest.raises(ResourceError):
        fq_context(2, 17)


def _check_against_reference(ctx, ref, pairs, elements):
    """Every operation of ctx on the int encodings against ref on tuples."""
    enc, dec = ref.encode, ref.decode
    assert ctx.modulus == ref.modulus
    for a, b in pairs:
        ta, tb = dec(a), dec(b)
        assert ctx.add(a, b) == enc(ref.add(ta, tb)), (a, b)
        assert ctx.sub(a, b) == enc(ref.sub(ta, tb)), (a, b)
        assert ctx.mul(a, b) == enc(ref.mul(ta, tb)), (a, b)
        if b:
            assert ctx.div(a, b) == enc(ref.mul(ta, ref.inv(tb))), (a, b)
        else:
            with pytest.raises(DomainError):
                ctx.div(a, b)
    exponents = (0, 1, 2, 3, ctx.p, ctx.q - 2, ctx.q + 3)
    for a in elements:
        ta = dec(a)
        assert ctx.coeffs(a) == ta
        assert ctx.neg(a) == enc(ref.neg(ta))
        assert ctx.frobenius(a) == enc(ref.frobenius(ta))
        for e in exponents:
            assert ctx.pow(a, e) == enc(ref.pow(ta, e)), (a, e)
        roots = {enc(r) for r in ref.square_roots(ta)}
        assert (ctx.sqrt(a) in roots) if roots else ctx.sqrt(a) is None, a
        if a:
            assert ctx.inv(a) == enc(ref.inv(ta))
            assert ctx.pow(a, -3) == enc(ref.pow(ta, -3))
        else:
            with pytest.raises(DomainError):
                ctx.inv(a)
            with pytest.raises(DomainError):
                ctx.pow(a, -1)


@pytest.mark.parametrize("q", prime_powers_up_to(64))
def test_arithmetic_matches_reference_exhaustively(q):
    """All pairs and all elements of every field with q <= 64."""
    ctx = fq_context(*prime_power_split(q))
    ref = ReferenceField(ctx.p, ctx.m)
    pairs = [(a, b) for a in range(q) for b in range(q)]
    _check_against_reference(ctx, ref, pairs, range(q))


@pytest.mark.parametrize("q", [81, 125, 243, 256, 512, 4001])
def test_arithmetic_matches_reference_sampled(q):
    rng = random.Random(q)
    ctx = fq_context(*prime_power_split(q))
    ref = ReferenceField(ctx.p, ctx.m)
    pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(400)]
    pairs += [(0, rng.randrange(q)), (rng.randrange(q), 0)]
    elements = [0, 1, q - 1] + [rng.randrange(q) for _ in range(40)]
    _check_against_reference(ctx, ref, pairs, elements)


def test_evaluate_matches_horner_by_field_operations():
    rng = random.Random(5)
    for q in (7, 8, 9, 25, 27, 64, 81):
        ctx = fq_context(*prime_power_split(q))
        for _ in range(200):
            coefs = [rng.randrange(q) for _ in range(rng.randint(1, 6))]
            y = rng.choice([0, rng.randrange(q)])
            acc = 0
            for c in coefs:
                acc = ctx.add(ctx.mul(acc, y), c)
            assert ctx.evaluate(coefs, y) == acc, (q, coefs, y)


def test_field_axioms_random():
    rng = random.Random(1)
    for p, m in [(3, 2), (2, 3), (5, 2), (7, 1)]:
        ctx = fq_context(p, m)
        for _ in range(40):
            a, b, c = (rng.randrange(ctx.q) for _ in range(3))
            assert ctx.mul(a, ctx.mul(b, c)) == ctx.mul(ctx.mul(a, b), c)
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            if a:
                assert ctx.mul(a, ctx.inv(a)) == 1


def test_element_order_examples():
    c5 = fq_context(5, 1)
    assert element_order(c5, 1) == 1
    assert element_order(c5, 2) == 4
    c9 = fq_context(3, 2)
    orders = {element_order(c9, e) for e in range(1, 9)}
    assert max(orders) == 8
    with pytest.raises(DomainError):
        element_order(c5, 0)


def test_element_order_divides_group_order():
    rng = random.Random(2)
    for p, m in [(3, 2), (7, 1), (2, 4)]:
        ctx = fq_context(p, m)
        for _ in range(15):
            assert (ctx.q - 1) % element_order(ctx, rng.randrange(1, ctx.q)) == 0


def test_trace_set_examples():
    c5 = fq_context(5, 1)
    assert order_k_traces(c5, 2, exact=True) == {(0, True)}
    c7 = fq_context(7, 1)
    assert {x for x, _ in order_k_traces(c7, 3, exact=True)} == {1, 6}
    c3 = fq_context(3, 1)
    assert order_k_traces(c3, 4, exact=True) == set()
    with pytest.raises(ParameterError):
        order_k_traces(c5, 1)


def test_trace_sets_disjoint_and_union():
    for p, m, k in [(5, 1, 6), (7, 1, 12), (3, 2, 8), (2, 3, 6)]:
        ctx = fq_context(p, m)
        union = order_k_traces(ctx, k, exact=False)
        parts = [order_k_traces(ctx, d, exact=True) for d in divisors(k) if d >= 2]
        seen = set()
        for part in parts:
            assert not (seen & part)
            seen |= part
        assert seen == union


def test_semisimple_companion_matrix_has_exact_order():
    for p, m in [(5, 1), (7, 1), (3, 2), (2, 3)]:
        ctx = fq_context(p, m)
        for k in range(2, 9):
            for x, semisimple in order_k_traces(ctx, k, exact=True):
                if not semisimple:
                    continue
                assert companion_projective_order(ctx, x, k) == k


def test_unipotent_branch():
    c5 = fq_context(5, 1)
    tr = order_k_traces(c5, 5, exact=True)
    assert (2, False) in tr and (3, False) in tr
    # in characteristic 2 both signs collapse to trace 0
    c8 = fq_context(2, 3)
    tr = order_k_traces(c8, 2, exact=True)
    assert tr == {(0, False)}


def test_mat2_suite():
    c7 = fq_context(7, 1)
    A = (1, 1, 0, 1)
    assert mat_det(c7, A) == 1
    assert mat_inv(c7, A) == (1, c7.from_int(-1), 0, 1)
    with pytest.raises(DomainError):
        mat_inv(c7, (0,) * 4)
    # power and trace
    assert mat_trace(c7, mat_pow(c7, A, 3)) == 2
    assert mat_pow(c7, A, -2) == mat_inv(c7, mat_pow(c7, A, 2))
    # a non-unimodular inverse over an extension field
    c9 = fq_context(3, 2)
    M = (3, 1, 0, 1)
    assert mat_mul(c9, M, mat_inv(c9, M)) == (1, 0, 0, 1)


def test_commutator_trace_oracle():
    """tr[A,B] for the triangular pair equals 2 + t(t + x^2 - 4), derived by
    direct expansion, and factors as 2 + (y - 2)(y - x^2 + 2) in y = tr AB;
    checked on random F_7 samples."""
    c7 = fq_context(7, 1)
    rng = random.Random(3)
    for _ in range(30):
        s = rng.randrange(1, 7)
        t = rng.randrange(7)
        A = (s, 1, 0, c7.inv(s))
        B = (s, 0, t, c7.inv(s))
        x = c7.add(s, c7.inv(s))
        AB = mat_mul(c7, A, B)
        got = mat_trace(c7, mat_mul(c7, AB, mat_mul(c7, mat_inv(c7, A), mat_inv(c7, B))))
        xx = c7.mul(x, x)
        want = c7.add(2, c7.mul(t, c7.add(t, c7.sub(xx, 4))))
        assert got == want
        y = mat_trace(c7, AB)
        assert got == c7.add(2, c7.mul(c7.sub(y, 2), c7.add(c7.sub(y, xx), 2)))


def test_p1_action_examples():
    c2 = fq_context(2, 1)
    assert p1_action(c2, (1, 1, 0, 1)).images == (1, 0, 2)
    c3 = fq_context(3, 1)
    assert p1_action(c3, (0, 2, 1, 0)).images == (3, 2, 1, 0)
    assert p1_action(c3, (1, 0, 0, 1)) == Permutation.identity(4)
    with pytest.raises(DomainError):
        p1_action(c3, (0, 0, 0, 1))


def test_p1_action_is_homomorphism():
    rng = random.Random(4)
    for p, m in [(5, 1), (3, 2), (2, 3), (23, 1)]:
        ctx = fq_context(p, m)
        for _ in range(12):
            M = _random_invertible(ctx, rng)
            N = _random_invertible(ctx, rng)
            lhs = p1_action(ctx, mat_mul(ctx, M, N))
            rhs = p1_action(ctx, M).compose(p1_action(ctx, N))
            assert lhs == rhs


def _random_invertible(ctx, rng):
    while True:
        M = tuple(rng.randrange(ctx.q) for _ in range(4))
        if mat_det(ctx, M):
            return M


def test_order_k_traces_match_companion_powering():
    """Chebyshev trace sets against brute-force powering of the companion
    matrix, for every x in F_q, q <= 64, and projective orders 2..7."""
    for q in prime_powers_up_to(64):
        ctx = fq_context(*prime_power_split(q))
        sets = {k: order_k_traces(ctx, k, exact=True) for k in range(2, 8)}
        unipotent = (ctx.from_int(2), ctx.from_int(-2))
        for x in ctx.elements():
            order = companion_projective_order(ctx, x, 7)
            for k, traces in sets.items():
                assert ((x, x not in unipotent) in traces) == (order == k), (q, x, k)
