import random

import pytest

from covertower.arith import divisors, prime_power_split
from covertower.errors import DomainError, ParameterError
from covertower.finfield import (
    element_order,
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
from helpers_oracle import companion_projective_order


def test_context_moduli():
    assert fq_context(3, 1).modulus == (0, 1)  # the polynomial z
    assert fq_context(3, 2).modulus == (1, 0, 1)  # z^2 + 1
    assert fq_context(2, 3).modulus == (1, 1, 0, 1)  # z^3 + z + 1


def test_context_validation():
    with pytest.raises(ParameterError):
        fq_context(4, 1)
    with pytest.raises(ParameterError):
        fq_context(3, 9)


def test_field_axioms_random():
    rng = random.Random(1)
    for p, m in [(3, 2), (2, 3), (5, 2), (7, 1)]:
        ctx = fq_context(p, m)
        for _ in range(40):
            a = ctx.elem(rng.randrange(ctx.q))
            b = ctx.elem(rng.randrange(ctx.q))
            c = ctx.elem(rng.randrange(ctx.q))
            assert ctx.mul(a, ctx.mul(b, c)) == ctx.mul(ctx.mul(a, b), c)
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            if a != ctx.zero:
                assert ctx.mul(a, ctx.inv(a)) == ctx.one


def test_element_order_examples():
    c5 = fq_context(5, 1)
    assert element_order(c5, c5.one) == 1
    assert element_order(c5, c5.from_int(2)) == 4
    c9 = fq_context(3, 2)
    orders = {element_order(c9, c9.elem(i)) for i in range(1, 9)}
    assert max(orders) == 8
    with pytest.raises(DomainError):
        element_order(c5, c5.zero)


def test_element_order_divides_group_order():
    rng = random.Random(2)
    for p, m in [(3, 2), (7, 1), (2, 4)]:
        ctx = fq_context(p, m)
        for _ in range(15):
            i = rng.randrange(1, ctx.q)
            assert (ctx.q - 1) % element_order(ctx, ctx.elem(i)) == 0


def test_trace_set_examples():
    c5 = fq_context(5, 1)
    assert order_k_traces(c5, 2, exact=True) == {((0,), True)}
    c7 = fq_context(7, 1)
    assert {x for x, _ in order_k_traces(c7, 3, exact=True)} == {(1,), (6,)}
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
    assert ((2,), False) in tr and ((3,), False) in tr
    # in characteristic 2 both signs collapse to trace 0
    c8 = fq_context(2, 3)
    tr = order_k_traces(c8, 2, exact=True)
    assert tr == {((0, 0, 0), False)}


def test_mat2_suite():
    c7 = fq_context(7, 1)
    A = (c7.one, c7.one, c7.zero, c7.one)
    assert mat_det(c7, A) == c7.one
    assert mat_inv(c7, A) == (c7.one, c7.from_int(-1), c7.zero, c7.one)
    with pytest.raises(DomainError):
        mat_inv(c7, (c7.zero,) * 4)
    # power and trace
    assert mat_trace(c7, mat_pow(c7, A, 3)) == c7.from_int(2)
    assert mat_pow(c7, A, -2) == mat_inv(c7, mat_pow(c7, A, 2))


def test_commutator_trace_oracle():
    """tr[A,B] for the triangular pair equals 2 + t(t + x^2 - 4), derived by
    direct expansion, and factors as 2 + (y - 2)(y - x^2 + 2) in y = tr AB;
    checked on random F_7 samples."""
    c7 = fq_context(7, 1)
    rng = random.Random(3)
    for _ in range(30):
        s = c7.elem(rng.randrange(1, 7))
        t = c7.elem(rng.randrange(7))
        A = (s, c7.one, c7.zero, c7.inv(s))
        B = (s, c7.zero, t, c7.inv(s))
        x = c7.add(s, c7.inv(s))
        AB = mat_mul(c7, A, B)
        got = mat_trace(c7, mat_mul(c7, AB, mat_mul(c7, mat_inv(c7, A), mat_inv(c7, B))))
        xx = c7.mul(x, x)
        want = c7.add(
            c7.from_int(2),
            c7.mul(t, c7.add(t, c7.sub(xx, c7.from_int(4)))),
        )
        assert got == want
        y = mat_trace(c7, AB)
        two = c7.from_int(2)
        assert got == c7.add(two, c7.mul(c7.sub(y, two), c7.add(c7.sub(y, xx), two)))


def test_p1_action_examples():
    c2 = fq_context(2, 1)
    assert p1_action(c2, ((1,), (1,), (0,), (1,))).images == (1, 0, 2)
    c3 = fq_context(3, 1)
    assert p1_action(c3, ((0,), (2,), (1,), (0,))).images == (3, 2, 1, 0)
    assert p1_action(c3, ((1,), (0,), (0,), (1,))) == Permutation.identity(4)
    with pytest.raises(DomainError):
        p1_action(c3, ((0,), (0,), (0,), (1,)))


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
        M = tuple(ctx.elem(rng.randrange(ctx.q)) for _ in range(4))
        if mat_det(ctx, M) != ctx.zero:
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
