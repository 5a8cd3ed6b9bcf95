import math
import random
from fractions import Fraction

import pytest

from covertower.errors import DomainError, ParameterError
from covertower.quatlab import (
    E_S,
    E_T,
    GEN_U,
    GEN_V,
    GEN_X,
    GEN_Y,
    GENERATORS,
    K_ONE,
    KElem,
    LocalQuat,
    QUAT_I,
    QUAT_IJ,
    QUAT_J,
    QUAT_ONE,
    QuatElem,
    RELATORS,
    evaluate_word,
    injrad_lower_bound,
    kummer_residues,
    local_layer_orders,
    numeric_embedding_check,
    quat_pow,
    verify_order_closure,
    verify_presentation_units,
    volume_constant,
)
from helpers_oracle import zeta_k2_by_ideal_count


def _random_quat(rng):
    return QuatElem(
        *(
            KElem(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                  Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for _ in range(4)
        )
    )


def test_defining_relations():
    assert QUAT_I * QUAT_J == QUAT_IJ
    assert QUAT_J * QUAT_I == -QUAT_IJ
    assert QUAT_I * QUAT_I == -QUAT_ONE
    assert (QUAT_J * QUAT_J).c1 == KElem.of(-3)
    assert E_S * E_S == -QUAT_ONE
    assert E_T * E_T == E_T - QUAT_ONE


def test_norm_multiplicative_and_conj_antiautomorphism():
    rng = random.Random(9)
    for _ in range(25):
        g, h = _random_quat(rng), _random_quat(rng)
        assert (g * h).reduced_norm() == g.reduced_norm() * h.reduced_norm()
        assert (g * h).conj() == h.conj() * g.conj()


def test_unit_inverse():
    for name, g in GENERATORS.items():
        assert g * g.unit_inverse() == QUAT_ONE
    with pytest.raises(DomainError):
        (QUAT_ONE + QUAT_I).unit_inverse()  # norm 2
    rng = random.Random(10)
    gens = list(GENERATORS.values())
    for _ in range(100):
        w = QUAT_ONE
        for _ in range(rng.randint(1, 6)):
            g = rng.choice(gens)
            w = w * (g if rng.random() < 0.5 else g.unit_inverse())
        assert w * w.unit_inverse() == QUAT_ONE


def test_y_generator_norm_is_unit():
    n = GEN_Y.reduced_norm()
    assert n in (K_ONE, -K_ONE)


def test_order_closure():
    rep = verify_order_closure()
    assert rep["closed"]
    # e_t^2 = e_t - 1 in order coordinates
    assert rep["products"]["t*t"]["coords"] == [["-1", "0"], ["0", "0"], ["0", "0"], ["1", "0"]]


def test_presentation_units():
    rep = verify_presentation_units()
    assert rep["ok"]
    assert all(v["sign"] in (1, -1) for v in rep["relators"].values())
    assert rep["relators"]["u^2"]["sign"] == -1
    assert rep["generators"]["u"]["norm"] == "(1+0*sqrt(-2))"


def test_numeric_embedding():
    rep = numeric_embedding_check(1e-10)
    assert rep["ok"]
    with pytest.raises(ParameterError):
        numeric_embedding_check(0)


def test_evaluate_word_respects_inverses():
    val = evaluate_word((1, -1))
    assert val == QUAT_ONE


def test_local_quat_product_rule():
    # (a+bj)(c+dj) = (ac + 3 b conj(d)) + (ad + b conj(c)) j
    g = LocalQuat(3, (2, 5), (1, 3))
    h = LocalQuat(3, (4, 1), (2, 2))
    prod = g * h
    mod = 27
    ac = ((2 * 4 - 5 * 1) % mod, (2 * 1 + 5 * 4) % mod)
    bdbar = ((1 * 2 + 3 * 2) % mod, (-1 * 2 + 3 * 2) % mod)
    na = ((ac[0] + 3 * bdbar[0]) % mod, (ac[1] + 3 * bdbar[1]) % mod)
    assert prod.a == na


def test_local_quat_valuation_additive():
    rng = random.Random(12)
    m = 3
    for _ in range(60):
        g = LocalQuat(m, (rng.randrange(27), rng.randrange(27)), (rng.randrange(27), rng.randrange(27)))
        h = LocalQuat(m, (rng.randrange(27), rng.randrange(27)), (rng.randrange(27), rng.randrange(27)))
        wg, wh = g.valuation(), h.valuation()
        if wg + wh < 2 * m:  # inside truncation resolution
            assert (g * h).valuation() == wg + wh


def test_local_layer_orders_paper_values():
    rep = local_layer_orders(4)
    assert rep["truncation"] == 3
    assert rep["unit_quotient_order"] == 8
    assert rep["layers"] == [9, 3, 9, 3]
    with pytest.raises(ParameterError):
        local_layer_orders(0)


def test_local_layer_orders_level5():
    rep = local_layer_orders(5)
    assert rep["layers"][:4] == [9, 3, 9, 3]
    assert rep["layers"][4] == 9


def test_injrad_bounds():
    b4 = injrad_lower_bound(4)
    assert b4.trace_floor == 1.0 and b4.length_bound == 0.0
    b6 = injrad_lower_bound(6)
    assert abs(b6.trace_floor - (3**1.5 - 2)) < 1e-12
    assert abs(b6.length_bound - 2 * math.acosh(b6.trace_floor / 2)) < 1e-12
    assert b6.injrad_bound == b6.length_bound / 2
    prev = 0.0
    for n in range(1, 30):
        cur = injrad_lower_bound(n).length_bound
        assert cur >= prev
        prev = cur
    assert injrad_lower_bound(40).length_bound > 10


def test_volume_constant_digits():
    res = volume_constant(10**6)
    ref = 2.0076820066823962745447297
    assert abs(res.value - ref) / ref < 1e-10
    assert abs(res.zeta2 - math.pi**2 / 6) < 1e-11
    assert res.value_norm_one_cover == 2 * res.value


def test_volume_converges_monotonically():
    diffs = []
    prev = None
    for terms in (10**3, 10**4, 10**5, 10**6):
        v = volume_constant(terms).value
        if prev is not None:
            diffs.append(abs(v - prev))
        prev = v
    assert all(a > b for a, b in zip(diffs, diffs[1:]))


def test_zeta_ideal_count_cross_check():
    approx = zeta_k2_by_ideal_count(20000)
    series = volume_constant(10**6)
    want = series.zeta2 * series.l_value
    assert abs(approx - want) < 5e-4


def test_kummer_residues():
    rep = kummer_residues()
    assert rep["sqrt_minus2_mod9"] == 5
    assert rep["pi_mod9"] == 5  # so -pi maps to 4: the +-4 classes
    assert rep["cubes_mod9"] == [1, 8]
    assert rep["residues"] == [4, 5]
    assert rep["one_absent"]
