import math

import pytest

from crtspectra.costs import (OpCounter, estimate_crt_breakdown,
                              estimate_direct, eta, measure)

import reference_values as rv


def test_eta_definition():
    for n in (3, 5, 15, 64):
        lg = math.log2(n)
        assert eta(n) == pytest.approx(n * lg * math.log2(lg))
    with pytest.raises(ValueError):
        eta(2)


def test_estimate_direct():
    assert estimate_direct(217, 15) == pytest.approx(rv.COST_DIRECT_217_15,
                                                     abs=0.1)
    assert estimate_direct(21, 6) == pytest.approx(10.5 * eta(6))
    with pytest.raises(ValueError):
        estimate_direct(1, 6)
    with pytest.raises(ValueError):
        estimate_direct(21, 2)


def test_estimate_crt_reference_breakdown():
    bk = estimate_crt_breakdown([7, 31], [3, 5], 217)
    assert bk.total == pytest.approx(rv.COST_CRT_217, abs=0.1)
    assert bk.factor_costs[0] == pytest.approx(rv.COST_CRT_PARTS[0], abs=0.1)
    assert bk.factor_costs[1] == pytest.approx(rv.COST_CRT_PARTS[1], abs=0.1)
    assert bk.crt_cost == rv.COST_CRT_PARTS[2]
    assert bk.factor_bits == 8
    assert bk.len_bits == 8          # 217 takes 8 bits


def test_estimate_crt_floors_small_degrees():
    bk = estimate_crt_breakdown([3, 31], [2, 5], 93)
    assert bk.floored == (0,)        # the degree-2 factor hit the eta floor
    assert bk.factor_costs[0] == pytest.approx(1.5 * eta(3))


def test_estimate_crt_single_modulus_collapses_to_direct():
    bk = estimate_crt_breakdown([217], [15], 217)
    assert bk.total == pytest.approx(
        estimate_direct(217, 15) + bk.len_bits ** 2)


def test_estimate_crt_rejections():
    with pytest.raises(ValueError):
        estimate_crt_breakdown([], [], 1)
    with pytest.raises(ValueError):
        estimate_crt_breakdown([7, 31], [3], 217)
    with pytest.raises(ValueError):
        estimate_crt_breakdown([7, 0], [3, 5], 217)


def test_measure_isolates_counters():
    def run_a(counter: OpCounter):
        counter.mul_count += 10

    def run_b(counter: OpCounter):
        counter.reduction_count += 1

    ca = measure(run_a)
    cb = measure(run_b)
    assert (ca.mul_count, ca.reduction_count) == (10, 0)
    assert (cb.mul_count, cb.reduction_count) == (0, 1)
    assert ca.total() == 10 and cb.total() == 1
