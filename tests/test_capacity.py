import math
import random

import pytest

from gbcbound.capacity import (
    RatePoint,
    boundary_rates,
    containment,
    nesting,
    point_to_point_capacity,
    rate_membership,
    scenario_from_capacities,
    split_grid,
    virtual_channel,
)
from gbcbound.core import BroadcastScenario, trivial_distortions
from gbcbound.errors import (
    DimensionMismatch,
    DistortionAtSourceVariance,
    InvalidCapacities,
    InvalidSplit,
    NonPositiveParameter,
    NonStrictOrdering,
)

CH = BroadcastScenario(3, (3, 1), 1)


def test_boundary_rates_corners():
    assert boundary_rates(CH, (1, 0)).rates == pytest.approx((0.5 * math.log2(2), 0.0))
    assert boundary_rates(CH, (0, 1)).rates == pytest.approx((0.0, 0.5 * math.log2(4)))


def test_boundary_rates_interior_point():
    # independent oracle: the two logs evaluated directly
    point = boundary_rates(CH, (2 / 3, 1 / 3))
    assert point.rates[0] == pytest.approx(0.5 * math.log2(6 / 4), rel=1e-12)
    assert point.rates[1] == pytest.approx(0.5 * math.log2(2 / 1), rel=1e-12)
    assert point.rates[0] == pytest.approx(0.29248125036057813, rel=1e-12)
    assert point.rates[1] == pytest.approx(0.5, rel=1e-12)


def test_boundary_rates_scale_with_bandwidth():
    base = boundary_rates(CH, (0.4, 0.6))
    doubled = boundary_rates(BroadcastScenario(3, (3, 1), 2), (0.4, 0.6))
    assert doubled.rates == pytest.approx(tuple(2 * r for r in base.rates), rel=1e-12)


def test_boundary_rates_invalid_split():
    with pytest.raises(InvalidSplit):
        boundary_rates(CH, (0.5, 0.6))
    with pytest.raises(InvalidSplit):
        boundary_rates(CH, (-0.1, 1.1))
    with pytest.raises(InvalidSplit):
        boundary_rates(CH, (1.0,))


def test_rate_membership_roundtrip():
    rng = random.Random(5)
    for _ in range(50):
        k = rng.randint(1, 4)
        noises = sorted((math.exp(rng.uniform(-3, 3)) for _ in range(k)), reverse=True)
        if any(a / b < 1.05 for a, b in zip(noises, noises[1:])):
            continue
        power = math.exp(rng.uniform(-2, 2))
        shares = [rng.random() for _ in range(k)]
        split = tuple(s / sum(shares) for s in shares)
        b = math.exp(rng.uniform(math.log(0.3), math.log(4.0)))
        sc = BroadcastScenario(power, tuple(noises), b)
        point = boundary_rates(sc, split)
        assert rate_membership(sc, point)


def test_rate_membership_rejects_inflated_boundary():
    """Oracle: boundary points are Pareto-maximal on a fine split sweep."""
    point = boundary_rates(CH, (0.6, 0.4))
    inflated = RatePoint(tuple(1.01 * r for r in point.rates))
    assert not rate_membership(CH, inflated)
    for split in split_grid(2, 4001):
        r = boundary_rates(CH, split).rates
        assert not (r[0] >= inflated.rates[0] and r[1] >= inflated.rates[1])


def test_rate_membership_zero_rates():
    assert rate_membership(CH, RatePoint((0.0, 0.0)))
    assert rate_membership(BroadcastScenario(3, (3, 1), 0.3), RatePoint((0.0, 0.0)))


def test_rate_membership_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        rate_membership(CH, RatePoint((0.1,)))


def test_virtual_channel_examples():
    virt = virtual_channel(1.0, (0.5, 0.25))
    assert virt.power == 1.0 and virt.bandwidth == 1.0
    assert virt.noises == pytest.approx((1.0, 1 / 3), rel=1e-12)
    virt2 = virtual_channel(2.0, (1.0, 0.5))
    assert virt2.power == 2.0
    assert virt2.noises == pytest.approx((2.0, 2 / 3), rel=1e-12)
    # perfect reconstruction needs a noiseless virtual channel
    tiny = virtual_channel(1.0, (1e-9, 1e-12)).noises
    assert tiny[0] < 2e-9 and tiny[1] < 2e-12


def test_virtual_channel_errors():
    with pytest.raises(DistortionAtSourceVariance):
        virtual_channel(1.0, (1.0, 0.5))
    with pytest.raises(NonStrictOrdering):
        virtual_channel(1.0, (0.25, 0.5))
    with pytest.raises(NonStrictOrdering):
        virtual_channel(1.0, (0.5, 0.5))


def test_virtual_channel_preserves_point_to_point_capacity():
    """At the trivial point the virtual user capacities match the b-scaled physical ones."""
    for b in (0.5, 1.0, 2.0):
        sc = BroadcastScenario(3, [3, 1], b)
        virt = virtual_channel(1.0, trivial_distortions(sc).values)
        for k in (1, 2):
            got = point_to_point_capacity(virt, k)
            want = point_to_point_capacity(sc, k)
            assert got == pytest.approx(want, rel=1e-12)


def test_containment_reflexive():
    assert containment(CH, CH).contained


def test_containment_matched_bandwidth_equality():
    sc = BroadcastScenario(3, [3, 1], 1)
    virt = virtual_channel(1.0, trivial_distortions(sc).values)
    assert containment(virt, CH).contained
    assert containment(CH, virt).contained


def test_containment_expansion_strict():
    sc = BroadcastScenario(3, [3, 1], 2)
    virt = virtual_channel(1.0, trivial_distortions(sc).values)
    res = containment(virt, sc)
    assert not res.contained
    assert res.witness is not None and len(res.witness.rates) == 2
    # and the b-scaled physical region sits inside the virtual one
    assert containment(sc, virt).contained


def test_containment_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        containment(CH, BroadcastScenario(1, (1,), 1))


def test_scenario_from_capacities_values():
    sc = scenario_from_capacities(1, 5, 1)
    assert sc.power == 1.0
    assert sc.noises == pytest.approx((1 / 3, 1 / 1023), rel=1e-12)
    sc2 = scenario_from_capacities(1, 5, 2)
    assert sc2.noises == pytest.approx((1.0, 1 / 31), rel=1e-12)
    # 2 C_1 / b = 1 pins the worse noise at exactly P
    assert scenario_from_capacities(1, 5, 2).noises[0] == pytest.approx(1.0, rel=1e-12)


def test_scenario_from_capacities_errors():
    with pytest.raises(InvalidCapacities):
        scenario_from_capacities(5, 1, 1)
    with pytest.raises(InvalidCapacities):
        scenario_from_capacities(0, 1, 1)
    with pytest.raises(InvalidCapacities):
        scenario_from_capacities(2, 2, 1)
    # b = inf would divide by 2^0 - 1 = 0; b = 1e-3 overflows 2^(2 C_2 / b)
    for b in (0, -1, math.inf, math.nan, 1e-3):
        with pytest.raises(NonPositiveParameter):
            scenario_from_capacities(1, 5, b)


def test_corners_preserved_across_bandwidths():
    for b in (0.5, 1.0, 2.0, 3.7):
        sc = scenario_from_capacities(1, 5, b)
        assert boundary_rates(sc, (1, 0)).rates[0] == pytest.approx(1.0, abs=1e-9)
        assert boundary_rates(sc, (0, 1)).rates[1] == pytest.approx(5.0, abs=1e-9)


def test_region_shrinks_as_bandwidth_grows():
    scs = {b: scenario_from_capacities(1, 5, b) for b in (0.5, 1.0, 2.0)}
    for b_lo, b_hi in ((0.5, 1.0), (1.0, 2.0), (0.5, 2.0)):
        nest = nesting(scs[b_lo], scs[b_hi], samples=256)
        assert nest.contained and nest.strict
        assert nest.witness == boundary_rates(scs[b_lo], nest.split)
        assert not rate_membership(scs[b_hi], nest.witness)


def test_split_grid_properties():
    for k, samples in ((1, 7), (2, 16), (3, 100), (4, 200)):
        grid = split_grid(k, samples)
        assert len(grid) >= min(samples, 1)
        for split in grid:
            assert len(split) == k
            assert abs(sum(split) - 1.0) < 1e-12
            assert all(s >= 0 for s in split)
        for corner in range(k):
            unit = tuple(1.0 if i == corner else 0.0 for i in range(k))
            assert unit in grid
    with pytest.raises(InvalidSplit):
        split_grid(2, 0)
