import dataclasses
import math

import pytest

from gbcbound.core import BroadcastScenario
from gbcbound.errors import BandwidthNotOne, NonPositiveParameter
from gbcbound.simulate import GENERATOR_NAME, SimConfig, run_analog

S_MATCHED = BroadcastScenario(3, [3, 1], 1)


def test_empirical_matches_point_to_point_optima():
    report = run_analog(SimConfig(S_MATCHED, samples=200_000, seed=7))
    assert report.theoretical == pytest.approx((0.5, 0.25), rel=1e-12)
    for emp, theo, se in zip(report.empirical, report.theoretical, report.std_err):
        assert abs(emp - theo) <= max(3 * se, 0.01 * theo)


def test_empirical_power_meets_constraint():
    report = run_analog(SimConfig(S_MATCHED, samples=200_000, seed=11))
    assert abs(report.empirical_power - 3.0) <= 3 * report.power_std_err


def test_distortions_nonincreasing_in_receiver_index():
    sc = BroadcastScenario(2, [8, 4, 2, 1], 1)
    report = run_analog(SimConfig(sc, samples=100_000, seed=3))
    for (e1, s1), (e2, s2) in zip(
        zip(report.empirical, report.std_err), zip(report.empirical[1:], report.std_err[1:])
    ):
        assert e1 >= e2 - 3 * (s1 + s2)


def test_vanishing_power_gives_source_variance():
    sc = BroadcastScenario(1e-6, [1.0], 1, 2.0)
    report = run_analog(SimConfig(sc, samples=50_000, seed=5))
    assert report.empirical[0] == pytest.approx(2.0, rel=0.05)


def test_deterministic_given_seed():
    a = run_analog(SimConfig(S_MATCHED, samples=70_000, seed=99))
    b = run_analog(SimConfig(S_MATCHED, samples=70_000, seed=99))
    assert a == b  # bit-identical, including across the chunking boundary
    c = run_analog(SimConfig(S_MATCHED, samples=70_000, seed=100))
    assert c.empirical != a.empirical


def test_chunk_boundary_consistency():
    # 2**18 is the internal chunk; straddling it must still be deterministic
    n = (1 << 18) + 17
    a = run_analog(SimConfig(S_MATCHED, samples=n, seed=1))
    b = run_analog(SimConfig(S_MATCHED, samples=n, seed=1))
    assert a == b
    assert a.samples == n


def test_single_sample_run():
    report = run_analog(SimConfig(S_MATCHED, samples=1, seed=0))
    assert all(math.isinf(se) for se in report.std_err)
    assert math.isinf(report.power_std_err)
    assert all(e >= 0 for e in report.empirical)


def test_generator_recorded_for_reproducibility():
    report = run_analog(SimConfig(S_MATCHED, samples=10, seed=0))
    assert report.generator == GENERATOR_NAME == "philox"
    assert report.seed == 0
    payload = dataclasses.asdict(report)
    assert payload["generator"] == "philox"
    assert payload["samples"] == 10


def test_rejects_bandwidth_mismatch():
    with pytest.raises(BandwidthNotOne):
        SimConfig(BroadcastScenario(3, [3, 1], 2), samples=10, seed=0)
    with pytest.raises(BandwidthNotOne):
        SimConfig(BroadcastScenario(3, [3, 1], 0.5), samples=10, seed=0)


def test_rejects_bad_sample_count_and_seed():
    with pytest.raises(NonPositiveParameter):
        SimConfig(S_MATCHED, samples=0, seed=0)
    with pytest.raises(NonPositiveParameter):
        SimConfig(S_MATCHED, samples=10, seed=-1)
    with pytest.raises(NonPositiveParameter):
        SimConfig(S_MATCHED, samples=10, seed=2**64)
