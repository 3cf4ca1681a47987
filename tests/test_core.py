import dataclasses
import json
import math

import pytest
from hypothesis import given, strategies as st

from gbcbound.core import (
    BroadcastScenario,
    DistortionTuple,
    TauSchedule,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    step_schedule,
    trivial_distortion,
    trivial_distortions,
)
from gbcbound.errors import (
    IndexOutOfRange,
    InputError,
    InvalidDistortion,
    InvalidTauSchedule,
    NonDecreasingNoises,
    NonMonotoneTau,
    NonPositiveParameter,
)


def scenarios(max_k=5):
    """Hypothesis strategy for valid scenarios.

    Consecutive noises are kept a factor >= 1.1 apart; ulp-adjacent noise
    pairs make strictness claims unresolvable in double precision.
    """

    def build(p, n_low, ratios, b):
        noises = [n_low]
        for r in ratios:
            noises.append(noises[-1] * r)
        return BroadcastScenario(p, tuple(sorted(noises, reverse=True)), b)

    return st.builds(
        build,
        st.floats(min_value=1e-2, max_value=1e2),
        st.floats(min_value=1e-2, max_value=1e1),
        st.lists(st.floats(min_value=1.1, max_value=10.0), min_size=0, max_size=max_k - 1),
        st.floats(min_value=0.1, max_value=8.0),
    )


def test_validate_scenario_accepts_valid():
    sc = BroadcastScenario(3, [3, 1], 1)
    assert sc.power == 3.0
    assert sc.noises == (3.0, 1.0)
    assert sc.bandwidth == 1.0
    assert sc.source_var == 1.0
    assert sc.num_receivers == 2


def test_validate_scenario_rejects_unordered_noises():
    with pytest.raises(NonDecreasingNoises):
        BroadcastScenario(3, [1, 3], 1)
    with pytest.raises(NonDecreasingNoises):
        BroadcastScenario(3, [2, 2], 1)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(power=0, noises=[1], bandwidth=1),
        dict(power=-1, noises=[1], bandwidth=1),
        dict(power=1, noises=[1], bandwidth=0),
        dict(power=1, noises=[1], bandwidth=1, source_var=0),
        dict(power=1, noises=[1, 0], bandwidth=1),
        dict(power=math.nan, noises=[1], bandwidth=1),
        dict(power=1, noises=[], bandwidth=1),
    ],
)
def test_validate_scenario_rejects_nonpositive(kwargs):
    with pytest.raises(NonPositiveParameter):
        BroadcastScenario(**kwargs)


def test_delta_noises():
    sc = BroadcastScenario(2, [5, 2, 0.5], 1)
    assert sc.delta_noises() == (3.0, 1.5, 0.5)
    assert sc.delta_noise(3) == 0.5
    assert all(d > 0 for d in sc.delta_noises())
    with pytest.raises(IndexOutOfRange):
        sc.delta_noise(4)


def test_delta_noises_are_not_part_of_the_scenario_value():
    """The scenario keeps its N_k - N_{k+1}, formed once, outside its fields:
    equality, hashing, repr, asdict and scenario_to_dict see only (P, N, b, N_S)."""
    sc = BroadcastScenario(2, [5, 2, 0.5], 1.5, 2)
    fields = (2.0, (5.0, 2.0, 0.5), 1.5, 2.0)
    assert sc.delta_noises() is sc.delta_noises()
    assert sc == BroadcastScenario(*fields) and sc != BroadcastScenario(2, [5, 2, 0.25], 1.5, 2)
    assert hash(sc) == hash(fields)
    assert repr(sc) == "BroadcastScenario(power=2.0, noises=(5.0, 2.0, 0.5), bandwidth=1.5, source_var=2.0)"
    assert dataclasses.asdict(sc) == {"power": 2.0, "noises": (5.0, 2.0, 0.5), "bandwidth": 1.5,
                                      "source_var": 2.0}
    assert scenario_to_dict(sc) == {"power": 2.0, "noises": [5.0, 2.0, 0.5], "bandwidth": 1.5,
                                    "source_var": 2.0}


def test_trivial_distortion_examples():
    assert trivial_distortion(BroadcastScenario(3, [3, 1], 1), 1) == pytest.approx(0.5, rel=1e-15)
    assert trivial_distortion(BroadcastScenario(3, [3, 1], 2), 2) == pytest.approx(0.0625, rel=1e-15)
    # fractional bandwidth: oracle is the square root itself
    assert trivial_distortion(BroadcastScenario(3, [3, 1], 0.5), 1) == pytest.approx(
        math.sqrt(0.5), rel=1e-15
    )
    assert trivial_distortion(BroadcastScenario(3, [3, 1], 0.5), 1) == pytest.approx(
        0.7071067811865476, rel=1e-15
    )


def test_trivial_distortion_index_errors():
    sc = BroadcastScenario(3, [3, 1], 1)
    for k in (0, 3, -1):
        with pytest.raises(IndexOutOfRange):
            trivial_distortion(sc, k)


@given(scenarios())
def test_trivial_distortion_bounds_and_ordering(sc):
    values = trivial_distortions(sc).values
    for v in values:
        assert 0.0 < v < sc.source_var
    # worse channel (larger noise, smaller k) means larger distortion floor
    assert all(a > b for a, b in zip(values, values[1:]))


@given(
    st.floats(min_value=1e-2, max_value=1e2),
    st.floats(min_value=1e-2, max_value=1e2),
    st.floats(min_value=1e-2, max_value=1e2),
)
def test_trivial_distortion_matched_bandwidth_closed_form(p, n, ns):
    # b = 1 applies no power transform at all (same association, bitwise)
    sc = BroadcastScenario(p, (n,), 1.0, ns)
    assert trivial_distortion(sc, 1) == ns * (n / (p + n))
    assert trivial_distortion(sc, 1) == pytest.approx(ns * n / (p + n), rel=1e-15)


def test_step_schedule_examples():
    assert step_schedule(3, 2).taus == (math.inf, 0.0, 0.0)
    assert step_schedule(1, 1).taus == (0.0,)
    assert step_schedule(2, 1).taus == (0.0, 0.0)


@pytest.mark.parametrize("k_total,k", [(3, 0), (3, 4), (0, 1)])
def test_step_schedule_index_errors(k_total, k):
    with pytest.raises(IndexOutOfRange):
        step_schedule(k_total, k)


@given(st.integers(min_value=1, max_value=8), st.data())
def test_step_schedule_always_valid(k_total, data):
    k = data.draw(st.integers(min_value=1, max_value=k_total))
    sched = step_schedule(k_total, k)
    assert len(sched) == k_total
    assert sched.taus.count(math.inf) == k - 1
    assert sched.taus[-1] == 0.0


def test_tau_schedule_validation():
    with pytest.raises(NonMonotoneTau):
        TauSchedule((0.0, 1.0))
    with pytest.raises(InvalidTauSchedule):
        TauSchedule((1.0, 0.5))  # last entry nonzero
    with pytest.raises(InvalidTauSchedule):
        TauSchedule((-1.0, 0.0))
    with pytest.raises(InvalidTauSchedule):
        TauSchedule((math.nan, 0.0))
    with pytest.raises(InvalidTauSchedule):
        TauSchedule(())
    ok = TauSchedule((math.inf, 2.0, 0.0))
    assert ok.taus.count(math.inf) == 1
    assert TauSchedule.of(ok) is ok


def test_distortion_tuple_validation():
    with pytest.raises(InvalidDistortion):
        DistortionTuple((0.0,))
    with pytest.raises(InvalidDistortion):
        DistortionTuple((-0.5,))
    with pytest.raises(InvalidDistortion):
        DistortionTuple((math.inf,))
    with pytest.raises(InvalidDistortion):
        DistortionTuple(())
    d = DistortionTuple.of([0.5, 0.25])
    assert d.values == (0.5, 0.25)


def test_scenario_scaled():
    sc = BroadcastScenario(3, [3, 1], 2, 1.5)
    up = sc.scaled(10)
    assert up.power == 30.0
    assert up.noises == (30.0, 10.0)
    assert up.bandwidth == 2.0 and up.source_var == 1.5
    with pytest.raises(NonPositiveParameter):
        sc.scaled(0)


def test_scenario_file_roundtrip(tmp_path):
    sc = BroadcastScenario(3, [3, 1], 0.5, 2.0)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_dict(sc)))
    assert load_scenario(path) == sc


def test_scenario_from_dict_missing_field():
    """Shape errors raise the base InputError itself, not a range-error subclass."""
    with pytest.raises(InputError) as exc:
        scenario_from_dict({"power": 1, "noises": [1]})
    assert type(exc.value) is InputError
    for bad in ({"power": "abc"}, {"noises": [3, None]}, {"power": True}, {"bandwidth": None},
                {"source_var": "1"}, {"noises": [3, False]}, {"noises": 2}):
        with pytest.raises(InputError) as exc:
            scenario_from_dict({"power": 1, "noises": [3, 1], "bandwidth": 1, **bad})
        assert type(exc.value) is InputError
    # out-of-range values keep their own classes
    with pytest.raises(NonDecreasingNoises):
        scenario_from_dict({"power": 1, "noises": [1, 3], "bandwidth": 1})


def test_load_scenario_rejects_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(InputError) as exc:
        load_scenario(path)
    assert type(exc.value) is InputError
