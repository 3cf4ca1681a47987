"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criteria 01-07, 09 and 10 run the matching
``gbcbound.verify`` checks, which hold their tolerances, on this suite's
seeds and counts; the other criteria and 03's hand-check pin theirs here.
"""

import random
import time

from gbcbound import verify
from gbcbound.bound import eval_lhs
from gbcbound.core import BroadcastScenario, trivial_distortions
from gbcbound.simulate import SimConfig, run_analog


def _report(name, checks, failures, witnesses, t0):
    status = "PASS" if not failures else f"FAIL ({failures} violations)"
    print(f"\n[acceptance] {name}: {status} [{checks} checks, {time.perf_counter() - t0:.2f}s]")
    assert not failures, f"{name}: first violations: {witnesses}"


def _verified(name, seed, runs, pinned=()):
    """Report criterion ``name`` from verify's checks, each run as
    check(random.Random(seed), trials) for (check, trials) in ``runs``, and
    from the test's own ``pinned`` comparisons, given as (ok, witness)."""
    t0 = time.perf_counter()
    results = [check(random.Random(seed), trials) for check, trials in runs]
    for r in results:
        if r.detail:
            print(f"\n[acceptance] {name}: {r.detail}")
    own = [witness for ok, witness in pinned if not ok]
    checks = len(pinned) + sum(r.trials for r in results)
    failures = len(own) + sum(r.failures for r in results)
    _report(name, checks, failures, own + [(r.name, ex) for r in results for ex in r.examples], t0)


def test_criterion_01_matched_bandwidth_equality():
    """b = 1: lhs(D*) equals P + N_1 to 1e-9 relative for 500 random schedules."""
    _verified("01 matched-bandwidth equality", 101, [(verify._check_matched_equality, 500)])


def test_criterion_02_compression_never_violates():
    """b < 1: lhs(D*) <= rhs(1 + 1e-9) on 50 random schedules each of 500
    scenarios, and the schedule supremum stays within rhs(1 + 1e-6)."""
    _verified("02 compression within bound", 102, [(verify._check_compression_bound, 2500)])


def test_criterion_03_expansion_strict_violation():
    """b > 1, K >= 2: the schedule (1, 0, ..., 0) exceeds rhs by more than the
    rounding error of lhs - rhs, at 500 random scenarios and one hand-checked one."""
    # hand-check instance: lhs ~ 6.2176 vs 6, margin ~ 3.6%
    sc = BroadcastScenario(3, [3, 1], 2)
    lhs = eval_lhs(sc, trivial_distortions(sc), (1, 0))
    hand_ok = abs(lhs - 6.217639911051858) <= 1e-9 and 0.035 < lhs / 6.0 - 1.0 < 0.037
    _verified("03 expansion strict violation", 103, [(verify._check_expansion_strict, 500)],
              pinned=[(hand_ok, ("hand-check", lhs))])


def test_criterion_04_step_schedule_reduction():
    """Extended evaluation at step schedules equals the closed form to 1e-12
    relative, and finite surrogates tau = 1e3, 1e6, 1e9 converge monotonically
    at every k >= 2, over 100 scenarios."""
    _verified("04 step-schedule reduction", 104, [(verify._check_step_reduction, 200)])


def test_criterion_05_compression_region_is_trivial_box():
    """b < 1: membership on a 20x20 distortion grid matches (D_1 >= D_1*) and
    (D_2 >= D_2*), away from the 1e-7 boundary band, over 10 scenarios; and
    400 draws at b < 1, b = 1 and b > 1 probe membership around D*."""
    _verified("05 compression region = trivial box", 105, [(verify._check_regime_vs_trivial, 2000)])


def test_criterion_06_capacity_containment_equivalence():
    """Membership by schedule supremum agrees with virtual-channel capacity
    containment (512 boundary samples, 1e-7 bits) over 200 scenarios, except
    within 1e-6 of the region frontier."""
    _verified("06 capacity-containment equivalence", 106, [(verify._check_capacity_equivalence, 10_000)])


def test_criterion_07_region_shrinkage_chain():
    """C_1 = 1, C_2 = 5: regions at b = 0.5, 1, 2 keep their corners to 1e-9
    and each pair nests strictly on 512 splits; so do 10 random capacity
    pairs and bandwidths on 128 splits."""
    _verified("07 region shrinkage chain", 107, [(verify._check_region_shrinkage, 1000)])


def test_criterion_08_analog_simulation_matches_optima():
    """P = 3, N = (3, 1), b = 1, one million samples: empirical distortions
    within max(3 SE, 1%) of (0.5, 0.25); empirical power within 3 SE of 3."""
    t0 = time.perf_counter()
    failures, checks = [], 0
    report = run_analog(SimConfig(BroadcastScenario(3, [3, 1], 1), samples=10**6, seed=20240817))
    for emp, theo, se in zip(report.empirical, report.theoretical, report.std_err):
        checks += 1
        if abs(emp - theo) > max(3 * se, 0.01 * theo):
            failures.append(("distortion", emp, theo, se))
    checks += 1
    if abs(report.empirical_power - 3.0) > 3 * report.power_std_err:
        failures.append(("power", report.empirical_power, report.power_std_err))
    _report("08 analog simulation", checks, len(failures), failures[:5], t0)


def test_criterion_09_minkowski_suite():
    """1e5 random pairs per exponent never break the direction; 1e4
    positively linearly dependent pairs per exponent always classify as
    equality, and perturbed ones only as far as their distance allows."""
    _verified("09 minkowski direction and equality", 109,
              [(verify._check_minkowski_direction, 600_000), (verify._check_minkowski_equality, 60_000)])


def test_criterion_10_distortion_monotonicity():
    """Forward differences of the functional stay <= 1e-6 (scaled by the local
    derivative magnitude) at 1000 random interior points, infinite schedule
    entries included."""
    _verified("10 distortion monotonicity", 110, [(verify._check_monotonicity, 5000)])
