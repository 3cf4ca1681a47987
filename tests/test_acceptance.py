"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import math
import random
import time

from gbcbound.bound import (
    bound_rhs,
    eval_lhs,
    finite_diff_partials,
    reduced_bound_value,
)
from gbcbound.capacity import (
    GaussianBC,
    boundary_rates,
    containment,
    scenario_from_capacities,
    virtual_channel,
)
from gbcbound.core import (
    step_schedule,
    trivial_distortions,
    validate_scenario,
)
from gbcbound.membership import in_outer_region, sup_bound_lhs
from gbcbound.minkowski import check_minkowski, equality_condition
from gbcbound.simulate import SimConfig, run_analog
from gbcbound.verify import (
    random_finite_schedule,
    random_scenario,
    random_schedule,
)


def _report(name, checks, failures, t0):
    status = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    print(f"\n[acceptance] {name}: {status} [{checks} checks, {time.perf_counter() - t0:.2f}s]")
    assert not failures, f"{name}: first violations: {failures[:5]}"


def test_criterion_01_matched_bandwidth_equality():
    """b = 1: lhs(D*) equals P + N_1 to 1e-9 relative for random finite schedules."""
    t0 = time.perf_counter()
    rng = random.Random(101)
    failures, checks = [], 0
    for _ in range(500):
        sc = random_scenario(rng, bandwidth=1.0)
        dstar = trivial_distortions(sc)
        rhs = bound_rhs(sc)
        tau = random_finite_schedule(rng, sc.num_receivers)
        err = abs(eval_lhs(sc, dstar, tau) - rhs) / rhs
        checks += 1
        if err > 1e-9:
            failures.append((sc, err))
    _report("01 matched-bandwidth equality", checks, failures, t0)


def test_criterion_02_compression_never_violates():
    """b < 1: lhs(D*) <= rhs(1 + 1e-9) on 50 random schedules each, and the
    schedule supremum stays within rhs(1 + 1e-6)."""
    t0 = time.perf_counter()
    rng = random.Random(102)
    failures, checks = [], 0
    for _ in range(500):
        sc = random_scenario(rng, bandwidth=rng.uniform(0.05, 0.95))
        dstar = trivial_distortions(sc)
        rhs = bound_rhs(sc)
        for _ in range(50):
            tau = random_schedule(rng, sc.num_receivers)
            checks += 1
            if eval_lhs(sc, dstar, tau) > rhs * (1.0 + 1e-9):
                failures.append((sc, tuple(tau)))
        sup = sup_bound_lhs(sc, dstar)
        checks += 1
        if sup.sup_value > rhs * (1.0 + 1e-6):
            failures.append((sc, "sup", sup.sup_value / rhs - 1.0))
    _report("02 compression within bound", checks, failures, t0)


def test_criterion_03_expansion_strict_violation():
    """b > 1, K >= 2: the schedule (1, 0, ..., 0) exceeds rhs by > 1e-9 relative.

    The violation magnitude scales with the worst receiver's SNR; draws
    keep P / N_1 >= 1e-2 so the strict margin stays resolvable in double
    precision (the inequality itself is strict for every finite positive
    schedule entry regardless).
    """
    t0 = time.perf_counter()
    rng = random.Random(103)
    failures, checks = [], 0
    for _ in range(500):
        while True:
            sc = random_scenario(rng, k_range=(2, 5), bandwidth=rng.uniform(1.05, 8.0))
            if sc.power / sc.noises[0] >= 1e-2:
                break
        dstar = trivial_distortions(sc)
        rhs = bound_rhs(sc)
        tau = (1.0,) + (0.0,) * (sc.num_receivers - 1)
        rel_margin = (eval_lhs(sc, dstar, tau) - rhs) / rhs
        checks += 1
        if not rel_margin > 1e-9:
            failures.append((sc, rel_margin))
    # hand-check instance: lhs ~ 6.2176 vs 6, margin ~ 3.6%
    sc = validate_scenario(3, [3, 1], 2)
    lhs = eval_lhs(sc, trivial_distortions(sc), (1, 0))
    checks += 1
    if abs(lhs - 6.217639911051858) > 1e-9 or not 0.035 < lhs / 6.0 - 1.0 < 0.037:
        failures.append(("hand-check", lhs))
    _report("03 expansion strict violation", checks, failures, t0)


def test_criterion_04_step_schedule_reduction():
    """Extended evaluation at step schedules equals the closed form to 1e-12
    relative, and finite surrogates tau = 1e3, 1e6, 1e9 converge monotonically."""
    t0 = time.perf_counter()
    rng = random.Random(104)
    failures, checks = [], 0
    for _ in range(100):
        sc = random_scenario(rng)
        ns = sc.source_var
        d = tuple(math.exp(rng.uniform(math.log(1e-3), 0.0)) * ns for _ in range(sc.num_receivers))
        k_total = sc.num_receivers
        for k in range(1, k_total + 1):
            ext = eval_lhs(sc, d, step_schedule(k_total, k))
            red = reduced_bound_value(sc, d, k)
            checks += 1
            if abs(ext - red) > 1e-12 * abs(red):
                failures.append((sc, k, ext, red))
            if k == 1:
                continue
            gaps = []
            for big in (1e3, 1e6, 1e9):
                taus = (big,) * (k - 1) + (0.0,) * (k_total - k + 1)
                gaps.append(abs(eval_lhs(sc, d, taus) - ext))
            checks += 1
            if not (gaps[0] >= gaps[1] >= gaps[2]):
                failures.append((sc, k, "non-monotone", gaps))
    _report("04 step-schedule reduction", checks, failures, t0)


def test_criterion_05_compression_region_is_trivial_box():
    """b < 1: membership on a 20x20 distortion grid matches
    (D_1 >= D_1*) and (D_2 >= D_2*), away from the 1e-7 boundary band."""
    t0 = time.perf_counter()
    rng = random.Random(105)
    failures, checks = [], 0
    for _ in range(10):
        sc = random_scenario(rng, k_range=(2, 2), bandwidth=rng.uniform(0.05, 0.95))
        ns = sc.source_var
        dstar = trivial_distortions(sc).values
        axes = []
        for k in (0, 1):
            lo, hi = 0.5 * dstar[k], ns
            axes.append([lo * (hi / lo) ** (i / 19.0) for i in range(20)])
        for d1 in axes[0]:
            for d2 in axes[1]:
                if abs(d1 - dstar[0]) < 1e-7 or abs(d2 - dstar[1]) < 1e-7:
                    continue
                expected = d1 >= dstar[0] and d2 >= dstar[1]
                checks += 1
                if in_outer_region(sc, (d1, d2)).member != expected:
                    failures.append((sc, (d1, d2), expected))
    _report("05 compression region = trivial box", checks, failures, t0)


def test_criterion_06_capacity_containment_equivalence():
    """Membership by schedule supremum agrees with virtual-channel capacity
    containment (512 boundary samples, 1e-7 bits), except within 1e-6 of
    the region frontier."""
    t0 = time.perf_counter()
    rng = random.Random(106)
    failures, checks, skips = [], 0, 0
    bandwidths = (0.5, 1.0, 2.0)
    for i in range(200):
        b = bandwidths[i % 3]
        sc = random_scenario(rng, k_range=(2, 3), bandwidth=b)
        ns = sc.source_var
        while True:
            draws = sorted((rng.uniform(0.05, 0.95) for _ in range(sc.num_receivers)), reverse=True)
            if all(x - y >= 0.02 for x, y in zip(draws, draws[1:])):
                break
        d = tuple(v * ns for v in draws)
        verdict = in_outer_region(sc, d)
        if abs(verdict.sup.sup_value - verdict.rhs) <= 1e-6 * verdict.rhs:
            skips += 1
            continue
        virt = virtual_channel(ns, d)
        phys = GaussianBC(sc.power, sc.noises)
        cont = containment(virt, phys, 1.0, b, samples=512, rate_tol=1e-7)
        checks += 1
        if cont.contained != verdict.member:
            failures.append((sc, d, verdict.member, cont.contained))
    print(f"\n[acceptance] 06 near-frontier skips: {skips}")
    _report("06 capacity-containment equivalence", checks, failures, t0)


def test_criterion_07_region_shrinkage_chain():
    """C_1 = 1, C_2 = 5: regions at b = 0.5, 1, 2 nest strictly with shared corners."""
    t0 = time.perf_counter()
    failures, checks = [], 0
    chans = {}
    for b in (0.5, 1.0, 2.0):
        sc = scenario_from_capacities(1.0, 5.0, b)
        ch = GaussianBC(sc.power, sc.noises)
        chans[b] = ch
        r1 = boundary_rates(ch, (1.0, 0.0), b).rates[0]
        r2 = boundary_rates(ch, (0.0, 1.0), b).rates[1]
        checks += 2
        if abs(r1 - 1.0) > 1e-9:
            failures.append((b, "corner R1", r1))
        if abs(r2 - 5.0) > 1e-9:
            failures.append((b, "corner R2", r2))
    for b_lo, b_hi in ((0.5, 1.0), (1.0, 2.0), (0.5, 2.0)):
        inside = containment(chans[b_hi], chans[b_lo], b_hi, b_lo, samples=512)
        reverse = containment(chans[b_lo], chans[b_hi], b_lo, b_hi, samples=512)
        checks += 2
        if not inside.contained:
            failures.append((b_lo, b_hi, "not nested", inside.witness))
        if reverse.contained:
            failures.append((b_lo, b_hi, "nesting not strict"))
    _report("07 region shrinkage chain", checks, failures, t0)


def test_criterion_08_analog_simulation_matches_optima():
    """P = 3, N = (3, 1), b = 1, one million samples: empirical distortions
    within max(3 SE, 1%) of (0.5, 0.25); empirical power within 3 SE of 3."""
    t0 = time.perf_counter()
    failures, checks = [], 0
    report = run_analog(SimConfig(validate_scenario(3, [3, 1], 1), samples=10**6, seed=20240817))
    for emp, theo, se in zip(report.empirical, report.theoretical, report.std_err):
        checks += 1
        if abs(emp - theo) > max(3 * se, 0.01 * theo):
            failures.append(("distortion", emp, theo, se))
    checks += 1
    if abs(report.empirical_power - 3.0) > 3 * report.power_std_err:
        failures.append(("power", report.empirical_power, report.power_std_err))
    _report("08 analog simulation", checks, failures, t0)


def test_criterion_09_minkowski_suite():
    """1e5 random pairs per exponent never break the direction; positively
    linearly dependent constructions always classify as equality."""
    t0 = time.perf_counter()
    rng = random.Random(109)
    failures, checks = [], 0
    for p in (0.2, 0.5, 0.9, 1.5, 2.0, 4.0):
        for _ in range(100_000):
            n = rng.randint(1, 4)
            x = [rng.expovariate(1.0) for _ in range(n)]
            y = [rng.expovariate(1.0) for _ in range(n)]
            if rng.random() < 0.1:
                x[rng.randrange(n)] = 0.0
            if rng.random() < 0.02:
                y[rng.randrange(n)] = math.inf
            checks += 1
            if not check_minkowski(x, y, p).direction_holds:
                failures.append((p, x, y))
        for _ in range(10_000):
            n = rng.randint(1, 4)
            x = [rng.expovariate(1.0) for _ in range(n)]
            lam = rng.choice((0.0, rng.uniform(1e-3, 1e2)))
            y = [lam * v for v in x]
            res = check_minkowski(x, y, p)
            checks += 1
            if not (res.equality and equality_condition(x, y)):
                failures.append((p, "dependent", x, lam))
    _report("09 minkowski direction and equality", checks, failures, t0)


def test_criterion_10_distortion_monotonicity():
    """Central-difference partials of the functional stay <= 1e-6 (scaled by
    the local derivative magnitude) at 1000 random interior points."""
    t0 = time.perf_counter()
    rng = random.Random(110)
    failures, checks = [], 0
    for _ in range(20):
        sc = random_scenario(rng)
        ns = sc.source_var
        for _ in range(50):
            d = tuple(rng.uniform(0.05, 0.95) * ns for _ in range(sc.num_receivers))
            tau = random_finite_schedule(rng, sc.num_receivers, hi=10.0)
            val = eval_lhs(sc, d, tau)
            parts = finite_diff_partials(sc, d, tau, h=1e-7 * ns)
            for dk, g in zip(d, parts):
                checks += 1
                if g > 1e-6 * max(1.0, abs(val) / dk):
                    failures.append((sc, d, g))
    _report("10 distortion monotonicity", checks, failures, t0)
