"""Randomized self-verification suites behind the ``verify-theorems`` command.

Each check turns one analytic fact about the bound family into a
randomized regression test: scenarios are drawn from wide log-uniform
ranges, the fact is evaluated at its stated tolerance, and any violation
counts as a failure.  All checks are deterministic given the master
seed (each gets its own stream keyed by check name, so adding or
reordering checks never changes another check's draws).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

from . import bound, capacity, membership, minkowski
from .core import (
    BroadcastScenario,
    TauSchedule,
    step_schedule,
    trivial_distortions,
    validate_scenario,
)

__all__ = ["CheckResult", "run_all_checks", "CHECK_NAMES", "random_scenario"]

_LOG_LO = math.log(1e-2)
_LOG_HI = math.log(1e2)
_MIN_NOISE_RATIO = 1.2


@dataclass
class CheckResult:
    name: str
    trials: int
    failures: int
    detail: str = ""
    examples: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0


def random_scenario(
    rng: random.Random,
    k_range: tuple[int, int] = (1, 5),
    bandwidth: float | None = None,
    min_ratio: float = _MIN_NOISE_RATIO,
) -> BroadcastScenario:
    """Scenario with log-uniform P and noises on [1e-2, 1e2].

    Noise tuples are redrawn until consecutive ratios exceed
    ``min_ratio``: near-duplicate noises collapse the broadcast problem
    toward fewer users and make strictness margins unresolvable in
    double precision.
    """
    k = rng.randint(*k_range)
    while True:
        noises = sorted(
            (math.exp(rng.uniform(_LOG_LO, _LOG_HI)) for _ in range(k)), reverse=True
        )
        if all(a / b >= min_ratio for a, b in zip(noises, noises[1:])):
            break
    power = math.exp(rng.uniform(_LOG_LO, _LOG_HI))
    b = bandwidth if bandwidth is not None else math.exp(rng.uniform(math.log(0.1), math.log(8.0)))
    return validate_scenario(power, noises, b)


def random_finite_schedule(rng: random.Random, k: int, hi: float = 50.0) -> TauSchedule:
    taus = sorted((rng.uniform(0.0, hi) for _ in range(k - 1)), reverse=True)
    return TauSchedule(tuple(taus) + (0.0,))


def random_schedule(rng: random.Random, k: int, hi: float = 50.0) -> TauSchedule:
    """Random schedule, sometimes with an infinite prefix."""
    n_inf = rng.randint(0, k - 1) if k > 1 and rng.random() < 0.3 else 0
    taus = sorted((rng.uniform(0.0, hi) for _ in range(k - 1 - n_inf)), reverse=True)
    return TauSchedule((math.inf,) * n_inf + tuple(taus) + (0.0,))


def random_distortions(rng: random.Random, scenario: BroadcastScenario) -> tuple[float, ...]:
    ns = scenario.source_var
    return tuple(
        math.exp(rng.uniform(math.log(1e-3), 0.0)) * ns
        for _ in range(scenario.num_receivers)
    )


def _check_matched_equality(rng: random.Random, trials: int) -> CheckResult:
    """b = 1: the functional equals P + N_1 at the trivial point for every schedule."""
    failures = 0
    for _ in range(trials):
        sc = random_scenario(rng, bandwidth=1.0)
        dstar = trivial_distortions(sc)
        tau = random_schedule(rng, sc.num_receivers)
        rhs = bound.bound_rhs(sc)
        val = bound.eval_lhs(sc, dstar, tau)
        if abs(val - rhs) > 1e-9 * rhs:
            failures += 1
    return CheckResult("matched-equality", trials, failures)


def _check_compression_bound(rng: random.Random, trials: int) -> CheckResult:
    """b < 1: the trivial point satisfies every inequality, sup included."""
    scenarios = max(1, trials // 5)
    failures = 0
    for _ in range(scenarios):
        sc = random_scenario(rng, k_range=(1, 4), bandwidth=rng.uniform(0.05, 0.95))
        dstar = trivial_distortions(sc)
        rhs = bound.bound_rhs(sc)
        for _ in range(10):
            tau = random_schedule(rng, sc.num_receivers)
            if bound.eval_lhs(sc, dstar, tau) > rhs * (1.0 + 1e-9):
                failures += 1
        sup = membership.sup_bound_lhs(sc, dstar)
        if sup.sup_value > rhs * (1.0 + 1e-6):
            failures += 1
    return CheckResult("compression-within-bound", scenarios, failures)


def _check_expansion_strict(rng: random.Random, trials: int) -> CheckResult:
    """b > 1, K >= 2: a generic interior schedule strictly violates the bound at the trivial point."""
    failures = 0
    for _ in range(trials):
        sc = random_scenario(rng, k_range=(2, 5), bandwidth=rng.uniform(1.05, 8.0))
        dstar = trivial_distortions(sc)
        rhs = bound.bound_rhs(sc)
        tau = (1.0,) + (0.0,) * (sc.num_receivers - 1)
        if not bound.eval_lhs(sc, dstar, tau) > rhs * (1.0 + 1e-9):
            failures += 1
    return CheckResult("expansion-strict-violation", trials, failures)


def _check_step_reduction(rng: random.Random, trials: int) -> CheckResult:
    """Step schedules reduce the functional to the per-receiver closed form."""
    cases = max(1, trials // 2)
    failures = 0
    for _ in range(cases):
        sc = random_scenario(rng)
        d = random_distortions(rng, sc)
        k_total = sc.num_receivers
        for k in range(1, k_total + 1):
            ext = bound.eval_lhs(sc, d, step_schedule(k_total, k))
            red = bound.reduced_bound_value(sc, d, k)
            if abs(ext - red) > 1e-12 * max(abs(red), 1e-300):
                failures += 1
        k_mid = (k_total + 1) // 2
        limit = bound.eval_lhs(sc, d, step_schedule(k_total, k_mid))
        gaps = []
        for big in (1e3, 1e6, 1e9):
            taus = (big,) * (k_mid - 1) + (0.0,) * (k_total - k_mid + 1)
            gaps.append(abs(bound.eval_lhs(sc, d, taus) - limit))
        if any(g2 > g1 for g1, g2 in zip(gaps, gaps[1:])):
            failures += 1
        if gaps[-1] > 1e-6 * max(abs(limit), 1.0):
            failures += 1
    return CheckResult("step-schedule-reduction", cases, failures)


def _check_monotonicity(rng: random.Random, trials: int) -> CheckResult:
    """The functional is nonincreasing in every distortion coordinate."""
    points = max(1, trials // 5)
    failures = 0
    for _ in range(points):
        sc = random_scenario(rng)
        ns = sc.source_var
        d = tuple(rng.uniform(0.05, 0.95) * ns for _ in range(sc.num_receivers))
        tau = random_finite_schedule(rng, sc.num_receivers, hi=10.0)
        val = bound.eval_lhs(sc, d, tau)
        h = 1e-7 * ns
        partials = bound.finite_diff_partials(sc, d, tau, h=h)
        for dk, g in zip(d, partials):
            if g > 1e-6 * max(1.0, abs(val) / dk):
                failures += 1
    return CheckResult("distortion-monotonicity", points, failures)


def _check_minkowski_direction(rng: random.Random, trials: int) -> CheckResult:
    """Power-sum inequality holds in the stated direction for p < 1 and p > 1."""
    failures = 0
    ps = (0.2, 0.5, 0.9, 1.5, 2.0, 4.0)
    for _ in range(trials):
        n = rng.randint(1, 6)
        x = [rng.expovariate(1.0) for _ in range(n)]
        y = [rng.expovariate(1.0) for _ in range(n)]
        if rng.random() < 0.05:
            x[rng.randrange(n)] = 0.0
        if rng.random() < 0.05:
            y[rng.randrange(n)] = math.inf
        res = minkowski.check_minkowski(x, y, rng.choice(ps))
        if not res.direction_holds:
            failures += 1
    return CheckResult("minkowski-direction", trials, failures)


def _check_minkowski_equality(rng: random.Random, trials: int) -> CheckResult:
    """Positively linearly dependent pairs classify as equality cases, and only those."""
    failures = 0
    ps = (0.2, 0.5, 0.9, 1.5, 2.0, 4.0)
    for _ in range(trials):
        n = rng.randint(1, 6)
        x = [rng.expovariate(1.0) for _ in range(n)]
        lam = rng.uniform(0.0, 5.0)
        y = [lam * v for v in x]
        p = rng.choice(ps)
        if not minkowski.equality_condition(x, y):
            failures += 1
        if not minkowski.check_minkowski(x, y, p).equality:
            failures += 1
        y_perturbed = [v + rng.expovariate(1.0) for v in y]
        res = minkowski.check_minkowski(x, y_perturbed, p)
        if res.equality and not minkowski.equality_condition(x, y_perturbed):
            failures += 1
    return CheckResult("minkowski-equality", trials, failures)


def _check_noise_splitting(rng: random.Random, trials: int) -> CheckResult:
    """The two-user noise-splitting inequality behind the compression proof.

    For x = (dN_1, dN_1 * t^(1/b)) and y = (N_2, (P+N_2) * t^(1/b)) the
    power-sum inequality at p = b compares
    [dN_1^b (1+t)]^(1/b) + [N_2^b + (P+N_2)^b t]^(1/b) against
    [N_1^b + (P+N_1)^b t]^(1/b): <= for b < 1, >= for b > 1.
    """
    cases = max(1, trials // 5)
    failures = 0
    for _ in range(cases):
        p_pow = math.exp(rng.uniform(_LOG_LO, _LOG_HI))
        n2 = math.exp(rng.uniform(_LOG_LO, _LOG_HI))
        dn1 = math.exp(rng.uniform(_LOG_LO, _LOG_HI))
        b = rng.choice((rng.uniform(0.05, 0.9), rng.uniform(1.15, 6.0)))
        for t in (0.0, 1e-3, 0.1, 1.0, 10.0, 1e3):
            w = t ** (1.0 / b) if t > 0.0 else 0.0
            x = (dn1, dn1 * w)
            y = (n2, (p_pow + n2) * w)
            if not minkowski.check_minkowski(x, y, b).direction_holds:
                failures += 1
    return CheckResult("noise-splitting-inequality", cases, failures)


def _check_scaling_invariance(rng: random.Random, trials: int) -> CheckResult:
    """Scaling (P, N) by c > 0 scales both sides by c; verdicts are invariant."""
    cases = max(1, trials // 5)
    failures = 0
    for _ in range(cases):
        sc = random_scenario(rng)
        d = random_distortions(rng, sc)
        tau = random_schedule(rng, sc.num_receivers)
        base = bound.check_inequality(sc, d, tau)
        for c in (0.1, 10.0):
            scaled = bound.check_inequality(sc.scaled(c), d, tau)
            if scaled.satisfied != base.satisfied:
                failures += 1
            if abs(scaled.lhs - c * base.lhs) > 1e-9 * max(1.0, c * abs(base.lhs)):
                failures += 1
    return CheckResult("scaling-invariance", cases, failures)


def _check_downward_closure(rng: random.Random, trials: int) -> CheckResult:
    """Raising any distortion never removes membership."""
    pairs = max(1, trials // 20)
    failures = 0
    for _ in range(pairs):
        sc = random_scenario(rng, k_range=(1, 3))
        ns = sc.source_var
        d = tuple(rng.uniform(0.05, 1.0) * ns for _ in range(sc.num_receivers))
        if not membership.in_outer_region(sc, d).member:
            continue
        d_up = tuple(min(v * (1.0 + rng.uniform(0.0, 0.5)), ns) for v in d)
        if not membership.in_outer_region(sc, d_up).member:
            failures += 1
    return CheckResult("downward-closure", pairs, failures)


def _check_capacity_roundtrip(rng: random.Random, trials: int) -> CheckResult:
    """Boundary rate points invert to feasible splits; inflated ones do not."""
    cases = max(1, trials // 5)
    failures = 0
    for _ in range(cases):
        sc = random_scenario(rng, k_range=(1, 4))
        ch = capacity.GaussianBC(sc.power, sc.noises)
        k = ch.num_receivers
        shares = [rng.random() for _ in range(k)]
        total = sum(shares) or 1.0
        split = tuple(s / total for s in shares)
        b = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        point = capacity.boundary_rates(ch, split, b)
        if not capacity.rate_membership(ch, point, b):
            failures += 1
        if sum(point.rates) > 1e-6:
            inflated = capacity.RatePoint(tuple(r * 1.01 + 1e-9 for r in point.rates))
            if capacity.rate_membership(ch, inflated, b):
                failures += 1
    return CheckResult("capacity-roundtrip", cases, failures)


def _check_capacity_equivalence(rng: random.Random, trials: int) -> CheckResult:
    """Region membership agrees with virtual-channel capacity containment."""
    cases = max(1, trials // 50)
    failures = 0
    skipped = 0
    for _ in range(cases):
        b = rng.choice((0.5, 1.0, 2.0))
        sc = random_scenario(rng, k_range=(2, 3), bandwidth=b)
        ns = sc.source_var
        k = sc.num_receivers
        while True:
            draws = sorted((rng.uniform(0.05, 0.95) for _ in range(k)), reverse=True)
            if all(a - bb >= 0.01 for a, bb in zip(draws, draws[1:])):
                break
        d = tuple(v * ns for v in draws)
        verdict = membership.in_outer_region(sc, d)
        if abs(verdict.sup.sup_value - verdict.rhs) <= 1e-6 * verdict.rhs:
            skipped += 1
            continue
        virt = capacity.virtual_channel(ns, d)
        phys = capacity.GaussianBC(sc.power, sc.noises)
        cont = capacity.containment(virt, phys, 1.0, b, samples=256)
        if verdict.member != cont.contained:
            failures += 1
    return CheckResult(
        "capacity-equivalence", cases, failures, detail=f"{skipped} near-boundary skips"
    )


def _check_region_shrinkage(rng: random.Random, trials: int) -> CheckResult:
    """At fixed point-to-point capacities the two-user region shrinks as b grows."""
    cases = max(1, trials // 100)
    failures = 0
    for _ in range(cases):
        c1 = rng.uniform(0.2, 3.0)
        c2 = c1 + rng.uniform(0.2, 3.0)
        b_lo = rng.uniform(0.3, 1.5)
        b_hi = b_lo * rng.uniform(1.3, 3.0)
        lo = capacity.scenario_from_capacities(c1, c2, b_lo)
        hi = capacity.scenario_from_capacities(c1, c2, b_hi)
        ch_lo = capacity.GaussianBC(lo.power, lo.noises)
        ch_hi = capacity.GaussianBC(hi.power, hi.noises)
        if not capacity.containment(ch_hi, ch_lo, b_hi, b_lo, samples=128).contained:
            failures += 1
        if capacity.containment(ch_lo, ch_hi, b_lo, b_hi, samples=128).contained:
            failures += 1
    return CheckResult("region-shrinkage", cases, failures)


_CHECKS: tuple[tuple[str, Callable[[random.Random, int], CheckResult]], ...] = (
    ("matched-equality", _check_matched_equality),
    ("compression-within-bound", _check_compression_bound),
    ("expansion-strict-violation", _check_expansion_strict),
    ("step-schedule-reduction", _check_step_reduction),
    ("distortion-monotonicity", _check_monotonicity),
    ("minkowski-direction", _check_minkowski_direction),
    ("minkowski-equality", _check_minkowski_equality),
    ("noise-splitting-inequality", _check_noise_splitting),
    ("scaling-invariance", _check_scaling_invariance),
    ("downward-closure", _check_downward_closure),
    ("capacity-roundtrip", _check_capacity_roundtrip),
    ("capacity-equivalence", _check_capacity_equivalence),
    ("region-shrinkage", _check_region_shrinkage),
)

CHECK_NAMES = tuple(name for name, _ in _CHECKS)


def run_all_checks(trials: int = 1000, seed: int = 42) -> list[CheckResult]:
    """Run every suite; ``trials`` scales the per-check sample counts.

    trials = 0 yields a vacuous pass (every check reports zero trials).
    """
    results = []
    for name, fn in _CHECKS:
        rng = random.Random(f"{seed}:{name}")
        if trials <= 0:
            results.append(CheckResult(name, 0, 0, detail="vacuous: zero trials"))
        else:
            results.append(fn(rng, trials))
    return results
