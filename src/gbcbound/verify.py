"""Randomized self-verification suites behind the ``verify-theorems`` command.

Each check turns one analytic fact about the bound family into a
randomized regression test: scenarios are drawn from wide log-uniform
ranges, the fact is evaluated at its stated tolerance, and any violation
counts as a failure.  All checks are deterministic given the master
seed (each gets its own stream keyed by check name, so adding or
reordering checks never changes another check's draws).  The acceptance
suite calls the same check functions on its own seeds.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable

from . import bound, capacity, membership, minkowski
from .core import (
    BroadcastScenario,
    TauSchedule,
    json_safe,
    step_schedule,
    trivial_distortions,
)
from .errors import InputError

__all__ = ["CheckResult", "run_all_checks", "CHECK_NAMES", "random_scenario"]

_LOG_LO = math.log(1e-2)
_LOG_HI = math.log(1e2)
_MIN_NOISE_RATIO = 1.2
_EXAMPLES = 3
_PS = (0.2, 0.5, 0.9, 1.5, 2.0, 4.0)


@dataclass
class CheckResult:
    """Outcome of one check.

    ``trials`` counts the comparisons the check made and ``failures`` those
    that failed.  ``examples`` holds the witnesses of the first failures,
    JSON-safe (+-inf and NaN as strings): each has ``draw``, the index of
    its draw in the check's stream, and what reproduces it (scenario, D,
    schedule or vectors, and the compared margin).
    """

    name: str
    trials: int
    failures: int
    detail: str = ""
    examples: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _record(result: CheckResult, ok: bool, draw: int, **witness) -> None:
    """Count one comparison of ``result``'s check, keeping the first failures' witnesses."""
    result.trials += 1
    if not ok:
        result.failures += 1
        if len(result.examples) < _EXAMPLES:
            result.examples.append(json_safe({"draw": draw, **witness}))


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
    return BroadcastScenario(power, noises, b)


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
    result = CheckResult("matched-equality", 0, 0)
    for i in range(trials):
        sc = random_scenario(rng, bandwidth=1.0)
        dstar = trivial_distortions(sc).values
        tau = random_schedule(rng, sc.num_receivers).taus
        rhs = bound.bound_rhs(sc)
        margin = bound.eval_lhs(sc, dstar, tau) - rhs
        _record(result, abs(margin) <= 1e-9 * rhs, i, scenario=sc, d=dstar, tau=tau, margin=margin)
    return result


def _check_compression_bound(rng: random.Random, trials: int) -> CheckResult:
    """b < 1: the trivial point satisfies every inequality, sup included.

    Each of trials / 5 scenarios checks 50 random schedules and the supremum.
    """
    result = CheckResult("compression-within-bound", 0, 0)
    for i in range(max(1, trials // 5)):
        sc = random_scenario(rng, bandwidth=rng.uniform(0.05, 0.95))
        dstar = trivial_distortions(sc).values
        rhs = bound.bound_rhs(sc)
        for _ in range(50):
            tau = random_schedule(rng, sc.num_receivers).taus
            margin = bound.eval_lhs(sc, dstar, tau) - rhs
            _record(result, margin <= 1e-9 * rhs, i, scenario=sc, d=dstar, tau=tau, margin=margin)
        sup = membership.sup_bound_lhs(sc, dstar)
        margin = sup.sup_value - rhs
        _record(result, margin <= 1e-6 * rhs, i, scenario=sc, d=dstar, tau=sup.argmax_tau.taus,
                margin=margin)
    return result


def _check_expansion_strict(rng: random.Random, trials: int) -> CheckResult:
    """b > 1, K >= 2: the schedule (1, 0, ..., 0) strictly violates the bound at the trivial point.

    The violation is strict for every scenario, but it scales with the
    worst receiver's SNR (relative margins down to about 1e-10), so lhs
    minus its rounding bound (``bound._Chain.lhs_error``) must exceed rhs.
    """
    result = CheckResult("expansion-strict-violation", 0, 0)
    for i in range(trials):
        sc = random_scenario(rng, k_range=(2, 5), bandwidth=rng.uniform(1.05, 8.0))
        dstar = trivial_distortions(sc)
        rhs = bound.bound_rhs(sc)
        tau = (1.0,) + (0.0,) * (sc.num_receivers - 1)
        lhs, error = bound._Chain(sc, dstar).lhs_error(tau)
        _record(result, lhs - error > rhs, i, scenario=sc, d=dstar.values, tau=tau, margin=lhs - rhs)
    return result


_REGIMES = ((0.05, 0.95), (1.0, 1.0), (1.05, 8.0))


def _check_regime_vs_trivial(rng: random.Random, trials: int) -> CheckResult:
    """The bound against the trivial (point-to-point) one, by membership verdicts.

    On max(1, trials / 200) two-user scenarios at b < 1, a 20 x 20 grid
    from D_k* / 2 to N_S is a member exactly when D >= D*, away from a
    1e-7 band around D*.  Then trials / 5 draws cycle through b < 1, b = 1
    and b > 1 at K = 1-5: D* is a member exactly when b <= 1 or K = 1,
    0.98 D* never is, and min(1.02 D*, N_S) is whenever D* is.  At b < 1
    and K >= 2 the schedule (1, 0, ..., 0) stays below P + N_1 at D* by
    more than lhs's rounding error (``bound._Chain.lhs_error``).  At b > 1
    and K >= 2 D* lies strictly outside: with no tolerance, its verdict is
    a certified non-member, its witness beyond that rounding error.
    """
    result = CheckResult("regime-vs-trivial", 0, 0)
    boxes = max(1, trials // 200)
    for i in range(boxes):
        sc = random_scenario(rng, k_range=(2, 2), bandwidth=rng.uniform(0.05, 0.95))
        ns = sc.source_var
        dstar = trivial_distortions(sc).values
        axes = [[lo * (ns / lo) ** (j / 19.0) for j in range(20)] for lo in (0.5 * v for v in dstar)]
        for d in itertools.product(*axes):
            if any(abs(x - v) < 1e-7 for x, v in zip(d, dstar)):
                continue
            expected = all(x >= v for x, v in zip(d, dstar))
            verdict = membership.in_outer_region(sc, d)
            _record(result, verdict.member == expected, i, scenario=sc, d=d, expected=expected,
                    margin=verdict.margin)
    strict = 0
    for i in range(boxes, boxes + max(1, trials // 5)):
        sc = random_scenario(rng, bandwidth=rng.uniform(*_REGIMES[(i - boxes) % 3]))
        k, b, ns = sc.num_receivers, sc.bandwidth, sc.source_var
        dstar = (star := trivial_distortions(sc)).values
        expected = b <= 1.0 or k == 1
        probes = [(dstar, expected), (tuple(0.98 * v for v in dstar), False)]
        if expected:
            probes.append((tuple(min(1.02 * v, ns) for v in dstar), True))
        rhs = bound.bound_rhs(sc)
        if k >= 2 and b < 1.0:
            tau = (1.0,) + (0.0,) * (k - 1)
            lhs, error = bound._Chain(sc, star).lhs_error(tau)
            _record(result, lhs + error < rhs, i, scenario=sc, d=dstar, tau=tau, margin=lhs - rhs)
        for d, member in probes:
            strictly_out = d is dstar and not expected
            tol = 0.0 if strictly_out else bound.DEFAULT_REL_TOL
            verdict = membership.in_outer_region(sc, d, rel_tol=tol)
            ok, witness = verdict.member == member, {"margin": verdict.margin}
            if strictly_out:  # a certified non-member: the witness's violation exceeds its rounding error
                ok = ok and verdict.certified
                strict += ok
                witness = {"tau": verdict.sup.argmax_tau.taus, "margin": verdict.sup.sup_value - rhs}
            _record(result, ok, i, scenario=sc, d=d, expected=member, **witness)
    result.detail = f"{strict} D* non-members at b > 1 certified by the witness's violation"
    return result


def _check_step_reduction(rng: random.Random, trials: int) -> CheckResult:
    """Step schedules reduce the functional to the per-receiver closed form.

    At every k >= 2 the finite surrogates tau = 1e3, 1e6, 1e9 on the first
    k - 1 entries also converge monotonically to the step value, to within
    1e-6 at 1e9.
    """
    result = CheckResult("step-schedule-reduction", 0, 0)
    for i in range(max(1, trials // 2)):
        sc = random_scenario(rng)
        d = random_distortions(rng, sc)
        k_total = sc.num_receivers
        for k in range(1, k_total + 1):
            ext = bound.eval_lhs(sc, d, step_schedule(k_total, k))
            red = bound.reduced_bound_value(sc, d, k)
            ok = ext == red or abs(ext - red) <= 1e-12 * abs(red)
            _record(result, ok, i, scenario=sc, d=d, k=k, margin=ext - red)
            if k == 1:
                continue
            gaps = [
                abs(bound.eval_lhs(sc, d, (big,) * (k - 1) + (0.0,) * (k_total - k + 1)) - ext)
                for big in (1e3, 1e6, 1e9)
            ]
            _record(result, gaps[0] >= gaps[1] >= gaps[2], i, scenario=sc, d=d, k=k, gaps=gaps)
            _record(result, gaps[2] <= 1e-6 * max(abs(ext), 1.0), i, scenario=sc, d=d, k=k, gaps=gaps)
    return result


def _check_monotonicity(rng: random.Random, trials: int) -> CheckResult:
    """The functional is nonincreasing in every distortion coordinate.

    Forward differences through ``eval_lhs`` with step h = 1e-7 N_S must
    satisfy (lhs(D + h e_k) - lhs(D)) / h <= 1e-6 max(1, lhs / D_k).  A
    nonincreasing function has no truncation error of the wrong sign, so
    this needs no smoothness and holds at infinite schedule entries too.
    """
    result = CheckResult("distortion-monotonicity", 0, 0)
    for i in range(max(1, trials // 5)):
        sc = random_scenario(rng)
        ns = sc.source_var
        d = tuple(rng.uniform(0.05, 0.95) * ns for _ in range(sc.num_receivers))
        tau = random_schedule(rng, sc.num_receivers, hi=10.0).taus
        val = bound.eval_lhs(sc, d, tau)
        h = 1e-7 * ns
        for k, dk in enumerate(d):
            up = d[:k] + (dk + h,) + d[k + 1:]
            slope = (bound.eval_lhs(sc, up, tau) - val) / h
            ok = slope <= 1e-6 * max(1.0, abs(val) / dk)
            _record(result, ok, i, scenario=sc, d=d, tau=tau, k=k + 1, margin=slope)
    return result


def _draw_p(trials: int):
    """(draw index, p) for ceil(trials / 6) draws at each p of _PS in turn."""
    per_p = -(-trials // len(_PS))
    return ((i, _PS[i // per_p]) for i in range(per_p * len(_PS)))


def _check_minkowski_direction(rng: random.Random, trials: int) -> CheckResult:
    """Power-sum inequality holds in the stated direction for p < 1 and p > 1."""
    result = CheckResult("minkowski-direction", 0, 0)
    for i, p in _draw_p(trials):
        n = rng.randint(1, 6)
        x = [rng.expovariate(1.0) for _ in range(n)]
        y = [rng.expovariate(1.0) for _ in range(n)]
        if rng.random() < 0.1:
            x[rng.randrange(n)] = 0.0
        if rng.random() < 0.05:
            y[rng.randrange(n)] = math.inf
        res = minkowski.check_minkowski(x, y, p)
        _record(result, res.direction_holds, i, p=p, x=x, y=y, margin=res.lhs - res.rhs)
    return result


def _tangent_gap(z: list[float], fz: float, v: list[float], fv: float, p: float) -> float:
    """s (f(v) - grad f(z) . v) for f = power_sum(., p), s = sign(p - 1), and
    grad f(z)_i = (z_i / f(z))^(p - 1); entries of z are positive."""
    tangent = math.fsum((a / fz) ** (p - 1.0) * b for a, b in zip(z, v))
    return math.copysign(1.0, p - 1.0) * (fv - tangent)


def _check_minkowski_equality(rng: random.Random, trials: int) -> CheckResult:
    """Positively linearly dependent pairs classify as equality cases, and
    other pairs only as far as their distance from dependence allows.

    For f = power_sum(., p) and s = sign(p - 1), the gap G = s (f(x) +
    f(y) - f(x + y)) of a pair is >= 0.  f is homogeneous of degree 1 and
    convex for p > 1, concave for p < 1, so G is bracketed by tangent-plane
    remainders B(z, v) = s (f(v) - grad f(z) . v) (``_tangent_gap``):
    B(x + y, x), B(x + y, y) <= G <= B(x, y).  grad f(z) . z = f(z), so
    B(z, v) vanishes on the ray through z and is second order in v's
    distance from it.  A perturbed pair y + noise that classifies as
    equality must have both lower remainders within 1e-9 max(1, f(x + y))
    and its computed gap within B(x, y), up to 1e-12 relative rounding.
    """
    result = CheckResult("minkowski-equality", 0, 0)
    for i, p in _draw_p(trials):
        n = rng.randint(1, 6)
        x = [rng.expovariate(1.0) for _ in range(n)]
        lam = rng.choice((0.0, rng.uniform(0.0, 1e2)))
        y = [lam * v for v in x]
        _record(result, minkowski.equality_condition(x, y), i, p=p, x=x, y=y)
        res = minkowski.check_minkowski(x, y, p)
        _record(result, res.equality, i, p=p, x=x, y=y, margin=res.lhs - res.rhs)
        y = [v + rng.expovariate(1.0) for v in y]
        res = minkowski.check_minkowski(x, y, p)
        ok = True
        if res.equality:
            fx, fy, fxy = minkowski.power_sum(x, p), minkowski.power_sum(y, p), res.rhs
            xy = [a + b for a, b in zip(x, y)]
            slack = 1e-12 * (res.lhs + res.rhs)
            tol = 1e-9 * max(1.0, res.rhs)
            lower = max(_tangent_gap(xy, fxy, x, fx, p), _tangent_gap(xy, fxy, y, fy, p))
            gap = math.copysign(1.0, p - 1.0) * (res.lhs - res.rhs)
            ok = lower <= tol + slack and gap <= _tangent_gap(x, fx, y, fy, p) + slack
        _record(result, ok, i, p=p, x=x, y=y, margin=res.lhs - res.rhs)
    return result


def _check_noise_splitting(rng: random.Random, trials: int) -> CheckResult:
    """The two-user noise-splitting inequality behind the compression proof.

    For x = (dN_1, dN_1 * t^(1/b)) and y = (N_2, (P+N_2) * t^(1/b)) the
    power-sum inequality at p = b compares
    [dN_1^b (1+t)]^(1/b) + [N_2^b + (P+N_2)^b t]^(1/b) against
    [N_1^b + (P+N_1)^b t]^(1/b): <= for b < 1, >= for b > 1.
    """
    result = CheckResult("noise-splitting-inequality", 0, 0)
    for i in range(max(1, trials // 5)):
        p_pow = math.exp(rng.uniform(_LOG_LO, _LOG_HI))
        n2 = math.exp(rng.uniform(_LOG_LO, _LOG_HI))
        dn1 = math.exp(rng.uniform(_LOG_LO, _LOG_HI))
        b = rng.choice((rng.uniform(0.05, 0.9), rng.uniform(1.15, 6.0)))
        for t in (0.0, 1e-3, 0.1, 1.0, 10.0, 1e3):
            w = t ** (1.0 / b) if t > 0.0 else 0.0
            x = (dn1, dn1 * w)
            y = (n2, (p_pow + n2) * w)
            res = minkowski.check_minkowski(x, y, b)
            _record(result, res.direction_holds, i, p=b, x=x, y=y, margin=res.lhs - res.rhs)
    return result


def _check_scaling_invariance(rng: random.Random, trials: int) -> CheckResult:
    """Scaling (P, N) by c > 0 scales both sides by c; verdicts are invariant."""
    result = CheckResult("scaling-invariance", 0, 0)
    for i in range(max(1, trials // 5)):
        sc = random_scenario(rng)
        d = random_distortions(rng, sc)
        tau = random_schedule(rng, sc.num_receivers).taus
        base = bound.check_inequality(sc, d, tau)
        for c in (0.1, 10.0):
            scaled = bound.check_inequality(sc.scaled(c), d, tau)
            witness = dict(scenario=sc, d=d, tau=tau, c=c, margin=scaled.lhs - c * base.lhs)
            _record(result, scaled.satisfied == base.satisfied, i, **witness)
            ok = abs(scaled.lhs - c * base.lhs) <= 1e-9 * max(1.0, c * abs(base.lhs))
            _record(result, ok, i, **witness)
    return result


def _check_downward_closure(rng: random.Random, trials: int) -> CheckResult:
    """Raising any distortion never removes membership.

    The first point is drawn near the floors, D_k = D_k* (N_S / D_k*)^u
    with u uniform on [0, 1], so that most draws are members (by the
    code's own verdict) and make a comparison.
    """
    result = CheckResult("downward-closure", 0, 0)
    for i in range(max(1, trials // 20)):
        sc = random_scenario(rng, k_range=(1, 3))
        ns = sc.source_var
        d = tuple(v * (ns / v) ** rng.random() for v in trivial_distortions(sc).values)
        if not membership.in_outer_region(sc, d).member:
            continue
        d_up = tuple(min(v * (1.0 + rng.uniform(0.0, 0.5)), ns) for v in d)
        verdict = membership.in_outer_region(sc, d_up)
        _record(result, verdict.member, i, scenario=sc, d=d_up, margin=verdict.margin)
    return result


def _check_capacity_roundtrip(rng: random.Random, trials: int) -> CheckResult:
    """Boundary rate points invert to feasible splits; inflated ones do not."""
    result = CheckResult("capacity-roundtrip", 0, 0)
    for i in range(max(1, trials // 5)):
        sc = random_scenario(rng, k_range=(1, 4))
        shares = [rng.random() for _ in range(sc.num_receivers)]
        total = sum(shares) or 1.0
        split = tuple(s / total for s in shares)
        b = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        sc = BroadcastScenario(sc.power, sc.noises, b)
        point = capacity.boundary_rates(sc, split)
        witness = dict(scenario=sc, split=split, rates=point.rates)
        _record(result, capacity.rate_membership(sc, point), i, **witness)
        if sum(point.rates) > 1e-6:
            inflated = capacity.RatePoint(tuple(r * 1.01 + 1e-9 for r in point.rates))
            _record(result, not capacity.rate_membership(sc, inflated), i, **witness)
    return result


def _check_capacity_equivalence(rng: random.Random, trials: int) -> CheckResult:
    """Region membership agrees with ``capacity.containment`` of the virtual
    channel (512 boundary samples), except within 1e-6 of the region frontier."""
    result = CheckResult("capacity-equivalence", 0, 0)
    skipped = 0
    for i in range(max(1, trials // 50)):
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
        cont = capacity.containment(capacity.virtual_channel(ns, d), sc, samples=512)
        _record(result, verdict.member == cont.contained, i, scenario=sc, d=d,
                member=verdict.member, margin=verdict.margin)
    result.detail = f"{skipped} near-boundary skips"
    return result


def _check_region_shrinkage(rng: random.Random, trials: int) -> CheckResult:
    """At fixed point-to-point capacities the two-user region shrinks as b grows.

    Draw 0 is the family C = (1, 5) at b = 0.5, 1 and 2: each region keeps
    the corners R_1 = 1 and R_2 = 5 to 1e-9, and each pair nests strictly by
    ``capacity.nesting`` on 512 splits.  Draws 1 to max(1, trials / 100)
    are random capacities and bandwidths b_lo < b_hi, nesting strictly on
    128 splits.
    """
    result = CheckResult("region-shrinkage", 0, 0)
    for b in (0.5, 1.0, 2.0):
        sc = capacity.scenario_from_capacities(1.0, 5.0, b)
        for k, c in enumerate((1.0, 5.0)):
            rate = capacity.boundary_rates(sc, (1.0 - k, float(k))).rates[k]
            _record(result, abs(rate - c) <= 1e-9, 0, b=b, rate=rate)
    cases = [(0, 1.0, 5.0, b_lo, b_hi, 512) for b_lo, b_hi in ((0.5, 1.0), (1.0, 2.0), (0.5, 2.0))]
    for i in range(1, 1 + max(1, trials // 100)):
        c1 = rng.uniform(0.2, 3.0)
        c2 = c1 + rng.uniform(0.2, 3.0)
        b_lo = rng.uniform(0.3, 1.5)
        cases.append((i, c1, c2, b_lo, b_lo * rng.uniform(1.3, 3.0), 128))
    for i, c1, c2, b_lo, b_hi, samples in cases:
        wide, narrow = (capacity.scenario_from_capacities(c1, c2, b) for b in (b_lo, b_hi))
        nest = capacity.nesting(wide, narrow, samples)
        witness = dict(capacities=(c1, c2), b=(b_lo, b_hi))
        _record(result, nest.contained, i, **witness)
        _record(result, nest.strict, i, **witness, split=nest.split, lack=nest.lack)
    return result


_CHECKS: tuple[tuple[str, Callable[[random.Random, int], CheckResult]], ...] = (
    ("matched-equality", _check_matched_equality),
    ("compression-within-bound", _check_compression_bound),
    ("expansion-strict-violation", _check_expansion_strict),
    ("regime-vs-trivial", _check_regime_vs_trivial),
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
    if trials < 0:  # the CLI rejects it first (``cli._trials``)
        raise InputError(f"trials must be >= 0, got {trials}")
    results = []
    for name, fn in _CHECKS:
        rng = random.Random(f"{seed}:{name}")
        if trials == 0:
            results.append(CheckResult(name, 0, 0, detail="vacuous: zero trials"))
        else:
            results.append(fn(rng, trials))
    return results
