"""Membership oracle for the outer-bound distortion region.

A tuple D belongs to the region iff lhs(D, tau) <= P + N_1 for *every*
admissible schedule, so membership reduces to maximizing the functional
over the schedule set {0 = tau_K <= ... <= tau_1 <= +inf}.

The functional nests like Horner's rule in factors that each depend on
one schedule entry (see ``bound``), and the only coupling between entries
is their order.  So the supremum is a backward recursion over a single
grid of tau values, a chain dynamic program costing O(K M) for M grid
points.  The grid holds exact 0 and +inf, so the step schedules (the ones
that recover the per-receiver point-to-point constraints) are always
candidates.  The grid witness is then polished by cyclic per-coordinate
golden-section ascent in compactified coordinates t = tau / (s + tau),
which map [0, +inf] onto [0, 1]; ``argmax_t`` reports s = 1.  Everything
here is reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from typing import Callable, Iterable, Sequence

import numpy as np

from .bound import Distortions, _Chain, bound_rhs, eval_lhs
from .core import (
    BroadcastScenario,
    DistortionTuple,
    TauSchedule,
    check_distortions,
    trivial_distortion,
    trivial_distortions,
)
from .errors import ClassificationMismatch, InfeasibleEverywhere, InvalidDistortion

__all__ = [
    "SupResult",
    "MembershipVerdict",
    "TrivialComparison",
    "sup_bound_lhs",
    "in_outer_region",
    "trace_boundary",
    "classify_vs_trivial",
    "boundary_trace_rows",
]

DEFAULT_REL_TOL = 1e-9
GRID_POINTS = 2049
COORD_TOL = 1e-10
MAX_SWEEPS = 60
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class SupResult:
    """Supremum of the functional over all schedules at a fixed D.

    ``argmax_tau`` lives on the compactified closure: entries may be
    +inf when the maximum is approached along a diverging schedule.
    ``certified_gap`` is an empirical error indicator (improvement the
    polish found beyond the grid witness, plus the objective movement in
    the final sweep), not a rigorous bound.  ``iterations`` counts grid
    evaluations plus polish evaluations.
    """

    sup_value: float
    argmax_tau: TauSchedule
    argmax_t: tuple[float, ...]
    iterations: int
    certified_gap: float


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    sup: SupResult
    margin: float  # (P + N_1) - sup_value
    rhs: float
    tolerance: float = DEFAULT_REL_TOL


class TrivialComparison(Enum):
    """How the schedule-indexed bound compares with the trivial (point-to-point) one."""

    DEGENERATE = "degenerate"
    EQUAL = "equal"
    STRICTLY_TIGHTER = "strictly_tighter"


def _tau_grid(scenario: BroadcastScenario, d: DistortionTuple) -> np.ndarray:
    """Exact 0, geometric points from well below min D_k to well above N_S, exact +inf."""
    lo, hi = math.log(1e-3 * min(d.values)), math.log(1e3 * scenario.source_var)
    return np.concatenate(([0.0], np.exp(np.linspace(lo, hi, GRID_POINTS - 2)), [math.inf]))


def _chain_dp(chain: _Chain, grid: np.ndarray) -> list[float]:
    """Best schedule with every entry on ``grid`` (ascending, grid[0] = 0).

    Backward recursion M_k(s) = max_{tau <= s} [a_k(tau) + c_k(tau) M_{k+1}(tau)]
    with M_K = a_K(0): each stage is a running maximum over the grid, and
    the witness is read back from the stages by argmax.
    """
    free = len(chain.d) - 1
    running = chain.links(0.0, free)[0]
    stages = []
    for k in range(free - 1, -1, -1):
        a, c = chain.links(grid, k)
        value = a + c * running
        stages.append(value)
        running = np.maximum.accumulate(value)
    taus = []
    top = len(grid)
    for value in reversed(stages):
        top = int(np.argmax(value[:top])) + 1
        taus.append(float(grid[top - 1]))
    return taus + [0.0]


def _t(tau: float, scale: float = 1.0) -> float:
    """Compactified coordinate t = tau / (scale + tau), mapping [0, +inf] onto [0, 1]."""
    return 1.0 if tau == math.inf else tau / (scale + tau)


def _tau(t: float, scale: float) -> float:
    return math.inf if t >= 1.0 else scale * t / (1.0 - t)


def _golden_max(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float, int]:
    """Golden-section maximization on [lo, hi]; returns (x, f(x), evals)."""
    a, b = lo, hi
    h = b - a
    if h <= COORD_TOL:
        x = 0.5 * (a + b)
        return x, f(x), 1
    n = max(1, int(math.ceil(math.log(COORD_TOL / h) / math.log(_INVPHI))))
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    yc, yd = f(c), f(d)
    evals = 2
    for _ in range(n - 1):
        if yc > yd:
            b, d, yd = d, c, yc
            h *= _INVPHI
            c = a + _INVPHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= _INVPHI
            d = a + _INVPHI * h
            yd = f(d)
        evals += 1
    return (c, yc, evals) if yc > yd else (d, yd, evals)


def _moves(taus: list[float]) -> list[tuple[int, int]]:
    """Polish coordinates (i, j): every free entry alone, then every run of equal free entries."""
    free = len(taus) - 1
    runs = []
    i = 0
    for _, run in groupby(taus[:free]):
        n = len(list(run))
        if n > 1:
            runs.append((i, i + n - 1))
        i += n
    return [(i, i) for i in range(free)] + runs


def _refine(
    chain: _Chain, taus: list[float], value: float
) -> tuple[list[float], float, float, int]:
    """Cyclic coordinate golden-section ascent from one schedule.

    A move sets entries i..j to one value x between their neighbours:
    one entry, or a run of equal entries, which moving one entry at a
    time cannot shift together.  With the other entries fixed,
    lhs = A + C F(x) with C > 0 and
    F(x) = a_i(x) + c_i(x) (... (a_j(x) + c_j(x) S)), where S, the chain's
    value from entry j+1 on, does not depend on x.  So the search
    maximizes F, in t = x / (scale + x) with the current value as the
    scale, which resolves x relative to its size.  A move is kept only
    when the evaluator confirms a gain, so the incumbent value is
    monotone; a coordinate is searched again only after another moved.
    Returns (taus, value, last_sweep_gain, evals).
    """
    done: set[tuple[int, int]] = set()
    sweep_gain = 0.0
    evals = 0
    for _ in range(MAX_SWEEPS):
        moves = [m for m in _moves(taus) if m not in done]
        if not moves:
            break
        sweep_start = value
        for i, j in moves:
            done.add((i, j))
            upper = taus[i - 1] if i else math.inf
            scale = taus[i] if 0.0 < taus[i] < math.inf else 1.0
            lo, hi = _t(taus[j + 1], scale), _t(upper, scale)
            if hi - lo <= COORD_TOL:
                continue
            a, c = chain.links(np.array(taus))
            rest = a[-1]
            for k in range(len(taus) - 2, j, -1):
                rest = a[k] + c[k] * rest

            def f(t: float, i=i, j=j, rest=rest, scale=scale) -> float:
                x = _tau(t, scale)
                value = rest
                for k in range(j, i - 1, -1):
                    a_k, c_k = chain.links(x, k)
                    value = a_k + c_k * value
                return value

            t_best, _, used = _golden_max(f, lo, hi)
            x = min(max(_tau(t_best, scale), taus[j + 1]), upper)
            probe = taus[:i] + [x] * (j - i + 1) + taus[j + 1 :]
            probe_value = chain.lhs(probe)
            evals += used + 1
            if probe_value > value:
                if any(abs(t_best - _t(old, scale)) >= COORD_TOL for old in taus[i : j + 1]):
                    done = {(i, j)}
                taus, value = probe, probe_value
        sweep_gain = value - sweep_start
    return taus, value, sweep_gain, evals


def sup_bound_lhs(scenario: BroadcastScenario, distortions: Distortions) -> SupResult:
    """Maximize the functional over all admissible schedules.

    The chain dynamic program finds the best schedule on a fixed grid
    that holds 0 and +inf, so the all-zero and the step schedules are
    always candidates; golden-section ascent then polishes that witness
    off the grid.  ``sup_value`` is the evaluator's value at exactly
    ``argmax_tau``.
    """
    d = check_distortions(scenario, distortions)
    chain = _Chain(scenario, d)
    witness = _chain_dp(chain, _tau_grid(scenario, d))
    start_value = chain.lhs(witness)
    taus, value, gain, evals = _refine(chain, witness, start_value)
    return SupResult(
        sup_value=value,
        argmax_tau=TauSchedule(tuple(taus)),
        argmax_t=tuple(_t(tau) for tau in taus[:-1]),
        iterations=(len(witness) - 1) * GRID_POINTS + 1 + evals,
        certified_gap=(value - start_value) + gain,
    )


def in_outer_region(
    scenario: BroadcastScenario,
    distortions: Distortions,
    rel_tol: float = DEFAULT_REL_TOL,
) -> MembershipVerdict:
    """Does D satisfy the whole inequality family (sup <= P + N_1)?"""
    sup = sup_bound_lhs(scenario, distortions)
    rhs = bound_rhs(scenario)
    margin = rhs - sup.sup_value
    member = sup.sup_value <= rhs * (1.0 + rel_tol)
    return MembershipVerdict(member=member, sup=sup, margin=margin, rhs=rhs, tolerance=rel_tol)


def trace_boundary(
    scenario: BroadcastScenario,
    fixed: Sequence[float],
    search_range: tuple[float, float] | None = None,
    width: float = 1e-10,
    rel_tol: float = DEFAULT_REL_TOL,
) -> float:
    """Minimal D_K keeping (fixed_1..fixed_{K-1}, D_K) inside the region.

    Monotonicity of the functional in D_K makes feasibility monotone, so
    plain bisection applies.  The default bracket starts below the
    point-to-point optimum D_K*, which no member can undercut, and ends
    at N_S.  Raises InfeasibleEverywhere when even D_K = N_S fails
    (some fixed distortion is below its own floor).
    """
    k_total = scenario.num_receivers
    fixed_vals = tuple(float(x) for x in fixed)
    if len(fixed_vals) != k_total - 1:
        raise InvalidDistortion(
            f"expected {k_total - 1} fixed distortions, got {len(fixed_vals)}"
        )
    ns = scenario.source_var
    dk_star = trivial_distortion(scenario, k_total)
    if search_range is None:
        lo, hi = 0.5 * dk_star, ns
    else:
        lo, hi = float(search_range[0]), float(search_range[1])
        if not (0.0 < lo <= hi <= ns):
            raise InvalidDistortion(f"search range ({lo}, {hi}) outside (0, N_S]")

    def member(dk: float) -> bool:
        return in_outer_region(scenario, fixed_vals + (dk,), rel_tol=rel_tol).member

    if not member(hi):
        raise InfeasibleEverywhere(
            f"no feasible D_{k_total} in ({lo}, {hi}] for fixed prefix {fixed_vals}"
        )
    if member(lo):
        return lo
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if member(mid):
            hi = mid
        else:
            lo = mid
    return hi


def classify_vs_trivial(
    scenario: BroadcastScenario,
    rel_tol: float = DEFAULT_REL_TOL,
) -> TrivialComparison:
    """Compare the schedule-indexed bound with the trivial one, empirically.

    The analytic rule (degenerate below matched bandwidth, equal at it,
    strictly tighter above it with K >= 2; a single receiver is always
    equal) is re-derived from membership probes at and around the
    point-to-point optimum, plus the sign of the deviation at a generic
    interior schedule.  Any disagreement raises ClassificationMismatch:
    the theorems double as a permanent self-test of the numerics.
    """
    k_total = scenario.num_receivers
    b = scenario.bandwidth
    if k_total == 1 or b == 1.0:
        analytic = TrivialComparison.EQUAL
    elif b < 1.0:
        analytic = TrivialComparison.DEGENERATE
    else:
        analytic = TrivialComparison.STRICTLY_TIGHTER
    dstar = trivial_distortions(scenario)
    rhs = bound_rhs(scenario)
    problems: list[str] = []

    member_at_star = in_outer_region(scenario, dstar, rel_tol=rel_tol).member
    expect_member = analytic is not TrivialComparison.STRICTLY_TIGHTER
    if member_at_star != expect_member:
        problems.append(
            f"trivial point membership {member_at_star}, expected {expect_member}"
        )

    deflated = tuple(0.98 * v for v in dstar)
    if in_outer_region(scenario, deflated, rel_tol=rel_tol).member:
        problems.append("point below every per-receiver floor classified as member")

    if expect_member:
        ns = scenario.source_var
        inflated = tuple(min(1.02 * v, ns) for v in dstar)
        if not in_outer_region(scenario, inflated, rel_tol=rel_tol).member:
            problems.append("inflated trivial point classified as non-member")

    if k_total >= 2:
        generic = (1.0,) + (0.0,) * (k_total - 1)
        dev = (eval_lhs(scenario, dstar, generic) - rhs) / rhs
        if analytic is TrivialComparison.EQUAL and abs(dev) > rel_tol:
            problems.append(f"matched-bandwidth deviation {dev:+.3e} at generic schedule")
        if analytic is TrivialComparison.DEGENERATE and not dev < -rel_tol:
            problems.append(f"compression deviation {dev:+.3e} not strictly negative")
        if analytic is TrivialComparison.STRICTLY_TIGHTER and not dev > rel_tol:
            problems.append(f"expansion deviation {dev:+.3e} not strictly positive")

    if problems:
        raise ClassificationMismatch(
            f"numerics disagree with analytic classification {analytic.value}: "
            + "; ".join(problems)
        )
    return analytic


def boundary_trace_rows(
    scenario: BroadcastScenario,
    fixed_grid: Iterable[Sequence[float]],
    rel_tol: float = DEFAULT_REL_TOL,
) -> list[tuple[float, ...]]:
    """Boundary rows (D_1..D_{K-1}, D_K_min, sup_value, margin) for CSV export."""
    rows = []
    for fixed in fixed_grid:
        dk = trace_boundary(scenario, fixed, rel_tol=rel_tol)
        verdict = in_outer_region(
            scenario, tuple(float(x) for x in fixed) + (dk,), rel_tol=rel_tol
        )
        rows.append(tuple(float(x) for x in fixed) + (dk, verdict.sup.sup_value, verdict.margin))
    return rows
