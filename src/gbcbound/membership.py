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
candidates.  The same recursion then refines its witness: each zoom pass
reruns it on a small grid of geometric windows around the witness's
entries, so runs of equal entries move together.  ``argmax_t`` reports
the witness in compactified coordinates t = tau / (1 + tau), which map
[0, +inf] onto [0, 1].

``trace_boundary`` finds the smallest member D_K for a fixed prefix by
root-finding on the supremum, which is convex and nonincreasing in D_K:
each step is the closed-form root of the witness's own curve in D_K,
safeguarded by bisection.  Everything here is reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

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
]

DEFAULT_REL_TOL = 1e-9
GRID_POINTS = 2049
ZOOM_POINTS = 257
ZOOM_STEP = 1e-8
MARGIN = 1e3
TRACE_WIDTH = 1e-10
_UNIT = np.linspace(0.0, 1.0, ZOOM_POINTS)


@dataclass(frozen=True)
class SupResult:
    """Supremum of the functional over all schedules at a fixed D.

    ``argmax_tau`` lives on the compactified closure: entries may be
    +inf when the maximum is approached along a diverging schedule.
    ``certified_gap`` is an empirical error indicator (what the zoom
    passes gained over the first grid's witness, plus the gain of the
    last pass), not a rigorous bound.  ``iterations`` counts the grid
    evaluations of every pass, plus one evaluation of each pass's witness.
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
    """Exact 0, geometric points from min D_k / MARGIN to MARGIN N_S, exact +inf."""
    lo, hi = math.log(min(d.values) / MARGIN), math.log(MARGIN * scenario.source_var)
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


def _t(tau: float) -> float:
    """Compactified coordinate t = tau / (1 + tau), mapping [0, +inf] onto [0, 1]."""
    return 1.0 if tau == math.inf else tau / (1.0 + tau)


def _zoom_grid(grid: np.ndarray, taus: list[float], step: float) -> np.ndarray:
    """The next pass's grid: 0, +inf, the witness ``taus`` (all on ``grid``),
    and a window of ZOOM_POINTS geometric points around each free entry x.

    The window spans x's cell of ``grid`` and at least [x / r, x r], with
    r = exp(``step``) the step of the pass that put x there, so an entry
    can follow its neighbours even where windows overlap and cells are
    narrow.  A cell that reaches 0 or +inf (x is 0, +inf, or next to one)
    is cut off MARGIN times beyond the last positive finite grid point.
    0 and +inf appear once; a positive point may appear twice, which
    neither the recursion nor the cell lookup minds.
    """
    r = math.exp(step)
    last = len(grid) - 2
    xs = set(taus[:-1])
    parts = [[0.0, math.inf], [x for x in xs if 0.0 < x < math.inf]]
    for x in xs:
        i = int(np.searchsorted(grid, x))
        lo = min(grid[i - 1], x / r) if i > 1 else grid[1] / MARGIN
        hi = max(grid[i + 1], x * r) if i < last else grid[last] * MARGIN
        parts.append(np.exp(math.log(lo) + math.log(hi / lo) * _UNIT))
    return np.sort(np.concatenate(parts))


def sup_bound_lhs(scenario: BroadcastScenario, distortions: Distortions) -> SupResult:
    """Maximize the functional over all admissible schedules.

    The chain dynamic program finds the best schedule on a first grid
    that holds 0 and +inf, so the all-zero and the step schedules are
    always candidates.  Each zoom pass then reruns it on a grid around
    the incumbent witness (``_zoom_grid``), whose geometric step shrinks
    from r to r^(2 / (ZOOM_POINTS - 1)), until the step is at most
    ZOOM_STEP relative.  The witness's own entries stay on every grid,
    and a pass's witness is kept only if the evaluator confirms a gain,
    so the value never goes down.  ``sup_value`` is the evaluator's value
    at exactly ``argmax_tau``.
    """
    d = check_distortions(scenario, distortions)
    chain = _Chain(scenario, d)
    free = len(d.values) - 1
    grid = _tau_grid(scenario, d)
    taus = _chain_dp(chain, grid)
    first = value = chain.lhs(taus)
    evals = free * len(grid) + 1
    step = math.log(grid[2] / grid[1])
    gain = 0.0
    while free and step > ZOOM_STEP:
        grid = _zoom_grid(grid, taus, step)
        probe = _chain_dp(chain, grid)
        probe_value = chain.lhs(probe)
        evals += free * len(grid) + 1
        gain = max(probe_value - value, 0.0)
        if probe_value > value:
            taus, value = probe, probe_value
        step *= 2.0 / (ZOOM_POINTS - 1)
    return SupResult(
        sup_value=value,
        argmax_tau=TauSchedule(tuple(taus)),
        argmax_t=tuple(_t(tau) for tau in taus[:-1]),
        iterations=evals,
        certified_gap=(value - first) + gain,
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


def _last_root(chain: _Chain, taus: Sequence[float], target: float) -> float:
    """D_K at which lhs(``taus``) falls to ``target``, the other D_k fixed.

    ``chain`` holds the prefix and D_K = lo, where the step starts.  Only
    the last term depends on D_K: it is C (1 + tau_{K-1} / D_K)^(1/b), or
    C' D_K^(-1/b) when tau_{K-1} = +inf or K = 1.  Matching it to
    ``target`` minus the other terms gives log1p(tau_{K-1} / D_K) =
    log1p(tau_{K-1} / lo) + u, with u = b log of the factor by which the
    last term must fall.  NaN where no D_K > 0 reaches the target (the
    curve is flat in D_K at tau_{K-1} = 0, or its limit stays above the
    target) or the last term overflowed.
    """
    head, last = chain.split_last(taus)
    lo = float(chain.d[-1])
    if not (head < target and 0.0 < last < math.inf):
        return math.nan
    u = chain.b * math.log((target - head) / last)
    tau = taus[-2] if len(taus) > 1 else math.inf
    if tau == math.inf:
        return lo * math.exp(-u)
    v = math.log1p(tau / lo) + u
    return tau / math.expm1(v) if v > 0.0 else math.nan


def trace_boundary(
    scenario: BroadcastScenario,
    fixed: Sequence[float],
    rel_tol: float = DEFAULT_REL_TOL,
) -> float:
    """Minimal D_K keeping (fixed_1..fixed_{K-1}, D_K) inside the region.

    D_K,min is the boundary of the verdict sup <= (P + N_1)(1 + rel_tol),
    so it carries the tolerance's shift: at b <= 1 it is
    N_S (N_K / (P + N_K + rel_tol (P + N_1)))^b, just below the
    point-to-point optimum D_K*.  The result is a member, and
    D_K,min - TRACE_WIDTH is not.

    The search keeps a bracket (lo, hi] with lo a non-member and hi a
    member.  D_K enters only the last term of the chain, as a positive
    constant times (1 + tau_{K-1} / D_K)^(1/b), or times D_K^(-1/b) when
    tau_{K-1} = +inf or K = 1: convex and nonincreasing in D_K, and so is
    the supremum over schedules.  Any schedule's curve lies below the
    supremum's, so its root (``_last_root``) is at or below the boundary.
    Each step goes to the root of lo's witness, a Newton-like step that
    never overshoots, kept at least TRACE_WIDTH / 2 inside the bracket;
    once the steps are that small, the probe just above lo closes the
    bracket.  A root off the bracket by more than TRACE_WIDTH (rounding
    can put a converged root just outside), or two steps in a row that
    fail to halve the bracket, give a bisection step instead.  lo starts at D_K* / 2, which the step schedule
    (+inf, ..., +inf, 0) already excludes, so that schedule is the first
    witness; hi starts at N_S.  Raises InfeasibleEverywhere when even
    D_K = N_S fails (some fixed distortion is below its own floor).
    """
    k_total = scenario.num_receivers
    fixed_vals = tuple(float(x) for x in fixed)
    if len(fixed_vals) != k_total - 1:
        raise InvalidDistortion(
            f"expected {k_total - 1} fixed distortions, got {len(fixed_vals)}"
        )
    lo, hi = 0.5 * trivial_distortion(scenario, k_total), scenario.source_var
    if not in_outer_region(scenario, fixed_vals + (hi,), rel_tol=rel_tol).member:
        raise InfeasibleEverywhere(
            f"no feasible D_{k_total} in ({lo}, {hi}] for fixed prefix {fixed_vals}"
        )
    target = bound_rhs(scenario) * (1.0 + rel_tol)
    taus = (math.inf,) * (k_total - 1) + (0.0,)
    stalled = 0  # steps in a row that failed to halve the bracket
    while hi - lo > TRACE_WIDTH:
        width = hi - lo
        root = _last_root(_Chain(scenario, DistortionTuple(fixed_vals + (lo,))), taus, target)
        bisect = stalled == 2 or not lo - TRACE_WIDTH < root < hi + TRACE_WIDTH
        if bisect:
            x = 0.5 * (lo + hi)
        else:
            x = max(lo + 0.5 * TRACE_WIDTH, min(root, hi - 0.5 * TRACE_WIDTH))
        verdict = in_outer_region(scenario, fixed_vals + (x,), rel_tol=rel_tol)
        if verdict.member:
            hi = x
        else:
            lo, taus = x, verdict.sup.argmax_tau.taus
        stalled = 0 if bisect or hi - lo <= 0.5 * width else stalled + 1
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
