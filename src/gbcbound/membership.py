"""Membership oracle for the outer-bound distortion region.

A tuple D belongs to the region iff lhs(D, tau) <= P + N_1 for *every*
admissible schedule, so membership reduces to maximizing the functional
over the schedule set {0 = tau_K <= ... <= tau_1 <= +inf}.

The functional nests like Horner's rule in factors that each depend on
one schedule entry (see ``bound``), and the only coupling between entries
is their order.  So the supremum is a backward recursion over a single
grid of tau values, a chain dynamic program costing O(K M) for M grid
points.  Each pass builds all its links at once, as (K - 1) x M arrays
computed in place (``bound._Chain.links``), and runs the recursion on
their rows.  The grid holds exact 0 and +inf, so the step schedules (the
ones that recover the per-receiver point-to-point constraints) are always
candidates.  On the first grid the same links also give a rigorous upper
bound on the supremum, a cell-by-cell enclosure (``_enclosure``), so the
supremum comes as a bracket [sup_value, sup_upper].  When that leaves a
verdict open only through the last cell, [MARGIN N_S, +inf], the cell
alone is re-bounded on a fine geometric tail (``_tail_bound``); this
certifies the boundary members at b <= 1.  The recursion then refines
its witness: each zoom pass reruns it on a small grid of geometric
windows around the witness's entries, so runs of equal entries move
together; a pass that returns the incumbent witness costs no
evaluation.  A membership verdict stops refining as soon as the bracket
lies on one side of the threshold.  Past the float range (small b) a
stage holds +inf, and NaN where a link underflowed to 0; the readback
never picks a NaN, so the supremum is +inf there.  ``argmax_t`` reports
the witness in compactified coordinates t = tau / (1 + tau), which map
[0, +inf] onto [0, 1].

``trace_boundary`` finds the smallest member D_K for a fixed prefix by
root-finding on the supremum, which is convex and nonincreasing in D_K.
Each probe aims just below the boundary that lo's witness predicts: the
closed-form root of the witness's own curve in D_K, corrected by the
curvature that an earlier probe shows.  A probe that would close the
bracket costs no supremum call when lo's witness already violates the
bound there.  A row takes about 4.7 supremum calls at b > 1 and 1 at
b <= 1.  D_K = N_S is probed only when no member has been found and the
witnesses say that it fails, so an infeasible prefix costs 1 or 2 calls,
and a feasible row never pays for that check.  Everything here is
reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bound import DEFAULT_REL_TOL, Distortions, _Chain, bound_rhs
from .core import (
    BroadcastScenario,
    DistortionTuple,
    TauSchedule,
    check_distortions,
    trivial_distortion,
)
from .errors import InfeasibleEverywhere, InvalidDistortion

__all__ = [
    "SupResult",
    "MembershipVerdict",
    "sup_bound_lhs",
    "in_outer_region",
    "trace_boundary",
]

GRID_POINTS = 2049
ZOOM_POINTS = 257
ZOOM_STEP = 1e-8
MARGIN = 1e3
TRACE_WIDTH = 1e-10
TAIL_RATIO = 1.1
TAIL_POINTS = 219
_UNIT = np.linspace(0.0, 1.0, ZOOM_POINTS)
_RAMP = np.arange(GRID_POINTS - 2, dtype=float)
_TAIL = TAIL_RATIO ** np.arange(TAIL_POINTS - 1)  # 1, r, ..., r^217 < 1e9
_UNBOUNDED = (math.inf, math.inf, None)


@dataclass(frozen=True)
class SupResult:
    """Supremum of the functional over all schedules at a fixed D.

    The supremum lies in [``sup_value``, ``sup_upper``].  ``sup_value``
    is the evaluator's value at exactly ``argmax_tau``, +inf past the
    float range; ``sup_upper`` is a rigorous upper bound from the first
    grid (``_enclosure``), +inf where the float range does not suffice.
    ``argmax_tau`` lives on the compactified closure: entries may be
    +inf when the maximum is approached along a diverging schedule.
    ``iterations`` counts the grid evaluations of every pass, plus one
    evaluation of each pass's witness (known without evaluating when it
    is the incumbent).
    """

    sup_value: float
    argmax_tau: TauSchedule
    argmax_t: tuple[float, ...]
    iterations: int
    sup_upper: float


@dataclass(frozen=True)
class MembershipVerdict:
    """``member`` is the tolerant verdict sup <= (P + N_1)(1 + tolerance);
    ``certified`` says whether the bracket decided it (``in_outer_region``).
    """

    member: bool
    certified: bool
    sup: SupResult
    margin: float  # (P + N_1) - sup_value
    rhs: float
    tolerance: float = DEFAULT_REL_TOL


def _tau_grid(scenario: BroadcastScenario, d: DistortionTuple) -> np.ndarray:
    """Exact 0, geometric points from min D_k / MARGIN to MARGIN N_S, exact +inf.

    The logs are spaced as numpy's ``linspace`` spaces them, from a cached
    ramp, which skips that function's own overhead.
    """
    lo, hi = math.log(min(d.values) / MARGIN), math.log(MARGIN * scenario.source_var)
    grid = np.empty(GRID_POINTS)
    inner = grid[1:-1]
    np.multiply(_RAMP, (hi - lo) / (GRID_POINTS - 3), out=inner)
    inner += lo
    inner[-1] = hi
    np.exp(inner, out=inner)
    grid[0], grid[-1] = 0.0, math.inf
    return grid


def _chain_dp(
    chain: _Chain, grid: np.ndarray, bounded: bool = False
) -> tuple[list[float], tuple[float, float, np.ndarray | None]]:
    """Best schedule with every entry on ``grid`` (ascending, grid[0] = 0,
    grid[-1] = +inf), and an upper bound on the supremum over all
    schedules: ``_enclosure`` if ``bounded``, else (+inf, +inf, None).

    Backward recursion M_k(s) = max_{tau <= s} [a_k(tau) + c_k(tau) M_{k+1}(tau)]
    with M_K = a_K(0): each stage is a running maximum over the grid, run
    in place on one row of ``chain.links``, and the witness is read back
    from the stages (``_pick``).  Past the float range a stage can hold
    +inf, and NaN where an underflowed c_k meets an infinite M_{k+1}; the
    running maximum skips NaN, and the readback never picks one.  The
    enclosure reads the links before the recursion overwrites them; any
    underflow while they are formed or read makes it +inf.
    """
    underflows: list[bool] = []
    with _watch(underflows):
        a, c, running = chain.links(grid)
        enclosure = _enclosure(chain, a, c, running) if bounded else _UNBOUNDED
    if underflows or not enclosure[0] < math.inf:
        enclosure = _UNBOUNDED
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(c) - 1, -1, -1):
            value = np.multiply(c[k], running, out=c[k])
            np.add(value, a[k], out=value)
            running = np.fmax.accumulate(value, out=a[k])
    taus = []
    top = len(grid)
    for value in c:
        top = _pick(value[:top]) + 1
        taus.append(float(grid[top - 1]))
    return taus + [0.0], enclosure


def _tail_bound(chain: _Chain, x: float, seeds: np.ndarray) -> float:
    """``_enclosure`` of the first grid with the points x r^j (r = TAIL_RATIO,
    j = 1 .. TAIL_POINTS - 2) inserted into its last cell [x, +inf].

    ``seeds`` are the first grid's running maxima at x, from which each
    stage's recursion restarts on the tail, so only the tail's links are
    formed.  +inf on any underflow, as in ``_chain_dp``.
    """
    underflows: list[bool] = []
    with _watch(underflows):
        a, c, last = chain.links(np.append(x * _TAIL, math.inf))
        upper = _enclosure(chain, a, c, last, seeds)[0]
    return upper if not underflows and upper < math.inf else math.inf


def _watch(underflows: list[bool]) -> np.errstate:
    """Ignore overflow and NaN; record every underflow in ``underflows``."""
    return np.errstate(over="ignore", invalid="ignore", under="call",
                       call=lambda *_: underflows.append(True))


def _enclosure(
    chain: _Chain, a: np.ndarray, c: np.ndarray, last: float, seeds: np.ndarray | None = None
) -> tuple[float, float, np.ndarray]:
    """Rigorous upper bound on the supremum over *all* schedules, from the
    links a, c on a grid x_0 = 0 < ... < x_{M-1} = +inf and a_K(0) = ``last``.

    Returns the bound U_1(+inf) and the bound over every cell but the
    last, U_1(x_{M-2}), both rounded outward, and each stage's U_k(x_{M-2})
    as it stands, so that ``_tail_bound`` can re-bound the last cell alone.

    a_k is nonincreasing in tau (N_S >= D_k), c_k is monotone, and the true
    M_{k+1} is nondecreasing, so every tau in the cell [x_i, x_{i+1}]
    has a_k(tau) + c_k(tau) M_{k+1}(tau) <= a_k(x_i) + max(c_k(x_i),
    c_k(x_{i+1})) U_{k+1}(x_{i+1}), where U_{k+1} >= M_{k+1} at the grid
    points.  U_k(x_j) is the running maximum of these cell bounds below
    x_j (x_0 lies in the first cell), and U_K = a_K(0).  The last cell
    ends at +inf, where a_k and c_k = 1 take their exact limits, so
    U_1(+inf), the largest cell bound of the first stage, bounds the
    supremum.  The maxima propagate NaN: a 0 * inf cell is never skipped,
    and the caller maps NaN to +inf.

    With ``seeds``, the links are those of a tail x_{M-2} < ... < +inf
    that refines the last cell of a first grid, ``seeds`` holds that grid's
    U_k(x_{M-2}), and each running maximum starts from its seed.  The
    result is then the bound on the first grid with the tail's points
    inserted, operation for operation: the cells below x_{M-2} and their
    U_k are the same in both.  The last cell's bound takes a_k at
    x_{M-2} = MARGIN N_S, which lies about 1e-4 relatively above a_k(+inf);
    that is often all that keeps a boundary member at b <= 1 from being
    certified, and a geometric tail shrinks it below the tolerance.

    Outward rounding (eps = 2^-52; basic operations round to within
    eps / 2, and exp and log1p are taken to be within 2 ulps, 2 eps).  In
    a link, N_S - D_k or |D_{k+1} - D_k|, the sum with tau and the ratio
    put a relative error of at most 3 eps / 2 on the ratio r, which moves
    log1p(r) by at most that much relatively, since r / (1 + r) <= log1p(r);
    log1p and the division by b add 2 eps and eps / 2.  So the exponent y
    = log g / b or log h / b carries a relative error of at most 4 eps,
    exp turns it into 4 eps |y| and adds 2 eps, and dN_k and its product
    add eps: each link is within lam = 4 eps (Y + 1) relatively, where Y
    bounds |y| over the grid.  |log g| and |log h| fall as tau grows, so
    Y is their largest value at tau = 0.  Each stage's product and sum
    add eps, and all terms are nonnegative, so U_1 is within
    delta = K eps (4 Y + 6) of its exact-arithmetic value (the spare eps
    per stage covers second-order terms), and the true bound is at most
    U_1 / (1 - delta) <= U_1 (1 + 2 delta).  The analysis assumes every
    result in the normal range: the caller makes the bound +inf on any
    underflow.
    """
    free = len(c)
    bound = np.full(c.shape[1] - 1, last)  # U_{k+1}(x_1), ..., U_{k+1}(x_{M-1})
    cell = np.empty_like(bound)
    below = np.empty(free)  # U_k(x_{M-2})
    for k in range(free - 1, -1, -1):
        np.maximum(c[k, :-1], c[k, 1:], out=cell)
        np.multiply(cell, bound, out=cell)
        np.add(cell, a[k, :-1], out=cell)
        if k:  # the first stage needs only two maxima, not a running one
            np.maximum.accumulate(cell, out=bound)
            if seeds is not None:
                np.maximum(bound, seeds[k], out=bound)
            below[k] = bound[-2]
    log_g, log_h = chain.log_factors(np.zeros(len(chain.d)))
    y = max(np.abs(log_g).max(), np.abs(log_h).max()) / chain.b
    delta = len(chain.d) * math.ulp(1.0) * (4.0 * y + 6.0)
    scale = 1.0 + 2.0 * delta
    if not free:
        return float(last * scale), math.inf, below
    top, below[0] = cell.max(), cell[:-1].max()
    if seeds is not None:
        top, below[0] = np.maximum(top, seeds[0]), np.maximum(below[0], seeds[0])
    return float(top * scale), float(below[0] * scale), below


def _pick(value: np.ndarray) -> int:
    """Index of the first maximum of a stage, unless it is +inf or NaN.

    Then the stage overflowed: the last +inf entry, which leaves the
    widest range to the later entries whose running maximum is what
    overflowed, or the first maximum among the entries that are not NaN.
    """
    i = int(value.argmax())
    if value[i] < math.inf:
        return i
    hits = np.flatnonzero(value == math.inf)
    return int(hits[-1]) if len(hits) else int(np.nanargmax(value))


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


def sup_bound_lhs(
    scenario: BroadcastScenario, distortions: Distortions, *, target: float | None = None
) -> SupResult:
    """Bracket the functional's supremum over all admissible schedules.

    The chain dynamic program finds the best schedule on a first grid
    that holds 0 and +inf, so the all-zero and the step schedules are
    always candidates, and bounds the supremum from above on the same
    links (``sup_upper``).  Each zoom pass then reruns it on a grid around
    the incumbent witness (``_zoom_grid``), whose geometric step shrinks
    from r to r^(2 / (ZOOM_POINTS - 1)), until the step is at most
    ZOOM_STEP relative.  The witness's own entries stay on every grid,
    and a pass's witness is kept only if the evaluator confirms a gain,
    so the value never goes down; a pass that returns the incumbent needs
    no evaluation.  ``sup_value`` is the evaluator's value at exactly
    ``argmax_tau``, +inf past the float range.

    With a ``target``, the search stops as soon as the bracket decides
    how the supremum compares with it: after the first pass when
    ``sup_value > target`` or ``sup_upper <= target``, and after any zoom
    pass that lifts ``sup_value`` above it.  ``sup_value`` is then the
    lower end at that point, not the fully refined value.  When the first
    pass leaves the comparison open but only its last cell, [MARGIN N_S,
    +inf], bounds above the target, that cell alone is re-bounded on a
    geometric tail of TAIL_POINTS points (``_tail_bound``, counted in
    ``iterations``) before any zoom pass; at b <= 1 this certifies the
    boundary members, whose witness is the step schedule (+inf, 0, ...).
    """
    d = check_distortions(scenario, distortions)
    chain = _Chain(scenario, d)
    free = len(d.values) - 1
    grid = _tau_grid(scenario, d)
    taus, (upper, head, seeds) = _chain_dp(chain, grid, bounded=True)
    value = chain.lhs(taus)
    evals = free * len(grid) + 1
    if target is not None and value <= target < upper and head <= target:
        upper = min(upper, _tail_bound(chain, grid[-2], seeds))
        evals += free * TAIL_POINTS
    step = math.log(grid[2] / grid[1])
    decided = target is not None and (value > target or upper <= target)
    while free and step > ZOOM_STEP and not decided:
        grid = _zoom_grid(grid, taus, step)
        probe, _ = _chain_dp(chain, grid)
        evals += free * len(grid) + 1
        if probe != taus:
            probe_value = chain.lhs(probe)
            if probe_value > value:
                taus, value = probe, probe_value
                decided = target is not None and value > target
        step *= 2.0 / (ZOOM_POINTS - 1)
    return SupResult(
        sup_value=value,
        argmax_tau=TauSchedule(tuple(taus)),
        argmax_t=tuple(_t(tau) for tau in taus[:-1]),
        iterations=evals,
        sup_upper=upper,
    )


def in_outer_region(
    scenario: BroadcastScenario,
    distortions: Distortions,
    rel_tol: float = DEFAULT_REL_TOL,
) -> MembershipVerdict:
    """Does D satisfy the whole inequality family (sup <= P + N_1)?

    The verdict compares the supremum with the threshold
    (P + N_1)(1 + rel_tol).  It is certified when the bracket decides:
    ``sup_upper`` <= threshold (member) or ``sup_value`` > threshold
    (non-member, violated at ``argmax_tau``), and the search stops there.
    Otherwise it is the tolerant verdict on the fully refined
    ``sup_value``, and ``certified`` is False.
    """
    rhs = bound_rhs(scenario)
    threshold = rhs * (1.0 + rel_tol)
    sup = sup_bound_lhs(scenario, distortions, target=threshold)
    margin = rhs - sup.sup_value
    member = sup.sup_value <= threshold
    certified = sup.sup_upper <= threshold or sup.sup_value > threshold
    return MembershipVerdict(member=member, certified=certified, sup=sup, margin=margin, rhs=rhs,
                             tolerance=rel_tol)


class _Witness:
    """lhs at one schedule as a function of D_K, the rest of D fixed.

    Only the last term depends on D_K: it is C (1 + tau_{K-1} / D_K)^(1/b),
    or C' D_K^(-1/b) when tau_{K-1} = +inf or K = 1, so the curve is convex
    and nonincreasing.  ``chain`` holds the prefix and any D_K, the
    reference; one ``split_last`` there gives the first K - 1 terms (which
    do not depend on D_K) and the last term, and the curve elsewhere
    rescales that last term in closed form.
    """

    def __init__(self, chain: _Chain, taus: Sequence[float]) -> None:
        self.taus = tuple(taus)
        self.head, self.last = chain.split_last(taus)
        self.ref = float(chain.d[-1])
        self.b = chain.b
        self.tau = taus[-2] if len(taus) > 1 else math.inf

    def _log_rise(self, x: float) -> float:
        """b log of the factor by which the last term at D_K = x exceeds it at the reference."""
        if self.tau == math.inf:
            return math.log(self.ref / x)
        return math.log1p(self.tau / x) - math.log1p(self.tau / self.ref)

    def value(self, x: float) -> float:
        return self.head + self.last * math.exp(self._log_rise(x) / self.b)

    def violates(self, scenario: BroadcastScenario, d: DistortionTuple, target: float) -> bool:
        """Does the schedule put lhs above ``target`` at D, whose last entry
        is the probe?  The curve screens in closed form; the evaluator at D
        decides, so a True certifies D a non-member as ``in_outer_region``
        would.
        """
        return self.value(d.values[-1]) > target and _Chain(scenario, d).lhs(self.taus) > target

    def slope(self, x: float) -> float:
        last = self.value(x) - self.head
        if self.tau == math.inf:
            return -last / (self.b * x)
        return -last * self.tau / (self.b * x * (x + self.tau))

    def root(self, target: float) -> float:
        """D_K at which the curve falls to ``target``.

        Matching the last term to ``target`` minus the others gives
        log1p(tau_{K-1} / D_K) = log1p(tau_{K-1} / ref) + u, with u = b log
        of the factor by which the last term must fall.  NaN where no D_K > 0
        reaches the target (the curve is flat at tau_{K-1} = 0, or its limit
        stays above the target) or the last term overflowed.
        """
        if not (self.head < target and 0.0 < self.last < math.inf):
            return math.nan
        u = self.b * math.log((target - self.head) / self.last)
        if self.tau == math.inf:
            return self.ref * math.exp(-u)
        v = math.log1p(self.tau / self.ref) + u
        return self.tau / math.expm1(v) if v > 0.0 else math.nan

    def reach(self, target: float, lo: float, anchor: tuple[float, float], limit: float) -> float:
        """Predicted boundary: where the curve plus gamma / 2 (D_K - lo)^2 first
        falls to ``target``.

        The curve is lo's witness; the supremum exceeds it by a gap that
        grows from about 0 at lo, and gamma fits a quadratic gap to the
        supremum's lower value at ``anchor`` = (D_K, sup_value).  Newton
        steps from the curve's own root climb the convex model from below.
        A model whose minimum stays above the target (a double root, where
        the curve only grazes it) predicts its minimizer.  Without a usable
        gamma, or past ``limit``, the prediction is the curve's root.
        """
        root = self.root(target)
        x_a, value_a = anchor
        gamma = 2.0 * (value_a - self.value(x_a)) / (x_a - lo) ** 2
        if not 0.0 < gamma < math.inf:
            return root
        x, last = root, None
        while True:
            excess = self.value(x) + 0.5 * gamma * (x - lo) ** 2 - target
            slope = self.slope(x) + gamma * (x - lo)
            if excess <= 0.0:
                return x
            if slope >= 0.0:
                return x if last is None else last[0] - last[1] * (x - last[0]) / (slope - last[1])
            step = excess / -slope
            last, x = (x, slope), x + step
            if x >= limit:
                return root
            if step <= 0.25 * TRACE_WIDTH:
                return x


def _flattened(taus: Sequence[float]) -> tuple[float, ...]:
    """The schedule with its last run of equal free entries lowered to 0.

    With tau_{K-1} = 0 the last term no longer depends on D_K, and neither
    does the functional.
    """
    return tuple(0.0 if tau == taus[-2] else tau for tau in taus)


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
    member.  D_K enters only the last term of the chain, so the supremum
    is convex and nonincreasing in D_K (``_Witness``), and lo's witness
    curve lies below it: that curve's root is at or below the boundary.
    Each probe aims just below the predicted boundary (``_Witness.reach``:
    the root, corrected by the curvature that hi, or the probe before lo,
    shows), and never below the root, so most probes are non-members that
    climb toward the boundary faster than Newton's method.  Once the
    prediction lies within TRACE_WIDTH / 2 of lo, the probe at
    lo + TRACE_WIDTH / 2 closes the bracket from above; once hi lies
    within TRACE_WIDTH of the root, the probe at the root closes it from
    below.  A root off the bracket by more than TRACE_WIDTH (rounding can
    put a converged root just outside), or three probes in a row that fail
    to halve a bracket whose hi is a member, give a bisection step
    instead.  lo starts at D_K* / 2, which the step schedule
    (+inf, ..., +inf, 0) already excludes, so that schedule is the first
    witness.  A probe that would close the bracket (hi a member and
    hi - x <= TRACE_WIDTH, or the D_K = N_S probe below) is first tested
    against lo's witness (``_Witness.violates``); if that schedule already
    violates the bound at x, x is a certified non-member and takes no
    supremum call.  Only a closing probe is skipped, so the result is the
    one the supremum calls would give, unless a supremum would call x a
    member where a known schedule violates the bound.

    hi starts at N_S, which is probed only when needed: a member probe
    below N_S shows that N_S is a member too.  N_S is probed when lo's
    witness cannot reach the target below it (its root is NaN or beyond
    N_S), or when the witness with its last run lowered to 0
    (``_flattened``), whose value does not depend on D_K, already violates
    the bound.  Raises InfeasibleEverywhere when that probe fails (some
    fixed distortion is below its own floor); this takes 1 or 2 supremum
    calls, 1 on the b <= 1 prefixes seen.  A b <= 1 row takes 1: a member
    probe just above the step schedule's root, then a closing probe just
    below it that the step schedule excludes.
    """
    k_total = scenario.num_receivers
    fixed_vals = tuple(float(x) for x in fixed)
    if len(fixed_vals) != k_total - 1:
        raise InvalidDistortion(
            f"expected {k_total - 1} fixed distortions, got {len(fixed_vals)}"
        )
    lo, hi = 0.5 * trivial_distortion(scenario, k_total), scenario.source_var
    target = bound_rhs(scenario) * (1.0 + rel_tol)
    chain = _Chain(scenario, DistortionTuple(fixed_vals + (hi,)))
    witness = _Witness(chain, (math.inf,) * (k_total - 1) + (0.0,))
    member_hi = flat = False
    lo_value = anchor = None  # sup_value at lo once probed; (D_K, sup_value) for reach
    stalled = 0  # probes in a row that failed to halve a bracket with a member hi
    while not (member_hi and hi - lo <= TRACE_WIDTH):
        width = hi - lo
        root = witness.root(target)
        bisect = stalled == 3 or not lo - TRACE_WIDTH < root < hi + TRACE_WIDTH
        if flat or bisect and not member_hi:
            x = hi  # N_S, not yet probed
        elif bisect:
            x = 0.5 * (lo + hi)
        elif member_hi and hi - root <= TRACE_WIDTH:
            x = max(lo + 0.5 * TRACE_WIDTH, min(root, hi - 0.5 * TRACE_WIDTH))
        else:
            aim = witness.reach(target, lo, anchor, hi) if anchor else root
            if aim - lo <= 0.5 * TRACE_WIDTH:
                x = lo + 0.5 * TRACE_WIDTH
            else:
                x = max(lo + 0.25 * TRACE_WIDTH, aim - 0.5 * TRACE_WIDTH, root + 0.25 * TRACE_WIDTH)
            x = min(x, hi - 0.5 * TRACE_WIDTH) if member_hi else min(x, hi)
        closes = hi - x <= TRACE_WIDTH if member_hi else x == hi
        if closes and witness.violates(scenario, DistortionTuple(fixed_vals + (x,)), target):
            verdict = None  # lo's witness already excludes x
        else:
            verdict = in_outer_region(scenario, fixed_vals + (x,), rel_tol=rel_tol)
        if verdict and verdict.member:
            hi, member_hi, anchor = x, True, (x, verdict.sup.sup_value)
        elif x == hi and not member_hi:
            raise InfeasibleEverywhere(
                f"no feasible D_{k_total} up to N_S = {hi} for fixed prefix {fixed_vals}"
            )
        elif verdict is None:
            lo = x  # hi - x <= TRACE_WIDTH: the bracket is closed
        else:
            taus = verdict.sup.argmax_tau.taus
            if not member_hi and lo_value is not None:
                anchor = (lo, lo_value)
            lo, lo_value, witness = x, verdict.sup.sup_value, _Witness(chain, taus)
            flat = not member_hi and k_total > 1 and chain.lhs(_flattened(taus)) > target
        if member_hi:
            stalled = 0 if bisect or hi - lo <= 0.5 * width else stalled + 1
    return hi
