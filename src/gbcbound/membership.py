"""Membership oracle for the outer-bound distortion region.

A tuple D belongs to the region iff lhs(D, tau) <= P + N_1 for *every*
admissible schedule, so membership reduces to maximizing the functional
over the schedule set {0 = tau_K <= ... <= tau_1 <= +inf}.

The supremum is bracketed as [sup_value, sup_upper].  At b <= 1 (the
paper's result) and at K = 1 the bound is the trivial one: the supremum
is max_k of the closed form (N_1 - N_k) + N_k (N_S / D_k)^(1/b), the
value at the step schedule isolating receiver k (the step schedules
recover the point-to-point constraints), computed in Python floats with
no grid (``_step_sup``), and that maximum times 1 + rho bounds it.

Otherwise a chain dynamic program on a grid brackets the supremum, and a
branch-and-bound search narrows a bracket that leaves the question open;
``_search`` holds all of it, with every array, and ``sup_bound_lhs``
imports it on its first call there, so numpy loads only there.
``argmax_t`` gives the witness as t = tau / (1 + tau), which maps
[0, +inf] onto [0, 1].

``trace_boundary`` finds the smallest member D_K for a fixed prefix by
root-finding on the supremum, which is convex and nonincreasing in D_K.
Each probe aims just below the boundary that lo's witness predicts: the
closed-form root of the witness's own curve in D_K, corrected by the
curvature that an earlier probe shows.  Every probe is first tested
against lo's witness, and costs no supremum call when that schedule
already violates the bound there.  A row takes 4 to 5 supremum calls at
b > 1 (4.40 on the README grid, 4.00 on K = 3 rows at b = 2) and 1 at
b <= 1.  Within a row, each b > 1 search after the first starts from the
final grid of the one before it, so most member probes certify in one
search round.  D_K = N_S is probed only when no member has been found
and lo's witness cannot reach the bound below it, so a feasible row
never pays for that check; an infeasible prefix costs 1 call at b <= 1
and 1 to 5 at b > 1 (1.6 on average over the random prefixes measured).
Everything here is reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .bound import DEFAULT_REL_TOL, Distortions, _Chain, _step_value, _total, bound_rhs
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

TRACE_WIDTH = 1e-10


@dataclass(frozen=True)
class SupResult:
    """Supremum of the functional over all schedules at a fixed D.

    The supremum lies in [``sup_value``, ``sup_upper``].  ``sup_value``
    is the evaluator's value at exactly ``argmax_tau``, +inf past the
    float range; ``sup_upper`` is a rigorous upper bound, +inf where the
    float range does not suffice.  ``argmax_tau`` lives on the
    compactified closure: entries may be +inf when the maximum is
    approached along a diverging schedule.  ``iterations`` is K at b <= 1
    or K = 1, one per step schedule.  Otherwise it counts the evaluated
    points, K - 1 per point of the grid the call starts from and per new
    point of each search round, plus one per witness (the first pass's,
    its polished one and each round's), so (K - 1) GRID_POINTS + 2 where
    the first pass decides on a fresh first grid (``_search``); a trace
    probe starts from its row's kept grid and counts that grid's points.
    The links that the search forms again where it re-bounds are not
    counted.
    """

    sup_value: float
    argmax_tau: TauSchedule
    argmax_t: tuple[float, ...]
    iterations: int
    sup_upper: float


@dataclass(frozen=True)
class MembershipVerdict:
    """``member`` is the tolerant verdict sup <= (P + N_1)(1 + tolerance);
    ``certified`` says it holds in exact arithmetic (``in_outer_region``),
    so a certified member may exceed P + N_1 by up to tolerance (P + N_1).
    """

    member: bool
    certified: bool
    sup: SupResult
    margin: float  # (P + N_1) - sup_value
    rhs: float
    tolerance: float = DEFAULT_REL_TOL


def _t(tau: float) -> float:
    """Compactified coordinate t = tau / (1 + tau), mapping [0, +inf] onto [0, 1]."""
    return 1.0 if tau == math.inf else tau / (1.0 + tau)


def _result(taus: Sequence[float], value: float, iterations: int, upper: float) -> SupResult:
    """The bracket [``value``, ``upper``] with its witness schedule ``taus``."""
    return SupResult(
        sup_value=value,
        argmax_tau=TauSchedule(tuple(taus)),
        argmax_t=tuple(_t(tau) for tau in taus[:-1]),
        iterations=iterations,
        sup_upper=upper,
    )


def _step_sup(scenario: BroadcastScenario, chain: _Chain) -> SupResult:
    """The supremum at b <= 1 or K = 1: the largest of the K step values,
    each the bound at a step schedule in closed form (``bound._step_value``).

    The witness isolates the first largest, or past the float range the
    last +inf (``_search._pick``'s rule).  Rounding (the terms of
    ``_search._enclosure``): each step value is one link-shaped term N_k
    (N_S / D_k)^(1/b), within lam = 4 eps (Y + 1) relatively, Y the largest
    exponent log(N_S / D_k) / b (at the smallest D_k), plus one difference
    N_1 - N_k and one sum, each within eps / 2; all are nonnegative, so it
    is within lam + eps <= rho = eps (4 Y + 8) (``_Chain.rho``), and the
    largest times 1 + rho (the spare eps cover that product's rounding)
    bounds the supremum.  ``sup_upper`` is at least ``sup_value``, which
    the evaluator rounds differently.
    """
    count = len(chain.d)
    values = [_step_value(scenario, chain.d, k) for k in range(1, count + 1)]
    top = max(values)
    j = values.index(top) if top < math.inf else count - 1 - values[::-1].index(top)
    taus = [math.inf] * j + [0.0] * (count - j)
    value = chain.lhs(taus)
    return _result(taus, value, count, max(top * (1.0 + chain.rho()), value))


def sup_bound_lhs(
    scenario: BroadcastScenario,
    distortions: Distortions,
    *,
    target: float | None = None,
    _grid: list | None = None,
    _chain: _Chain | None = None,
) -> SupResult:
    """Bracket the functional's supremum over all admissible schedules.

    At K = 1 the only schedule is tau_1 = 0, a step schedule.  At b <= 1
    the supremum is the largest of the K step values: with the others
    held, the functional is convex in one entry's u = 1 / (D_k + tau), as
    is a run of equal entries (their factors telescope, as in
    ``_search._Cells.rebound``), so moving a schedule's entries one run at
    a time to 0 or +inf loses nothing, and a schedule on {0, +inf} is a
    step schedule.  ``_step_sup`` takes the largest in closed form, with K
    iterations and no grid, links or search: ``sup_upper`` is that
    maximum times 1 + rho, and ``sup_value`` the evaluator's value at the
    step schedule that isolates its receiver.

    At b > 1 with K >= 2 ``_search.supremum`` runs the chain dynamic
    program on a first grid that holds 0 and +inf, bounds the supremum
    from above with the same links, polishes the grid witness, and
    searches only while that bracket leaves open how the supremum compares
    with ``target`` (``sup_value > target`` or ``sup_upper <= target``
    decides).  ``sup_value`` is the evaluator's value at exactly
    ``argmax_tau``: on a decided stop, the lower end there.  ``_grid`` is
    ``trace_boundary``'s hand-off: a list whose grid, if it holds one, the
    search starts from, and where it leaves its final grid (``_search``).
    ``_chain``, if given, is the validated functional at D (``in_outer_region``'s).
    """
    chain = _chain or _Chain(scenario, check_distortions(scenario, distortions))
    if scenario.bandwidth <= 1.0 or scenario.num_receivers == 1:
        return _step_sup(scenario, chain)
    from ._search import supremum  # numpy loads with the first search

    return _result(*supremum(chain, target, _grid))


def in_outer_region(
    scenario: BroadcastScenario,
    distortions: Distortions,
    rel_tol: float = DEFAULT_REL_TOL,
    *,
    _grid: list | None = None,
) -> MembershipVerdict:
    """Does D satisfy the whole inequality family (sup <= P + N_1)?

    The verdict compares the supremum with the threshold (P + N_1)(1 +
    rel_tol); the search stops once its bracket decides.  It is certified
    when ``sup_upper`` <= threshold (member) or ``sup_value`` minus its
    rounding bound at ``argmax_tau`` (``_Chain.lhs_error``) > threshold
    (non-member); otherwise it is the tolerant verdict on ``sup_value``.
    A certified member may thus exceed P + N_1 by up to rel_tol (P + N_1);
    rel_tol = 0 decides the bound itself.  ``_grid`` goes to ``sup_bound_lhs``.
    """
    rhs = bound_rhs(scenario)
    threshold = rhs * (1.0 + rel_tol)
    chain = _Chain(scenario, check_distortions(scenario, distortions))
    sup = sup_bound_lhs(scenario, distortions, target=threshold, _grid=_grid, _chain=chain)
    member = sup.sup_value <= threshold
    certified = sup.sup_upper <= threshold if member else _above(chain, sup.argmax_tau.taus, threshold)
    return MembershipVerdict(member, certified, sup, rhs - sup.sup_value, rhs, rel_tol)


def _above(chain: _Chain, taus: Sequence[float], threshold: float) -> bool:
    """lhs at ``taus`` above ``threshold`` in exact arithmetic (``_Chain.lhs_error``)?"""
    value, error = chain.lhs_error(taus)
    return value - error > threshold


class _Witness:
    """lhs at one schedule as a function of D_K, the rest of D fixed.

    Only the last term depends on D_K: it is C (1 + tau_{K-1} / D_K)^(1/b),
    or C' D_K^(-1/b) when tau_{K-1} = +inf or K = 1, so the curve is convex
    and nonincreasing.  ``chain`` holds the prefix and any D_K, the
    reference; its terms there (``_Chain.terms``) give the sum of the first
    K - 1 (which do not depend on D_K) and the last term, and the curve
    elsewhere rescales that last term in closed form.
    """

    def __init__(self, chain: _Chain, taus: Sequence[float]) -> None:
        self.taus = tuple(taus)
        terms = chain.terms(*chain.log_factors(taus))
        self.head, self.last = _total(terms[:-1]), terms[-1]
        self.ref = chain.d[-1]
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
        is the probe?  The curve screens in closed form; ``_above`` decides,
        so a True certifies D a non-member as ``in_outer_region`` would."""
        return self.value(d.values[-1]) > target and _above(_Chain(scenario, d), self.taus, target)

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

    def reach(self, target: float, lo: float, anchor: tuple[float, float]) -> float:
        """Predicted boundary: where the curve plus gamma / 2 (D_K - lo)^2 first
        falls to ``target``.

        The curve is lo's witness; the supremum exceeds it by a gap that
        grows from about 0 at lo, and gamma fits a quadratic gap to the
        supremum's lower value at ``anchor`` = (D_K, sup_value).  Newton
        steps from the curve's own root climb the convex model from below.
        A model whose minimum stays above the target (a double root, where
        the curve only grazes it) predicts its minimizer.  Without a usable
        gamma the prediction is the curve's root.
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
            if step <= 0.25 * TRACE_WIDTH:
                return x


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
    D_K,min - TRACE_WIDTH is not.  TRACE_WIDTH is absolute, so that
    contract says nothing about a boundary far below 1e-10: at
    P = 95.67240021999338, N = (13.820243397254648, 0.01807419458336848),
    b = 4.788951757166499 and D_1 = 0.002493537296150577 the result is
    2.5e-11, about 10^7 times D_2* = 1.47e-18, while D_2 = 1e-17 is a
    certified member and 3e-18 a certified non-member.

    The search keeps a bracket (lo, hi] with lo a non-member and hi a
    member.  D_K enters only the last term of the chain, so the supremum
    is convex and nonincreasing in D_K (``_Witness``), and lo's witness
    curve lies below it: that curve's root is at or below the boundary.
    Each probe aims just below the predicted boundary (``_Witness.reach``:
    the root, corrected by the curvature that hi, or the probe before lo,
    shows), and never below the root, so most probes are non-members that
    climb toward the boundary faster than Newton's method.  A root off the
    bracket by more than TRACE_WIDTH (rounding can put a converged root
    just outside), or three probes in a row that fail to halve a bracket
    whose hi is a member, give a bisection step instead.  lo starts at
    D_K* / 2, which the step schedule (+inf, ..., +inf, 0) already
    excludes, so that schedule is the first witness.  Every probe is
    first tested against lo's witness (``_Witness.violates``); if that
    schedule violates the bound at x by more than its rounding bound, x is
    a certified non-member and takes no supremum call, and lo moves to x
    with the same witness.  So the result is the one the supremum calls
    would give, unless a supremum would call x a member where a known
    schedule violates the bound.

    hi starts at N_S, which is probed only when needed: a member probe
    below N_S shows that N_S is a member too.  N_S is probed when lo's
    witness cannot reach the target below it (its root is NaN or beyond
    N_S).  Raises InfeasibleEverywhere when that probe fails (some fixed
    distortion is below its own floor); this takes 1 supremum call on the
    b <= 1 prefixes seen, and 1 to 5 at b > 1, where a witness's root can
    lie below N_S for a few probes first.  A b <= 1 row takes 1: a member
    probe just above the step schedule's root, then a closing probe just
    below it that the step schedule excludes.

    Between the probes of a row only D_K moves, so at b > 1 each supremum
    call after the row's first starts from the final grid of the one
    before it (``in_outer_region``'s ``_grid``, a list local to this
    call): that grid is already fine where the witness's entries sit, and
    most member probes then certify in one search round, not two.  Each
    row starts from a fresh first grid, and so does a probe whose kept
    grid has grown past GRID_POINTS + POINT_BUDGET points (``_search``), so
    rows do not depend on one another or on their order.
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
    grid: list = []  # the last b > 1 search's final grid, where the next one starts
    member_hi = False
    lo_value = anchor = None  # sup_value at lo once probed; (D_K, sup_value) for reach
    stalled = 0  # probes in a row that failed to halve a bracket with a member hi
    while not (member_hi and hi - lo <= TRACE_WIDTH):
        width = hi - lo
        root = witness.root(target)
        bisect = stalled == 3 or not lo - TRACE_WIDTH < root < hi + TRACE_WIDTH
        if bisect and not member_hi:
            x = hi  # N_S, not yet probed
        elif bisect:
            x = 0.5 * (lo + hi)
        else:
            aim = witness.reach(target, lo, anchor) if anchor else root
            x = max(lo + 0.25 * TRACE_WIDTH, aim - 0.5 * TRACE_WIDTH, root + 0.25 * TRACE_WIDTH)
            x = min(x, hi - 0.5 * TRACE_WIDTH) if member_hi else min(x, hi)
        d = DistortionTuple(fixed_vals + (x,))
        if witness.violates(scenario, d, target):
            verdict = None  # lo's witness already excludes x
        else:
            verdict = in_outer_region(scenario, d, rel_tol=rel_tol, _grid=grid)
        if verdict and verdict.member:
            hi, member_hi, anchor = x, True, (x, verdict.sup.sup_value)
        elif x == hi and not member_hi:
            raise InfeasibleEverywhere(
                f"no feasible D_{k_total} up to N_S = {hi} for fixed prefix {fixed_vals}"
            )
        elif verdict is None:
            lo, lo_value = x, None  # the witness excludes x too; its supremum is not known
        else:
            taus = verdict.sup.argmax_tau.taus
            if not member_hi and lo_value is not None:
                anchor = (lo, lo_value)
            lo, lo_value, witness = x, verdict.sup.sup_value, _Witness(chain, taus)
        if member_hi:
            stalled = 0 if bisect or hi - lo <= 0.5 * width else stalled + 1
    return hi
