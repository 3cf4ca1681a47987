"""Evaluation of the schedule-indexed outer-bound functional.

For a scenario (P, N_1..N_K, b, N_S), distortions D and schedule tau the
left-hand side of the outer-bound inequality is

    lhs = sum_k dN_k * [ (N_S + tau_k) / (D_1 + tau_1)
                         * prod_{j=2..k} (D_j + tau_{j-1}) / (D_j + tau_j) ]^(1/b)

with dN_k = N_k - N_{k+1} (dN_K = N_K), and the distortion tuple can be
achievable only if lhs <= P + N_1 for every admissible schedule.

Regrouped, every factor depends on a single schedule entry:

    term_k = dN_k * [ g_k(tau_k) * prod_{j<k} h_j(tau_j) ]^(1/b)
    g_k(tau) = (N_S + tau) / (D_k + tau),   h_j(tau) = (D_{j+1} + tau) / (D_j + tau)

so lhs = a_1 + c_1 (a_2 + c_2 (... + c_{K-1} a_K)) with a_k = dN_k g_k^(1/b)
and c_j = h_j^(1/b) > 0.  ``_Chain.log_factors`` computes log g and log h
at one schedule, for the evaluator here; ``_Chain.links`` computes a_k and
c_k for every free receiver on a whole grid of entries, for the supremum
search in ``membership``, with the same arithmetic.  Each log is one log1p
of a nonnegative ratio, (N_S - D_k) / (D_k + tau) for g and
|D_{k+1} - D_k| / (min(D_k, D_{k+1}) + tau) for h, which takes the sign of
D_{k+1} - D_k; both ratios are exactly 0 at tau = +inf.  An infinite entry
thus contributes g = h = 1, which is the shared-rate limit (all infinite
entries diverge together) with no separate code path.  Each term is summed
in the log domain before one exp: the bracket raised to 1/b overflows
quickly for small b if formed as a plain product.  A term past the float
range is +inf, and so is the left-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import (
    BroadcastScenario,
    DistortionTuple,
    TauSchedule,
    check_distortions,
)
from .errors import InvalidTauSchedule, NonFiniteTau, StepOutOfDomain

__all__ = [
    "BoundEvaluation",
    "bound_rhs",
    "eval_lhs",
    "reduced_bound_value",
    "check_inequality",
    "finite_diff_partials",
]

DEFAULT_REL_TOL = 1e-9

Distortions = Union[DistortionTuple, Sequence[float]]
Schedule = Union[TauSchedule, Sequence[float]]


@dataclass(frozen=True)
class BoundEvaluation:
    """One inequality check: lhs vs rhs = P + N_1.

    ``satisfied`` allows the stated relative tolerance, so it is
    equivalent to slack >= -tolerance * rhs.
    """

    lhs: float
    rhs: float
    satisfied: bool
    slack: float
    tolerance: float = DEFAULT_REL_TOL


def bound_rhs(scenario: BroadcastScenario) -> float:
    """Right-hand side of every inequality in the family: P + N_1."""
    return scenario.power + scenario.noises[0]


class _Chain:
    """The functional at one fixed (scenario, D), ready for repeated evaluation.

    Inputs are taken as already validated; the public functions validate.
    log h_k = sign_k log1p(delta_k / (base_k + tau)), with delta_k =
    |D_{k+1} - D_k| >= 0, base_k = min(D_k, D_{k+1}) and sign_k = -1 where
    D_{k+1} < D_k, else +1 (delta_K = 0, so h_K = 1).
    """

    def __init__(self, scenario: BroadcastScenario, d: DistortionTuple) -> None:
        self.ns = scenario.source_var
        self.b = scenario.bandwidth
        self.dn = np.array(scenario.delta_noises())
        self.d = np.array(d.values)
        d_next = np.append(self.d[1:], self.d[-1])
        self.gap = self.ns - self.d
        self.delta = np.abs(d_next - self.d)
        self.base = np.minimum(self.d, d_next)
        self.sign = np.where(d_next < self.d, -1.0, 1.0)

    def log_factors(self, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """log g_k(tau_k) and log h_k(tau_k) at one schedule (shape (K,)).

        Each is one log1p of a ratio >= 0, so h stays accurate when
        D_{k+1} << D_k, and each ratio is exactly 0 at tau = +inf.
        """
        log_g = np.log1p(self.gap / (self.d + taus))
        return log_g, self.sign * np.log1p(self.delta / (self.base + taus))

    def links(self, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """The chain's links a_k = dN_k g_k^(1/b) and c_k = h_k^(1/b) on ``grid``.

        Returns a and c for the K - 1 free receivers as (K - 1, M) arrays,
        row k - 1 for receiver k, and the last link a_K(0).  Both arrays
        are built in place in one allocation: a fresh temporary at every
        step, or two allocations that the C allocator can hand back to the
        system after each pass, cost more than the arithmetic at K = 16.
        Dividing by sign_k b gives exactly log h_k / b.  Entries past the
        float range are +inf (or 0).
        """
        free = len(self.d) - 1
        col = (slice(None, free), None)
        a, c = np.empty((2, free, len(grid)))
        np.add(self.d[col], grid, out=a)
        np.divide(self.gap[col], a, out=a)
        np.log1p(a, out=a)
        np.divide(a, self.b, out=a)
        np.exp(a, out=a)
        np.multiply(a, self.dn[col], out=a)
        np.add(self.base[col], grid, out=c)
        np.divide(self.delta[col], c, out=c)
        np.log1p(c, out=c)
        np.divide(c, self.b * self.sign[col], out=c)
        np.exp(c, out=c)
        last = self.dn[-1] * np.exp(np.log1p(self.gap[-1] / self.d[-1]) / self.b)
        return a, c, last

    def _log_brackets(self, taus: Sequence[float]) -> np.ndarray:
        """log of each term's bracket raised to 1/b, at one schedule."""
        log_g, log_h = self.log_factors(np.array(taus))
        log_g[1:] += np.cumsum(log_h[:-1])
        return log_g / self.b

    def lhs(self, taus: Sequence[float]) -> float:
        """Left-hand side at one schedule, each term summed in the log domain.

        A term past the float range makes it +inf.
        """
        with np.errstate(over="ignore"):
            return float(self.dn @ np.exp(self._log_brackets(taus)))

    def split_last(self, taus: Sequence[float]) -> tuple[float, float]:
        """Left-hand side at one schedule as (first K - 1 terms, last term).

        D_K enters only the last term, through g_K(0) = N_S / D_K and h_{K-1}.
        """
        with np.errstate(over="ignore"):
            terms = self.dn * np.exp(self._log_brackets(taus))
        return float(terms[:-1].sum()), float(terms[-1])


def eval_lhs(
    scenario: BroadcastScenario, distortions: Distortions, tau: Schedule
) -> float:
    """Left-hand side at one schedule; +inf entries take the shared-rate limit."""
    d = check_distortions(scenario, distortions)
    t = TauSchedule.of(tau)
    _check_schedule_length(t, scenario)
    return _Chain(scenario, d).lhs(t.taus)


def _check_schedule_length(t: TauSchedule, scenario: BroadcastScenario) -> None:
    if len(t) != scenario.num_receivers:
        raise InvalidTauSchedule(
            f"schedule length {len(t)} != {scenario.num_receivers} receivers"
        )


def reduced_bound_value(
    scenario: BroadcastScenario, distortions: Distortions, k: int
) -> float:
    """Closed form of the bound at the step schedule isolating receiver k:

        (N_1 - N_k) + N_k * (N_S / D_k)^(1/b).

    Comparing this with P + N_1 is algebraically the point-to-point
    constraint D_k >= D_k*.
    """
    scenario._check_index(k)
    d = check_distortions(scenario, distortions)
    ns = scenario.source_var
    nk = scenario.noises[k - 1]
    log_ratio = math.log(ns) - math.log(d.values[k - 1])
    return (scenario.noises[0] - nk) + nk * math.exp(log_ratio / scenario.bandwidth)


def check_inequality(
    scenario: BroadcastScenario,
    distortions: Distortions,
    tau: Schedule,
    rel_tol: float = DEFAULT_REL_TOL,
) -> BoundEvaluation:
    """Evaluate the inequality lhs <= P + N_1 at one schedule.

    The comparison tolerance is relative to the right-hand side so that
    exact-equality cases (matched bandwidth at the trivial point)
    classify as satisfied under round-off.
    """
    lhs = eval_lhs(scenario, distortions, tau)
    rhs = bound_rhs(scenario)
    slack = rhs - lhs
    satisfied = lhs <= rhs * (1.0 + rel_tol)
    return BoundEvaluation(lhs=lhs, rhs=rhs, satisfied=satisfied, slack=slack, tolerance=rel_tol)


def finite_diff_partials(
    scenario: BroadcastScenario,
    distortions: Distortions,
    tau: Schedule,
    h: float | None = None,
) -> tuple[float, ...]:
    """Central finite-difference estimates of d(lhs)/d(D_k), all k.

    The functional is monotonically nonincreasing in every D_k, so all
    estimates should be <= 0 up to discretisation error.  Requires a
    finite schedule and an interior point: D_k +- h must stay inside
    (0, N_S).
    """
    d = check_distortions(scenario, distortions)
    t = TauSchedule.of(tau)
    _check_schedule_length(t, scenario)
    if not t.is_finite:
        raise NonFiniteTau("partials are defined along the finite-schedule path")
    if h is None:
        h = 1e-7 * scenario.source_var
    if not h > 0.0:
        raise StepOutOfDomain(f"step must be > 0, got {h}")
    out = []
    vals = list(d.values)
    for i in range(len(vals)):
        up, down = vals[i] + h, vals[i] - h
        if not (0.0 < down and up < scenario.source_var):
            raise StepOutOfDomain(
                f"D_{i + 1} +- h leaves (0, N_S): {vals[i]} +- {h}"
            )
        vals[i] = up
        f_up = _Chain(scenario, DistortionTuple(tuple(vals))).lhs(t.taus)
        vals[i] = down
        f_down = _Chain(scenario, DistortionTuple(tuple(vals))).lhs(t.taus)
        vals[i] = d.values[i]
        out.append((f_up - f_down) / (2.0 * h))
    return tuple(out)
