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
and c_j = h_j^(1/b) > 0.  ``_Chain.log_factors`` computes log g and log h,
for one schedule or a whole grid of entries; the evaluator here and the
supremum search in ``membership`` both use it.  The logs are formed from
log1p of nonnegative ratios such as (N_S - D_k) / (D_k + tau), which are
exactly 0 at tau = +inf.  An infinite entry thus contributes g = h = 1,
which is the shared-rate limit (all infinite entries diverge together)
with no separate code path.  Each term is summed in the log domain before
one exp: the bracket raised to 1/b overflows quickly for small b if
formed as a plain product.
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
    """

    def __init__(self, scenario: BroadcastScenario, d: DistortionTuple) -> None:
        self.ns = scenario.source_var
        self.b = scenario.bandwidth
        self.dn = np.array(scenario.delta_noises())
        self.d = np.array(d.values)
        self.d_next = np.append(self.d[1:], self.d[-1])  # D_{k+1}, with h_K = 1
        self.gap = self.ns - self.d
        self.rise = np.maximum(self.d_next - self.d, 0.0)
        self.fall = np.maximum(self.d - self.d_next, 0.0)

    def log_factors(self, tau, k=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """log g_k(tau) and log h_k(tau) for the receivers ``k`` (default all), elementwise.

        ``tau`` broadcasts against the selected D entries: one schedule
        (shape (K,)) for all receivers, or a grid of entries or a scalar
        for one receiver.  Every log1p argument is >= 0, so h stays
        accurate when D_{k+1} << D_k, and every one is exactly 0 at
        tau = +inf.  log h_K is 0.
        """
        den = self.d[k] + tau
        log_h = np.log1p(self.rise[k] / den) - np.log1p(self.fall[k] / (self.d_next[k] + tau))
        return np.log1p(self.gap[k] / den), log_h

    def links(self, tau, k=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """The chain's a_k = dN_k g_k^(1/b) and c_k = h_k^(1/b) at ``tau``, elementwise."""
        log_g, log_h = self.log_factors(tau, k)
        return self.dn[k] * np.exp(log_g / self.b), np.exp(log_h / self.b)

    def _log_brackets(self, taus: Sequence[float]) -> np.ndarray:
        """log of each term's bracket raised to 1/b, at one schedule."""
        log_g, log_h = self.log_factors(np.array(taus))
        log_g[1:] += np.cumsum(log_h[:-1])
        return log_g / self.b

    def lhs(self, taus: Sequence[float]) -> float:
        """Left-hand side at one schedule, each term summed in the log domain."""
        return float(self.dn @ np.exp(self._log_brackets(taus)))

    def split_last(self, taus: Sequence[float]) -> tuple[float, float]:
        """Left-hand side at one schedule as (first K - 1 terms, last term).

        D_K enters only the last term, through g_K(0) = N_S / D_K and h_{K-1}.
        """
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
