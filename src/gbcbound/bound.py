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
at one schedule in Python floats, for the evaluator here; ``_search._links``
computes a_k and c_k for every free receiver on a whole grid of entries,
for the b > 1, K >= 3 supremum, in the same steps in numpy, whose exp and log1p
may differ from math's by an ulp.  Each log is one log1p of a
nonnegative ratio, (N_S - D_k) / (D_k + tau) for g and |D_{k+1} - D_k| /
(min(D_k, D_{k+1}) + tau) for h, which takes the sign of D_{k+1} - D_k;
both ratios are exactly 0 at tau = +inf.  An infinite entry
thus contributes g = h = 1, which is the shared-rate limit (all infinite
entries diverge together) with no separate code path.  Each term is summed
in the log domain before one exp: the bracket raised to 1/b overflows
quickly for small b if formed as a plain product.  The terms are summed
with math.fsum, rounded once.  A term past the float range is +inf, and so
is the left-hand side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

from .core import (
    BroadcastScenario,
    DistortionTuple,
    TauSchedule,
    check_distortions,
)
from .errors import InvalidTauSchedule

__all__ = [
    "BoundEvaluation",
    "bound_rhs",
    "eval_lhs",
    "reduced_bound_value",
    "check_inequality",
]

DEFAULT_REL_TOL = 1e-9
_EPS = math.ulp(1.0)

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
    D_{k+1} < D_k, else +1 (delta_K = 0, so h_K = 1).  The per-schedule
    evaluator (``log_factors``, ``terms``, ``lhs``) works on these as Python
    floats, with math.log1p and math.exp, and sums the terms with math.fsum:
    a numpy call on a length-K array costs more than the arithmetic.
    """

    def __init__(self, scenario: BroadcastScenario, d: DistortionTuple) -> None:
        self.ns = ns = scenario.source_var
        self.b = scenario.bandwidth
        self.n = scenario.noises
        self.dn = scenario.delta_noises()
        self.d = values = d.values
        self.gap, self.delta, self.base, self.sign = [], [], [], []
        for x, y in zip(values, values[1:] + values[-1:]):
            self.gap.append(ns - x)
            self.delta.append(x - y if y < x else y - x)
            self.base.append(y if y < x else x)
            self.sign.append(-1.0 if y < x else 1.0)

    def rho(self) -> float:
        """A stage's outward rounding rho = eps (4 Y + 8) (``_search._enclosure``).

        Y bounds every exponent |log g_k| / b and |log h_k| / b over all
        tau: each is largest at tau = 0, and there the largest is log g at
        the smallest D_k, since |D_{k+1} - D_k| <= N_S - min(D_k, D_{k+1})
        and each ratio's rounding is monotone.
        """
        low = min(self.d)
        return _EPS * (4.0 * math.log1p((self.ns - low) / low) / self.b + 8.0)

    def turn(self, k: int, j: int, log_v: float, lo: float, hi: float) -> float:
        """The tau in [lo, hi] that maximizes the functional over one run of
        equal entries tau_k = ... = tau_j (0-based), the others held, where
        ``log_v`` is the log of the later stages' value V there.

        The run's stages telescope into A g^(1/b) + V h^(1/b), A = N_k -
        N_{j+1}, g = (N_S + tau) / (D_k + tau), h = (D_{j+1} + tau) / (D_k +
        tau), both affine in u = 1 / (D_k + tau), so at b > 1 it is concave in
        u and its maximum is its stationary point clamped to [lo, hi].  There
        g / h = r = (-beta / alpha)^(b / (1 - b)), alpha = A (N_S - D_k) and
        beta = V (D_{j+1} - D_k); g / h falls from N_S / D_{j+1} at tau = 0 to
        1 at +inf.  log r is formed from the logs of its factors, so nothing
        over- or underflows, and tau = (N_S - r D_{j+1}) / (r - 1) as (N_S / r
        - D_{j+1}) / (1 - 1 / r).  The functional rises with u where D_{j+1}
        >= D_k or V = 0 (tau is lo), and falls where D_k = N_S or V is past
        the float range (tau is hi).
        """
        d, below, b = self.d[k], self.d[j + 1], self.b
        if below >= d:
            return lo
        gap = self.gap[k]
        if gap == 0.0:
            return hi
        log = math.log
        top = math.log1p((self.ns - below) / below)  # log(N_S / D_{j+1}), g / h at tau = 0
        log_r = b / (1.0 - b) * (log_v + log(d - below) - log(self.n[k] - self.n[j + 1]) - log(gap))
        if log_r <= 0.0:
            tau = math.inf
        elif log_r >= top:
            tau = 0.0
        else:
            tau = max((self.ns * math.exp(-log_r) - below) / -math.expm1(-log_r), 0.0)
        return min(max(tau, lo), hi)

    def log_factors(self, taus: Sequence[float]) -> tuple[list[float], list[float]]:
        """log g_k(tau_k) and log h_k(tau_k) at one schedule.

        Each is one log1p of a ratio >= 0, so h stays accurate when
        D_{k+1} << D_k, and each ratio is exactly 0 at tau = +inf.
        """
        log1p, log_g, log_h = math.log1p, [], []
        for t, gap, x, sign, delta, base in zip(taus, self.gap, self.d, self.sign, self.delta, self.base):
            log_g.append(log1p(gap / (x + t)))
            log_h.append(sign * log1p(delta / (base + t)))
        return log_g, log_h

    def terms(self, log_g: Sequence[float], log_h: Sequence[float]) -> list[float]:
        """The K terms of the left-hand side from the log factors at one
        schedule (``log_factors``): term k is dN_k exp((log g_k + log h_1 +
        ... + log h_{k-1}) / b), the log h summed in order; a term past the
        float range is +inf."""
        out, run, b = [], 0.0, self.b
        for dn, g, h in zip(self.dn, log_g, log_h):
            try:
                out.append(dn * math.exp((g + run) / b))
            except OverflowError:
                out.append(math.inf)
            run += h
        return out

    def lhs(self, taus: Sequence[float]) -> float:
        """Left-hand side at one schedule; a term past the float range makes it +inf."""
        return _total(self.terms(*self.log_factors(taus)))

    def lhs_error(self, taus: Sequence[float]) -> tuple[float, float]:
        """``lhs`` at one schedule, and a bound e on its rounding error.

        eps = 2^-52; operations round within eps / 2, log1p and exp within
        4 ulps (tier-1 measures 2).  Each ratio's 3 eps / 2 moves its log1p
        at most that much relatively (r / (1 + r) <= log1p(r)), so a log
        factor l is within 5.5 eps |l|, and term k's exponent, k of them
        summed over b, within dy_k = eps (5.5 + k / 2) L_k / b, L_k their
        absolute sum.  exp, dN_k and the fsum add (4.5 + K / 2) eps, so lhs
        is within E = 2 sum_k T_k (expm1(dy_k) + (4.5 + K / 2) eps); the 2
        covers T_k and this sum as computed, and second-order terms.  e = E
        + 4 eps (value + E) also covers comparing value -+ e with a threshold
        of at most three roundings from exact floats, (P + N_1)(1 + rel_tol):
        those and the rounding of value -+ e move it under 2 eps (1 + 4 eps)
        (value + e).  So value - e > threshold shows the exact lhs above the
        exact threshold, and value + e < threshold below it.  +inf: e = 0.
        """
        return self.rounding(taus)[:2]

    def rounding(self, taus: Sequence[float]) -> tuple[float, float, list[float]]:
        """``lhs_error``'s value and bound at one schedule, with the terms."""
        log_g, log_h = self.log_factors(taus)
        terms = self.terms(log_g, log_h)
        value = _total(terms)
        if value == math.inf:
            return value, 0.0, terms
        expm1, scale = math.expm1, _EPS / self.b
        spread, size, weight = 0.0, 0.0, 5.5  # size: sum of |log h_j| over j < k; weight: 5.5 + k / 2
        for term, g, h in zip(terms, log_g, log_h):  # log g >= 0
            weight += 0.5
            spread += term * expm1(weight * scale * (g + size))
            size += abs(h)
        error = 2.0 * (spread + (4.5 + len(terms) / 2) * _EPS * value)
        return value, error + 4.0 * _EPS * (value + error), terms


def _total(terms: Sequence[float]) -> float:
    """The sum of nonnegative terms, rounded once (math.fsum); +inf past the
    float range, where fsum itself raises on an intermediate overflow."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


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
    constraint D_k >= D_k*.  Past the float range (small b) it is +inf,
    as ``eval_lhs`` is at that schedule.
    """
    scenario._check_index(k)
    return _step_value(scenario, check_distortions(scenario, distortions).values, k)


def _step_value(scenario: BroadcastScenario, d: Sequence[float], k: int) -> float:
    """``reduced_bound_value`` on validated inputs, in Python floats: one
    log1p of (N_S - D_k) / D_k, as ``_Chain`` forms log g, one exp, one
    difference and one sum."""
    dk, nk = d[k - 1], scenario.noises[k - 1]
    try:
        growth = math.exp(math.log1p((scenario.source_var - dk) / dk) / scenario.bandwidth)
    except OverflowError:
        return math.inf
    return (scenario.noises[0] - nk) + nk * growth


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

