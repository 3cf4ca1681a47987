import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gbcbound._search import _columns, _links
from gbcbound.bound import (
    _Chain,
    check_inequality,
    eval_lhs,
    reduced_bound_value,
)
from gbcbound.core import (
    BroadcastScenario,
    check_distortions,
    step_schedule,
    trivial_distortions,
)
from gbcbound.errors import InvalidDistortion, InvalidTauSchedule
from gbcbound.verify import random_distortions, random_scenario, random_schedule


def lhs_product_oracle(scenario, distortions, taus):
    """Independent oracle: the raw product form, no log domain.

    term_k = dN_k * [ (N_S + tau_k) * prod_{j=2..k} (D_j + tau_{j-1})
                      / prod_{j=1..k} (D_j + tau_j) ]^(1/b)
    """
    ns, b = scenario.source_var, scenario.bandwidth
    deltas = scenario.delta_noises()
    d = tuple(distortions)
    total = 0.0
    for k in range(1, scenario.num_receivers + 1):
        num = (ns + taus[k - 1]) * math.prod(d[j - 1] + taus[j - 2] for j in range(2, k + 1))
        den = math.prod(d[j - 1] + taus[j - 1] for j in range(1, k + 1))
        total += deltas[k - 1] * (num / den) ** (1.0 / b)
    return total


S_MATCHED = BroadcastScenario(3, [3, 1], 1)
S_EXPAND = BroadcastScenario(3, [3, 1], 2)
S_COMPRESS = BroadcastScenario(3, [3, 1], 0.5)


def test_eval_hand_value():
    # 2*(2/1.5) + 1*(1.25/0.375) = 8/3 + 10/3 = 6
    assert eval_lhs(S_MATCHED, (0.5, 0.25), (1, 0)) == pytest.approx(6.0, rel=1e-12)


def test_eval_matches_product_oracle():
    val = eval_lhs(S_EXPAND, (0.25, 0.0625), (1, 0))
    oracle = lhs_product_oracle(S_EXPAND, (0.25, 0.0625), (1.0, 0.0))
    assert val == pytest.approx(oracle, rel=1e-12)
    assert val == pytest.approx(6.217639911051858, rel=1e-12)


def test_eval_zero_schedule_collapse():
    # at tau = 0 only D_1 matters: lhs = N_1 * (N_S / D_1)^(1/b)
    for sc in (S_MATCHED, S_EXPAND, S_COMPRESS):
        for d1 in (0.1, 0.37, 0.9):
            got = eval_lhs(sc, (d1, d1 / 2), (0, 0))
            want = sc.noises[0] * (sc.source_var / d1) ** (1.0 / sc.bandwidth)
            assert got == pytest.approx(want, rel=1e-12)


def test_eval_infinite_entry_is_shared_rate_limit():
    # tau_1 = +inf: term 1 tends to dN_1 and term 2 to N_2 (N_S / D_2)^(1/b)
    for sc in (S_MATCHED, S_EXPAND, S_COMPRESS):
        got = eval_lhs(sc, (0.5, 0.25), (math.inf, 0))
        want = (3 - 1) + 1 * (1 / 0.25) ** (1 / sc.bandwidth)
        assert got == pytest.approx(want, rel=1e-12)


def test_eval_rejects_bad_distortions():
    with pytest.raises(InvalidDistortion):
        eval_lhs(S_MATCHED, (0.5,), (1, 0))  # wrong length
    with pytest.raises(InvalidDistortion):
        eval_lhs(S_MATCHED, (1.5, 0.25), (1, 0))  # above source variance
    with pytest.raises(InvalidTauSchedule):
        eval_lhs(S_MATCHED, (0.5, 0.25), (1, 0, 0))  # schedule length


def test_extended_two_user_closed_form():
    for d2 in (0.1, 0.25, 0.8):
        got = eval_lhs(S_MATCHED, (0.5, d2), (math.inf, 0))
        want = (3 - 1) + 1 * (1 / d2) ** 1.0
        assert got == pytest.approx(want, rel=1e-12)


def test_extended_limit_of_finite_evaluations():
    """Oracle: finite evaluations at tau = 1e3, 1e6, 1e9 converge to the limit."""
    rng = random.Random(7)
    for _ in range(20):
        sc = random_scenario(rng, k_range=(2, 5))
        d = random_distortions(rng, sc)
        k_total = sc.num_receivers
        k = rng.randint(2, k_total)
        limit = eval_lhs(sc, d, step_schedule(k_total, k))
        gaps = []
        for big in (1e3, 1e6, 1e9):
            taus = (big,) * (k - 1) + (0.0,) * (k_total - k + 1)
            gaps.append(abs(eval_lhs(sc, d, taus) - limit))
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert gaps[2] < 1e-6 * max(1.0, abs(limit))


def test_extended_three_user_step():
    sc = BroadcastScenario(3, [4, 2, 1], 1.3)
    d = (0.7, 0.4, 0.2)
    got = eval_lhs(sc, d, step_schedule(3, 2))
    want = (4 - 2) + 2 * (1 / 0.4) ** (1 / 1.3)
    assert got == pytest.approx(want, rel=1e-12)


def test_reduced_bound_examples():
    assert reduced_bound_value(S_MATCHED, (0.5, 0.25), 2) == pytest.approx(6.0, rel=1e-12)
    # k = 1: the difference term vanishes
    assert reduced_bound_value(S_EXPAND, (0.25, 0.0625), 1) == pytest.approx(
        3 * (1 / 0.25) ** 0.5, rel=1e-12
    )
    sc1 = BroadcastScenario(1, [1], 1)
    assert reduced_bound_value(sc1, (0.5,), 1) == pytest.approx(2.0, rel=1e-12)


def test_reduced_bound_past_float_range_is_inf():
    """At b = 0.0009 the closed form is past the float range: +inf, as the
    evaluator gives at the same step schedule, not an OverflowError."""
    sc = BroadcastScenario(3, [3, 1], 0.0009)
    d = (0.99995, 0.49)
    assert reduced_bound_value(sc, d, 2) == math.inf
    assert eval_lhs(sc, d, step_schedule(2, 2)) == math.inf


def test_eval_sum_past_float_range_is_inf():
    """Finite terms whose sum passes the float range give +inf too, not the
    OverflowError that math.fsum raises there: at b = 0.5, D_1 = 1e-154 and
    tau = (0, 0) both terms are about 1e308."""
    sc = BroadcastScenario(1, [2, 1], 0.5)
    d = (1e-154, 0.5)
    chain = _Chain(sc, check_distortions(sc, d))
    assert all(1e308 <= term < math.inf for term in chain.terms(*chain.log_factors((0.0, 0.0))))
    assert eval_lhs(sc, d, (0.0, 0.0)) == math.inf


def test_reduction_identity_tight():
    """Extended evaluation at a step schedule equals the closed form to 1e-12."""
    rng = random.Random(11)
    for _ in range(100):
        sc = random_scenario(rng)
        d = random_distortions(rng, sc)
        for k in range(1, sc.num_receivers + 1):
            ext = eval_lhs(sc, d, step_schedule(sc.num_receivers, k))
            red = reduced_bound_value(sc, d, k)
            assert abs(ext - red) <= 1e-12 * abs(red)


def test_check_inequality_matched_equality():
    dstar = trivial_distortions(S_MATCHED)
    for taus in ((0, 0), (1, 0), (17.3, 0), (math.inf, 0)):
        ev = check_inequality(S_MATCHED, dstar, taus)
        assert ev.satisfied
        assert abs(ev.slack) <= 1e-9 * ev.rhs


def test_check_inequality_expansion_violation():
    ev = check_inequality(S_EXPAND, trivial_distortions(S_EXPAND), (1, 0))
    assert not ev.satisfied
    assert ev.slack < 0


def test_check_inequality_compression_slack():
    dstar = trivial_distortions(S_COMPRESS)
    ev = check_inequality(S_COMPRESS, dstar, (1, 0))
    oracle = lhs_product_oracle(S_COMPRESS, dstar.values, (1.0, 0.0))
    assert ev.satisfied and ev.slack > 0
    assert ev.lhs == pytest.approx(oracle, rel=1e-12)
    assert ev.lhs == pytest.approx(5.833477758629536, rel=1e-12)
    assert ev.lhs == pytest.approx(5.8335, abs=5e-4)


def test_scaling_invariance():
    rng = random.Random(3)
    for _ in range(50):
        sc = random_scenario(rng)
        d = random_distortions(rng, sc)
        tau = random_schedule(rng, sc.num_receivers)
        base = check_inequality(sc, d, tau)
        for c in (0.1, 1.0, 10.0):
            scaled = check_inequality(sc.scaled(c), d, tau)
            assert scaled.satisfied == base.satisfied
            assert scaled.lhs == pytest.approx(c * base.lhs, rel=1e-9)
            assert scaled.rhs == pytest.approx(c * base.rhs, rel=1e-12)


def test_partials_zero_schedule():
    """At tau = 0 the functional is N_1 (N_S / D_1)^(1/b): forward differences
    match its derivative in D_1 and vanish in the other coordinates."""
    sc = BroadcastScenario(2.5, [5, 2, 0.7], 1.7)
    d, h = (0.9, 0.5, 0.2), 1e-7
    val = eval_lhs(sc, d, (0, 0, 0))
    parts = [(eval_lhs(sc, d[:k] + (d[k] + h,) + d[k + 1:], (0, 0, 0)) - val) / h for k in range(3)]
    assert parts[1] == 0.0 and parts[2] == 0.0
    analytic = -(sc.noises[0] / sc.bandwidth) * 0.9 ** (-(1 / sc.bandwidth) - 1)
    assert parts[0] == pytest.approx(analytic, rel=1e-4)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.2, max_value=5.0),
)
def test_lhs_positive_and_oracle_consistent(d1, d2, tau1, b):
    sc = BroadcastScenario(3, [3, 1], b)
    val = eval_lhs(sc, (d1, d2), (tau1, 0.0))
    assert val > 0
    assert val == pytest.approx(lhs_product_oracle(sc, (d1, d2), (tau1, 0.0)), rel=1e-9)


def _log_ratio(num, den, tau):
    """log((num + tau) / (den + tau)) to 50 digits; 0 at tau = +inf."""
    if tau == math.inf:
        return 0.0
    with localcontext() as ctx:
        ctx.prec = 50
        return float(((Decimal(num) + Decimal(tau)) / (Decimal(den) + Decimal(tau))).ln())


@pytest.mark.parametrize("d1, d2", [(0.3, 0.3), (1.0, 1e-12), (1e-12, 1.0)])
@pytest.mark.parametrize("tau", [0.0, 1e12, math.inf])
def test_log_factors_match_high_precision_reference(d1, d2, tau):
    """log h_1 = log((D_2 + tau) / (D_1 + tau)) and log g_k = log((N_S + tau) / (D_k + tau))
    within a few ulps of a 50-digit reference, at D_2 / D_1 = 1, 1e-12 and
    1e12 and tau = 0, 1e12 and +inf; exact where the reference is 0."""
    sc = BroadcastScenario(1, [1, 0.5], 0.5)
    log_g, log_h = _Chain(sc, check_distortions(sc, (d1, d2))).log_factors([tau, 0.0])
    pairs = [(log_h[0], _log_ratio(d2, d1, tau)), (log_h[1], 0.0),
             (log_g[0], _log_ratio(1.0, d1, tau)), (log_g[1], _log_ratio(1.0, d2, 0.0))]
    for got, want in pairs:
        assert abs(got - want) <= 4 * math.ulp(want), (got, want)


def _power_reference(num, den, tau, b):
    """((num + tau) / (den + tau))^(1 / b) to 50 digits; 1 at tau = +inf."""
    if tau == math.inf:
        return Decimal(1)
    with localcontext() as ctx:
        ctx.prec = 50
        t = Decimal(tau)
        return (((Decimal(num) + t) / (Decimal(den) + t)).ln() / Decimal(b)).exp()


def test_links_within_rounding_allowance_of_reference():
    """Each link the supremum's recursion runs on, a_k = dN_k g_k^(1/b) and
    c_k = h_k^(1/b) for every free receiver on a grid, and a_K(0), lies
    within lam = 4 eps (Y + 1) of its 50-digit value, Y the largest
    exponent log(N_S / D_k) / b: the allowance that ``sup_upper``'s
    rounding analysis (``_search._enclosure``) takes for a link."""
    rng = random.Random(5)
    grid = np.concatenate(([0.0], np.geomspace(1e-4, 1e4, 7), [math.inf]))
    for k in (1, 2, 5, 16):
        sc = random_scenario(rng, k_range=(k, k), min_ratio=1.05)
        d = random_distortions(rng, sc)
        ns, b, noises = sc.source_var, sc.bandwidth, sc.noises + (0.0,)
        chain = _Chain(sc, check_distortions(sc, d))
        a, c, last = _links(chain, _columns(chain), grid)
        assert a.shape == c.shape == (k - 1, len(grid))
        lam = Decimal(4 * math.ulp(1.0) * (math.log(ns / min(d)) / b + 1.0))
        dn = [Decimal(noises[j]) - Decimal(noises[j + 1]) for j in range(k)]
        pairs = [(last, dn[-1] * _power_reference(ns, d[-1], 0.0, b))]
        for j, tau in enumerate(grid.tolist()):
            for i in range(k - 1):
                pairs.append((a[i, j], dn[i] * _power_reference(ns, d[i], tau, b)))
                pairs.append((c[i, j], _power_reference(d[i + 1], d[i], tau, b)))
        for got, want in pairs:
            assert abs(Decimal(float(got)) - want) <= lam * want, (k, got, want)
