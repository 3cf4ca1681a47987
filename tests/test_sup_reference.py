"""The supremum's upper bound against a 50-digit evaluation of the functional.

``sup_upper`` claims to bound lhs(D, tau) over every schedule, float
rounding included, so it must lie above the exact value at any schedule
at all: the witness, every schedule on a small grid, and probes spread
over K, b, tau and SNR.  The reference works on the float inputs as exact
decimals, so it shares no arithmetic with the code under test.
"""

import itertools
import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest

from gbcbound.bound import _Chain, eval_lhs, reduced_bound_value
from gbcbound.core import BroadcastScenario, check_distortions, trivial_distortion
from gbcbound._search import GRID_POINTS, POINT_BUDGET, supremum
from gbcbound.membership import in_outer_region, sup_bound_lhs, trace_boundary
from gbcbound.verify import random_distortions, random_scenario

GRID = [0.0] + [10.0 ** e for e in range(-3, 4)] + [math.inf]


def _log_ratio(num, den, tau):
    """log((num + tau) / (den + tau)); 0 at tau = +inf."""
    if tau == math.inf:
        return Decimal(0)
    t = Decimal(tau)
    return ((num + t) / (den + t)).ln()


def lhs_reference(sc, d, taus):
    """sum_k dN_k [g_k(tau_k) prod_{j<k} h_j(tau_j)]^(1/b), to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        ns = Decimal(sc.source_var)
        ds = [Decimal(x) for x in d]
        noises = [Decimal(n) for n in sc.noises] + [Decimal(0)]
        total, log_h = Decimal(0), Decimal(0)
        for k, tau in enumerate(taus):
            log_g = _log_ratio(ns, ds[k], tau)
            total += (noises[k] - noises[k + 1]) * ((log_g + log_h) / Decimal(sc.bandwidth)).exp()
            if k + 1 < len(ds):
                log_h += _log_ratio(ds[k + 1], ds[k], tau)
        return total


def grid_max_reference(sc, d, grid):
    """max of ``lhs_reference`` over the schedules tau_1 >= ... >= tau_{K-1}
    on ``grid`` (ascending), tau_K = 0, to 50 digits.

    lhs = a_1 + c_1 (a_2 + ... + c_{K-1} a_K), with a_k = dN_k g_k^(1/b) and
    c_k = h_k^(1/b) depending on tau_k alone, so the best value with tau_k
    <= s is the running maximum best_k(s) = max_{tau <= s} a_k(tau) +
    c_k(tau) best_{k+1}(tau), and best_K = a_K(0).
    """
    with localcontext() as ctx:
        ctx.prec = 50
        ns, b = Decimal(sc.source_var), Decimal(sc.bandwidth)
        ds = [Decimal(x) for x in d]
        noises = [Decimal(n) for n in sc.noises] + [Decimal(0)]

        def a(k, tau):
            return (noises[k] - noises[k + 1]) * (_log_ratio(ns, ds[k], tau) / b).exp()

        best = [a(len(ds) - 1, 0.0)] * len(grid)
        for k in range(len(ds) - 2, -1, -1):
            values = [a(k, tau) + (_log_ratio(ds[k + 1], ds[k], tau) / b).exp() * m
                      for tau, m in zip(grid, best)]
            best = list(itertools.accumulate(values, max))
        return best[-1]


def _bandwidth(rng):
    return math.exp(rng.uniform(math.log(0.05), math.log(8.0)))


def _assert_bounds(sc, d, schedules):
    import gbcbound._search as search

    real, rounds = search._Cells.cut, []

    def counted(*args, **kwargs):
        rounds.append(1)
        return real(*args, **kwargs)

    search._Cells.cut = counted
    try:
        res = sup_bound_lhs(sc, d)
    finally:
        search._Cells.cut = real
    k = sc.num_receivers
    assert res.iterations <= (k - 1) * (GRID_POINTS + POINT_BUDGET) + len(rounds) + 1
    assert res.sup_value <= res.sup_upper
    upper = Decimal(res.sup_upper)
    for taus in list(schedules) + [res.argmax_tau.taus]:
        assert upper >= lhs_reference(sc, d, taus), (sc, d, taus, res.sup_upper)


def test_sup_upper_above_reference_on_small_grid():
    """K = 2, 3: above the exact value at every nonincreasing schedule on a
    9-point grid holding 0 and +inf, and at the witness."""
    rng = random.Random(61)
    for k in (2, 3):
        for _ in range(6):
            sc = random_scenario(rng, k_range=(k, k), bandwidth=_bandwidth(rng))
            schedules = [taus + (0.0,) for taus in
                         itertools.combinations_with_replacement(GRID[::-1], k - 1)]
            _assert_bounds(sc, random_distortions(rng, sc), schedules)


def test_sup_upper_above_reference_at_probes():
    """K up to 16, b from 0.05 to 8, SNR P / N_1 from 1e-4 to 1e4, tau up to
    1e12: two-level schedules, random ones and the witness.  The zero-
    information point D = N_S and K = 1 leave the enclosure no slack but
    the rounding factor's."""
    rng = random.Random(67)
    levels = [10.0 ** e for e in range(-3, 13, 3)] + [math.inf]
    for k in (1, 2, 3, 5, 8, 16):
        for i in range(3):
            sc = random_scenario(rng, k_range=(k, k), bandwidth=_bandwidth(rng),
                                 min_ratio=1.05 if k >= 8 else 1.2)
            d = (sc.source_var,) * k if i == 0 else random_distortions(rng, sc)
            schedules = [(s,) * m + (0.0,) * (k - m) for m in range(1, k) for s in levels]
            for _ in range(4):
                free = sorted((10.0 ** rng.uniform(-6, 12) for _ in range(k - 1)), reverse=True)
                schedules.append(tuple(free) + (0.0,))
            _assert_bounds(sc, d, schedules)
    for _ in range(8):
        sc = random_scenario(rng, k_range=(1, 1), bandwidth=_bandwidth(rng))
        _assert_bounds(sc, random_distortions(rng, sc), [])


def test_refined_sup_upper_above_reference_at_boundary():
    """Boundary members at b <= 1 and at b = 2, K = 2 and 3: the refined
    sup_upper of ``in_outer_region`` certifies them, and lies above the
    exact value at the witness and at schedules spread over the cells the
    search refined (within 1e-6 relative of the witness's entries), and
    above the fully refined value without a target."""
    rng = random.Random(71)
    cases = [random_scenario(rng, k_range=(k, k), bandwidth=rng.choice((rng.uniform(0.2, 0.9), 1.0)))
             for k in (2, 2, 3)]
    cases += [BroadcastScenario(3.0, (3.0, 1.0), 2.0), BroadcastScenario(3.0, (3.0, 1.0, 0.3), 2.0)]
    for sc in cases:
        k = sc.num_receivers
        prefix = tuple(trivial_distortion(sc, j) * (sc.source_var / trivial_distortion(sc, j)) ** 0.3
                       for j in range(1, k))
        d = prefix + (trace_boundary(sc, prefix),)
        verdict = in_outer_region(sc, d)
        assert verdict.member and verdict.certified, (sc, d)
        full = sup_bound_lhs(sc, d)  # refined further, to the rounding floor or the budget
        assert verdict.sup.sup_value <= full.sup_upper and full.sup_value <= verdict.sup.sup_upper
        upper = Decimal(verdict.sup.sup_upper)
        witness = verdict.sup.argmax_tau.taus
        schedules = [witness]
        for f in (1.0 - 1e-6, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 + 1e-6):
            schedules.append(tuple(t * f for t in witness[:-1]) + (0.0,))
            schedules.append((witness[0] * f,) + witness[1:])
        for taus in schedules:
            if all(x >= y for x, y in zip(taus, taus[1:])):
                assert upper >= lhs_reference(sc, d, taus), (sc, d, taus)


def _near_floors(rng, sc):
    """D a little above the floors D_k*, or with one entry a little below its floor."""
    floors = [trivial_distortion(sc, j) for j in range(1, sc.num_receivers + 1)]
    d = [x * (sc.source_var / x) ** (0.15 * rng.random()) for x in floors]
    if rng.random() < 0.3:
        j = rng.randrange(len(d))
        d[j] = floors[j] * (floors[j] / sc.source_var) ** (0.01 + 0.14 * rng.random())
    return tuple(d)


def test_sup_at_b_le_1_is_the_closed_form_step_value():
    """At b <= 1 the bound degenerates to the trivial one: the supremum is
    max_k of ``reduced_bound_value``, the step schedule isolating receiver k
    in closed form with math.exp, at b = 1, b in (0.05, 1) and b in [1e-3,
    0.05].  The witness is a step schedule, and sup_upper lies above the
    exact maximum over every schedule on GRID, interior entries included:
    the grid {0, +inf} loses nothing.  Near the floors the exponents stay
    below about 12, so both closed forms round within a few eps; a random D,
    often past the float range, checks the witness and the upper bound."""
    rng = random.Random(73)
    bands = (lambda: 1.0, lambda: math.exp(rng.uniform(math.log(0.05), 0.0)),
             lambda: math.exp(rng.uniform(math.log(1e-3), math.log(0.05))))
    for k in (1, 2, 3, 5, 8, 16):
        for band in bands:
            sc = random_scenario(rng, k_range=(k, k), bandwidth=band(), min_ratio=1.05 if k >= 8 else 1.2)
            for near in (True, True, False):
                d = _near_floors(rng, sc) if near else random_distortions(rng, sc)
                res = sup_bound_lhs(sc, d)
                if near:
                    closed = max(reduced_bound_value(sc, d, j) for j in range(1, k + 1))
                    assert math.isclose(res.sup_value, closed, rel_tol=1e-14), (sc, d, res)
                taus = res.argmax_tau.taus
                assert set(taus) <= {0.0, math.inf} and list(taus) == sorted(taus, reverse=True)
                exact = grid_max_reference(sc, d, GRID)
                if k <= 3:  # the recursion against every schedule, to 40 digits
                    schedules = itertools.combinations_with_replacement(GRID[::-1], k - 1)
                    brute = max(lhs_reference(sc, d, t + (0.0,)) for t in schedules)
                    assert abs(exact - brute) <= exact * Decimal("1e-40")
                assert Decimal(res.sup_upper) >= exact, (sc, d, res.sup_upper)


def test_reduced_bound_value_at_large_source_variance():
    """The closed form takes log(N_S / D_k) as one log1p of (N_S - D_k) / D_k,
    as the evaluator does, not as log N_S - log D_k, whose absolute error
    grows with |log N_S| and is then scaled by 1 / b: at N_S = 1000, D =
    (1000, 900), b = 0.002 and k = 2, within 1e-15 of the 50-digit value
    at the step schedule (+inf, 0)."""
    sc = BroadcastScenario(3, [3, 1], 0.002, 1000)
    d = (1000.0, 900.0)
    exact = lhs_reference(sc, d, (math.inf, 0.0))
    assert abs(Decimal(reduced_bound_value(sc, d, 2)) - exact) <= exact * Decimal("1e-15")


def test_sup_upper_past_float_range_is_inf():
    """At b = 0.0009 the step schedule (+inf, 0) is past the float range."""
    sc = BroadcastScenario(3, [3, 1], 0.0009)
    d = (0.99995, 0.5 * trivial_distortion(sc, 2))
    assert sup_bound_lhs(sc, d).sup_upper == math.inf
    assert in_outer_region(sc, d).sup.sup_upper == math.inf


def test_sup_upper_is_inf_where_a_link_underflows():
    """The rounding factor holds only for results in the normal range.  At
    b = 1.0001, N_S = 1e10 and D = (N_S, e^-709.07 N_S), c_1(0) = e^-708.9
    is subnormal while the supremum itself is finite, so the grid search
    (called directly: at K = 2 ``sup_bound_lhs`` forms no link) gives its
    bound up to +inf, with or without a target.  The closed form gives up
    too: its slope, (D_2 - D_1) T_2 = -8e315, is past the float range."""
    sc = BroadcastScenario(3, [3, 0.01], 1.0001, 1e10)
    d = (1e10, 1e10 * math.exp(-709 * 1.0001))
    chain = _Chain(sc, check_distortions(sc, d))
    for target in (None, 3.01):
        _, value, _, upper = supremum(chain, target)
        assert math.isfinite(value) and upper == math.inf
        res = sup_bound_lhs(sc, d, target=target)
        assert math.isfinite(res.sup_value) and res.sup_upper == math.inf


# K = 2 at b > 1, the closed form's cases: (scenario, D, its witness's tau_1)
_PAIR_CASES = (
    (BroadcastScenario(3, [3, 1], 2), (0.3, 0.5), 0.0),  # D_2 >= D_1: f rises to tau_1 = 0
    (BroadcastScenario(3, [3, 1], 2), (0.1, 0.09), 0.0),  # the stationary point clamped at tau_1 = 0
    (BroadcastScenario(3, [3, 1], 2), (0.9, 0.01), math.inf),  # ... and at tau_1 = +inf
    (BroadcastScenario(3, [3, 1], 2), (1.0, 0.1), math.inf),  # D_1 = N_S: alpha = 0
    (BroadcastScenario(3, [3, 1], 2), (0.25, 0.0625), 0.25),  # the README point, interior
    (BroadcastScenario(3, [100, 0.01], 8), (1e-3, 1e-20), None),  # D_2 << D_1, interior
    (BroadcastScenario(3, [100, 1e-15], 1e6), (0.5, 1e-300), None),  # h = 1e-17 at the witness
    (BroadcastScenario(3, [100, 1e-15], 2), (0.5, 1e-300), math.inf),  # D_2 << D_1 at tau_1 = +inf
    (BroadcastScenario(3, [300, 100], 1.0001, 1e10), (5e9, 1e-297), math.inf),  # T_2 overflows
)


def test_pair_sup_upper_above_reference_at_edge_cases():
    """K = 2 at b > 1 takes the closed form (``membership._pair_sup``): its
    sup_upper lies above the 50-digit value at its witness, at the witness
    with tau_1 scaled by 1 -+ 1e-6, 1/2 and 2, and at every tau_1 on GRID,
    in each of ``_PAIR_CASES``; its sup_value is the evaluator's at the
    witness, and the bracket lies within the rounding allowance 2 K rho.
    The last case's sum overflows: both ends are +inf, and the witness is
    tau_1 = +inf, as the grid search picks the last +inf."""
    for sc, d, tau in _PAIR_CASES:
        res = sup_bound_lhs(sc, d)
        chain = _Chain(sc, check_distortions(sc, d))
        witness = res.argmax_tau.taus
        assert res.iterations == 1 and res.sup_value == chain.lhs(witness), (sc, d)
        if tau is not None:
            assert witness[0] == pytest.approx(tau, rel=1e-14), (sc, d, witness)
        if res.sup_value == math.inf:
            assert res.sup_upper == math.inf and witness == (math.inf, 0.0)
            continue
        assert res.sup_value <= res.sup_upper <= res.sup_value * (1.0 + 4.0 * chain.rho()), (sc, d, res)
        schedules = [(t, 0.0) for t in GRID] + [(witness[0] * f, 0.0) for f in (1 - 1e-6, 1 + 1e-6, 0.5, 2.0)]
        for taus in schedules + [witness]:
            assert Decimal(res.sup_upper) >= lhs_reference(sc, d, taus), (sc, d, taus, res)


def test_b_le_1_sup_upper_forms_no_link():
    """At b = 0.01 and D = (N_S, e^-7.09 N_S) the link c_1(0) = e^-709 would
    be subnormal, but at b <= 1 no link is formed: sup_upper is finite and
    at or above the 50-digit value at each step schedule."""
    sc = BroadcastScenario(3, [3, 1], 0.01)
    d = (1.0, math.exp(-7.09))
    res = sup_bound_lhs(sc, d)
    assert math.isfinite(res.sup_upper)
    for taus in ((0.0, 0.0), (math.inf, 0.0)):
        assert Decimal(res.sup_upper) >= lhs_reference(sc, d, taus), taus


def test_evaluator_within_its_rounding_bound_of_reference():
    """``_Chain.lhs_error`` bounds the evaluator's distance from the 50-digit
    value on 600 seeded draws: K up to 16, b log-uniform on [1e-3, 10],
    exponents log(N_S / D_k) / b up to 600, and up to 50 on the last 300
    draws.  At each draw it is checked at
    a schedule whose entries mix 0, +inf and values log-uniform on [1e-6,
    1e6], and at the witness of the verdict at rel_tol = 0, a step schedule
    at b <= 1 and the search's at b > 1.  The bound is tight as well as
    safe: under 1e-10 of lhs wherever ``_Chain.rho``'s Y, which bounds every
    exponent |log g_k| / b and |log h_k| / b, is at most 50."""
    rng = random.Random(89)
    tight = {False: 0, True: 0}  # bounds checked for tightness, at b <= 1 and at b > 1
    for i in range(600):
        k, top = (1, 2, 3, 5, 8, 16)[i % 6], 600.0 if i < 300 else 50.0
        b = math.exp(rng.uniform(math.log(1e-3), math.log(10.0)))
        sc = random_scenario(rng, k_range=(k, k), bandwidth=b, min_ratio=1.05 if k >= 8 else 1.2)
        d = tuple(sc.source_var * math.exp(-min(b * rng.uniform(0.0, top), 700.0)) for _ in range(k))
        free = (rng.choice((0.0, math.inf, 10.0 ** rng.uniform(-6.0, 6.0))) for _ in range(k - 1))
        taus = tuple(sorted(free, reverse=True)) + (0.0,)
        chain = _Chain(sc, check_distortions(sc, d))
        y = math.log1p((sc.source_var - min(d)) / min(d)) / b
        for schedule in (taus, in_outer_region(sc, d, rel_tol=0.0).sup.argmax_tau.taus):
            value, error = chain.lhs_error(schedule)
            assert math.isfinite(value) and value == eval_lhs(sc, d, schedule), (sc, d, schedule)
            assert abs(Decimal(value) - lhs_reference(sc, d, schedule)) <= Decimal(error), (sc, d, schedule)
            if y <= 50.0:
                assert error <= 1e-10 * value, (sc, d, schedule, error / value)
                tight[b > 1.0] += 1
    assert min(tight.values()) >= 100, tight


def _ulps(got, exact):
    """|got - exact| in units in the last place of the float nearest ``exact``."""
    return abs(Decimal(float(got)) - exact) / Decimal(math.ulp(float(exact)))


def test_exp_and_log1p_are_within_two_ulps():
    """The rounding allowance rho = eps (4 Y + 8) (``_search._enclosure``)
    takes exp and log1p to be within 2 ulps: numpy's, on arrays as the
    links (``_search._links``) call them, and math's, as the evaluator
    (``bound._Chain.lhs``) and the b <= 1 step values
    (``membership._step_sup``) call them.  exp at 5000 seeded y, 4000 of
    them on [-40, 40] and the rest on [-700, 700]; log1p at r = 0 and 4999
    r log-uniform on [1e-12, 1e12]; all against 50-digit decimals."""
    rng = random.Random(61)
    ys = [rng.uniform(-40.0, 40.0) for _ in range(4000)] + [rng.uniform(-700.0, 700.0) for _ in range(1000)]
    rs = [0.0] + [10.0 ** rng.uniform(-12.0, 12.0) for _ in range(4999)]
    with localcontext() as ctx:
        ctx.prec = 50
        exact_exp = [Decimal(y).exp() for y in ys]
        exact_log1p = [(1 + Decimal(r)).ln() for r in rs]
        worst = {
            name: max(_ulps(got, exact) for got, exact in zip(values, exacts))
            for name, values, exacts in (
                ("numpy.exp", np.exp(np.array(ys)), exact_exp),
                ("math.exp", map(math.exp, ys), exact_exp),
                ("numpy.log1p", np.log1p(np.array(rs)), exact_log1p),
                ("math.log1p", map(math.log1p, rs), exact_log1p),
            )
        }
    assert all(ulps <= 2 for ulps in worst.values()), worst
