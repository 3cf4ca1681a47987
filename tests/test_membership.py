import itertools
import math
import random
import warnings
from pathlib import Path

import numpy as np
import pytest

from gbcbound.bound import (
    DEFAULT_REL_TOL,
    _Chain,
    bound_rhs,
    check_inequality,
    eval_lhs,
    reduced_bound_value,
)
from gbcbound.core import (
    BroadcastScenario,
    check_distortions,
    load_scenario,
    trivial_distortion,
    trivial_distortions,
)
from gbcbound.errors import InfeasibleEverywhere, InvalidDistortion
from gbcbound._search import GRID_POINTS, POINT_BUDGET, _chain_dp, _columns, _links
from gbcbound.membership import (
    TRACE_WIDTH,
    SupResult,
    in_outer_region,
    sup_bound_lhs,
    trace_boundary,
)
from gbcbound.verify import _rounding_bound, random_distortions, random_scenario, random_schedule

S_MATCHED = BroadcastScenario(3, [3, 1], 1)
S_EXPAND = BroadcastScenario(3, [3, 1], 2)
S_COMPRESS = BroadcastScenario(3, [3, 1], 0.5)
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _regimes(rng):
    return (lambda: math.exp(rng.uniform(math.log(0.1), math.log(0.95))),
            lambda: 1.0,
            lambda: math.exp(rng.uniform(math.log(1.05), math.log(8.0))))


def _near_floor(rng, sc, count):
    """D_j = D_j* (N_S / D_j*)^u for j = 1..count, each u uniform on [0, 0.5]."""
    out = []
    for j in range(1, count + 1):
        floor = trivial_distortion(sc, j)
        out.append(floor * (sc.source_var / floor) ** rng.uniform(0.0, 0.5))
    return tuple(out)


def test_sup_flat_landscape_at_matched_bandwidth():
    res = sup_bound_lhs(S_MATCHED, trivial_distortions(S_MATCHED))
    assert res.sup_value == pytest.approx(bound_rhs(S_MATCHED), rel=1e-9)
    assert res.sup_value <= res.sup_upper


def test_sup_single_receiver_forced_schedule():
    sc = BroadcastScenario(1, [1], 2)
    res = sup_bound_lhs(sc, (0.5,))
    assert res.sup_value == pytest.approx(1 * (1 / 0.5) ** 0.5, rel=1e-12)
    assert res.argmax_tau.taus == (0.0,)
    assert res.argmax_t == ()


def test_sup_never_below_zero_schedule():
    rng = random.Random(21)
    for _ in range(25):
        sc = random_scenario(rng, k_range=(1, 4))
        d = tuple(rng.uniform(0.05, 1.0) * sc.source_var for _ in range(sc.num_receivers))
        res = sup_bound_lhs(sc, d)
        zero_val = eval_lhs(sc, d, (0.0,) * sc.num_receivers)
        assert res.sup_value >= zero_val - 1e-12 * abs(zero_val)


def _nudged(taus, f):
    """``taus`` with one entry at a time scaled by f, wherever the order allows it."""
    for j in range(len(taus) - 1):
        tau = taus[:j] + (taus[j] * f,) + taus[j + 1:]
        if all(a >= b for a, b in zip(tau, tau[1:])):
            yield tau


def test_sup_witness_consistency():
    """The fully refined supremum is the evaluator's value at its witness,
    and no probe beats it: two-level schedules, random schedules (some with
    infinite prefixes), the witness scaled by 0.5 and 2, and the witness
    with one entry moved by 1e-4 relative, which catches a witness left at
    the first grid's spacing.  A verdict, which may stop at the first pass,
    agrees with check_inequality at its own witness, no probe exceeds its
    sup_upper, a member has every probe within the threshold, and a
    non-member's witness violates the bound."""
    rng = random.Random(31)
    draws = random.Random(32)
    levels = [10.0 ** (e / 2) for e in range(-12, 13)] + [math.inf]
    for k in (1, 2, 3, 5, 8, 16):
        for draw_b in _regimes(rng):
            for _ in range(4):
                sc = random_scenario(rng, k_range=(k, k), bandwidth=draw_b(),
                                     min_ratio=1.05 if k >= 8 else 1.2)
                d = random_distortions(rng, sc)
                rhs = bound_rhs(sc)
                sup = sup_bound_lhs(sc, d)
                assert sup.sup_value == eval_lhs(sc, d, sup.argmax_tau)
                verdict = in_outer_region(sc, d)
                witness = verdict.sup.argmax_tau
                assert verdict.sup.sup_value == eval_lhs(sc, d, witness)
                ev = check_inequality(sc, d, witness, verdict.tolerance)
                assert verdict.member == ev.satisfied
                slack = 1e-12 * max(abs(sup.sup_value), rhs)
                probes = [(s,) * m + (0.0,) * (k - m) for m in range(1, k) for s in levels]
                probes += [random_schedule(draws, k) for _ in range(8)]
                probes += [tuple(f * t for t in sup.argmax_tau.taus) for f in (0.5, 2.0)]
                probes += [tau for f in (1 - 1e-4, 1 + 1e-4) for tau in _nudged(sup.argmax_tau.taus, f)]
                threshold = rhs * (1.0 + verdict.tolerance)
                for tau in probes:
                    value = eval_lhs(sc, d, tau)
                    assert sup.sup_value >= value - slack, (k, tau)
                    assert value <= verdict.sup.sup_upper, (k, tau)
                    assert value <= threshold or not verdict.member, (k, tau)


def test_chain_dp_matches_exhaustive_enumeration():
    """On a 9-point grid holding 0 and +inf, the recursion's witness is worth
    as much as the best of every nonincreasing schedule on that grid."""
    rng = random.Random(17)
    grid = np.concatenate(([0.0], np.geomspace(1e-3, 1e3, 7), [math.inf]))
    for k in (2, 3, 4):
        for draw_b in _regimes(rng):
            for _ in range(4):
                sc = random_scenario(rng, k_range=(k, k), bandwidth=draw_b())
                chain = _Chain(sc, check_distortions(sc, random_distortions(rng, sc)))
                best = max(chain.lhs(taus + (0.0,)) for taus in
                           itertools.combinations_with_replacement(grid[::-1].tolist(), k - 1))
                got = chain.lhs(_chain_dp(grid, _links(chain, _columns(chain), grid))[0])
                assert got == pytest.approx(best, rel=1e-12, abs=0.0), (sc, chain.d)


def test_small_bandwidth_overflow_is_non_member():
    """At b = 0.0009 the step schedule (+inf, 0) gives +inf, past the float
    range: the witness is that schedule, and the verdict a non-member."""
    sc = BroadcastScenario(3, [3, 1], 0.0009)
    d = (0.99995, 0.5 * trivial_distortion(sc, 2))
    verdict = in_outer_region(sc, d)
    assert not verdict.member
    assert not check_inequality(sc, d, verdict.sup.argmax_tau).satisfied
    assert verdict.sup.sup_value == eval_lhs(sc, d, verdict.sup.argmax_tau) == math.inf
    assert verdict.margin == -math.inf
    assert verdict.sup.sup_value <= verdict.sup.sup_upper


def test_subnormal_distortion_warns_nothing():
    """At b > 1 a subnormal D_2 = 1e-317 puts (N_S - D_2) / D_2 past the
    float range: the supremum and its bound are +inf, the verdict is a
    certified non-member, and no numpy warning escapes."""
    sc = BroadcastScenario(3, [3, 1], 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        verdict = in_outer_region(sc, (0.5, 1e-317))
    assert verdict.sup.sup_value == verdict.sup.sup_upper == math.inf
    assert verdict.certified and not verdict.member


def test_reproducer_is_non_member():
    """A maximizer at tau ~ 5e-3, far below where a coarse grid looks, must be found."""
    sc = BroadcastScenario(
        10.408299403129902,
        [1.5319987010856546, 0.42284007000578716, 0.14230776211069576,
         0.09410284722975634, 0.022458921322477083],
        1.4480871282058703,
    )
    d = (0.05134967501451325, 0.08934536726890427, 0.004013983515728514,
         0.13523201232033158, 0.024135166043304252)
    verdict = in_outer_region(sc, d)
    assert not verdict.member
    assert not check_inequality(sc, d, verdict.sup.argmax_tau).satisfied
    assert verdict.sup.sup_value >= 11.9759


def test_membership_examples():
    assert in_outer_region(S_COMPRESS, trivial_distortions(S_COMPRESS)).member
    verdict = in_outer_region(S_EXPAND, trivial_distortions(S_EXPAND))
    assert not verdict.member
    assert verdict.margin < 0
    # zero-information reconstruction is always inside
    assert in_outer_region(S_EXPAND, (1.0, 1.0)).member
    assert in_outer_region(S_EXPAND, (1.0, 1.0)).sup.sup_value == pytest.approx(3.0, rel=1e-9)


def test_membership_single_receiver():
    sc = BroadcastScenario(1, [1], 2)
    dstar = trivial_distortion(sc, 1)
    assert in_outer_region(sc, (dstar,)).member
    assert in_outer_region(sc, (min(dstar * 1.5, 1.0),)).member
    assert not in_outer_region(sc, (dstar * 0.9,)).member


def test_certified_member_may_exceed_the_bound_within_the_tolerance():
    """A certified member is certified against (P + N_1)(1 + rel_tol), not
    against P + N_1.  At this D* just past b = 1 the default verdict is a
    certified member, yet its witness violates the bound by about 5e-10
    relative, far beyond the witness's rounding error; with rel_tol = 0
    the same witness makes it a certified non-member."""
    sc = BroadcastScenario(0.012668976785852444, (73.77720305135256, 43.56944509380377),
                           1.201627803993418)
    d, rhs = trivial_distortions(sc), bound_rhs(sc)
    tolerant = in_outer_region(sc, d)
    assert tolerant.member and tolerant.certified
    strict = in_outer_region(sc, d, rel_tol=0.0)
    assert not strict.member and strict.certified
    for verdict in (tolerant, strict):
        taus = verdict.sup.argmax_tau.taus
        excess = eval_lhs(sc, d, taus) - rhs
        assert excess > _rounding_bound(sc, d.values, taus, rhs, excess)
        assert excess <= DEFAULT_REL_TOL * rhs


def test_membership_rejects_bad_distortions():
    with pytest.raises(InvalidDistortion):
        in_outer_region(S_MATCHED, (0.5,))


def test_trace_matched_bandwidth_recovers_trivial():
    d2 = trace_boundary(S_MATCHED, (trivial_distortion(S_MATCHED, 1),))
    assert d2 == pytest.approx(trivial_distortion(S_MATCHED, 2), abs=1e-8)


def test_trace_expansion_strictly_above_trivial():
    d2 = trace_boundary(S_EXPAND, (trivial_distortion(S_EXPAND, 1),))
    assert d2 > trivial_distortion(S_EXPAND, 2) * 1.01


def test_trace_compression_degenerates():
    d2_star = trivial_distortion(S_COMPRESS, 2)
    for d1 in (trivial_distortion(S_COMPRESS, 1), 0.8, 0.95):
        d2 = trace_boundary(S_COMPRESS, (d1,))
        assert d2 == pytest.approx(d2_star, abs=1e-8)


def test_trace_expansion_binding_threshold():
    """The coupling binds only near D_1*; beyond the threshold the floor D_2* rules.

    For K = 2 the large-tau expansion shows the threshold sits at
    (dN_1 N_S + (P+N_2) D_2*) / (dN_1 + P + N_2); for (P=3, N=(3,1), b=2)
    that is 0.375.
    """
    d2_star = trivial_distortion(S_EXPAND, 2)
    for d1 in (0.25, 0.30, 0.37):
        assert trace_boundary(S_EXPAND, (d1,)) > d2_star + 1e-6
    for d1 in (0.40, 0.70, 1.0):
        assert trace_boundary(S_EXPAND, (d1,)) == pytest.approx(d2_star, abs=1e-8)


def test_trace_monotone_in_fixed_distortion():
    cuts = [trace_boundary(S_EXPAND, (d1,)) for d1 in (0.25, 0.28, 0.32, 0.36)]
    assert all(a >= b - 1e-9 for a, b in zip(cuts, cuts[1:]))


def test_trace_contract_on_random_rows():
    """The returned D_K,min is a member and D_K,min - TRACE_WIDTH is not, so
    by monotonicity the boundary lies within the width below it; a prefix
    raises InfeasibleEverywhere exactly when D_K = N_S is a non-member."""
    rng = random.Random(41)
    raised = 0
    for k in (1, 2, 3, 5):
        for draw_b in _regimes(rng):
            for _ in range(4):
                sc = random_scenario(rng, k_range=(k, k), bandwidth=draw_b())
                prefix = _near_floor(rng, sc, k - 1)
                if not in_outer_region(sc, prefix + (sc.source_var,)).member:
                    with pytest.raises(InfeasibleEverywhere):
                        trace_boundary(sc, prefix)
                    raised += 1
                    continue
                dk = trace_boundary(sc, prefix)
                assert in_outer_region(sc, prefix + (dk,)).member, (sc, prefix, dk)
                if dk > TRACE_WIDTH:
                    assert not in_outer_region(sc, prefix + (dk - TRACE_WIDTH,)).member, (sc, prefix, dk)
    assert 0 < raised < 24


def test_sup_convex_nonincreasing_in_last_distortion():
    """The root-finding in trace_boundary relies on the supremum being convex
    and nonincreasing in D_K with the prefix fixed."""
    rng = random.Random(43)
    for k in (1, 2, 3, 5):
        for draw_b in _regimes(rng):
            for _ in range(4):
                sc = random_scenario(rng, k_range=(k, k), bandwidth=draw_b())
                prefix = _near_floor(rng, sc, k - 1)
                lo = 0.5 * trivial_distortion(sc, k)
                a, b = sorted(lo * (sc.source_var / lo) ** rng.random() for _ in range(2))
                sa, sm, sb = (sup_bound_lhs(sc, prefix + (x,)).sup_value for x in (a, 0.5 * (a + b), b))
                slack = 1e-12 * bound_rhs(sc)
                assert sm <= 0.5 * (sa + sb) + slack, (sc, prefix, a, b)
                assert sa + slack >= sm and sm + slack >= sb, (sc, prefix, a, b)


def _sup_calls(monkeypatch, sc, prefix):
    """Supremum calls of one trace_boundary row, and whether it raised InfeasibleEverywhere.

    Every pass of the row's loop builds a chain, for a supremum call or to
    test lo's witness at the probe, so a row that loops without end fails
    here once it has built 100.
    """
    import gbcbound.membership as m

    real, real_chain = m.sup_bound_lhs, m._Chain
    calls = chains = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    def bounded_chain(*args, **kwargs):
        nonlocal chains
        chains += 1
        assert chains <= 100, f"trace_boundary loops on {sc}, prefix {prefix}"
        return real_chain(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(m, "sup_bound_lhs", counted)
        patch.setattr(m, "_Chain", bounded_chain)
        try:
            trace_boundary(sc, prefix)
        except InfeasibleEverywhere:
            return calls, True
    return calls, False


def _sup_calls_per_row(monkeypatch, sc, prefixes):
    return sum(_sup_calls(monkeypatch, sc, prefix)[0] for prefix in prefixes) / len(prefixes)


def test_trace_sup_calls_per_row(monkeypatch):
    """Root-finding with a curvature-corrected aim, and no supremum call
    for a probe that lo's witness already excludes, take 4 to 5 supremum
    calls per row where bisection took 36: the README's trace grid
    (4.44), and K = 3 rows on matched_k3's channel at b = 2 (4.00)."""
    readme = load_scenario(SCENARIOS / "expansion_k2.json")
    rows = [(0.25 + 0.12 * i / 24,) for i in range(25)]
    assert _sup_calls_per_row(monkeypatch, readme, rows) <= 5
    ch = load_scenario(SCENARIOS / "matched_k3.json")
    sc = BroadcastScenario(ch.power, ch.noises, 2.0)
    f1, f2 = trivial_distortion(sc, 1), trivial_distortion(sc, 2)
    d2 = f2 * (sc.source_var / f2) ** 0.15
    rows = [(f1 * (sc.source_var / f1) ** (0.05 + 0.3 * i / 25), d2) for i in range(25)]
    assert _sup_calls_per_row(monkeypatch, sc, rows) <= 5


def test_trace_double_root_row_calls(monkeypatch):
    """At D_1 = D_1* (the README grid's first row) the supremum only grazes
    the threshold near the boundary, a double root of sup - (P + N_1)."""
    readme = load_scenario(SCENARIOS / "expansion_k2.json")
    assert readme.bandwidth == 2.0 and trivial_distortion(readme, 1) == 0.25
    calls, raised = _sup_calls(monkeypatch, readme, (0.25,))
    assert not raised and calls <= 10


@pytest.mark.parametrize("points", (257, 513, 1025, 2049))
def test_trace_call_budgets_hold_on_any_first_grid(monkeypatch, points):
    """The two tests above pass whatever the first grid's size: the probes aim
    from lo's polished witness, which does not sit on that grid."""
    import gbcbound._search as search

    monkeypatch.setattr(search, "GRID_POINTS", points)
    monkeypatch.setattr(search, "_RAMP", np.arange(points - 2, dtype=float))
    test_trace_double_root_row_calls(monkeypatch)
    test_trace_sup_calls_per_row(monkeypatch)


def test_trace_rows_at_or_below_matched_bandwidth_take_one_call(monkeypatch):
    """At b <= 1 the step schedule's root is the boundary: one probe above
    it, and the step schedule itself excludes the closing probe below it."""
    readme = load_scenario(SCENARIOS / "expansion_k2.json")
    for b in (0.5, 1.0):
        sc = BroadcastScenario(readme.power, readme.noises, b)
        f1 = trivial_distortion(sc, 1)
        for u in (0.0, 0.1, 0.3):
            assert _sup_calls(monkeypatch, sc, (f1 * (sc.source_var / f1) ** u,)) == (1, False)


def _member_probes(monkeypatch, sc, prefixes):
    """The member verdicts of the trace_boundary rows' in_outer_region calls."""
    import gbcbound.membership as m

    real, verdicts = m.in_outer_region, []

    def recorded(*args, **kwargs):
        verdicts.append(real(*args, **kwargs))
        return verdicts[-1]

    with monkeypatch.context() as patch:
        patch.setattr(m, "in_outer_region", recorded)
        for prefix in prefixes:
            trace_boundary(sc, prefix)
    return [v for v in verdicts if v.member]


def _refuse(*args, **kwargs):
    raise AssertionError("the supremum at b <= 1 or K = 1 is the largest closed-form step value")


def test_boundary_members_at_or_below_matched_bandwidth_are_certified(monkeypatch):
    """At b <= 1 the largest of the K closed-form step values, times 1 + rho,
    bounds the supremum, so every member probe of a boundary row is
    certified with K iterations, the row at D_1 = D_1* included, with no
    grid, link, recursion, enclosure or search."""
    import gbcbound._search as search

    for name in ("_tau_grid", "_links", "_chain_dp", "_enclosure", "_Cells"):
        monkeypatch.setattr(search, name, _refuse)
    grids = []
    for name in ("compression_k2", "matched_k2"):
        sc = load_scenario(SCENARIOS / f"{name}.json")
        f1 = trivial_distortion(sc, 1)
        grids.append((sc, [(f1 + (1.0 - f1) * i / 9,) for i in range(10)]))
    sc = load_scenario(SCENARIOS / "matched_k3.json")
    f1, d2 = trivial_distortion(sc, 1), 1.5 * trivial_distortion(sc, 2)
    grids.append((sc, [(f1 + (1.0 - f1) * i / 9, d2) for i in range(10)]))
    for sc, prefixes in grids:
        probes = _member_probes(monkeypatch, sc, prefixes)
        assert len(probes) == 10 and all(v.certified for v in probes), sc
        threshold = bound_rhs(sc) * (1.0 + DEFAULT_REL_TOL)
        for v in probes:
            assert v.sup.sup_upper <= threshold and v.sup.iterations == sc.num_receivers


def test_single_receiver_supremum_is_the_closed_form_at_any_bandwidth(monkeypatch):
    """At K = 1 the only schedule is tau_1 = 0, so at every b the supremum
    is its closed-form value, with one iteration and no grid or search:
    sup_bound_lhs, in_outer_region and trace_boundary never call into
    ``_search``."""
    import gbcbound._search as search

    for name in ("supremum", "_tau_grid", "_links", "_chain_dp", "_enclosure", "_Cells"):
        monkeypatch.setattr(search, name, _refuse)
    for b in (0.5, 1.0, 1.01, 2.0, 8.0):
        sc = BroadcastScenario(3.0, (1.0,), b)
        floor = trivial_distortion(sc, 1)
        for d in (0.5 * floor, floor, 0.5 * (floor + 1.0), 1.0):
            sup = sup_bound_lhs(sc, (d,))
            assert sup.argmax_tau.taus == (0.0,) and sup.iterations == 1
            assert sup.sup_value == eval_lhs(sc, (d,), (0.0,)) <= sup.sup_upper
            assert sup.sup_value == pytest.approx(reduced_bound_value(sc, (d,), 1), rel=1e-15)
            assert in_outer_region(sc, (d,)).member == (d >= floor)
        shifted = sc.source_var * (sc.noises[0] / (bound_rhs(sc) * (1.0 + DEFAULT_REL_TOL))) ** b
        assert trace_boundary(sc, ()) == pytest.approx(shifted, abs=TRACE_WIDTH)


def _rounding_floor(sc, d):
    """The search's rounding allowance 2 K rho relative, rho = eps (4 Y + 8)."""
    chain = _Chain(sc, check_distortions(sc, d))
    return 2.0 * len(chain.d) * chain.rho()


def test_b_le_1_sup_upper_is_the_rounded_step_value():
    """At b <= 1 sup_upper is the largest closed-form step value times
    1 + rho, with or without a target: at or above sup_value and that
    value, within the rounding allowance 2 K rho of sup_value, and finite
    wherever sup_value is.  Of the first 600 draws, half spread the
    exponents u_k = log(N_S / D_k) / b over [0, 700], so that small b still
    leaves the supremum finite; the last 200 put u_k alternately on [0, 0.4]
    and [708.5, 709], where a link c_k(0) = e^(u_k - u_{k+1}) would mostly
    underflow."""
    rng = random.Random(83)
    finite = deep = 0
    for i in range(800):
        k = (1, 2, 3, 5, 8, 16)[i % 6]
        b = 1.0 if i % 4 == 0 else math.exp(rng.uniform(math.log(1e-3), 0.0))
        sc = random_scenario(rng, k_range=(k, k), bandwidth=b, min_ratio=1.05 if k >= 8 else 1.2)
        if i >= 600:
            u = [rng.uniform(*((708.5, 709.0) if j % 2 else (0.0, 0.4))) for j in range(k)]
            d = tuple(sc.source_var * math.exp(-b * x) for x in u)
        elif i % 2:
            d = random_distortions(rng, sc)
        else:
            d = tuple(sc.source_var * math.exp(-b * rng.uniform(0.0, 700.0)) for _ in range(k))
        closed = max(reduced_bound_value(sc, d, j) for j in range(1, k + 1))
        for target in (None, bound_rhs(sc)):
            res = sup_bound_lhs(sc, d, target=target)
            assert res.sup_value <= res.sup_upper and closed <= res.sup_upper, (sc, d, res)
            if math.isfinite(res.sup_value):
                finite += 1
                deep += i >= 600 and k > 1
                assert math.isfinite(res.sup_upper), (sc, d, res)
                assert res.sup_upper <= res.sup_value * (1.0 + _rounding_floor(sc, d)), (sc, d, res)
    assert finite >= 400 and deep >= 50, (finite, deep)


def test_readme_trace_member_probes_are_certified(monkeypatch):
    """At b = 2 the excess over the threshold lies in interior cells, which
    the search splits and re-bounds with tangent bounds: every member probe
    of the README trace is certified, or lies within the rounding floor of
    the threshold and is reported undecided."""
    readme = load_scenario(SCENARIOS / "expansion_k2.json")
    probes = _member_probes(monkeypatch, readme, [(0.25 + 0.12 * i / 24,) for i in range(25)])
    threshold = bound_rhs(readme) * (1.0 + DEFAULT_REL_TOL)
    assert len(probes) >= 25
    for v in probes:
        if not v.certified:
            assert threshold - v.sup.sup_value <= 2.0 * threshold * _rounding_floor(readme, (0.25, 0.1))
    assert sum(v.certified for v in probes) >= len(probes) - 1


K3_EXPANSION_ROWS = (
    "0.01610158387504021", "0.01368686471903657", "0.012227073242202995", "0.011263627658617674",
    "0.010603150370036014", "0.010147714794685023", "0.00984259593831986", "0.009655672766869662",
    "0.009568079090237528", "0.00955806320926426",
)


def test_k3_expansion_boundary_members_are_certified(monkeypatch):
    """K = 3 at b = 2 (P = 3, N = (3, 1, 0.3)), D_2 = D_2* (N_S / D_2*)^0.15:
    at least half of the member probes of a 10-row trace are certified, and
    each row's D_3,min is pinned to its repr.  On this grid both the
    run-extended tangent bounds and the lifted recursion act at K = 3."""
    sc = BroadcastScenario(3.0, (3.0, 1.0, 0.3), 2.0)
    f1, f2 = trivial_distortion(sc, 1), trivial_distortion(sc, 2)
    d2 = f2 * (sc.source_var / f2) ** 0.15
    prefixes = [(f1 * (sc.source_var / f1) ** (0.05 + 0.3 * i / 9), d2) for i in range(10)]
    probes = _member_probes(monkeypatch, sc, prefixes)
    assert len(probes) >= 10 and 2 * sum(v.certified for v in probes) >= len(probes)
    assert tuple(repr(trace_boundary(sc, prefix)) for prefix in prefixes) == K3_EXPANSION_ROWS


def test_pinned_trace_rows_hold_the_contract():
    """Every row behind ``K3_EXPANSION_ROWS`` and the README's trace CSV (at
    the CLI's own D_1 grid) is a certified member, D_K,min - TRACE_WIDTH a
    certified non-member, and the row agrees with plain bisection; none of
    this reads the pins."""
    readme = load_scenario(SCENARIOS / "expansion_k2.json")
    rows = [(readme, (0.37 if i == 24 else 0.25 + (0.37 - 0.25) * i / 24,)) for i in range(25)]
    sc = BroadcastScenario(3.0, (3.0, 1.0, 0.3), 2.0)
    f1, f2 = trivial_distortion(sc, 1), trivial_distortion(sc, 2)
    d2 = f2 * (sc.source_var / f2) ** 0.15
    rows += [(sc, (f1 * (sc.source_var / f1) ** (0.05 + 0.3 * i / 9), d2)) for i in range(10)]
    for sc, prefix in rows:
        dk = trace_boundary(sc, prefix)
        member, below = in_outer_region(sc, prefix + (dk,)), in_outer_region(sc, prefix + (dk - TRACE_WIDTH,))
        assert member.member and member.certified, (sc, prefix)
        assert not below.member and below.certified, (sc, prefix)
        assert abs(dk - _bisected_boundary(sc, prefix)) <= TRACE_WIDTH, (sc, prefix)


def _b_gt_1_search_calls():
    """16 seeded b > 1 calls near the floors, K = 3, 5, 8 and 16, two draws
    each, every draw once without a target and once at the threshold; each
    result as the repr of (sup_value, argmax_tau, iterations, sup_upper)."""
    rng = random.Random(2)
    for k in (3, 5, 8, 16):
        for _ in range(2):
            sc = random_scenario(rng, k_range=(k, k), bandwidth=rng.uniform(1.05, 8.0))
            d = _near_floor(rng, sc, k)
            for target in (None, bound_rhs(sc) * (1.0 + DEFAULT_REL_TOL)):
                res = sup_bound_lhs(sc, d, target=target)
                yield k, res, repr((res.sup_value, res.argmax_tau.taus, res.iterations, res.sup_upper))


B_GT_1_SEARCH = (
    '(13.439258039395224, (7.021485262876143e-08, 1.3445124800519256e-17, 0.0), 1393, '
    '13.439258039395462)',
    '(13.43925713867855, (7.002276895297484e-08, 1.3428904056887133e-17, 0.0), 1028, '
    '13.500241756203861)',
    '(120.31620306359973, (0.9590333476761724, 0.0, 0.0), 1241, 120.31620306360018)',
    '(120.31620306359459, (0.9590397107464276, 0.0, 0.0), 1028, 120.44230028903227)',
    '(102.72212051746654, (0.28756698962321364, 0.16495224237971617, 0.021422774262758848, '
    '5.3475807140339076e-08, 0.0), 3258, 102.72212051746833)',
    '(102.72212012960493, (0.28747721166318924, 0.164876740047285, 0.02143051709949389, '
    '5.344625771952768e-08, 0.0), 2054, 103.21066945230466)',
    '(106.32879570000897, (26.389216573548477, 0.5023437265940913, 0.4526083951104611, '
    '0.0006652764008451103, 0.0), 3137, 106.3287957000129)',
    '(106.328795692797, (26.38197553272282, 0.5023343311751133, 0.452613405869839, '
    '0.0006656480140447632, 0.0), 2054, 106.41633886293528)',
    '(57.99812780969567, (inf, inf, inf, 10.715894436780312, 10.715894436780312, '
    '0.4429150385087766, 0.4429150385087766, 0.0), 4750, 57.998127809696854)',
    '(57.99812780969215, (inf, inf, inf, 10.715894436780312, 10.715894436780312, '
    '0.4429379180402363, 0.4429379180402363, 0.0), 3593, 57.999377024746394)',
    '(100.9594188178376, (10.341434126898621, 10.341434126898621, 10.341434126898621, '
    '0.07036296887268877, 0.0006570332666332859, 0.0006570332666332859, 0.0006570332666332859, '
    '0.0), 5697, 100.95941881784648)',
    '(100.95941881674185, (10.340257690839163, 10.340257690839163, 10.340257690839163, '
    '0.07036807656720212, 0.000656977836774022, 0.000656977836774022, 0.000656977836774022, '
    '0.0), 3593, 101.01167021694313)',
    '(94.982759014858, (inf, inf, inf, 0.5754895669407408, 0.5754895669407408, '
    '0.5754895669407408, 0.3508093258228158, 0.3508093258228158, 0.11279668134846751, '
    '0.009634136998504673, 0.009634136998504673, 0.000670624192248647, 1.4547874144966784e-07, '
    '1.2403228499503195e-09, 9.573727113814325e-12, 0.0), 19176, 94.98275901485984)',
    '(94.98275892315834, (inf, inf, inf, 0.5757219078591521, 0.5757219078591521, '
    '0.5757219078591521, 0.35075181226019464, 0.35075181226019464, 0.11264938347549708, '
    '0.009633923637750477, 0.009633923637750477, 0.0006703215367449362, '
    '1.4518634960309062e-07, 1.238796876430704e-09, 9.555616634616862e-12, 0.0), 7697, '
    '95.04264588387272)',
    '(66.74523459938042, (inf, inf, inf, inf, inf, inf, 2.370659709926334, 2.370659709926334, '
    '2.370659709926334, 0.26350978167916816, 0.26350978167916816, 0.26350978167916816, '
    '0.11062495298885128, 0.11062495298885128, 0.11062495298885128, 0.0), 11299, '
    '66.74523459938408)',
    '(66.74523459936353, (inf, inf, inf, inf, inf, inf, 2.370659709926334, 2.370659709926334, '
    '2.370659709926334, 0.26350978167916816, 0.26350978167916816, 0.26350978167916816, '
    '0.11063678703083257, 0.11063678703083257, 0.11063678703083257, 0.0), 7697, '
    '66.74648166527747)',
)


def test_b_gt_1_search_outputs_are_pinned():
    """The b > 1 search's outputs at 16 near-floor calls are pinned to their
    reprs (``B_GT_1_SEARCH``), and each K has a call that runs the search."""
    calls = list(_b_gt_1_search_calls())
    assert tuple(text for _, _, text in calls) == B_GT_1_SEARCH
    for k in (3, 5, 8, 16):
        assert any(res.iterations > (k - 1) * GRID_POINTS + 2 for j, res, _ in calls if j == k)


def test_every_round_rebounds_the_cells_open_at_its_start():
    """Every round, the first included, re-bounds the cells open at its
    start.  The outputs of this K = 8 call (near the floors, no target)
    are pinned."""
    sc = BroadcastScenario(19.9006721167769, (
        56.12905297185589, 15.720820962403199, 12.339921320596165, 3.195691256044807,
        0.9549600559260972, 0.49796790865563945, 0.24016314963850396, 0.043835181822297876,
    ), 3.1851705680878646)
    d = (0.40675217650204154, 0.09351113165754794, 0.04713276600923734, 0.0018421520232220127,
         0.8726184319270892, 7.454312933267315e-06, 7.531777252588529e-07, 0.0006187748281558617)
    res = sup_bound_lhs(sc, d)
    assert repr((res.sup_value, res.argmax_tau.taus, res.iterations, res.sup_upper)) == (
        "(94.06182097516545, (1.2510616702497903, 1.2510616702497903, 0.09431848447195675, "
        "0.0027031426863679186, 0.0027031426863679186, 1.567892432308106e-05, 0.0, 0.0), 6537, "
        "94.06182097516907)"
    )


def test_first_pass_witness_is_polished_to_its_parabola_peaks():
    """At b > 1 the first pass moves its grid witness's entries to their
    stages' parabola peaks.  On seeded draws at K = 2 and 3, a call that
    the first pass decides (no target can be reached) comes within 1e-7
    relative of the refined sup_upper of a call without a target, and its
    sup_value is the evaluator's value at its witness."""
    rng = random.Random(5)
    for i in range(80):
        k = 2 + i % 2
        sc = random_scenario(rng, k_range=(k, k), bandwidth=rng.uniform(1.05, 8.0))
        d = random_distortions(rng, sc)
        first = sup_bound_lhs(sc, d, target=1e300)
        assert first.iterations == (k - 1) * GRID_POINTS + 2, (sc, d)  # the first pass decided
        assert first.sup_value >= sup_bound_lhs(sc, d).sup_upper * (1.0 - 1e-7), (sc, d)
        assert first.sup_value == _Chain(sc, check_distortions(sc, d)).lhs(first.argmax_tau.taus)


def _searched(monkeypatch, call):
    """``call()``'s result, and the rounds of the search it ran."""
    import gbcbound._search as search

    real, rounds = search._Cells.cut, []

    def counted(*args, **kwargs):
        rounds.append(1)
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(search._Cells, "cut", counted)
        result = call()
    return result, len(rounds)


def test_search_stops_at_the_rounding_floor_within_its_budget(monkeypatch):
    """On a README trace row, the float next to the boundary of the tolerant
    verdict has its supremum within the rounding floor of the threshold, so
    it can be certified neither way: the search stops undecided, within its
    point budget."""
    readme = load_scenario(SCENARIOS / "expansion_k2.json")
    threshold = bound_rhs(readme) * (1.0 + DEFAULT_REL_TOL)
    d1 = 0.25 + 0.12 * 22 / 24
    lo, hi = trivial_distortion(readme, 2), 1.0
    for _ in range(200):  # bisect the tolerant verdict to the float next to the boundary
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if in_outer_region(readme, (d1, mid)).member else (mid, hi)
        if hi - lo <= 2.0 * math.ulp(hi):
            break
    verdict, rounds = _searched(monkeypatch, lambda: in_outer_region(readme, (d1, hi)))
    assert verdict.member and not verdict.certified
    assert abs(verdict.sup.sup_value / threshold - 1.0) <= _rounding_floor(readme, (d1, hi))
    assert verdict.sup.iterations <= GRID_POINTS + POINT_BUDGET + rounds + 1


def test_trace_infeasible_prefix_raises_within_three_calls(monkeypatch):
    """The D_K = N_S probe costs no supremum call when lo's witness already
    violates the bound there: at b <= 1 the first probe's witness does."""
    for sc in (S_MATCHED, S_EXPAND, S_COMPRESS):
        calls, raised = _sup_calls(monkeypatch, sc, (0.9 * trivial_distortion(sc, 1),))
        assert raised and (calls <= 2 if sc.bandwidth > 1.0 else calls == 1)
    k3 = BroadcastScenario(2.0, (4.0, 2.0, 1.0), 2.0)
    prefix = (trivial_distortion(k3, 1), 0.95 * trivial_distortion(k3, 2))
    calls, raised = _sup_calls(monkeypatch, k3, prefix)
    assert raised and calls <= 2


def _bisected_boundary(sc, prefix):
    """D_K,min by plain bisection of the verdict between D_K* / 2 and N_S."""
    lo, hi = 0.5 * trivial_distortion(sc, sc.num_receivers), sc.source_var
    while hi - lo > TRACE_WIDTH:
        mid = 0.5 * (lo + hi)
        if in_outer_region(sc, prefix + (mid,)).member:
            hi = mid
        else:
            lo = mid
    return hi


def test_trace_matches_plain_bisection():
    rng = random.Random(47)
    regimes = _regimes(rng)
    rows = 0
    for k in (2, 3, 5):
        for draw_b in regimes + regimes[2:]:
            sc = random_scenario(rng, k_range=(k, k), bandwidth=draw_b())
            prefix = _near_floor(rng, sc, k - 1)
            while not in_outer_region(sc, prefix + (sc.source_var,)).member:
                prefix = _near_floor(rng, sc, k - 1)
            assert abs(trace_boundary(sc, prefix) - _bisected_boundary(sc, prefix)) <= TRACE_WIDTH, (sc, prefix)
            rows += 1
    assert rows == 12


def test_trace_bisects_when_no_witness_root_is_usable(monkeypatch):
    """With every witness root NaN, the row probes N_S and then bisects
    (``x = 0.5 * (lo + hi)``): it ends, its result is a member and the
    result minus TRACE_WIDTH is not, and it agrees with plain bisection."""
    import gbcbound.membership as m

    monkeypatch.setattr(m._Witness, "root", lambda self, target: math.nan)
    k3 = BroadcastScenario(3.0, (3.0, 1.0, 0.3), 2.0)
    for sc, prefix in ((S_EXPAND, (0.3,)), (S_COMPRESS, (0.8,)), (k3, (0.3, 0.1))):
        calls, raised = _sup_calls(monkeypatch, sc, prefix)
        assert not raised and calls <= 40, (sc, calls)
        dk = trace_boundary(sc, prefix)
        assert in_outer_region(sc, prefix + (dk,)).member, sc
        assert not in_outer_region(sc, prefix + (dk - TRACE_WIDTH,)).member, sc
        assert abs(dk - _bisected_boundary(sc, prefix)) <= TRACE_WIDTH, sc


def _forced_row(monkeypatch, sc, prefix, root=None, reach=None):
    """One trace_boundary row with ``_Witness.root`` replaced by root(lo) and
    ``_Witness.reach`` by reach(lo, hi) once a member is known, each where
    given; returns the result, the probes that took a supremum call, and
    those that lo's witness excluded with none, each as (lo, hi, x), the
    bracket before it."""
    import gbcbound.membership as m

    bracket = {"lo": 0.5 * trivial_distortion(sc, sc.num_receivers), "hi": sc.source_var, "member": False}
    probes, screened = [], []
    real_verdict, real_violates = m.in_outer_region, m._Witness.violates
    real_root, real_reach = m._Witness.root, m._Witness.reach

    def verdict(scenario, d, rel_tol):
        assert len(probes) < 150, f"trace_boundary loops on {sc}, prefix {prefix}"
        *_, x = d
        probes.append((bracket["lo"], bracket["hi"], x))
        v = real_verdict(scenario, d, rel_tol=rel_tol)
        if v.member:
            bracket.update(hi=x, member=True)
        else:
            bracket["lo"] = x
        return v

    def violates(self, scenario, d, target):
        out = real_violates(self, scenario, d, target)
        *_, x = d
        if out:
            screened.append((bracket["lo"], bracket["hi"], x))
            bracket["lo"] = x
        return out

    def forced_root(self, target):
        return root(bracket["lo"]) if root and bracket["member"] else real_root(self, target)

    def forced_reach(self, target, lo, anchor):
        return reach(lo, bracket["hi"]) if reach and bracket["member"] else real_reach(self, target, lo, anchor)

    with monkeypatch.context() as patch:
        patch.setattr(m, "in_outer_region", verdict)
        patch.setattr(m._Witness, "violates", violates)
        patch.setattr(m._Witness, "root", forced_root)
        patch.setattr(m._Witness, "reach", forced_reach)
        result = trace_boundary(sc, prefix)
    return result, probes, screened


_FORCED_ROWS = ((S_EXPAND, (0.3,)), (load_scenario(SCENARIOS / "expansion_k2.json"), (0.28,)),
                (BroadcastScenario(3.0, (3.0, 1.0, 0.3), 2.0), (0.3, 0.1)))
_W = TRACE_WIDTH
# each path's forced root(lo) and reach(lo, hi), and the probe (lo, hi) -> x that shows it was taken
_SAFETY_PATHS = {
    "stall": (lambda lo: lo + 0.5 * _W, lambda lo, hi: lo + 0.5 * _W, lambda lo, hi: 0.5 * (lo + hi)),
    "floor": (lambda lo: lo - 0.5 * _W, lambda lo, hi: lo + 0.6 * _W, lambda lo, hi: lo + 0.25 * _W),
    "beyond-hi": (None, lambda lo, hi: 2.0 * hi, lambda lo, hi: hi - 0.5 * _W),
}


@pytest.mark.parametrize("path", sorted(_SAFETY_PATHS))
def test_trace_safety_paths_end_with_the_contract(monkeypatch, path):
    """Paths no traffic reaches, forced: roots that crawl just above lo once a
    member is known, so three probes in a row fail to halve the bracket
    and a bisection step follows ("stall"); a root just below lo with an
    aim within 3 TRACE_WIDTH / 4 of it, so the probe takes the
    lo + TRACE_WIDTH / 4 floor ("floor"); and an aim beyond hi, which the
    clamp holds at hi - TRACE_WIDTH / 2 ("beyond-hi").  From the first
    member on, at least every fourth probe halves the bracket, so each row
    ends within 100 supremum calls (about 4 per halving of a bracket some
    1e-5 wide); it probes strictly inside its bracket, returns a member
    whose D_K - TRACE_WIDTH is not one, and agrees with plain bisection."""
    root, reach, mark = _SAFETY_PATHS[path]
    for sc, prefix in _FORCED_ROWS:
        dk, probes, screened = _forced_row(monkeypatch, sc, prefix, root, reach)
        assert len(probes) <= 100, (sc, len(probes))
        assert any(x == mark(lo, hi) for lo, hi, x in probes + screened), sc
        assert all(lo < x < hi for lo, hi, x in probes + screened), sc
        assert in_outer_region(sc, prefix + (dk,)).member, sc
        assert not in_outer_region(sc, prefix + (dk - TRACE_WIDTH,)).member, sc
        assert abs(dk - _bisected_boundary(sc, prefix)) <= TRACE_WIDTH, sc


def test_trace_screens_every_probe_with_lo_witness(monkeypatch):
    """A probe that lo's witness already excludes is a certified non-member
    whether or not it closes the bracket.  With every witness root
    under-reported by 3 TRACE_WIDTH, the first probes land below the true
    root while hi is still N_S, unprobed: lo's witness excludes them, none
    takes a supremum call, and the row still ends with the contract and
    agrees with plain bisection."""
    import gbcbound.membership as m

    real_root = m._Witness.root
    monkeypatch.setattr(m._Witness, "root", lambda self, target: real_root(self, target) - 3.0 * TRACE_WIDTH)
    for sc, prefix in _FORCED_ROWS:
        dk, probes, screened = _forced_row(monkeypatch, sc, prefix)
        assert any(hi - x > TRACE_WIDTH for lo, hi, x in screened), sc
        assert not {x for _, _, x in screened} & {x for _, _, x in probes}, sc
        assert in_outer_region(sc, prefix + (dk,)).member, sc
        assert not in_outer_region(sc, prefix + (dk - TRACE_WIDTH,)).member, sc
        assert abs(dk - _bisected_boundary(sc, prefix)) <= TRACE_WIDTH, sc


def test_verdict_makes_one_sup_call_through_the_module(monkeypatch):
    """perfbench's tracer wraps membership.sup_bound_lhs by name and reads
    the SupResult's iterations and sup_value, so in_outer_region must call
    it exactly once, through the module attribute."""
    import gbcbound.membership as m

    real = m.sup_bound_lhs
    for d in ((0.25, 0.0625), (1.0, 1.0)):
        results = []

        def counted(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(m, "sup_bound_lhs", counted)
        verdict = in_outer_region(S_EXPAND, d)
        assert len(results) == 1 and results[0] is verdict.sup
        assert isinstance(verdict.sup, SupResult) and verdict.sup.iterations >= 1
        assert verdict.margin == verdict.rhs - verdict.sup.sup_value


def test_trace_infeasible_everywhere():
    with pytest.raises(InfeasibleEverywhere):
        trace_boundary(S_MATCHED, (0.9 * trivial_distortion(S_MATCHED, 1),))


def test_trace_rejects_wrong_prefix_length():
    with pytest.raises(InvalidDistortion):
        trace_boundary(S_MATCHED, (0.5, 0.2))
