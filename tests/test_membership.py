import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest

from gbcbound.bound import _Chain, bound_rhs, check_inequality, eval_lhs
from gbcbound.core import (
    check_distortions,
    load_scenario,
    trivial_distortion,
    trivial_distortions,
    validate_scenario,
)
from gbcbound.errors import ClassificationMismatch, InfeasibleEverywhere, InvalidDistortion
from gbcbound.membership import (
    TRACE_WIDTH,
    TrivialComparison,
    _chain_dp,
    classify_vs_trivial,
    in_outer_region,
    sup_bound_lhs,
    trace_boundary,
)
from gbcbound.verify import random_distortions, random_scenario, random_schedule

S_MATCHED = validate_scenario(3, [3, 1], 1)
S_EXPAND = validate_scenario(3, [3, 1], 2)
S_COMPRESS = validate_scenario(3, [3, 1], 0.5)
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
    assert res.certified_gap >= 0.0


def test_sup_single_receiver_forced_schedule():
    sc = validate_scenario(1, [1], 2)
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
    """The reported supremum is the evaluator's value at the reported witness,
    the verdict agrees with check_inequality there, and no probe beats it:
    two-level schedules, random schedules (some with infinite prefixes),
    the witness scaled by 0.5 and 2, and the witness with one entry moved
    by 1e-4 relative, which catches a witness left at the first grid's
    spacing."""
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
                verdict = in_outer_region(sc, d)
                sup = verdict.sup
                assert sup.sup_value == eval_lhs(sc, d, sup.argmax_tau)
                ev = check_inequality(sc, d, sup.argmax_tau, verdict.tolerance)
                assert verdict.member == ev.satisfied
                slack = 1e-12 * max(abs(sup.sup_value), rhs)
                probes = [(s,) * m + (0.0,) * (k - m) for m in range(1, k) for s in levels]
                probes += [random_schedule(draws, k) for _ in range(8)]
                probes += [tuple(f * t for t in sup.argmax_tau.taus) for f in (0.5, 2.0)]
                probes += [tau for f in (1 - 1e-4, 1 + 1e-4) for tau in _nudged(sup.argmax_tau.taus, f)]
                for tau in probes:
                    assert sup.sup_value >= eval_lhs(sc, d, tau) - slack, (k, tau)


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
                got = chain.lhs(_chain_dp(chain, grid))
                assert got == pytest.approx(best, rel=1e-12, abs=0.0), (sc, chain.d)


def test_small_bandwidth_overflow_is_non_member():
    """At b = 0.0009 the step schedule (+inf, 0) gives +inf, past the float
    range, while the recursion's links at small tau underflow to 0: a 0 * inf
    product must never be read as the maximum."""
    sc = validate_scenario(3, [3, 1], 0.0009)
    d = (0.99995, 0.5 * trivial_distortion(sc, 2))
    verdict = in_outer_region(sc, d)
    assert not verdict.member
    assert not check_inequality(sc, d, verdict.sup.argmax_tau).satisfied
    assert verdict.sup.sup_value == eval_lhs(sc, d, verdict.sup.argmax_tau) == math.inf
    assert verdict.margin == -math.inf
    assert math.isfinite(verdict.sup.certified_gap)


def test_reproducer_is_non_member():
    """A maximizer at tau ~ 5e-3, far below where a coarse grid looks, must be found."""
    sc = validate_scenario(
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
    sc = validate_scenario(1, [1], 2)
    dstar = trivial_distortion(sc, 1)
    assert in_outer_region(sc, (dstar,)).member
    assert in_outer_region(sc, (min(dstar * 1.5, 1.0),)).member
    assert not in_outer_region(sc, (dstar * 0.9,)).member


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


def _sup_calls_per_row(monkeypatch, sc, prefixes):
    import gbcbound.membership as m

    real = m.sup_bound_lhs
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(m, "sup_bound_lhs", counted)
    for prefix in prefixes:
        trace_boundary(sc, prefix)
    return calls / len(prefixes)


def test_trace_sup_calls_per_row(monkeypatch):
    """Root-finding takes about 8 supremum calls per row where bisection took 36:
    the README's trace grid, and K = 3 rows on matched_k3's channel at b = 2."""
    readme = load_scenario(SCENARIOS / "expansion_k2.json")
    rows = [(0.25 + 0.12 * i / 24,) for i in range(25)]
    assert _sup_calls_per_row(monkeypatch, readme, rows) <= 12
    ch = load_scenario(SCENARIOS / "matched_k3.json")
    sc = validate_scenario(ch.power, ch.noises, 2.0)
    f1, f2 = trivial_distortion(sc, 1), trivial_distortion(sc, 2)
    d2 = f2 * (sc.source_var / f2) ** 0.15
    rows = [(f1 * (sc.source_var / f1) ** (0.05 + 0.3 * i / 25), d2) for i in range(25)]
    assert _sup_calls_per_row(monkeypatch, sc, rows) <= 12


def test_trace_infeasible_everywhere():
    with pytest.raises(InfeasibleEverywhere):
        trace_boundary(S_MATCHED, (0.9 * trivial_distortion(S_MATCHED, 1),))


def test_trace_rejects_wrong_prefix_length():
    with pytest.raises(InvalidDistortion):
        trace_boundary(S_MATCHED, (0.5, 0.2))


def test_classification_rules():
    assert classify_vs_trivial(S_COMPRESS) is TrivialComparison.DEGENERATE
    assert classify_vs_trivial(S_MATCHED) is TrivialComparison.EQUAL
    assert classify_vs_trivial(S_EXPAND) is TrivialComparison.STRICTLY_TIGHTER
    assert classify_vs_trivial(validate_scenario(2, [4, 2, 1], 1)) is TrivialComparison.EQUAL
    assert classify_vs_trivial(validate_scenario(1, [1], 2)) is TrivialComparison.EQUAL
    assert classify_vs_trivial(validate_scenario(1, [1], 0.3)) is TrivialComparison.EQUAL


def test_classification_detects_forced_bug(monkeypatch):
    """Self-test: a corrupted membership oracle must trip the mismatch error."""
    import gbcbound.membership as m

    real = m.in_outer_region

    def corrupted(scenario, distortions, rel_tol=1e-9):
        verdict = real(scenario, distortions, rel_tol=rel_tol)
        return type(verdict)(
            member=not verdict.member,
            sup=verdict.sup,
            margin=verdict.margin,
            rhs=verdict.rhs,
            tolerance=verdict.tolerance,
        )

    monkeypatch.setattr(m, "in_outer_region", corrupted)
    with pytest.raises(ClassificationMismatch):
        m.classify_vs_trivial(S_MATCHED)


def test_membership_downward_closed():
    rng = random.Random(77)
    checked = 0
    for _ in range(40):
        sc = random_scenario(rng, k_range=(1, 3))
        ns = sc.source_var
        d = tuple(rng.uniform(0.05, 1.0) * ns for _ in range(sc.num_receivers))
        if not in_outer_region(sc, d).member:
            continue
        d_up = tuple(min(v * (1 + rng.uniform(0, 0.5)), ns) for v in d)
        assert in_outer_region(sc, d_up).member
        checked += 1
    assert checked >= 5


def test_trivial_point_membership_by_regime():
    rng = random.Random(13)
    for _ in range(60):
        k_hi = rng.randint(2, 4)
        b = rng.choice((rng.uniform(0.05, 0.95), 1.0, rng.uniform(1.05, 8.0)))
        sc = random_scenario(rng, k_range=(k_hi, k_hi), bandwidth=b)
        member = in_outer_region(sc, trivial_distortions(sc)).member
        assert member == (b <= 1.0)
