import math
import random

import pytest

from gbcbound.bound import bound_rhs, check_inequality, eval_lhs
from gbcbound.core import (
    trivial_distortion,
    trivial_distortions,
    validate_scenario,
)
from gbcbound.errors import ClassificationMismatch, InfeasibleEverywhere, InvalidDistortion
from gbcbound.membership import (
    TrivialComparison,
    boundary_trace_rows,
    classify_vs_trivial,
    in_outer_region,
    sup_bound_lhs,
    trace_boundary,
)
from gbcbound.verify import random_distortions, random_scenario

S_MATCHED = validate_scenario(3, [3, 1], 1)
S_EXPAND = validate_scenario(3, [3, 1], 2)
S_COMPRESS = validate_scenario(3, [3, 1], 0.5)


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


def test_sup_witness_consistency():
    """The reported supremum is the evaluator's value at the reported witness,
    the verdict agrees with check_inequality there, and no two-level
    schedule beats it."""
    rng = random.Random(31)
    regimes = (lambda: math.exp(rng.uniform(math.log(0.1), math.log(0.95))),
               lambda: 1.0,
               lambda: math.exp(rng.uniform(math.log(1.05), math.log(8.0))))
    levels = [10.0 ** (e / 2) for e in range(-12, 13)] + [math.inf]
    for k in (1, 2, 3, 5, 8, 16):
        for draw_b in regimes:
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
                for m in range(1, k):
                    for s in levels:
                        lhs = eval_lhs(sc, d, (s,) * m + (0.0,) * (k - m))
                        assert sup.sup_value >= lhs - slack, (k, m, s)


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


def test_trace_infeasible_everywhere():
    with pytest.raises(InfeasibleEverywhere):
        trace_boundary(S_MATCHED, (0.9 * trivial_distortion(S_MATCHED, 1),))


def test_trace_respects_search_range():
    with pytest.raises(InvalidDistortion):
        trace_boundary(S_MATCHED, (0.5,), search_range=(0.0, 2.0))
    with pytest.raises(InvalidDistortion):
        trace_boundary(S_MATCHED, (0.5, 0.2))


def test_boundary_trace_rows_shape():
    rows = boundary_trace_rows(S_MATCHED, [(0.5,), (0.6,)])
    assert len(rows) == 2
    for row in rows:
        assert len(row) == 4  # D_1, D_2_min, sup, margin
        assert row[1] == pytest.approx(0.25, abs=1e-7)
        assert row[2] == pytest.approx(6.0, rel=1e-6)


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
