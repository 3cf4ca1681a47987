import dataclasses
import random

import pytest

from gbcbound import verify
from gbcbound.core import trivial_distortions
from gbcbound.errors import InputError
from gbcbound.verify import CHECK_NAMES, run_all_checks


def test_all_checks_pass_at_default_scale():
    results = run_all_checks(trials=200, seed=42)
    assert [r.name for r in results] == list(CHECK_NAMES)
    for r in results:
        assert r.passed, f"{r.name}: {r.failures}/{r.trials} failures"
        assert r.trials > 0


def test_checks_deterministic_given_seed():
    a = run_all_checks(trials=50, seed=7)
    b = run_all_checks(trials=50, seed=7)
    assert [(r.name, r.trials, r.failures, r.examples) for r in a] == [
        (r.name, r.trials, r.failures, r.examples) for r in b
    ]


def test_zero_trials_is_vacuous():
    results = run_all_checks(trials=0, seed=42)
    for r in results:
        assert r.passed and r.trials == 0
        assert "vacuous" in r.detail


def test_negative_trials_are_rejected():
    with pytest.raises(InputError):
        run_all_checks(trials=-5, seed=42)


def test_forced_bug_is_caught(monkeypatch):
    """Self-test of the harness: a negated comparison must fail the equality suite."""
    import gbcbound.bound as bound_mod

    real = bound_mod.eval_lhs

    def corrupted(scenario, distortions, tau):
        return real(scenario, distortions, tau) * 1.001

    monkeypatch.setattr(bound_mod, "eval_lhs", corrupted)
    results = {r.name: r for r in run_all_checks(trials=30, seed=42)}
    assert not results["matched-equality"].passed


def _cap_evaluator(monkeypatch):
    """Cap the evaluator (``bound._Chain``, as bound, membership and verify
    reach it) at P + N_1: ``lhs`` and ``lhs_error`` never exceed the bound."""
    import gbcbound.bound as bound_mod
    import gbcbound.membership as membership_mod

    class Capped(bound_mod._Chain):
        def __init__(self, scenario, d):
            super().__init__(scenario, d)
            self.cap = bound_mod.bound_rhs(scenario)

        def lhs(self, taus):
            return min(super().lhs(taus), self.cap)

        def lhs_error(self, taus):
            value, error = super().lhs_error(taus)
            return min(value, self.cap), error

    for module in (bound_mod, membership_mod):
        monkeypatch.setattr(module, "_Chain", Capped)


def test_forced_bug_without_strict_violation_is_caught(monkeypatch):
    """A bound that never exceeds P + N_1 at tau = (1, 0, ...) fails expansion-strict."""
    _cap_evaluator(monkeypatch)
    result = verify._check_expansion_strict(random.Random(1), 30)
    assert result.failures == result.trials == 30
    assert len(result.examples) == 3 and [e["draw"] for e in result.examples] == [0, 1, 2]


def test_forced_bug_increasing_in_distortion_is_caught(monkeypatch):
    """An lhs that increases in D_k fails distortion-monotonicity."""
    import gbcbound.bound as bound_mod

    real = bound_mod.eval_lhs

    def increasing(scenario, distortions, tau):
        return real(scenario, distortions, tau) + 1e-2 * sum(distortions) / scenario.source_var

    monkeypatch.setattr(bound_mod, "eval_lhs", increasing)
    result = verify._check_monotonicity(random.Random(1), 50)
    assert not result.passed
    assert result.examples[0]["margin"] > 0


def test_forced_bug_flipped_membership_is_caught(monkeypatch):
    """A membership oracle that flips every verdict fails regime-vs-trivial."""
    import gbcbound.membership as membership_mod

    real = membership_mod.in_outer_region

    def flipped(scenario, distortions, rel_tol=1e-9):
        verdict = real(scenario, distortions, rel_tol=rel_tol)
        return dataclasses.replace(verdict, member=not verdict.member)

    monkeypatch.setattr(membership_mod, "in_outer_region", flipped)
    result = verify._check_regime_vs_trivial(random.Random(1), 30)
    assert not result.passed
    assert len(result.examples) == 3 and all("expected" in e for e in result.examples)


def test_regime_vs_trivial_takes_every_strict_verdict(monkeypatch):
    """At seeds 0-49 (1000 trials) regime-vs-trivial passes, and every b > 1,
    K >= 2 draw (each probes 0.98 D*) takes its D* verdict with no
    tolerance, certified by its witness's violation: no draw is skipped."""
    import gbcbound.membership as membership_mod

    real, calls = membership_mod.in_outer_region, []

    def recorded(scenario, distortions, rel_tol=1e-9):
        if scenario.bandwidth > 1.0 and scenario.num_receivers >= 2:
            dstar = trivial_distortions(scenario).values
            if tuple(distortions) == dstar:
                calls.append(("dstar", rel_tol))
            elif tuple(distortions) == tuple(0.98 * v for v in dstar):
                calls.append(("draw", rel_tol))
        return real(scenario, distortions, rel_tol=rel_tol)

    monkeypatch.setattr(membership_mod, "in_outer_region", recorded)
    for seed in range(50):
        calls.clear()
        result = verify._check_regime_vs_trivial(random.Random(f"{seed}:regime-vs-trivial"), 1000)
        assert result.passed, (seed, result.examples)
        draws = calls.count(("draw", 1e-9))
        assert draws and calls.count(("dstar", 0.0)) == draws == len(calls) // 2, seed
        assert result.detail.startswith(f"{draws} D* non-members"), (seed, result.detail)


def test_forced_bug_without_strict_dstar_violation_is_caught(monkeypatch):
    """An lhs capped at P + N_1 leaves no witness violating the bound at D*,
    which fails regime-vs-trivial on its b > 1 draws."""
    _cap_evaluator(monkeypatch)
    result = verify._check_regime_vs_trivial(random.Random(1), 300)
    assert not result.passed and result.detail.startswith("0 D* non-members")
    assert all(e["expected"] is False and e["margin"] == 0.0 for e in result.examples)
