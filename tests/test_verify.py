import pytest

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
    assert [(r.name, r.trials, r.failures) for r in a] == [
        (r.name, r.trials, r.failures) for r in b
    ]


def test_zero_trials_is_vacuous():
    results = run_all_checks(trials=0, seed=42)
    for r in results:
        assert r.passed and r.trials == 0
        assert "vacuous" in r.detail


def test_forced_bug_is_caught(monkeypatch):
    """Self-test of the harness: a negated comparison must fail the equality suite."""
    import gbcbound.bound as bound_mod

    real = bound_mod.eval_lhs

    def corrupted(scenario, distortions, tau):
        return real(scenario, distortions, tau) * 1.001

    monkeypatch.setattr(bound_mod, "eval_lhs", corrupted)
    results = {r.name: r for r in run_all_checks(trials=30, seed=42)}
    assert not results["matched-equality"].passed
