"""The self-test must pass on healthy code and fail on corrupted code."""

import dataclasses

import pytest

import jobmarket.selftest as selftest
import jobmarket.setfn as setfn
import jobmarket.surplus as surplus

SUITE_NAMES = (
    "oracle_equivalence",
    "marginal_product_order",
    "tight_sets_downward_closed",
    "truthful_dominance",
    "ir_iff_weak_substitutes",
    "sir_iff_submodular",
    "valuation_chain",
    "stability",
)


def test_run_passes_on_healthy_code():
    report = selftest.run(trials=30, seed=0, grid=4)
    assert report.ok
    assert tuple(s.name for s in report.suites) == SUITE_NAMES
    for s in report.suites:
        assert s.failures == ()
        assert s.checked >= 0
    assert report.seed == 0 and report.trials == 30 and report.grid == 4


def test_lines_format():
    report = selftest.run(trials=10, seed=2, grid=3)
    lines = report.lines()
    assert len(lines) == len(SUITE_NAMES) + 1
    for line, name in zip(lines, SUITE_NAMES):
        assert line.startswith("ok  ")
        assert f"{name}:" in line
        assert line.endswith("0 failures")
    assert lines[-1] == "all suites passed (trials=10, seed=2, grid=3)"


def test_zero_trials_passes_trivially():
    report = selftest.run(trials=0)
    assert report.ok
    assert all(s.checked == 0 for s in report.suites)


def test_run_is_deterministic():
    a = selftest.run(trials=15, seed=7)
    b = selftest.run(trials=15, seed=7)
    assert a.to_dict() == b.to_dict()


def test_run_validates_arguments():
    with pytest.raises(ValueError, match="nonnegative"):
        selftest.run(trials=-1)
    with pytest.raises(ValueError, match="at least 1"):
        selftest.run(trials=5, grid=0)


def test_to_dict_shape():
    d = selftest.run(trials=5, seed=1).to_dict()
    assert d["ok"] is True
    assert d["seed"] == 1 and d["trials"] == 5 and d["grid"] == 6
    assert [s["name"] for s in d["suites"]] == list(SUITE_NAMES)
    assert all(s["failures"] == [] for s in d["suites"])


def test_detects_corrupted_classifier(monkeypatch):
    """Forcing the submodularity check true must trip several suites."""
    real = setfn.is_submodular

    def always_true(h):
        return dataclasses.replace(real(h), verdict=True, witness=None)

    monkeypatch.setattr(setfn, "is_submodular", always_true)
    report = selftest.run(trials=40, seed=1)
    assert not report.ok
    failing = {s.name for s in report.suites if not s.ok}
    assert "valuation_chain" in failing
    lines = report.lines()
    assert any(line.startswith("FAIL") for line in lines)
    assert lines[-1].startswith("SELF-TEST FAILED")


def test_detects_disagreeing_gross_substitutes_scan(monkeypatch):
    """A scan that fails every table must contradict the local test."""
    from jobmarket.model import ConditionReport

    forced = ConditionReport(False, {"forced": "yes"})
    monkeypatch.setattr(setfn, "_gross_substitutes_scan", lambda h: forced)
    report = selftest.run(trials=20, seed=1)
    suite = next(s for s in report.suites if s.name == "valuation_chain")
    assert any("disagrees with the scan" in f for f in suite.failures)


def test_detects_passing_strong_substitutes_scan(monkeypatch):
    """A strong-substitutes scan that passes every table must contradict
    the submodularity verdict on the tables that are not submodular."""
    from jobmarket.model import ConditionReport

    monkeypatch.setattr(
        setfn, "_strong_substitutes_scan", lambda h: ConditionReport(verdict=True)
    )
    report = selftest.run(trials=40, seed=1)
    assert [s.name for s in report.suites if not s.ok] == ["valuation_chain"]
    suite = report.suites[SUITE_NAMES.index("valuation_chain")]
    assert suite.failures
    for line in suite.failures:
        assert line.endswith(
            ": strong substitutes: the verdict is false but the exhaustive scan finds no violation"
        )


def test_detects_corrupted_solver(monkeypatch):
    """Inflating the dynamic program's total must trip the oracle suite."""
    real = surplus.efficient_matching

    def inflated(m, u=None, **kw):
        sol = real(m, u, **kw)
        return dataclasses.replace(sol, total=sol.total + 1)

    monkeypatch.setattr(surplus, "efficient_matching", inflated)
    report = selftest.run(trials=12, seed=1)
    failing = {s.name for s in report.suites if not s.ok}
    assert "oracle_equivalence" in failing


def test_failure_lines_are_truncated(monkeypatch):
    from jobmarket.model import ConditionReport

    monkeypatch.setattr(
        surplus,
        "check_marginal_product_order",
        lambda m, u=None: ConditionReport(False, {"forced": "yes"}),
    )
    report = selftest.run(trials=12, seed=3)
    suite = next(s for s in report.suites if s.name == "marginal_product_order")
    assert len(suite.failures) == 12
    lines = report.lines()
    assert any("... and" in line for line in lines)
