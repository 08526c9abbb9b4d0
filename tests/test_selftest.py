"""The self-test must pass on healthy code and fail on corrupted code."""

import json

import pytest

import jobmarket.necessity as necessity
import jobmarket.oracles as oracles
import jobmarket.pivot as pivot
import jobmarket.selftest as selftest
import jobmarket.setfn as setfn
import jobmarket.stability as stability
import jobmarket.surplus as surplus
from jobmarket.marketio import market_digest, parse_profile
from jobmarket.model import ConditionReport
from worked_examples import plateau_market

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
    counts = {s["name"]: s["counts"] for s in d["suites"]}
    assert set(counts["valuation_chain"]) == {
        "gross_substitutes", "submodular", "weak_substitutes"
    }
    assert set(counts["sir_iff_submodular"]) == {
        "firing_proof_markets", "canonical", "exhibited"
    }


def test_every_failing_firm_gets_a_certificate():
    m = necessity.generate("random_monotone", 3, 2, 0)
    corpus = [("gen random_monotone 3 2 --seed 0", m, (m.disutilities,))]
    assert not any(setfn.is_weak_substitutes(fn).verdict for _, fn in m.firms)
    ir = selftest._ir_iff_weak_substitutes(corpus)
    assert ir.failures == ()
    assert ir.counts == {"rational_markets": 0, "violations": 2}


def _rebuilt(label):
    word, kind, n, nfirms, flag, seed = label.split()
    assert (word, flag) == ("gen", "--seed")
    return necessity.generate(kind, int(n), int(nfirms), int(seed))


def test_failure_lines_reproduce_market_and_profile(monkeypatch):
    """A failure line starts with the gen line that rebuilds its market;
    one on a profile other than the market's own prints that profile."""
    forced = ConditionReport(False, {"forced": "yes"})
    ordered = []

    def order(m, u=None):
        ordered.append(market_digest(m))
        return forced

    real_check_ir = pivot.check_ir
    refused = []

    def check_ir(r):
        if r.profile == r.market.disutilities:
            return real_check_ir(r)
        refused.append((market_digest(r.market), r.profile))
        return forced

    monkeypatch.setattr(oracles, "check_marginal_product_order", order)
    monkeypatch.setattr(pivot, "check_ir", check_ir)
    suites = {s.name: s for s in selftest.run(trials=12, seed=5).suites}
    lines = suites["marginal_product_order"].failures
    assert len(lines) == len(ordered) == 12
    for line, digest in zip(lines, ordered):
        label, witness = line.split(": ", 1)
        assert witness == "{'forced': 'yes'}"
        assert market_digest(_rebuilt(label)) == digest
    lines = suites["ir_iff_weak_substitutes"].failures
    assert lines
    for line in lines:
        head, witness = line.split(": ", 1)
        assert witness == "all firms weak-substitutes yet {'forced': 'yes'}"
        label, entries = head.split(" profile ")
        m = _rebuilt(label)
        profile = parse_profile(json.loads(entries), m.workers, m.firm_names)
        assert profile != m.disutilities
        assert (market_digest(m), profile) in refused


def test_detects_corrupted_classifier(monkeypatch):
    """Forcing the submodularity check true must trip several suites."""
    real = setfn.is_submodular

    def always_true(h):
        return ConditionReport(True, None, real(h).details)

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
    forced = ConditionReport(False, {"forced": "yes"})
    monkeypatch.setattr(oracles, "gross_substitutes_scan", lambda h: forced)
    report = selftest.run(trials=20, seed=1)
    suite = next(s for s in report.suites if s.name == "valuation_chain")
    assert any("disagrees with the scan" in f for f in suite.failures)


def test_detects_passing_strong_substitutes_scan(monkeypatch):
    """A strong-substitutes scan that passes every table must contradict
    the submodularity verdict on the tables that are not submodular."""
    monkeypatch.setattr(
        oracles, "strong_substitutes_scan", lambda h: ConditionReport(verdict=True)
    )
    report = selftest.run(trials=40, seed=1)
    assert [s.name for s in report.suites if not s.ok] == ["valuation_chain"]
    suite = report.suites[SUITE_NAMES.index("valuation_chain")]
    assert suite.failures
    for line in suite.failures:
        assert line.endswith(": the chain's strong_substitutes disagrees with the scan")


def _spy(monkeypatch, module, name):
    """Count the calls of module.name, which still runs."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_valuation_chain_runs_the_gross_scan_once_on_a_failing_table(monkeypatch):
    """A monotone table that is not submodular runs the gross scan once,
    as the oracle: the chain's witness is its pair violation."""
    calls = _spy(monkeypatch, oracles, "gross_substitutes_scan")
    m = plateau_market()
    result = selftest._valuation_chain([("plateau", m, (m.disutilities,))])
    assert result.ok and result.counts["gross_substitutes"] == 0
    assert len(calls) == 1


def test_stability_suite_runs_no_gross_witness_scan(monkeypatch):
    """The suite needs only the firms' gross-substitutes verdicts; the
    O(n^2 4^n) scan runs for the valuation chain alone."""
    calls = _spy(monkeypatch, oracles, "gross_substitutes_scan")
    suite_calls = []
    real = selftest._stability_agreement

    def counted(corpus):
        before = len(calls)
        result = real(corpus)
        suite_calls.append(len(calls) - before)
        return result

    monkeypatch.setattr(selftest, "_stability_agreement", counted)
    report = selftest.run(trials=200, seed=3)
    assert report.ok
    assert suite_calls == [0]
    assert calls  # the valuation chain still runs the scan as its oracle


def test_stability_suite_runs_find_block_once_per_market(monkeypatch):
    calls = _spy(monkeypatch, stability, "find_block")
    corpus = [
        (label, m, (m.disutilities,))
        for label, m in (selftest._generated("random_monotone", 3, 2, seed) for seed in range(4))
    ]
    assert selftest._stability_agreement(corpus).ok
    assert len(calls) == len(corpus)


def test_detects_corrupted_solver(monkeypatch):
    """Inflating the dynamic program's total must trip the oracle suite."""
    real = surplus.efficient_matching

    def inflated(m, u=None, **kw):
        sol = real(m, u, **kw)
        return surplus.EfficientSolution(sol.matching, sol.total + 1, sol.ties_broken)

    monkeypatch.setattr(surplus, "efficient_matching", inflated)
    report = selftest.run(trials=12, seed=1)
    failing = {s.name for s in report.suites if not s.ok}
    assert "oracle_equivalence" in failing


def _off_by_one(real):
    def wrong(*args, **kwargs):
        return real(*args, **kwargs) + 1

    return wrong


def _flipped(real):
    def wrong(*args, **kwargs):
        report = real(*args, **kwargs)
        return ConditionReport(not report.verdict, {"planted": "yes"}, report.details)

    return wrong


@pytest.mark.parametrize(
    "name, suite, plant",
    [
        pytest.param(name, suite, plant, id=name)
        for name, suite, plant in (
            ("brute_force_total", "oracle_equivalence", _off_by_one),
            ("check_marginal_product_order", "marginal_product_order", _flipped),
            ("check_tight_sets_downward_closed", "tight_sets_downward_closed", _flipped),
            ("check_strategy_proofness", "truthful_dominance", _flipped),
            ("strong_substitutes_scan", "valuation_chain", _flipped),
            ("gross_substitutes_scan", "valuation_chain", _flipped),
        )
    ],
)
def test_detects_a_wrong_oracle(monkeypatch, name, suite, plant):
    """A wrong answer planted in one oracle fails the one suite that reads it."""
    monkeypatch.setattr(oracles, name, plant(getattr(oracles, name)))
    report = selftest.run(trials=12, seed=1)
    assert [s.name for s in report.suites if not s.ok] == [suite]
    assert report.lines()[-1].startswith("SELF-TEST FAILED")


def test_failure_lines_are_truncated(monkeypatch):
    monkeypatch.setattr(
        oracles,
        "check_marginal_product_order",
        lambda m, u=None: ConditionReport(False, {"forced": "yes"}),
    )
    report = selftest.run(trials=12, seed=3)
    suite = next(s for s in report.suites if s.name == "marginal_product_order")
    assert len(suite.failures) == 12
    lines = report.lines()
    assert any("... and" in line for line in lines)
