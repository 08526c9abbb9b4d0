"""Pivot payments and the rationality / incentive checks built on them."""

import random
from fractions import Fraction

import pytest

import jobmarket.pivot as pivot
from jobmarket.model import Market, Outcome, Profile, SetFunction
from jobmarket.necessity import generate
from jobmarket.pivot import (
    check_ir,
    check_outcome_ir,
    check_outcome_sir,
    check_sir,
    vcg,
)
from jobmarket.oracles import check_strategy_proofness
from jobmarket.stability import outcome_payoffs
from solver_queries import max_surplus_excluding
from worked_examples import (
    all_or_nothing_market,
    budget_vs_additive_market,
    plateau_market,
)

ALL_KINDS = ("additive", "budget_additive", "unit_demand", "random_submodular", "random_monotone")


def _corpus(seed: int, count: int, kinds=ALL_KINDS, n_hi=5, m_hi=3):
    rng = random.Random(seed)
    return [
        generate(
            kinds[t % len(kinds)],
            rng.randint(1, n_hi),
            rng.randint(1, m_hi),
            rng.randint(0, 10**6),
        )
        for t in range(count)
    ]


def test_all_or_nothing_salaries_and_deficit():
    r = vcg(all_or_nothing_market("3", "4"))
    assert r.total == 3
    assert r.salary("w1") == 6
    assert r.salary("w2") == 7
    assert r.worker_payoff("w1") == 3
    assert r.worker_payoff("w2") == 3
    assert r.firm_payoff("f") == -3
    ir = check_ir(r)
    assert not ir.verdict
    assert ir.witness == {"agent": "f", "kind": "firm", "payoff": "-3"}
    sir = check_sir(r)
    assert not sir.verdict
    assert sir.witness["individual_rationality"]["agent"] == "f"


def test_worked_example_low_regime_payoffs():
    r = vcg(budget_vs_additive_market("1/4", "1/4"))
    assert r.total == Fraction(7, 2)
    assert dict(r.surplus_excluding) == {
        "w1": Fraction(11, 4),
        "w2": Fraction(11, 4),
        "w3": Fraction(2),
    }
    assert r.firm_payoff("f1") == Fraction(1, 2)
    assert r.firm_payoff("f2") == Fraction(0)
    assert r.worker_payoff("w1") == Fraction(3, 4)
    assert r.worker_payoff("w2") == Fraction(3, 4)
    assert r.worker_payoff("w3") == Fraction(3, 2)
    assert check_ir(r).verdict
    assert check_sir(r).verdict


def test_worked_example_high_regime_payoffs():
    r = vcg(budget_vs_additive_market("3/4", "3/4"))
    assert r.total == Fraction(3)
    assert r.firm_payoff("f1") == Fraction(1, 2)
    assert r.firm_payoff("f2") == Fraction(0)
    assert r.worker_payoff("w1") == Fraction(3, 4)
    assert r.worker_payoff("w2") == Fraction(3, 4)
    assert r.worker_payoff("w3") == Fraction(1)
    assert check_sir(r).verdict


def test_worker_payoff_is_marginal_product():
    for m in _corpus(31, 40):
        r = vcg(m)
        for w, payoff in r.worker_payoffs:
            assert payoff == r.total - max_surplus_excluding(m, excluded=(w,))
            assert payoff >= 0  # workers never lose under pivot payments


def test_unmatched_worker_gets_zero():
    for m in _corpus(32, 25):
        r = vcg(m)
        for w in r.outcome.matching.workers_of(None):
            assert r.salary(w) == 0
            assert r.worker_payoff(w) == 0


def test_salary_decomposition():
    for m in _corpus(33, 25):
        profile = m.disutilities
        r = vcg(m)
        for w, firm in r.outcome.matching.assignment:
            if firm is not None:
                assert r.salary(w) == r.worker_payoff(w) + profile.get(w, firm)


def test_firm_payoff_is_utility_minus_bill():
    for m in _corpus(34, 25):
        r = vcg(m)
        for name, fn in m.firms:
            hired = r.outcome.matching.workers_of(name)
            bill = sum((r.salary(w) for w in hired), Fraction(0))
            assert r.firm_payoff(name) == fn.value(fn.mask_of(hired)) - bill


def test_to_dict_round_trips_strings():
    r = vcg(all_or_nothing_market())
    d = r.to_dict()
    assert d["total_surplus"] == "3"
    assert d["salaries"] == {"w1": "6", "w2": "7"}
    assert d["firm_payoffs"] == {"f": "-3"}
    assert d["ties_broken"] is False


def test_check_sir_finds_firing_improvement():
    # plateau market with explicit positive costs: hiring all three at the
    # pivot salaries beats nothing, but dropping down to one worker pays
    m = plateau_market()
    r = vcg(m)
    assert check_ir(r).verdict
    sir = check_sir(r)
    assert not sir.verdict
    assert sir.witness["firm"] == "f"
    assert Fraction(sir.witness["improvement"]) > 0


def test_outcome_checks_agree_with_result_checks():
    # whole reports (verdict, witness, details), on the embedded profile and
    # on a supplied one that may leave the [0, ubar] box
    rng = random.Random(35)
    for m in _corpus(35, 30):
        top = m.ubar
        grid = [top * Fraction(i, 4) for i in range(7)] or [Fraction(0)]
        supplied = Profile.from_dict(
            m.workers,
            m.firm_names,
            {w: {f: rng.choice(grid) for f in m.firm_names} for w in m.workers},
        )
        for u, r in ((None, vcg(m)), (supplied, vcg(m, supplied))):
            assert check_outcome_ir(m, r.outcome, u) == check_ir(r)
            assert check_outcome_sir(m, r.outcome, u) == check_sir(r)
            firm_payoffs, worker_payoffs = outcome_payoffs(m, r.outcome, u)
            assert tuple(firm_payoffs.items()) == r.firm_payoffs
            assert tuple(worker_payoffs.items()) == r.worker_payoffs


def test_check_outcome_sir_computes_payoffs_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return outcome_payoffs(*args)

    monkeypatch.setattr(pivot, "outcome_payoffs", counting)
    # IR fails (the all-or-nothing firm runs a deficit); IR and SIR hold
    for m in (all_or_nothing_market(), budget_vs_additive_market()):
        r = vcg(m)
        calls.clear()
        check_outcome_sir(m, r.outcome)
        assert len(calls) == 1


def test_outcome_checks_on_hand_built_outcome():
    m = all_or_nothing_market("3", "4")
    from jobmarket.model import Matching

    matching = Matching.from_dict(("w1", "w2"), {"w1": "f", "w2": "f"})
    cheap = Outcome.build(matching, {"w1": Fraction(4), "w2": Fraction(5)})
    report = check_outcome_ir(m, cheap)
    assert report.verdict  # firm nets 1, workers net 1 each
    firm_payoffs, worker_payoffs = outcome_payoffs(m, cheap)
    assert firm_payoffs["f"] == 1
    assert worker_payoffs == {"w1": Fraction(1), "w2": Fraction(1)}
    giveaway = Outcome.build(matching, {"w1": Fraction(9), "w2": Fraction(5)})
    report = check_outcome_ir(m, giveaway)
    assert not report.verdict
    assert report.witness["agent"] == "f"


def test_strategy_proofness_on_truthful_instances():
    picked = [m for m in _corpus(36, 30, n_hi=4, m_hi=2)][:8]
    for m in picked:
        for w in m.workers:
            report = check_strategy_proofness(m, w, k=4)
            assert report.verdict, (m, w, report.witness)
            assert "misreports" in report.details


def test_strategy_proofness_validates_arguments():
    m = all_or_nothing_market()
    with pytest.raises(ValueError, match="at least 1"):
        check_strategy_proofness(m, "w1", k=0)
    with pytest.raises(ValueError, match="unknown worker"):
        check_strategy_proofness(m, "nobody")


def test_vcg_takes_explicit_profile():
    m = all_or_nothing_market("3", "4")
    flat = Profile.from_dict(m.workers, m.firm_names, {"w1": {"f": 0}, "w2": {"f": 0}})
    r = vcg(m, flat)
    assert r.salary("w1") == 10
    assert r.salary("w2") == 10
    assert r.firm_payoff("f") == -10


def test_vcg_empty_market_edge():
    m = Market((), (), Profile((), (), ()))
    r = vcg(m)
    assert r.total == 0
    assert r.worker_payoffs == ()
    assert check_ir(r).verdict
    assert check_sir(r).verdict


def test_single_worker_market():
    u = SetFunction.additive(("w1",), {"w1": 5})
    profile = Profile.from_dict(("w1",), ("f",), {"w1": {"f": 2}})
    m = Market(("w1",), (("f", u),), profile)
    r = vcg(m)
    # lone worker extracts the whole surplus: salary 5, firm keeps nothing
    assert r.salary("w1") == 5
    assert r.worker_payoff("w1") == 3
    assert r.firm_payoff("f") == 0
    assert check_sir(r).verdict
