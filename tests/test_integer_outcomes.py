"""The pivot outcomes, payoffs and verdicts on the solver's integers against
Fraction references.

The references below are the Fraction arithmetic the integer path
replaced: `outcome_payoffs`, the IR report, the firing check and the block
scan, one agent and one subset at a time. Markets come with supplied
profiles over mixed denominators (1/3, 2/7, 5/1000, ...) that may leave
the [0, ubar] box, which the engine accepts, and outcomes are either the
pivot's or hand-built, with salaries that may leave agents below zero.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jobmarket.cli as cli
import jobmarket.model as model
import jobmarket.pivot as pivot
import jobmarket.stability as stability
from jobmarket.model import ConditionReport, Market, Matching, Outcome, Profile
from jobmarket.pivot import check_ir, check_outcome_ir, check_outcome_sir, check_sir, vcg
from jobmarket.stability import Block, find_block, find_weak_block, outcome_payoffs
from market_strategies import markets, outcome_of

MIXED = (1, 3, 7, 1000)


def _ref_payoffs(m: Market, o: Outcome, profile: Profile):
    """(firm payoffs, worker payoffs): utility less wage bill, salary less
    disutility at the worker's firm, 0 when unmatched."""
    firm_payoffs = {}
    for name, fn in m.firms:
        hired = [w for w, f in o.matching.assignment if f == name]
        bill = sum((o.salary[w] for w in hired), Fraction(0))
        firm_payoffs[name] = fn.subset_value(hired) - bill
    worker_payoffs = {}
    for w, firm in o.matching.assignment:
        worker_payoffs[w] = Fraction(0) if firm is None else o.salary[w] - profile.get(w, firm)
    return firm_payoffs, worker_payoffs


def _ref_ir(m: Market, o: Outcome, profile: Profile) -> ConditionReport:
    firm_payoffs, worker_payoffs = _ref_payoffs(m, o, profile)
    for name in m.firm_names:
        payoff = firm_payoffs[name]
        if payoff < 0:
            return ConditionReport(
                verdict=False,
                witness={"agent": name, "kind": "firm", "payoff": str(payoff)},
                details=f"firm {name} runs a deficit of {-payoff}",
            )
    for w in m.workers:
        payoff = worker_payoffs[w]
        if payoff < 0:
            return ConditionReport(
                verdict=False,
                witness={"agent": w, "kind": "worker", "payoff": str(payoff)},
                details=f"worker {w} ends below their outside option by {-payoff}",
            )
    return ConditionReport(verdict=True)


def _ref_sir(m: Market, o: Outcome, profile: Profile) -> ConditionReport:
    """IR, then each firm's kept sets of its hires in descending bit
    pattern, the wages of each summed one by one."""
    ir = _ref_ir(m, o, profile)
    if not ir.verdict:
        return ConditionReport(
            verdict=False,
            witness={"individual_rationality": ir.witness},
            details="fails individual rationality outright: " + ir.details,
        )
    firm_payoffs, _ = _ref_payoffs(m, o, profile)
    for name, fn in m.firms:
        hires = fn.mask_of(o.matching.workers_of(name))
        keep = hires
        while True:
            kept = fn.members(keep)
            wages = sum((o.salary[w] for w in kept), Fraction(0))
            gain = fn.value(keep) - wages - firm_payoffs[name]
            if gain > 0:
                return ConditionReport(
                    verdict=False,
                    witness={"firm": name, "keep": list(kept), "improvement": str(gain)},
                    details=f"firm {name} gains {gain} by keeping only {list(kept)}",
                )
            if keep == 0:
                break
            keep = (keep - 1) & hires
    return ConditionReport(verdict=True)


def _ref_block(m: Market, o: Outcome, profile: Profile, weak: bool = False) -> Block | None:
    """Firms as declared, then coalitions ascending by bit pattern: all
    workers, or with `weak` the firm's own hires and the unmatched."""
    firm_payoffs, worker_payoffs = _ref_payoffs(m, o, profile)
    unmatched = set(o.matching.workers_of(None))
    for name, fn in m.firms:
        allowed = fn.full_mask
        if weak:
            allowed = fn.mask_of(set(o.matching.workers_of(name)) | unmatched)
        for sub in range(allowed + 1):
            if sub & allowed != sub:
                continue
            members = fn.members(sub)
            cost = {w: profile.get(w, name) + worker_payoffs[w] for w in members}
            excess = fn.value(sub) - sum(cost.values(), Fraction(0)) - firm_payoffs[name]
            if excess > 0:
                share = excess / (2 * len(members)) if members else Fraction(0)
                payments = tuple((w, cost[w] + share) for w in members)
                return Block(name, members, payments, excess)
    return None


@st.composite
def supplied_profiles(draw, m: Market) -> Profile:
    """Entries over mixed denominators, in [0, 2 ubar + 1]: some above ubar."""
    top = 2 * m.ubar + 1
    den = st.sampled_from(MIXED)

    def entry():
        d = draw(den)
        return Fraction(draw(st.integers(0, int(top * d))), d)

    rows = {w: {f: entry() for f in m.firm_names} for w in m.workers}
    return Profile.from_dict(m.workers, m.firm_names, rows)


@st.composite
def hand_built_outcomes(draw, m: Market) -> Outcome:
    """Any matching; a hire's salary over a mixed denominator, from 0 to
    past the firm's whole value, so either side may end below zero."""
    assignment = {w: draw(st.sampled_from((None,) + m.firm_names)) for w in m.workers}
    salaries = {}
    for w, firm in assignment.items():
        if firm is not None:
            d = draw(st.sampled_from(MIXED))
            top = int(m.utility(firm).value(m.full_mask) * d) + 2 * d
            salaries[w] = Fraction(draw(st.integers(0, top)), d)
    return outcome_of(Matching.from_dict(m.workers, assignment), salaries)


def _assert_matches_reference(m: Market, o: Outcome, profile: Profile) -> None:
    assert check_outcome_ir(m, o, profile) == _ref_ir(m, o, profile)
    assert check_outcome_sir(m, o, profile) == _ref_sir(m, o, profile)
    assert find_block(m, o, profile) == _ref_block(m, o, profile)
    assert find_weak_block(m, o, profile) == _ref_block(m, o, profile, weak=True)
    assert outcome_payoffs(m, o, profile) == _ref_payoffs(m, o, profile)


SETTINGS = settings(max_examples=120, deadline=None)


@SETTINGS
@given(st.data(), markets(max_n=5, max_m=3))
def test_pivot_results_match_the_fraction_reference(data, m):
    profile = data.draw(supplied_profiles(m))
    r = vcg(m, profile)
    o = r.outcome
    assert o.ledger is not None  # the scans below reuse the solve's scale
    _assert_matches_reference(m, o, profile)
    assert check_ir(r) == _ref_ir(m, o, profile)
    assert check_sir(r) == _ref_sir(m, o, profile)
    firm_payoffs, worker_payoffs = _ref_payoffs(m, o, profile)
    assert r.firm_payoffs == tuple(firm_payoffs.items())
    assert r.worker_payoffs == tuple(worker_payoffs.items())
    assert [r.worker_payoff(w) for w in m.workers] == list(worker_payoffs.values())
    assert [r.firm_payoff(f) for f in m.firm_names] == list(firm_payoffs.values())
    d = r.to_dict()
    assert d["total_surplus"] == str(r.total)
    assert d["salaries"] == {w: str(s) for w, s in o.salaries}
    assert d["worker_payoffs"] == {w: str(x) for w, x in worker_payoffs.items()}
    assert d["firm_payoffs"] == {f: str(x) for f, x in firm_payoffs.items()}
    assert d["surplus_excluding"] == {w: str(x) for w, x in r.surplus_excluding}
    # the same outcome under another profile is cleared afresh, not read
    # off the solve's scale
    _assert_matches_reference(m, o, m.disutilities)


@SETTINGS
@given(st.data(), markets(max_n=5, max_m=3))
def test_hand_built_outcomes_match_the_fraction_reference(data, m):
    o = data.draw(hand_built_outcomes(m))
    profile = data.draw(supplied_profiles(m))
    for u in (profile, m.disutilities):
        _assert_matches_reference(m, o, u)



# ---- one cleared denominator per command ---------------------------------------

DATA = Path(__file__).parent / "data"

SCANNED = [
    # firing fails with a fractional gain; blocked and weakly blocked
    ["thirds_plateau.json", "--profile", DATA / "thirds_plateau_sir_profile.json"],
    # blocked, firing-proof
    ["budget_vs_additive.json", "--profile", DATA / "high_profile.json"],
    # IR fails
    ["all_or_nothing.json"],
    # stable
    ["budget_vs_additive.json"],
]


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("command", ["vcg", "stability"])
@pytest.mark.parametrize(
    "market", SCANNED, ids=["thirds_sir", "budget_high", "all_or_nothing", "budget_low"]
)
def test_a_command_clears_denominators_once_in_the_solver(
    monkeypatch, capsys, command, market, flags
):
    """`model.clear_denominators` runs once, in the solve; the walks of
    `stability.deviations` get integers and clear nothing."""
    clear, deviations = model.clear_denominators, stability.deviations
    calls, walks = [], []

    def counted_clear(*args):
        caller = sys._getframe(1)
        calls.append((caller.f_globals["__name__"], caller.f_code.co_name))
        return clear(*args)

    def counted_walk(*args, **kwargs):
        walks.append(args)
        return deviations(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("jobmarket") and getattr(module, "clear_denominators", None) is clear:
            monkeypatch.setattr(module, "clear_denominators", counted_clear)
    monkeypatch.setattr(pivot, "deviations", counted_walk)
    monkeypatch.setattr(stability, "deviations", counted_walk)
    path, *rest = market
    rc = cli.main([command, str(DATA / path), *map(str, rest), *flags])
    capsys.readouterr()
    assert rc in (0, 1)
    assert calls == [("jobmarket.surplus", "__init__")]
    # the walks ran (a failed IR check leaves vcg none), on the solve's scale
    if command == "stability" or path != "all_or_nothing.json":
        assert walks
    for _, factor, costs, have, allowed, *_ in walks:
        assert all(type(x) is int for x in (factor, *costs, have, allowed))
