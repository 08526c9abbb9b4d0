"""Blocking-coalition search and the stability verdict on pivot outcomes.

The soundness property is the load-bearing one: any reported block must
survive substituting its payment vector back into every member's payoff.
"""

import random
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jobmarket.model import ConditionReport, Market, Matching, Outcome, Profile, SetFunction
from jobmarket.necessity import generate
from jobmarket.pivot import check_ir, check_outcome_ir, check_outcome_sir, check_sir, vcg
from jobmarket.setfn import is_gross_substitutes
from jobmarket.subsets import subset_sums
from jobmarket.stability import (
    Block,
    deviations,
    find_block,
    find_weak_block,
    outcome_payoffs,
)
from market_strategies import arbitrary_outcomes, markets, rational_outcomes
from worked_examples import all_or_nothing_market, budget_vs_additive_market

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


def _assert_block_sound(m, outcome, block, profile=None):
    profile = m.require_profile(profile)
    firm_payoffs, worker_payoffs = outcome_payoffs(m, outcome, profile)
    fn = m.utility(block.firm)
    paid = dict(block.payments)
    assert set(paid) == set(block.coalition)
    column = {w: profile.get(w, block.firm) for w in block.coalition}
    new_firm = fn.subset_value(block.coalition) - sum(paid.values(), Fraction(0))
    gains = [new_firm - firm_payoffs[block.firm]]
    for w in block.coalition:
        gains.append((paid[w] - column[w]) - worker_payoffs[w])
    assert all(g > 0 for g in gains), gains
    assert block.slack == sum(gains, Fraction(0)) or block.slack > 0


def test_low_regime_is_stable():
    m = budget_vs_additive_market("1/4", "1/4")
    r = vcg(m)
    assert find_block(m, r.outcome) is None
    assert find_weak_block(m, r.outcome) is None


def test_high_regime_blocked_by_single_worker_raid():
    m = budget_vs_additive_market("3/4", "3/4")
    r = vcg(m)
    block = find_block(m, r.outcome)
    assert block is not None
    assert block.firm == "f1"
    assert block.coalition == ("w3",)
    assert block.slack == Fraction(1, 2)
    assert dict(block.payments) == {"w3": Fraction(5, 4)}
    _assert_block_sound(m, r.outcome, block)
    # restricted to its own hires plus the unmatched, f1 cannot improve
    assert find_weak_block(m, r.outcome) is None


def test_deficit_firm_blocks_with_empty_coalition():
    m = all_or_nothing_market("3", "4")
    r = vcg(m)
    block = find_block(m, r.outcome)
    assert block is not None
    assert block.coalition == ()
    assert block.payments == ()
    assert block.slack == 3  # walking away clears the deficit
    _assert_block_sound(m, r.outcome, block)


def test_reported_blocks_are_sound_on_corpus():
    blocked = 0
    for m in _corpus(41, 60):
        r = vcg(m)
        block = find_block(m, r.outcome)
        if block is None:
            continue
        blocked += 1
        _assert_block_sound(m, r.outcome, block)
    assert blocked > 0  # the corpus must exercise the blocked branch


def test_weak_blocks_are_sound_and_restricted():
    found = 0
    for m in _corpus(42, 80):
        r = vcg(m)
        weak = find_weak_block(m, r.outcome)
        if weak is None:
            continue
        found += 1
        _assert_block_sound(m, r.outcome, weak)
        own = set(r.outcome.matching.workers_of(weak.firm))
        own |= set(r.outcome.matching.workers_of(None))
        assert set(weak.coalition) <= own
    # weak blocks of the pivot outcome are rare but the scan must agree
    # with the unrestricted one whenever the latter is silent
    for m in _corpus(43, 30):
        r = vcg(m)
        if find_block(m, r.outcome) is None:
            assert find_weak_block(m, r.outcome) is None


def test_stability_implies_firing_proofness_chain():
    for m in _corpus(44, 60):
        r = vcg(m)
        if find_block(m, r.outcome) is None:
            assert check_sir(r).verdict
        if check_sir(r).verdict:
            assert check_ir(r).verdict


def test_gross_substitutes_markets_are_stable():
    checked = 0
    for m in _corpus(45, 60):
        if not all(is_gross_substitutes(fn).verdict for _, fn in m.firms):
            continue
        checked += 1
        r = vcg(m)
        assert find_block(m, r.outcome) is None, m
    assert checked >= 10


def test_block_scan_is_canonical():
    # first firm in declaration order, then ascending subset pattern
    m = budget_vs_additive_market("3/4", "3/4")
    r = vcg(m)
    b1 = find_block(m, r.outcome)
    b2 = find_block(m, r.outcome)
    assert (b1.firm, b1.coalition, b1.slack) == (b2.firm, b2.coalition, b2.slack)


def test_explicit_profile_overrides_embedded():
    m = budget_vs_additive_market("3/4", "3/4")
    sweet = m.disutilities.with_row("w1", (Fraction(0), Fraction(1, 4)))
    sweet = sweet.with_row("w2", (Fraction(0), Fraction(1, 4)))
    r = vcg(m, sweet)
    assert find_block(m, r.outcome, sweet) is None


MISFITS = [
    # (assignment, salaries, message)
    ((("w1", "g"), ("w2", "f")), {"w1": "1", "w2": "1"}, "unknown firm 'g'"),
    ((("w1", "f"),), {"w1": "1"}, "leaves out the market's worker 'w2'"),
    (
        (("w1", "f"), ("w2", "f"), ("w3", None)),
        {"w1": "1", "w2": "1", "w3": "0"},
        "assigns worker 'w3', who is not in the market",
    ),
]


@pytest.mark.parametrize("assignment, salaries, message", MISFITS)
@pytest.mark.parametrize(
    "check", [check_outcome_ir, check_outcome_sir, find_block, find_weak_block]
)
def test_outcome_must_fit_its_market(check, assignment, salaries, message):
    m = all_or_nothing_market()
    o = Outcome(Matching(assignment), tuple((w, Fraction(p)) for w, p in salaries.items()))
    with pytest.raises(ValueError, match=message):
        check(m, o)


# ---- the integer scans against Fraction references ---------------------------

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


def _reference_scan(
    m: Market, o: Outcome, allowed_mask_of: dict, u: Optional[Profile] = None
) -> Optional[Block]:
    """The block scan in Fraction arithmetic, one subset at a time."""
    profile = m.require_profile(u)
    firm_payoffs, worker_payoffs = outcome_payoffs(m, o, profile)
    for name, fn in m.firms:
        allowed = allowed_mask_of[name]
        column = {w: profile.get(w, name) for w in m.workers}
        sub = 0
        while True:
            members = fn.members(sub)
            raw = fn.value(sub) - sum((column[w] for w in members), Fraction(0))
            have = firm_payoffs[name] + sum(
                (worker_payoffs[w] for w in members), Fraction(0)
            )
            excess = raw - have
            if excess > 0:
                share = excess / (2 * len(members)) if members else Fraction(0)
                payments = tuple(
                    (w, column[w] + worker_payoffs[w] + share) for w in members
                )
                return Block(name, members, payments, excess)
            if sub == allowed:
                break
            sub = (sub - allowed) & allowed
    return None


def _reference_sir(m: Market, o: Outcome, u: Optional[Profile] = None) -> ConditionReport:
    """The firing check in Fraction arithmetic: kept sets of each firm's
    hires in descending bit pattern, wages summed per kept set."""
    ir = check_outcome_ir(m, o, u)
    if not ir.verdict:
        return ConditionReport(
            verdict=False,
            witness={"individual_rationality": ir.witness},
            details="fails individual rationality outright: " + ir.details,
        )
    firm_payoffs, _ = outcome_payoffs(m, o, u)
    for name, fn in m.firms:
        amask = fn.mask_of(o.matching.workers_of(name))
        keep = amask
        while True:
            kept = fn.members(keep)
            alt = fn.value(keep) - sum((o.salary[w] for w in kept), Fraction(0))
            gain = alt - firm_payoffs[name]
            if gain > 0:
                return ConditionReport(
                    verdict=False,
                    witness={"firm": name, "keep": list(kept), "improvement": str(gain)},
                    details=f"firm {name} gains {gain} by keeping only {list(kept)}",
                )
            if keep == 0:
                break
            keep = (keep - 1) & amask
    return ConditionReport(verdict=True)


def _assert_scans_match_reference(m: Market, o: Outcome, u: Optional[Profile] = None) -> None:
    assert find_block(m, o, u) == _reference_scan(
        m, o, {name: m.full_mask for name in m.firm_names}, u
    )
    unmatched = m.full_mask
    own = {}
    for name in m.firm_names:
        own[name] = sum(1 << m.worker_index[w] for w in o.matching.workers_of(name))
        unmatched &= ~own[name]
    allowed = {name: own[name] | unmatched for name in m.firm_names}
    assert find_weak_block(m, o, u) == _reference_scan(m, o, allowed, u)
    assert check_outcome_sir(m, o, u) == _reference_sir(m, o, u)


@PROPERTY_SETTINGS
@given(markets())
def test_block_scans_match_reference_on_pivot_outcomes(m):
    _assert_scans_match_reference(m, vcg(m).outcome)


@PROPERTY_SETTINGS
@given(st.data(), markets())
def test_block_scans_match_reference_on_arbitrary_outcomes(data, m):
    _assert_scans_match_reference(m, data.draw(arbitrary_outcomes(m)))


@settings(max_examples=300, deadline=None)
@given(st.data(), markets())
def test_scans_match_reference_on_rational_outcomes(data, m):
    # IR holds, so the firing check runs; the largest kept set is the witness
    _assert_scans_match_reference(m, *data.draw(rational_outcomes(m)))


def test_firing_witness_is_the_largest_kept_set():
    # keeping either worker alone gains 1; the witness keeps the larger mask
    workers = ("w1", "w2")
    values = tuple(Fraction(v) for v in (0, 3, 3, 4))
    m = Market(
        workers,
        (("f", SetFunction.from_values(workers, values)),),
        Profile.from_dict(workers, ("f",), {w: {"f": "0"} for w in workers}),
    )
    o = Outcome.build(Matching.from_dict(workers, {"w1": "f", "w2": "f"}), {"w1": 2, "w2": 2})
    report = check_outcome_sir(m, o)
    assert report.witness == {"firm": "f", "keep": ["w2"], "improvement": "1"}
    assert report == _reference_sir(m, o)


# ---- the packed walk against the per-subset excesses --------------------------


def _reference_deviations(m: Market, profile: Profile, payoffs, firm: str, allowed: int):
    """Every (coalition, excess) inside `allowed` that blocks with `firm`,
    ascending, in Fraction arithmetic one subset at a time, as
    `_reference_scan` sums them."""
    firm_payoffs, worker_payoffs = payoffs
    fn = m.utility(firm)
    hits = []
    for sub in range(allowed + 1):
        if sub & allowed != sub:
            continue
        members = fn.members(sub)
        cost = sum((profile.get(w, firm) + worker_payoffs[w] for w in members), Fraction(0))
        excess = fn.value(sub) - cost - firm_payoffs[firm]
        if excess > 0:
            hits.append((sub, excess))
    return hits


def _assert_walk_matches(m: Market, profile: Profile, payoffs, firm: str, allowed: int) -> None:
    expected = _reference_deviations(m, profile, payoffs, firm, allowed)
    assert list(deviations(m, profile, payoffs, firm, allowed)) == expected
    # the first hit of each order: find_block's and the firing check's
    assert list(deviations(m, profile, payoffs, firm, allowed, descending=True)) == expected[::-1]


def _one_firm_market(values, profile_rows=None) -> Market:
    n = len(values).bit_length() - 1
    workers = tuple(f"w{i}" for i in range(n))
    rows = profile_rows or [(Fraction(0),)] * n
    return Market(
        workers,
        (("f", SetFunction.from_values(workers, values)),),
        Profile(workers, ("f",), tuple(tuple(r) for r in rows)),
    )


def _allowed_masks(rng: random.Random, n: int) -> list[int]:
    """Every worker, a firm's own hires, and those hires with the unmatched."""
    full = (1 << n) - 1
    own = rng.randint(0, full)
    return [full, own, own | rng.randint(0, full) & ~own]


@pytest.mark.parametrize("n", range(0, 7))
def test_walk_matches_the_per_subset_excesses(n):
    """Costs and firm payoffs of either sign, over denominators the table
    does not use, so the walk's factor is above 1; tables of either sign
    with denominators of their own."""
    rng = random.Random(300 + n)
    for trial in range(40):
        table_den = rng.choice((1, 1, 2, 5))
        values = [Fraction(0)] + [
            Fraction(rng.randint(-20, 40), table_den) for _ in range((1 << n) - 1)
        ]
        rows = [(Fraction(rng.choice((0, 1, 3)), rng.choice((1, 4))),) for _ in range(n)]
        m = _one_firm_market(values, rows)
        den = rng.choice((1, 3, 7))
        worker_payoffs = {w: Fraction(rng.randint(-30, 30), den) for w in m.workers}
        for have in (Fraction(rng.randint(-40, 40), rng.choice((1, 3))), Fraction(0)):
            payoffs = ({"f": have}, worker_payoffs)
            for allowed in _allowed_masks(rng, n):
                _assert_walk_matches(m, m.disutilities, payoffs, "f", allowed)


@pytest.mark.parametrize("nbytes", (1, 2, 8, 9))
@pytest.mark.parametrize("factor", (1, 3))
def test_walk_matches_the_per_subset_excesses_at_a_lane_width_boundary(nbytes, factor):
    """0/R tables and cost sums whose ranges just fill `nbytes`-byte lanes
    (the table at headroom 2 + bits of factor - 1, the cost sums at 2),
    or are one more, or twice that less one, which needs wider lanes.
    The costs take either sign, each table also runs moved down by R but
    for h(empty) = 0, and the firm payoff puts exact ties and one-unit
    blocks on chosen subsets, or lies past either end of the lanes."""
    rng = random.Random(10 * nbytes + factor)
    headroom = 2 + (factor - 1).bit_length()
    n = 3
    fits, sums_fit = (1 << 8 * nbytes - headroom) - 1, (1 << 8 * nbytes - 2) - 1
    for shift in (0, 1):
        for spread, sums in ((fits, sums_fit), (fits + 1, sums_fit + 1), (2 * fits + 1, 2 * sums_fit + 1)):
            for _ in range(12):
                draw = (0, spread, spread, rng.randint(0, spread))
                values = [0] + [rng.choice(draw) for _ in range((1 << n) - 1)]
                if shift:
                    values = [0] + [v - spread for v in values[1:]]
                # scaled costs summing to `sums` in absolute value, each of either sign
                cuts = sorted(rng.randint(0, sums) for _ in range(n - 1))
                parts = [b - a for a, b in zip([0] + cuts, cuts + [sums])]
                scaled = [p * rng.choice((1, -1)) for p in parts]
                m = _one_firm_market([Fraction(v) for v in values])
                worker_payoffs = {w: Fraction(c, factor) for w, c in zip(m.workers, scaled)}
                cost_sums = subset_sums(scaled)
                for allowed in _allowed_masks(rng, n):
                    target = rng.randint(0, allowed) & allowed
                    edge = values[target] * factor - cost_sums[target]
                    haves = [edge, edge - 1, edge + 1]
                    haves += [(spread + sums + 1) * factor * sign for sign in (1, -1)]
                    for have in haves:
                        payoffs = ({"f": Fraction(have, factor)}, worker_payoffs)
                        _assert_walk_matches(m, m.disutilities, payoffs, "f", allowed)
