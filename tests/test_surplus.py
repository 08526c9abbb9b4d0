"""Efficient-matching engine: per-firm surplus tables, the partition DP, the
brute-force oracle, exclusion values, and the two order/closure checks."""

import json
import random
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jobmarket.cli as cli
from jobmarket.marketio import dumps_market
from jobmarket.model import Market, Matching, Profile, SetFunction, SizeLimitError
from jobmarket.necessity import GENERATOR_KINDS, adversarial_profile, generate
from jobmarket.oracles import (
    brute_force_total,
    check_marginal_product_order,
    check_tight_sets_downward_closed,
)
from jobmarket.subsets import bit_indices, canonical_key, mask_of
from jobmarket.surplus import MarketSolver, efficient_matching
from market_strategies import markets, sizes
from solver_queries import max_surplus_excluding
from worked_examples import (
    all_or_nothing_market,
    budget_vs_additive_market,
    plateau_market,
)

DATA = Path(__file__).parent / "data"


def _corpus(seed: int, count: int, kinds, n_hi=5, m_hi=3):
    rng = random.Random(seed)
    out = []
    for t in range(count):
        kind = kinds[t % len(kinds)]
        out.append(generate(kind, rng.randint(1, n_hi), rng.randint(1, m_hi), rng.randint(0, 10**6)))
    return out


ALL_KINDS = ("additive", "budget_additive", "unit_demand", "random_submodular", "random_monotone")


def test_firm_surplus_all_or_nothing():
    solver = MarketSolver(all_or_nothing_market("3", "4"))
    # V_f on masks {}, {w1}, {w2}, {w1, w2}: only hiring both clears the
    # costs, 10 - 3 - 4 = 3
    assert [Fraction(v, solver.den) for v in solver.vf[0]] == [0, 0, 0, 3]
    # tight: the empty set and the pair, not either worker alone
    assert solver.tight[0] == [0b00, 0b11]


def test_firm_surplus_never_decreases_with_pool():
    for m in _corpus(21, 25, ALL_KINDS):
        for vf in MarketSolver(m).vf:
            for mask in range(1, 1 << m.n):
                for i in range(m.n):
                    if mask >> i & 1:
                        assert vf[mask] >= vf[mask ^ (1 << i)]


def test_tight_set_achieves_its_own_value():
    for m in _corpus(22, 25, ALL_KINDS):
        profile = m.disutilities
        solver = MarketSolver(m)
        for k, (name, fn) in enumerate(m.firms):
            tight = set(solver.tight[k])
            column = {w: profile.get(w, name) for w in m.workers}
            for mask in range(1 << m.n):
                members = fn.members(mask)
                raw = fn.value(mask) - sum((column[w] for w in members), Fraction(0))
                vf = Fraction(solver.vf[k][mask], solver.den)
                if mask in tight:
                    assert raw == vf
                else:
                    assert raw < vf


def test_efficient_matching_worked_example_low():
    m = budget_vs_additive_market("1/4", "1/4")
    sol = efficient_matching(m)
    assert sol.total == Fraction(7, 2)
    assert sol.matching.to_dict() == {"w1": "f2", "w2": "f2", "w3": "f1"}
    assert not sol.ties_broken


def test_efficient_matching_worked_example_high():
    m = budget_vs_additive_market("3/4", "3/4")
    sol = efficient_matching(m)
    assert sol.total == Fraction(3)


def test_exclusion_values_worked_example():
    m = budget_vs_additive_market("1/4", "1/4")
    assert max_surplus_excluding(m, excluded=("w1",)) == Fraction(11, 4)
    assert max_surplus_excluding(m, excluded=("w2",)) == Fraction(11, 4)
    assert max_surplus_excluding(m, excluded=("w3",)) == Fraction(2)
    assert max_surplus_excluding(m, excluded=()) == Fraction(7, 2)


def test_dp_matches_brute_force_on_random_markets():
    for m in _corpus(23, 80, ALL_KINDS):
        assert efficient_matching(m).total == brute_force_total(m), m


def test_dp_total_matches_matching_value():
    # the reported matching must actually earn the reported total
    for m in _corpus(24, 40, ALL_KINDS):
        profile = m.disutilities
        sol = efficient_matching(m)
        realized = Fraction(0)
        for name, fn in m.firms:
            hired = sol.matching.workers_of(name)
            bill = sum((profile.get(w, name) for w in hired), Fraction(0))
            realized += fn.value(fn.mask_of(hired)) - bill
        assert realized == sol.total


def test_exclusions_match_rebuilt_markets():
    # dropping a worker from the market must reproduce value_excluding
    for m in _corpus(25, 20, ALL_KINDS, n_hi=4):
        if m.n < 2:
            continue
        victim = m.workers[0]
        keep = tuple(w for w in m.workers if w != victim)
        keep_idx = [m.worker_index[w] for w in keep]
        firms = []
        for name, fn in m.firms:
            vals = []
            for sub in range(1 << len(keep)):
                mask = 0
                for b in range(len(keep)):
                    if sub >> b & 1:
                        mask |= 1 << keep_idx[b]
                vals.append(fn.values[mask])
            firms.append((name, SetFunction.from_values(keep, tuple(vals))))
        entries = {
            w: {f: m.disutilities.get(w, f) for f in m.firm_names} for w in keep
        }
        reduced = Market(
            keep, tuple(firms), Profile.from_dict(keep, m.firm_names, entries)
        )
        # the reduced market's ubar may shrink below inherited disutilities
        reduced_total = efficient_matching(reduced).total
        assert reduced_total == max_surplus_excluding(m, excluded=(victim,))


def test_solution_is_deterministic_and_canonical_on_ties():
    u = SetFunction.unit_demand(("w1", "w2"), {"w1": 1, "w2": 1})
    profile = Profile.from_dict(
        ("w1", "w2"), ("f",), {"w1": {"f": 0}, "w2": {"f": 0}}
    )
    m = Market(("w1", "w2"), (("f", u),), profile)
    sol = efficient_matching(m)
    assert sol.ties_broken
    # lexicographically first among the minimum-cardinality optima
    assert sol.matching.to_dict() == {"w1": "f", "w2": None}
    again = efficient_matching(m)
    assert again.matching.to_dict() == sol.matching.to_dict()


def _zero_cost_market(n: int, minimal_sets: tuple[tuple[str, ...], ...]) -> Market:
    """One firm, no costs, u = 1 on every superset of a listed set, else 0."""
    workers = tuple(f"w{i}" for i in range(1, n + 1))
    index = {w: i for i, w in enumerate(workers)}
    wanted = [mask_of(index, s) for s in minimal_sets]
    values = tuple(
        Fraction(int(any(mask & want == want for want in wanted))) for mask in range(1 << n)
    )
    profile = Profile.from_dict(workers, ("f",), {w: {"f": 0} for w in workers})
    return Market(workers, (("f", SetFunction.from_values(workers, values)),), profile)


# (market, canonical hire); the first optimum in mask order is another set
CANONICAL_TIES = (
    (_zero_cost_market(3, (("w3",), ("w1", "w2"))), ("w3",)),
    (_zero_cost_market(4, (("w1", "w4"), ("w2", "w3"))), ("w1", "w4")),
)


@pytest.mark.parametrize("m, hired", CANONICAL_TIES)
def test_canonical_tie_break_is_not_mask_order(m, hired, tmp_path, capsys):
    expected = {w: ("f" if w in hired else None) for w in m.workers}
    sol = efficient_matching(m)
    assert sol.matching.to_dict() == expected
    assert sol.ties_broken
    path = tmp_path / "m.json"
    path.write_text(dumps_market(m))
    assert cli.main(["solve", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["matching"] == expected
    assert payload["ties_broken"] is True


def test_zero_marginal_worker_is_never_hired():
    # adding w2 to {w1} gains nothing, so the canonical pool drops it
    u = SetFunction.from_table(
        ("w1", "w2"), {(): 0, ("w1",): 2, ("w2",): 1, ("w1", "w2"): 2}
    )
    profile = Profile.from_dict(("w1", "w2"), ("f",), {"w1": {"f": 0}, "w2": {"f": 0}})
    m = Market(("w1", "w2"), (("f", u),), profile)
    sol = efficient_matching(m)
    assert sol.matching.to_dict() == {"w1": "f", "w2": None}
    for m2 in _corpus(26, 30, ("random_monotone",)):
        profile = m2.disutilities
        sol = efficient_matching(m2)
        for name, fn in m2.firms:
            hired = sol.matching.workers_of(name)
            amask = fn.mask_of(hired)
            for w in hired:
                margin = fn.values[amask] - fn.values[amask ^ (1 << fn.index[w])]
                assert margin > profile.get(w, name)


def test_solver_solves_profiles_the_cli_refuses(capsys, tmp_path):
    m = all_or_nothing_market()
    wild = Profile.from_dict(
        m.workers, m.firm_names, {"w1": {"f": "11"}, "w2": {"f": "0"}}
    )
    sol = efficient_matching(m, wild)
    assert sol.total == 0 == brute_force_total(m, wild)
    path = tmp_path / "wild.json"
    path.write_text(json.dumps(wild.to_dict()))
    assert cli.main(["solve", str(DATA / "all_or_nothing.json"), "--profile", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: disutility 11 for w1 at f exceeds ubar=10\n"


def test_brute_force_caps():
    names = tuple(f"w{i}" for i in range(9))
    u = SetFunction.additive(names, {w: 1 for w in names})
    profile = Profile.from_dict(names, ("f",), {w: {"f": 0} for w in names})
    m = Market(names, (("f", u),), profile)
    with pytest.raises(SizeLimitError):
        brute_force_total(m)


def test_marginal_product_order_holds_on_corpus():
    for m in _corpus(27, 60, ALL_KINDS):
        report = check_marginal_product_order(m)
        assert report.verdict, report.witness


def test_tight_sets_closed_under_submodular_costs():
    rng = random.Random(28)
    for m in _corpus(28, 40, ("additive", "budget_additive", "unit_demand", "random_submodular")):
        name = rng.choice(m.firm_names)
        costs = {w: m.disutilities.get(w, name) for w in m.workers}
        report = check_tight_sets_downward_closed(m.utility(name), costs)
        assert report.verdict
        assert report.details == "premise holds"


def test_tight_sets_check_skips_non_submodular_premise():
    m = plateau_market()
    report = check_tight_sets_downward_closed(
        m.utility("f"), {w: Fraction(0) for w in m.workers}
    )
    assert report.verdict
    assert "premise false" in report.details


def test_tight_sets_closure_witnessed_directly():
    # with zero costs and a submodular table, tight = achieves V_f; check
    # every subset of a tight set is tight on a couple of fixtures
    for m in _corpus(29, 15, ("random_submodular",)):
        for tight in map(set, MarketSolver(m).tight):
            for mask in tight:
                for i in range(m.n):
                    if mask >> i & 1:
                        assert mask ^ (1 << i) in tight


# ---- the lazy program against a full-table reference -------------------------

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


def _submasks(mask: int):
    t = mask
    while True:
        yield t
        if t == 0:
            return
        t = (t - 1) & mask


def _reference_solve(m: Market) -> tuple[list[Fraction], dict, bool]:
    """Every layer of the program over every pool, then the canonical walk.

    Returns (top layer as Fractions, matching dict, ties_broken).
    """
    profile = m.disutilities
    n, nfirms, size = m.n, len(m.firms), 1 << m.n
    den = lcm(
        *(v.denominator for _, fn in m.firms for v in fn.values),
        *(d.denominator for row in profile.rows for d in row),
    )
    vfs, tights = [], []
    for j, (_, fn) in enumerate(m.firms):
        cost = [
            sum((profile.rows[i][j] for i in bit_indices(mask)), Fraction(0))
            for mask in range(size)
        ]
        raw = [int((fn.values[mask] - cost[mask]) * den) for mask in range(size)]
        vf = [max(raw[t] for t in _submasks(mask)) for mask in range(size)]
        vfs.append(vf)
        tights.append([raw[mask] == vf[mask] for mask in range(size)])
    dp = [[0] * size for _ in range(nfirms + 1)]
    for k in range(nfirms - 1, -1, -1):
        for s in range(size):
            dp[k][s] = max(vfs[k][t] + dp[k + 1][s ^ t] for t in _submasks(s))
    s = (1 << n) - 1
    assignment: dict[str, Optional[str]] = {}
    ties = False
    for k, (name, _) in enumerate(m.firms):
        optima = [
            t for t in _submasks(s) if tights[k][t] and vfs[k][t] + dp[k + 1][s ^ t] == dp[k][s]
        ]
        ties = ties or len(optima) > 1
        best = min(optima, key=canonical_key)
        for i in bit_indices(best):
            assignment[m.workers[i]] = name
        s ^= best
    matching = Matching.from_dict(m.workers, assignment).to_dict()
    return [Fraction(v, den) for v in dp[0]], matching, ties


def _assert_matches_reference(m: Market) -> MarketSolver:
    top, matching, ties = _reference_solve(m)
    solver = MarketSolver(m)
    sol = solver.solution()
    assert sol.matching.to_dict() == matching
    assert sol.ties_broken == ties
    assert sol.total == top[m.full_mask] == solver.total()
    for mask in range(1 << m.n):
        assert solver.value_on(mask) == top[mask]
        assert solver.value_excluding_mask(mask) == top[m.full_mask & ~mask]
    return solver


@PROPERTY_SETTINGS
@given(markets())
def test_lazy_program_matches_full_table_reference(m):
    _assert_matches_reference(m)


@st.composite
def steered_markets(draw) -> Market:
    """A generated market under a 0/ubar profile from `adversarial_profile`:
    the target firm keeps the few tight sets of its inside workers and each
    co-firm all sets of the rest, the lopsided lists of the necessity
    constructions, where the joins switch form and side."""
    m = draw(
        st.builds(
            generate,
            st.sampled_from(GENERATOR_KINDS),
            sizes(6, 4),
            st.integers(2, 4),
            st.integers(0, 10**6),
        )
    )
    firm = draw(st.sampled_from(m.firm_names))
    inside = bit_indices(draw(st.integers(0, m.full_mask)))
    profile = adversarial_profile(m, firm, [m.workers[i] for i in inside])
    return Market(m.workers, m.firms, profile)


@PROPERTY_SETTINGS
@given(steered_markets())
def test_steered_program_matches_full_table_reference(m):
    _assert_matches_reference(m)


def _priced(kind: str, n: int, nfirms: int, free: dict[str, str]) -> Market:
    """A generated market where each firm pays 0 for the workers listed
    for it (`free[firm]`, ids as a string) and ubar for everyone else."""
    m = generate(kind, n, nfirms, 0)
    entries = {
        w: {f: (Fraction(0) if w in free.get(f, "").split() else m.ubar) for f in m.firm_names}
        for w in m.workers
    }
    return Market(m.workers, m.firms, Profile.from_dict(m.workers, m.firm_names, entries))


def _steered(kind: str, n: int, nfirms: int, firm: str, inside: str) -> Market:
    m = generate(kind, n, nfirms, 0)
    return Market(m.workers, m.firms, adversarial_profile(m, firm, inside.split()))


# (market, (form, side) per join, layer 0 first), one case per form and side
PLANNED_JOINS = {
    "layer_1_memo": (_steered("additive", 6, 3, "f1", ""), [("memo", 0), ("memo", 1)]),
    "plain_push": (_steered("additive", 6, 3, "f2", "w1 w2"), [("memo", 0), ("push", 1)]),
    "last_join_pushed_from_last_firm": (
        _steered("unit_demand", 6, 3, "f3", "w1 w4"),
        [("memo", 0), ("push", 2)],
    ),
    "layer_0_over_firm_1": (
        _steered("budget_additive", 6, 2, "f2", "w1"),
        [("memo", 1)],
    ),
    "memo_reads_memo": (
        _priced("additive", 6, 4, {"f2": "w1", "f3": "w2 w3", "f4": "w1 w2 w3 w4 w5 w6"}),
        [("memo", 0), ("memo", 1), ("memo", 2)],
    ),
    "last_join_memo_over_last_firm": (
        _priced("additive", 6, 4, {"f2": "w1", "f3": "w2 w3 w4", "f4": "w5"}),
        [("memo", 0), ("memo", 1), ("memo", 3)],
    ),
}


@pytest.mark.parametrize("m, forms", PLANNED_JOINS.values(), ids=PLANNED_JOINS.keys())
def test_each_join_form_matches_full_table_reference(m, forms):
    solver = _assert_matches_reference(m)
    assert [(form, side) for form, side, _ in solver._plan] == forms


def test_zero_profile_keeps_the_push():
    m = generate("additive", 11, 3, 1)
    zero = {w: {f: 0 for f in m.firm_names} for w in m.workers}
    solver = MarketSolver(m, Profile.from_dict(m.workers, m.firm_names, zero))
    assert [len(t) for t in solver.tight] == [1 << 11] * 3
    # every set is tight: one push from firm 1, 3^11 - 2^11 steps
    assert solver._plan == [("memo", 0, 12 << 11), ("push", 1, 3**11 - 2**11)]


@PROPERTY_SETTINGS
@given(markets())
def test_lazy_program_total_matches_brute_force(m):
    assert efficient_matching(m).total == brute_force_total(m)
