"""Valuation-class checkers: weak/strong substitutes, submodularity, gross
substitutes, demand sets, and the equivalence between the two middle notions.

Witness dictionaries are part of the contract: every false verdict must point
at a concrete violating configuration that replays against the raw table.
"""

import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jobmarket.model import SetFunction
from jobmarket.necessity import generate
from jobmarket.oracles import strong_substitutes_scan
from jobmarket.setfn import (
    classify,
    demand_set,
    is_gross_substitutes,
    is_strong_substitutes,
    is_submodular,
    is_weak_substitutes,
)
from market_strategies import FOREIGN_DENOMINATORS, markets
from worked_examples import budget_vs_additive_market, plateau_table


def _random_monotone(rng: random.Random, n: int) -> SetFunction:
    names = tuple(f"w{i}" for i in range(1, n + 1))
    vals = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        floor = max(vals[mask ^ (1 << i)] for i in range(n) if mask >> i & 1)
        vals[mask] = floor + Fraction(rng.randint(0, 4), 2)
    return SetFunction.from_values(names, tuple(vals))


def test_additive_is_in_every_class():
    fn = SetFunction.additive(("a", "b", "c"), {"a": 1, "b": "1/2", "c": 2})
    assert is_weak_substitutes(fn).verdict
    assert is_submodular(fn).verdict
    assert is_strong_substitutes(fn).verdict
    assert is_gross_substitutes(fn).verdict


def test_complements_fail_weak_substitutes_with_witness():
    fn = SetFunction.from_table(
        ("w1", "w2"), {(): 0, ("w1",): 0, ("w2",): 0, ("w1", "w2"): 10}
    )
    report = is_weak_substitutes(fn)
    assert not report.verdict
    assert report.witness["subset"] == ["w1", "w2"]
    assert Fraction(report.witness["value"]) == 10
    assert Fraction(report.witness["marginal_sum"]) == 20


def test_plateau_separates_weak_from_submodular():
    fn = plateau_table()
    assert is_weak_substitutes(fn).verdict
    sub = is_submodular(fn)
    assert not sub.verdict
    # the added worker gains 0 next to one co-worker but 1 on top of two
    assert Fraction(sub.witness["marginal_smaller"]) == 0
    assert Fraction(sub.witness["marginal_larger"]) == 1
    strong = is_strong_substitutes(fn)
    assert not strong.verdict
    assert set(strong.witness["removed"]) <= set(strong.witness["set"])
    drop = Fraction(strong.witness["value_drop"])
    msum = Fraction(strong.witness["marginal_sum"])
    assert drop < msum


def test_submodularity_witness_replays_against_table():
    rng = random.Random(11)
    seen = 0
    while seen < 40:
        fn = _random_monotone(rng, rng.randint(2, 5))
        report = is_submodular(fn)
        if report.verdict:
            continue
        seen += 1
        smaller = fn.mask_of(report.witness["smaller_set"])
        larger = fn.mask_of(report.witness["larger_set"])
        w = 1 << fn.index[report.witness["worker"]]
        # nested form: both sets contain the worker, one extra member apart
        assert smaller & larger == smaller
        assert (smaller & w) and (larger & w)
        assert (larger ^ smaller).bit_count() == 1
        lhs = fn.values[smaller] - fn.values[smaller ^ w]
        rhs = fn.values[larger] - fn.values[larger ^ w]
        assert lhs == Fraction(report.witness["marginal_smaller"])
        assert rhs == Fraction(report.witness["marginal_larger"])
        assert lhs < rhs


def test_weak_substitutes_witness_is_inclusion_minimal():
    rng = random.Random(12)
    seen = 0
    while seen < 25:
        fn = _random_monotone(rng, rng.randint(2, 5))
        report = is_weak_substitutes(fn)
        if report.verdict:
            continue
        seen += 1
        smask = fn.mask_of(report.witness["subset"])
        sub = (smask - 1) & smask
        while True:
            total = sum(
                (fn.values[sub] - fn.values[sub ^ (1 << i)] for i in range(fn.n) if sub >> i & 1),
                Fraction(0),
            )
            assert fn.values[sub] >= total, "a smaller violator exists"
            if sub == 0:
                break
            sub = (sub - 1) & smask


def test_equivalence_of_submodular_and_strong_substitutes():
    rng = random.Random(13)
    for _ in range(120):
        fn = _random_monotone(rng, rng.randint(1, 5))
        assert is_submodular(fn).verdict == strong_substitutes_scan(fn).verdict


def test_chain_on_generated_families():
    rng = random.Random(14)
    for t in range(60):
        kind = ("additive", "budget_additive", "unit_demand", "random_submodular")[t % 4]
        m = generate(kind, rng.randint(1, 5), 1, rng.randint(0, 10**6))
        fn = m.utility("f1")
        assert is_submodular(fn).verdict
        assert is_weak_substitutes(fn).verdict


def test_demand_set_at_zero_prices_contains_full_set():
    fn = SetFunction.additive(("a", "b"), {"a": 1, "b": 2})
    ds = demand_set(fn, {"a": 0, "b": 0})
    assert frozenset(("a", "b")) in ds


def test_demand_set_worked_example():
    m = budget_vs_additive_market()
    u1 = m.utility("f1")
    low = demand_set(u1, {"w1": "0", "w2": "1/2", "w3": "1/2"})
    assert low == {
        frozenset(("w3",)),
        frozenset(("w1", "w2")),
        frozenset(("w1", "w3")),
    }
    high = demand_set(u1, {"w1": "1", "w2": "1/2", "w3": "1/2"})
    assert high == {frozenset(("w3",))}


def test_demand_set_validates_prices():
    fn = SetFunction.additive(("a",), {"a": 1})
    with pytest.raises(ValueError, match="missing"):
        demand_set(fn, {})
    with pytest.raises(ValueError):
        demand_set(fn, {"a": 0, "zz": 1})
    with pytest.raises(ValueError):
        demand_set(fn, {"a": "-1"})


def _reference_demand_set(h: SetFunction, prices: dict) -> set:
    """Demand in Fraction arithmetic: each subset's price summed on its own."""
    best, arg = Fraction(0), [0]
    for mask in range(1, 1 << h.n):
        net = h.values[mask] - sum((prices[w] for w in h.members(mask)), Fraction(0))
        if net > best:
            best, arg = net, [mask]
        elif net == best:
            arg.append(mask)
    return {frozenset(h.members(mask)) for mask in arg}


@settings(max_examples=150, deadline=None)
@given(st.data(), markets())
def test_demand_set_matches_reference(data, m):
    price = st.builds(
        Fraction, st.integers(0, 12), st.sampled_from((1,) + FOREIGN_DENOMINATORS)
    )
    for _, fn in m.firms:
        prices = {w: data.draw(price) for w in m.workers}
        assert demand_set(fn, prices) == _reference_demand_set(fn, prices)


def test_gross_substitutes_worked_example():
    m = budget_vs_additive_market()
    assert not is_gross_substitutes(m.utility("f1")).verdict
    assert is_gross_substitutes(m.utility("f2")).verdict


def test_gross_substitutes_requires_monotone():
    fn = SetFunction.from_values(("a", "b"), (Fraction(0), Fraction(2), Fraction(1), Fraction(1)))
    with pytest.raises(ValueError, match="increasing"):
        is_gross_substitutes(fn)


def test_gross_substitutes_implies_submodular_on_random_tables():
    rng = random.Random(15)
    for _ in range(60):
        fn = _random_monotone(rng, rng.randint(1, 4))
        if is_gross_substitutes(fn).verdict:
            assert is_submodular(fn).verdict


def test_strong_substitutes_witness_replays():
    rng = random.Random(16)
    seen = 0
    while seen < 25:
        fn = _random_monotone(rng, rng.randint(2, 5))
        report = is_strong_substitutes(fn)
        if report.verdict:
            continue
        seen += 1
        smask = fn.mask_of(report.witness["set"])
        rmask = fn.mask_of(report.witness["removed"])
        assert rmask and rmask & smask == rmask
        drop = fn.values[smask] - fn.values[smask ^ rmask]
        total = sum(
            (fn.values[smask] - fn.values[smask ^ (1 << i)] for i in range(fn.n) if rmask >> i & 1),
            Fraction(0),
        )
        assert drop == Fraction(report.witness["value_drop"])
        assert total == Fraction(report.witness["marginal_sum"])
        assert drop < total


# The kernels hold about a dozen packed tables at a time, at most three
# of them lane masks, each 2^n lanes of a byte or two at the generated
# tables' ranges, where the list holds an 8-byte pointer per entry; a
# cache of every pair's interaction table would hold C(n,2) lanes per
# entry, 91 at n = 14.
PEAK_TABLE_MULTIPLE = 6


def test_classify_memory_stays_within_a_multiple_of_the_table():
    m = generate("unit_demand", 14, 1, 1)
    fn = m.utility(m.firm_names[0])
    assert fn.is_monotone()  # computes the scaled table before tracing
    table = sys.getsizeof(fn.scaled)
    tracemalloc.start()
    try:
        chain = classify(fn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chain["submodular"].verdict and chain["gross_substitutes"].verdict
    assert peak < PEAK_TABLE_MULTIPLE * table, (peak, table)
