"""End-to-end acceptance checklist.

Eleven numbered criteria: five pin worked examples exactly, six run the
self-test suites (`jobmarket.selftest`) on seeded corpora, the one copy of
each engine-level cross-check, and assert that no suite fails and that
each saw enough. Each one reports through the ``criterion`` fixture, so
the run ends with a PASS/FAIL line per criterion. All comparisons are exact
rational equality.
"""

import itertools
import random
from fractions import Fraction

import pytest

import jobmarket.selftest as selftest
from jobmarket.model import Profile, SetFunction
from jobmarket.necessity import GENERATOR_KINDS
from jobmarket.oracles import strong_substitutes_scan
from jobmarket.pivot import check_ir, check_sir, vcg
from jobmarket.setfn import (
    demand_set,
    is_gross_substitutes,
    is_strong_substitutes,
    is_submodular,
    is_weak_substitutes,
)
from jobmarket.stability import find_block, find_weak_block
from jobmarket.surplus import efficient_matching
from solver_queries import max_surplus_excluding
from worked_examples import (
    all_or_nothing_market,
    budget_vs_additive_market,
    plateau_table,
)

F = Fraction


def _passes(result: selftest.SuiteResult) -> dict[str, int]:
    """The suite's counts, once it has no failure line; else its first
    line, which names the market, heads the criterion's report."""
    failures = result.failures
    assert not failures, f"{failures[0]} (of {len(failures)} failures)"
    return result.counts


@pytest.fixture(scope="module")
def corpus_a():
    """500 markets, up to 6 workers and 3 firms, each with 6 profiles:
    the embedded one plus 5 drawn from the sixth-of-range grid."""
    rng = random.Random("corpus-a")
    out = []
    for t in range(500):
        kind = GENERATOR_KINDS[t % len(GENERATOR_KINDS)]
        label, m = selftest._generated(
            kind, rng.randint(1, 6), rng.randint(1, 3), rng.randint(0, 10**6)
        )
        top = m.ubar
        grid = [top * F(i, 6) for i in range(7)] if top > 0 else [F(0)]
        profiles = [m.disutilities]
        for p in range(5):
            prng = random.Random(f"profile:{t}:{p}")
            entries = {
                w: {f: prng.choice(grid) for f in m.firm_names} for w in m.workers
            }
            profiles.append(Profile.from_dict(m.workers, m.firm_names, entries))
        out.append((label, m, tuple(profiles)))
    return out


@pytest.fixture(scope="module")
def corpus_b():
    """503 markets for the solver cross-check, skewed small but reaching
    8 workers and 4 firms (three such instances are always included)."""
    rng = random.Random("corpus-b")
    out = []
    for t in range(500):
        n = rng.choices(range(1, 9), weights=(5, 5, 5, 5, 4, 3, 2, 1))[0]
        nf = rng.choices(range(1, 5), weights=(4, 3, 2, 1))[0]
        kind = GENERATOR_KINDS[t % len(GENERATOR_KINDS)]
        out.append(selftest._generated(kind, n, nf, rng.randint(0, 10**6)))
    out += [selftest._generated("random_monotone", 8, 4, 1000 + j) for j in range(3)]
    return [(label, m, (m.disutilities,)) for label, m in out]


def test_criterion_01_all_or_nothing_payments(criterion):
    with criterion(1) as note:
        m = all_or_nothing_market()
        r = vcg(m)
        assert r.total == 3
        assert r.salary("w1") == 6 and r.salary("w2") == 7
        assert r.worker_payoff("w1") == 3 and r.worker_payoff("w2") == 3
        assert r.firm_payoff("f") == -3
        ir = check_ir(r)
        assert not ir.verdict
        assert ir.witness["agent"] == "f"
        note("salaries 6 and 7, firm payoff -3, rationality fails")


def test_criterion_02_plateau_classification(criterion):
    with criterion(2) as note:
        fn = plateau_table()
        assert is_weak_substitutes(fn).verdict
        sub = is_submodular(fn)
        assert not sub.verdict
        assert F(sub.witness["marginal_smaller"]) == 0
        assert F(sub.witness["marginal_larger"]) == 1
        assert not is_strong_substitutes(fn).verdict
        note("weak substitutes holds, submodularity fails with marginals 0 vs 1")


def test_criterion_03_low_disutility_regime(criterion):
    with criterion(3) as note:
        m = budget_vs_additive_market()
        sol = efficient_matching(m)
        assert sol.total == F(7, 2)
        assert sol.matching.to_dict() == {"w1": "f2", "w2": "f2", "w3": "f1"}
        assert max_surplus_excluding(m, excluded=("w1",)) == F(11, 4)
        assert max_surplus_excluding(m, excluded=("w2",)) == F(11, 4)
        assert max_surplus_excluding(m, excluded=("w3",)) == 2
        r = vcg(m)
        assert r.firm_payoff("f1") == F(1, 2) and r.firm_payoff("f2") == 0
        assert r.worker_payoff("w1") == F(3, 4)
        assert r.worker_payoff("w2") == F(3, 4)
        assert r.worker_payoff("w3") == F(3, 2)
        assert check_ir(r).verdict and check_sir(r).verdict
        assert find_block(m, r.outcome) is None
        note("surplus 7/2, pinned payoffs, outcome is stable")


def test_criterion_04_high_disutility_regime(criterion):
    with criterion(4) as note:
        m = budget_vs_additive_market("3/4", "3/4")
        r = vcg(m)
        assert r.total == 3
        assert r.firm_payoff("f1") == F(1, 2) and r.firm_payoff("f2") == 0
        assert r.worker_payoff("w1") == F(3, 4)
        assert r.worker_payoff("w2") == F(3, 4)
        assert r.worker_payoff("w3") == 1
        block = find_block(m, r.outcome)
        assert block is not None
        assert block.firm == "f1" and block.coalition == ("w3",)
        assert dict(block.payments) == {"w3": F(5, 4)}
        assert block.slack == F(1, 2)
        assert find_weak_block(m, r.outcome) is None
        assert check_sir(r).verdict
        note("block (f1, {w3}) with slack 1/2, weakly stable, firing-proof")


def test_criterion_05_demand_sets_and_gross_substitutes(criterion):
    with criterion(5) as note:
        m = budget_vs_additive_market()
        u1, u2 = m.utility("f1"), m.utility("f2")
        low = demand_set(u1, {"w1": "0", "w2": "1/2", "w3": "1/2"})
        assert low == {
            frozenset(("w3",)),
            frozenset(("w1", "w2")),
            frozenset(("w1", "w3")),
        }
        high = demand_set(u1, {"w1": "1", "w2": "1/2", "w3": "1/2"})
        assert high == {frozenset(("w3",))}
        assert not is_gross_substitutes(u1).verdict
        assert is_gross_substitutes(u2).verdict
        note("raising one salary kills both demanded sets through w1")


def test_criterion_06_rationality_iff_weak_substitutes(criterion, corpus_a):
    with criterion(6) as note:
        counts = _passes(selftest._ir_iff_weak_substitutes(corpus_a))
        rational, built = counts["rational_markets"], counts["violations"]
        assert rational >= 50 and built >= 50
        note(f"{rational} markets rational on 6 profiles each, {built} violations built")


def test_criterion_07_firing_proof_iff_submodular(criterion, corpus_a):
    with criterion(7) as note:
        counts = _passes(selftest._sir_iff_submodular(corpus_a))
        proof = counts["firing_proof_markets"]
        canonical, exhibited = counts["canonical"], counts["exhibited"]
        assert proof >= 50 and canonical + exhibited >= 50
        note(
            f"{proof} markets firing-proof on 6 profiles each, "
            f"{canonical} canonical + {exhibited} exhibited violations built"
        )


def test_criterion_08_solver_against_exhaustive_search(criterion, corpus_b):
    with criterion(8) as note:
        _passes(selftest._oracle_equivalence(corpus_b))
        largest = max((len(m.workers), len(m.firms)) for _, m, _ in corpus_b)
        assert len(corpus_b) >= 500
        assert largest == (8, 4)
        note(f"{len(corpus_b)} markets agree exactly, up to {largest[0]} workers")


def test_criterion_09_order_closure_equivalence(criterion, corpus_a, corpus_b):
    with criterion(9) as note:
        markets = corpus_a + corpus_b
        _passes(selftest._marginal_product_order(markets))
        premise_held = _passes(selftest._tight_sets_closed(corpus_a))["premise_held"]
        assert premise_held >= 100
        exhaustive = 0
        workers3 = ("w1", "w2", "w3")
        for tail in itertools.product(range(4), repeat=7):
            table = (0,) + tail
            if any(
                table[mask] < table[mask ^ (1 << i)]
                for mask in range(1, 8)
                for i in range(3)
                if mask >> i & 1
            ):
                continue
            fn = SetFunction.from_values(workers3, tuple(F(v) for v in table))
            assert is_submodular(fn).verdict == strong_substitutes_scan(fn).verdict
            exhaustive += 1
        rng = random.Random("equivalence")
        for _ in range(1000):
            n = rng.randint(1, 5)
            ws = tuple(f"w{i}" for i in range(1, n + 1))
            vals = [F(0)] * (1 << n)
            bumps = (F(0), F(1, 4), F(1, 2), F(1), F(2))
            for mask in range(1, 1 << n):
                below = max(
                    vals[mask ^ (1 << i)] for i in range(n) if mask >> i & 1
                )
                vals[mask] = below + rng.choice(bumps)
            fn = SetFunction.from_values(ws, tuple(vals))
            assert is_submodular(fn).verdict == strong_substitutes_scan(fn).verdict
        note(
            f"order on {len(markets)} markets, closure premise held {premise_held} times, "
            f"equivalence on {exhaustive} exhaustive + 1000 random tables"
        )


def test_criterion_10_truthful_dominance_on_grid(criterion, corpus_a):
    with criterion(10) as note:
        ranked = sorted(
            corpus_a, key=lambda entry: 7 ** len(entry[1].firms) * max(1, len(entry[1].workers))
        )
        result = selftest._truthful_dominance(ranked[:100], 6)
        _passes(result)
        note(f"100 markets, {result.checked} workers truthful against the k=6 grid")


def test_criterion_11_valuation_chain(criterion, corpus_a):
    with criterion(11) as note:
        result = selftest._valuation_chain(corpus_a)
        gs, subm, ws = (
            _passes(result)[k] for k in ("gross_substitutes", "submodular", "weak_substitutes")
        )
        plateau = plateau_table()
        assert is_weak_substitutes(plateau).verdict
        assert not is_submodular(plateau).verdict
        strict = budget_vs_additive_market().utility("f1")
        assert is_submodular(strict).verdict
        assert not is_gross_substitutes(strict).verdict
        note(f"{gs} GS <= {subm} submodular <= {ws} weak-substitutes of {result.checked} firms")
