"""Differential property tests for the valuation classifiers.

The classifiers decide on the table's integer form and, for strong and
gross substitutes, on a cheaper equivalent condition. Each is compared
here with an independent computation: the exhaustive scans of `oracles`,
and Fraction references written out below in the shape of the
definitions. Monotonicity, weak-substitutes and submodularity reports must
agree with their references in verdict, witness and details, on monotone
and non-monotone tables with mixed denominators. Strong and gross
verdicts must agree with the scans, and their reports with references
that name the local violation the deciders find; every false one is also
re-checked in Fraction arithmetic against its class's definition.
"""

import random
from fractions import Fraction
from math import lcm
from typing import Optional
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jobmarket.model as model
import jobmarket.oracles as oracles
import jobmarket.setfn as setfn
from jobmarket.model import ConditionReport, SetFunction
from jobmarket.necessity import generate
from jobmarket.subsets import bit_indices, insert_bit
from worked_examples import budget_vs_additive_market, plateau_table

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)

DENOMINATORS = (1, 2, 3, 4, 6)


def _rationals(draw, numerators):
    """Values over one table's denominators: integral (where values one unit
    apart are common), halves, or mixed."""
    dens = draw(st.sampled_from(((1,), (1, 2), DENOMINATORS)))
    return st.builds(Fraction, numerators, st.sampled_from(dens))


def _universe(n: int) -> tuple[str, ...]:
    return tuple(f"w{i}" for i in range(1, n + 1))


@st.composite
def monotone_tables(draw, max_n: int = 6) -> SetFunction:
    """Each value is the largest value one worker below, plus a bump."""
    n = draw(st.integers(0, max_n))
    bump = _rationals(draw, st.sampled_from((0, 0, 0, 1, 1, 2, 3)))
    vals = [Fraction(0)] * (1 << n)
    for mask in range(1, 1 << n):
        floor = max(vals[mask ^ (1 << i)] for i in bit_indices(mask))
        vals[mask] = floor + draw(bump)
    return SetFunction.from_values(_universe(n), tuple(vals))


@st.composite
def arbitrary_tables(draw, max_n: int = 6) -> SetFunction:
    """Independent values of either sign, zero at the empty set."""
    n = draw(st.integers(0, max_n))
    value = _rationals(draw, st.integers(-4, 8))
    rest = draw(st.lists(value, min_size=(1 << n) - 1, max_size=(1 << n) - 1))
    return SetFunction.from_values(_universe(n), (Fraction(0), *rest))


@st.composite
def assignment_tables(draw, max_n: int = 6) -> SetFunction:
    """Best matching of the hired workers to weighted slots (gross substitutes)."""
    n = draw(st.integers(0, max_n))
    slots = draw(st.integers(1, 3))
    weight = _rationals(draw, st.integers(0, 6))
    w = [[draw(weight) for _ in range(slots)] for _ in range(n)]
    vals = []
    for mask in range(1 << n):
        best = {0: Fraction(0)}  # slots used -> best value
        for i in bit_indices(mask):
            grown = dict(best)
            for used, v in best.items():
                for s in range(slots):
                    if not used >> s & 1:
                        key = used | 1 << s
                        if key not in grown or grown[key] < v + w[i][s]:
                            grown[key] = v + w[i][s]
            best = grown
        vals.append(max(best.values()))
    return SetFunction.from_values(_universe(n), tuple(vals))


@st.composite
def coverage_tables(draw, max_n: int = 6) -> SetFunction:
    """Weight of the ground elements the hired workers cover (submodular,
    often not gross substitutes), optionally capped by a budget."""
    n = draw(st.integers(0, max_n))
    ground = draw(st.integers(1, 5))
    weight = _rationals(draw, st.integers(0, 6))
    weights = [draw(weight) for _ in range(ground)]
    covers = [draw(st.integers(0, (1 << ground) - 1)) for _ in range(n)]
    budget = draw(st.one_of(st.none(), weight))
    vals = []
    for mask in range(1 << n):
        covered = 0
        for i in bit_indices(mask):
            covered |= covers[i]
        v = sum((weights[e] for e in bit_indices(covered)), Fraction(0))
        vals.append(v if budget is None else min(v, budget))
    return SetFunction.from_values(_universe(n), tuple(vals))


@st.composite
def perturbed_assignment_tables(draw, max_n: int = 6) -> SetFunction:
    """An assignment table plus a bonus on every superset of one set: a
    single localized complementarity, near the gross-substitutes class."""
    base = draw(assignment_tables(max_n))
    if base.n == 0:
        return base
    core = draw(st.integers(1, base.full_mask))
    bonus = draw(_rationals(draw, st.integers(1, 3)))
    vals = tuple(v + bonus if m & core == core else v for m, v in enumerate(base.values))
    return SetFunction.from_values(base.universe, vals)


monotone_table = st.one_of(
    monotone_tables(), assignment_tables(), perturbed_assignment_tables(), coverage_tables()
)
any_table = st.one_of(monotone_table, arbitrary_tables())


@st.composite
def planted_tables(draw, max_n: int = 10) -> SetFunction:
    """Integer tables (over one drawn denominator) up to 10 workers, where
    both slice layouts, strided and blocks, run on the 2^(n-1) marginal and
    the 2^(n-2) pair tables.

    The base h(S) = a|S| - c C(|S|, 2) has every interaction
    q_ij(X) = h(X+i+j) - h(X+i) - h(X+j) + h(X) equal to -c, so each local
    inequality holds, with ties. Up to three drawn sets of one to four
    workers then get a bump. With c = 1, a bump of 1 at a set M makes q_ij
    zero at M less i and j, for i, j in M: a triple violation with each k
    outside M, on a table that stays submodular. A bump of 2 makes q_ij
    positive there: a pair violation. Small sets keep a violation to the
    pairs and triples of their own workers, so one among the highest
    workers is found only by the checks of those workers. With a monotone
    slope and positive bumps the table is monotone; otherwise its values
    take either sign.
    """
    n = draw(st.integers(0, max_n))
    c = draw(st.integers(0, 2))
    monotone = draw(st.booleans())
    a = draw(st.integers(c * n, c * n + 4) if monotone else st.integers(-3, 3))
    bumps = (1, 2) if monotone else (-2, -1, 1, 2)
    vals = [a * k - c * k * (k - 1) // 2 for k in map(int.bit_count, range(1 << n))]
    for _ in range(draw(st.integers(0, 3) if n else st.just(0))):
        workers = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=4))
        vals[sum(1 << i for i in workers)] += draw(st.sampled_from(bumps))
    den = draw(st.sampled_from((1, 2, 3)))
    return SetFunction.from_values(_universe(n), tuple(Fraction(v, den) for v in vals))


@st.composite
def random_sign_tables(draw, max_n: int = 10) -> SetFunction:
    """Independent values in [-4, 8], zero at the empty set, up to 10 workers;
    violations come early, at any bit."""
    n = draw(st.integers(0, max_n))
    rnd = draw(st.randoms(use_true_random=False))
    vals = [0] + [rnd.randint(-4, 8) for _ in range((1 << n) - 1)]
    return SetFunction.from_values(_universe(n), tuple(map(Fraction, vals)))


kernel_table = st.one_of(planted_tables(), random_sign_tables())


# ---- Fraction references ------------------------------------------------------


def _ref_monotonicity_violation(h: SetFunction) -> Optional[tuple[int, int]]:
    for s in range(1 << h.n):
        for i in range(h.n):
            bit = 1 << i
            if not s & bit and h.values[s | bit] < h.values[s]:
                return (s, s | bit)
    return None


def _marginal_sum(h: SetFunction, mask: int, sub: int) -> Fraction:
    return sum(
        (h.values[mask] - h.values[mask ^ (1 << i)] for i in bit_indices(sub)),
        Fraction(0),
    )


def _ref_weak_substitutes(h: SetFunction) -> ConditionReport:
    for mask in range(1 << h.n):
        total = _marginal_sum(h, mask, mask)
        if h.values[mask] < total:
            return ConditionReport(
                verdict=False,
                witness={
                    "subset": list(h.members(mask)),
                    "value": str(h.values[mask]),
                    "marginal_sum": str(total),
                },
                details="set value is below the sum of its members' marginals",
            )
    return ConditionReport(verdict=True)


def _ref_first_pair(h: SetFunction) -> Optional[tuple[int, int, int]]:
    """The first (B, i, j), i < j, with h(B+i) + h(B+j) < h(B+i+j) + h(B):
    B ascending, then i, then j."""
    vals = h.values
    for base in range(1 << h.n):
        for i in range(h.n):
            for j in range(i + 1, h.n):
                bi, bj = 1 << i, 1 << j
                if base & (bi | bj):
                    continue
                if vals[base | bi] + vals[base | bj] < vals[base | bi | bj] + vals[base]:
                    return base, i, j
    return None


def _ref_submodular(h: SetFunction) -> ConditionReport:
    hit = _ref_first_pair(h)
    if hit is None:
        return ConditionReport(verdict=True)
    base, i, j = hit
    bi, bj = 1 << i, 1 << j
    vals = h.values
    return ConditionReport(
        verdict=False,
        witness={
            "smaller_set": list(h.members(base | bi)),
            "larger_set": list(h.members(base | bi | bj)),
            "worker": h.universe[i],
            "marginal_smaller": str(vals[base | bi] - vals[base]),
            "marginal_larger": str(vals[base | bi | bj] - vals[base | bj]),
        },
        details="a worker's marginal grows when the set grows",
    )


def _ref_strong_substitutes(h: SetFunction) -> ConditionReport:
    """Every (set, removed subset) pair, both ascending by bit pattern."""
    for mask in range(1 << h.n):
        for sub in range(1, mask + 1):
            if sub & ~mask:
                continue
            drop = h.values[mask] - h.values[mask ^ sub]
            total = _marginal_sum(h, mask, sub)
            if drop < total:
                return ConditionReport(
                    verdict=False,
                    witness={
                        "set": list(h.members(mask)),
                        "removed": list(h.members(sub)),
                        "value_drop": str(drop),
                        "marginal_sum": str(total),
                    },
                    details="removing a group costs less than its members' marginals",
                )
    return ConditionReport(verdict=True)


def _ref_gross_substitutes_scan(h: SetFunction) -> ConditionReport:
    """Every (S, T, w in S minus T): S ascending, then T, then w by index."""
    vals = h.values
    for s in range(1 << h.n):
        for t in range(1 << h.n):
            combined = vals[s] + vals[t]
            for i in bit_indices(s & ~t):
                bi = 1 << i
                exchanges = [vals[s ^ bi] + vals[t | bi]]
                for j in bit_indices(t & ~s):
                    bj = 1 << j
                    exchanges.append(vals[(s ^ bi) | bj] + vals[(t | bi) ^ bj])
                if max(exchanges) < combined:
                    return ConditionReport(
                        verdict=False,
                        witness={
                            "set_a": list(h.members(s)),
                            "set_b": list(h.members(t)),
                            "worker": h.universe[i],
                            "combined_value": str(combined),
                            "best_exchange": str(max(exchanges)),
                        },
                        details="local exchange loses value; not gross substitutes",
                    )
    return ConditionReport(verdict=True)


def _ref_first_triple(h: SetFunction) -> Optional[tuple[int, int, int, int]]:
    """(i, j, k, X): the first triple i < j < k, pairs (i, k) ascending and
    then j, whose three sums h(X+i+j) + h(X+k), h(X+i+k) + h(X+j) and
    h(X+j+k) + h(X+i) have a strict maximum at some X, and the least such X."""
    vals = h.scaled
    for i in range(h.n):
        for k in range(i + 2, h.n):
            for j in range(i + 1, k):
                bi, bj, bk = 1 << i, 1 << j, 1 << k
                for x in range(1 << h.n):
                    if x & (bi | bj | bk):
                        continue
                    sums = [
                        vals[x | bi | bj] + vals[x | bk],
                        vals[x | bi | bk] + vals[x | bj],
                        vals[x | bj | bk] + vals[x | bi],
                    ]
                    if sums.count(max(sums)) == 1:
                        return i, j, k, x
    return None


def _ref_local_strong(h: SetFunction) -> ConditionReport:
    """The strong-substitutes report on the first pair violation (B, i, j):
    S' = {i, j} removed from S = B+i+j."""
    hit = _ref_first_pair(h)
    if hit is None:
        return ConditionReport(verdict=True)
    base, i, j = hit
    removed = 1 << i | 1 << j
    s = base | removed
    return ConditionReport(
        verdict=False,
        witness={
            "set": list(h.members(s)),
            "removed": list(h.members(removed)),
            "value_drop": str(h.values[s] - h.values[base]),
            "marginal_sum": str(_marginal_sum(h, s, removed)),
        },
        details="removing a group costs less than its members' marginals",
    )


def _ref_local_gross(h: SetFunction) -> ConditionReport:
    """The gross-substitutes report on the first pair violation (B, i, j):
    w = i moved from S = B+i+j to T = B. On a submodular table, on the
    first failing triple at its least X: the strict maximum
    h(X+a+b) + h(X+c) names S = X+a+b, T = X+c and w = a < b, and the
    other two sums are the move of w and its swap against c."""
    vals = h.values
    hit = _ref_first_pair(h)
    if hit is not None:
        base, i, j = hit
        bi, bj = 1 << i, 1 << j
        s, t, w = base | bi | bj, base, i
        combined, best = vals[s] + vals[t], vals[base | bi] + vals[base | bj]
    else:
        triple = _ref_first_triple(h)
        if triple is None:
            return ConditionReport(verdict=True)
        i, j, k, x = triple
        bi, bj, bk = 1 << i, 1 << j, 1 << k
        sums = sorted(
            (vals[x | a | b] + vals[x | c], x | a | b, x | c, w)
            for a, b, c, w in ((bi, bj, bk, i), (bi, bk, bj, i), (bj, bk, bi, j))
        )
        (combined, s, t, w), best = sums[2], sums[1][0]
    return ConditionReport(
        verdict=False,
        witness={
            "set_a": list(h.members(s)),
            "set_b": list(h.members(t)),
            "worker": h.universe[w],
            "combined_value": str(combined),
            "best_exchange": str(best),
        },
        details="local exchange loses value; not gross substitutes",
    )


def _recheck(h: SetFunction, report: ConditionReport) -> None:
    """A report's verdict against its witness, re-checked in Fraction
    arithmetic from the table's values by the definition of its class
    (strong substitutes when the witness removes a set, else gross)."""
    if report.verdict:
        assert report.witness is None
        return
    wit, vals = report.witness, h.values
    if "removed" in wit:
        s, r = h.mask_of(wit["set"]), h.mask_of(wit["removed"])
        assert r and r & ~s == 0
        drop, total = vals[s] - vals[s ^ r], _marginal_sum(h, s, r)
        assert (Fraction(wit["value_drop"]), Fraction(wit["marginal_sum"])) == (drop, total)
        assert drop < total
        return
    s, t = h.mask_of(wit["set_a"]), h.mask_of(wit["set_b"])
    bw = 1 << h.universe.index(wit["worker"])
    assert s & bw and not t & bw
    # move w alone, or swap it against any worker of T outside S
    exchanges = [vals[s ^ bw] + vals[t | bw]] + [
        vals[s ^ bw | 1 << j] + vals[(t | bw) ^ 1 << j] for j in bit_indices(t & ~s)
    ]
    combined, best = vals[s] + vals[t], max(exchanges)
    assert (Fraction(wit["combined_value"]), Fraction(wit["best_exchange"])) == (combined, best)
    assert best < combined


def _ref_exchange_triples(h: SetFunction) -> bool:
    """The three-element local inequality, once per unordered pair {i, j}
    and every k outside X + i + j: each ordering of a triple on its own."""
    vals = h.scaled
    for x in range(1 << h.n):
        free = [1 << i for i in range(h.n) if not x >> i & 1]
        for a, bi in enumerate(free):
            for bj in free[a + 1:]:
                for bk in free:
                    if bk in (bi, bj):
                        continue
                    lhs = vals[x | bi | bj] + vals[x | bk]
                    if (
                        lhs > vals[x | bi | bk] + vals[x | bj]
                        and lhs > vals[x | bj | bk] + vals[x | bi]
                    ):
                        return False
    return True


# ---- properties ----------------------------------------------------------------

# two complements: only the pairwise local inequality fails
COMPLEMENTS = SetFunction.from_values(("w1", "w2"), (Fraction(0), Fraction(0), Fraction(0), Fraction(1)))
# submodular, yet the three-worker local inequality fails
BUDGET_CAPPED = budget_vs_additive_market().utility("f1")
MIXED = SetFunction.from_values(("w1", "w2"), (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)))
# submodular and monotone, but of the three sums at X = {} the last is the
# unique maximum: 6 + 4 < 7 + 4 < 8 + 4
TRIPLE_UNIQUE_MAX = SetFunction.from_values(
    ("w1", "w2", "w3"), tuple(Fraction(v) for v in (0, 4, 4, 6, 4, 7, 8, 9))
)
# the first drop is one scaled unit
ONE_UNIT_DROP = SetFunction.from_values(("w1", "w2"), (Fraction(0), Fraction(2), Fraction(-1), Fraction(1)))


@PROPERTY_SETTINGS
@given(monotone_table)
@example(COMPLEMENTS)
@example(BUDGET_CAPPED)
@example(TRIPLE_UNIQUE_MAX)
def test_gross_substitutes_matches_the_exchange_scan(fn):
    report = setfn.is_gross_substitutes(fn)
    scan = oracles.gross_substitutes_scan(fn)
    assert report.verdict == scan.verdict
    assert scan == _ref_gross_substitutes_scan(fn)
    assert report == _ref_local_gross(fn)
    _recheck(fn, report)


@PROPERTY_SETTINGS
@given(arbitrary_tables())
@example(COMPLEMENTS)
@example(BUDGET_CAPPED)
def test_local_exchange_test_matches_the_scan_off_the_monotone_tables(fn):
    submodular = setfn._submodular_holds(fn.scaled)
    local = submodular and setfn._first_exchange_violation(fn.scaled) is None
    assert local == oracles.gross_substitutes_scan(fn).verdict


@PROPERTY_SETTINGS
@given(st.one_of(arbitrary_tables(), kernel_table))
@example(TRIPLE_UNIQUE_MAX)
@example(COMPLEMENTS)
@example(BUDGET_CAPPED)
def test_triple_test_matches_the_per_ordering_loop(fn):
    triples = _ref_exchange_triples(fn)
    first = setfn._first_exchange_violation(fn.scaled)
    assert (first is None) == triples
    assert first == _ref_first_triple(fn)
    local = setfn._submodular_holds(fn.scaled) and first is None
    assert local == (_ref_submodular(fn).verdict and triples)


@PROPERTY_SETTINGS
@given(monotone_table)
@example(plateau_table())  # weak substitutes, not submodular
@example(COMPLEMENTS)  # not even weak substitutes
@example(BUDGET_CAPPED)  # submodular, not gross substitutes
@example(TRIPLE_UNIQUE_MAX)
def test_classify_matches_the_standalone_checks(fn):
    chain = setfn.classify(fn)
    assert list(chain) == [
        "monotone", "weak_substitutes", "submodular", "strong_substitutes", "gross_substitutes"
    ]
    assert chain["monotone"] == ConditionReport(verdict=True)
    assert chain["weak_substitutes"] == setfn.is_weak_substitutes(fn)
    assert chain["submodular"] == setfn.is_submodular(fn)
    # the exhaustive scans, not the deciders classify shares with the
    # standalone checks
    for cls, scan, reference in (
        ("strong_substitutes", oracles.strong_substitutes_scan, _ref_local_strong),
        ("gross_substitutes", oracles.gross_substitutes_scan, _ref_local_gross),
    ):
        assert chain[cls].verdict == scan(fn).verdict
        assert chain[cls] == reference(fn)
        _recheck(fn, chain[cls])


@PROPERTY_SETTINGS
@given(monotone_table)
@example(plateau_table())
@example(COMPLEMENTS)
def test_a_pair_violation_witnesses_all_three_classes(fn):
    """On a table that is not submodular, the submodular, strong and gross
    witnesses name one (B, i, j)."""
    chain = setfn.classify(fn)
    if chain["submodular"].verdict:
        return
    sub, strong, gross = (
        chain[cls].witness for cls in ("submodular", "strong_substitutes", "gross_substitutes")
    )
    i = fn.index[sub["worker"]]
    pair = fn.mask_of(sub["larger_set"])
    j = (pair & ~fn.mask_of(sub["smaller_set"])).bit_length() - 1
    base = pair ^ 1 << i ^ 1 << j
    assert fn.mask_of(sub["smaller_set"]) == base | 1 << i and i < j
    assert (fn.mask_of(strong["set"]), fn.mask_of(strong["removed"])) == (pair, 1 << i | 1 << j)
    assert (fn.mask_of(gross["set_a"]), fn.mask_of(gross["set_b"])) == (pair, base)
    assert gross["worker"] == sub["worker"]


def test_classify_and_the_standalone_checks_share_each_decider(monkeypatch):
    forced = {}
    for cls in ("strong_substitutes", "gross_substitutes"):
        forced[cls] = ConditionReport(False, {"decider": cls})
        monkeypatch.setattr(setfn, f"_{cls}", lambda h, hit, *core, report=forced[cls]: report)
    fn = BUDGET_CAPPED
    chain = setfn.classify(fn)
    for cls, check in (
        ("strong_substitutes", setfn.is_strong_substitutes),
        ("gross_substitutes", setfn.is_gross_substitutes),
    ):
        assert chain[cls] == check(fn) == forced[cls]


def test_classify_leaves_non_monotone_tables_unclassified():
    smaller, larger = ONE_UNIT_DROP.first_monotonicity_violation()
    witness = {
        "smaller_set": list(ONE_UNIT_DROP.members(smaller)),
        "larger_set": list(ONE_UNIT_DROP.members(larger)),
        "value_smaller": str(ONE_UNIT_DROP.value(smaller)),
        "value_larger": str(ONE_UNIT_DROP.value(larger)),
    }
    assert setfn.classify(ONE_UNIT_DROP) == {"monotone": ConditionReport(False, witness)}


@PROPERTY_SETTINGS
@given(any_table)
def test_strong_substitutes_matches_the_exhaustive_scans(fn):
    scan = oracles.strong_substitutes_scan(fn)
    report = setfn.is_strong_substitutes(fn)
    assert report.verdict == scan.verdict
    assert scan == _ref_strong_substitutes(fn)
    assert report == _ref_local_strong(fn)
    _recheck(fn, report)


@PROPERTY_SETTINGS
@given(any_table)
@example(ONE_UNIT_DROP)
def test_integer_classifiers_match_fraction_references(fn):
    assert fn.first_monotonicity_violation() == _ref_monotonicity_violation(fn)
    assert setfn.is_weak_substitutes(fn) == _ref_weak_substitutes(fn)
    assert setfn.is_submodular(fn) == _ref_submodular(fn)


@st.composite
def dropped_tables(draw, max_n: int = 9) -> SetFunction:
    """A monotone integer table with up to three one-step drops planted at
    drawn (mask, bit) pairs, up to sizes where the verdict compares both
    contiguous blocks and strided slices."""
    n = draw(st.integers(0, max_n))
    vals = [Fraction(m.bit_count() * 3 + draw(st.integers(0, 2))) for m in range(1 << n)]
    vals[0] = Fraction(0)
    if n:
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, n - 1))
            s = draw(st.integers(0, (1 << n) - 1)) & ~(1 << i)
            vals[s | 1 << i] = vals[s] - draw(st.sampled_from((Fraction(1), Fraction(1, 2))))
    return SetFunction.from_values(_universe(n), tuple(vals))


@PROPERTY_SETTINGS
@given(kernel_table)
@example(COMPLEMENTS)
@example(BUDGET_CAPPED)
def test_submodularity_kernel_matches_the_ordered_walk(fn):
    reference = _ref_submodular(fn)
    assert setfn._submodular_holds(fn.scaled) == reference.verdict
    assert setfn._first_submodularity_violation(fn) == next(
        setfn._submodularity_violations(fn), None
    )
    assert setfn.is_submodular(fn) == reference


@pytest.mark.parametrize("n", (9, 10))
def test_kernels_find_a_violation_planted_at_any_pair(n):
    """h(S) = f(|S|) with interactions q of -1 at the empty set, -2 at one
    worker and -3 above. A bump of 2 at {i, j} makes q_ij(empty) = 1, the
    table's only pair violation; a bump of 1 makes it 0, the unique
    maximum of every triple with i and j at the empty set, and the table
    stays submodular. Every triple violation it makes holds i or j, so at
    the highest workers only their own checks can find it."""
    f, step = [0], 3 * n
    for drop in [1, 2] + [3] * n:
        f.append(f[-1] + step)
        step -= drop
    base = [f[k] for k in map(int.bit_count, range(1 << n))]
    for i in range(n):
        for j in range(i + 1, n):
            for bump in (1, 2):
                vals = list(base)
                vals[1 << i | 1 << j] += bump
                fn = SetFunction.from_values(_universe(n), tuple(map(Fraction, vals)))
                walk = list(setfn._submodularity_violations(fn))
                assert walk == ([] if bump == 1 else [(0, i, j)])
                assert setfn._first_submodularity_violation(fn) == next(iter(walk), None)
                assert setfn._first_exchange_violation(fn.scaled) is not None
                _recheck(fn, setfn.classify(fn)["gross_substitutes"])


def _monotonicity_agrees(fn: SetFunction) -> bool:
    return fn.first_monotonicity_violation() == _ref_monotonicity_violation(fn)


def _submodularity_agrees(fn: SetFunction) -> bool:
    return setfn._submodular_holds(fn.scaled) == _ref_submodular(fn).verdict


def _exchange_agrees(fn: SetFunction) -> bool:
    return setfn._first_exchange_violation(fn.scaled) == _ref_first_triple(fn)


def _modular_cut_agrees(fn: SetFunction) -> bool:
    modular = _ref_modular_mask(fn)
    core, kept = setfn._interacting_table(fn)
    return kept == [i for i in range(fn.n) if not modular >> i & 1] and list(core) == [
        v for m, v in enumerate(fn.scaled) if not m & modular
    ]


@pytest.mark.parametrize("nbytes", (1, 2, 8, 9))
@pytest.mark.parametrize(
    "headroom, agrees",
    (
        (1, _monotonicity_agrees),
        (1, _modular_cut_agrees),
        (2, _submodularity_agrees),
        (2, _exchange_agrees),
    ),
)
def test_lane_kernels_match_the_references_at_a_lane_width_boundary(nbytes, headroom, agrees):
    """Each kernel on tables whose range R just fills `nbytes`-byte lanes
    under its headroom (`subsets.pack_lanes`), or is one more and needs
    wider lanes. The lane expressions reach their bounds, R for a marginal
    and 2R for an interaction or a difference of the exchange kernel, on
    every 0/R table over 3 workers, and on 4- and 5-worker tables that
    are mostly 0/R. Each table also runs moved down by R but for
    h(empty) = 0, which packs it with a nonzero minimum."""
    rng = random.Random(nbytes)
    for spread in (2 ** (8 * nbytes - headroom) - 1, 2 ** (8 * nbytes - headroom)):
        tables = [[0] + [spread * (m >> i & 1) for i in range(7)] for m in range(1 << 7)]
        for n in (4, 5) * 8:
            draw = (0, spread, spread, rng.randint(0, spread))
            tables.append([0] + [rng.choice(draw) for _ in range((1 << n) - 1)])
        for vals in tables:
            for low in (0, -spread):
                moved = [0] + [v + low for v in vals[1:]]
                fn = SetFunction.from_values(_universe(len(vals).bit_length() - 1), moved)
                assert fn.scaled == tuple(moved)
                assert agrees(fn), moved


# ---- modular workers ------------------------------------------------------------

# w1 is modular (it adds 1 to every set that holds it), w2 and w3 are
# complements: the table is not submodular, and the triple at X = empty has
# interactions 0, 0 and 1, a unique maximum, while the table without w1 has
# no triple
MODULAR_BESIDE_COMPLEMENTS = SetFunction.from_values(
    ("w1", "w2", "w3"), tuple(Fraction(v) for v in (0, 1, 0, 1, 0, 1, 1, 2))
)
# d_w1 is 1 at the empty set and at {w2, w3} but 2 at {w2}: the O(1) probe
# passes for w1 (and for w2), which still interact
PROBE_PASSING_NON_MODULAR = SetFunction.from_values(
    ("w1", "w2", "w3"), tuple(Fraction(v) for v in (0, 1, 1, 3, 1, 2, 2, 3))
)
# 2|S| raised by 1 at {w1, w2, w3}: the probe passes for w1, w2 and w3, and
# d_w2 differs from 2 only at {w1, w3}, one lane of the packed test
LATE_SLICE_NON_MODULAR = SetFunction.from_values(
    ("w1", "w2", "w3", "w4"),
    tuple(Fraction(2 * m.bit_count() + (m == 7)) for m in range(16)),
)
# modular w1 (adds 1) beside min(7, 2[w2] + 2[w3] + 3[w4] + 3[w5]): submodular,
# and the first failing triple (w2, w3, w4) ties at X = empty and has a
# strict maximum first at X = {w5}, bit 3 of the cut table and bit 4 of h
MODULAR_BELOW_THE_LEAST_X = SetFunction.from_values(
    _universe(5),
    tuple(
        Fraction((m & 1) + min(7, sum(v for i, v in enumerate((2, 2, 3, 3)) if m >> i + 1 & 1)))
        for m in range(32)
    ),
)
small_table = st.one_of(
    monotone_tables(4),
    assignment_tables(4),
    perturbed_assignment_tables(4),
    coverage_tables(4),
    arbitrary_tables(4),
)


@st.composite
def modular_planted_tables(draw) -> SetFunction:
    """A table of any kind on up to 4 workers, with 0-3 modular workers
    inserted at drawn bits: each adds one drawn constant, 0 or of either
    sign, to every set that holds it."""
    vals = list(draw(small_table).values)
    for _ in range(draw(st.integers(0, 3))):
        bit = 1 << draw(st.integers(0, len(vals).bit_length() - 1))
        c = draw(_rationals(draw, st.integers(-2, 3)))
        vals = [v + c if m & bit else v for m, v in enumerate(insert_bit(vals, bit))]
    return SetFunction.from_values(_universe(len(vals).bit_length() - 1), tuple(vals))


def _ref_modular_mask(h: SetFunction) -> int:
    """The workers whose marginal is one value on every set without them."""
    mask = 0
    for i in range(h.n):
        bit = 1 << i
        if len({h.values[s | bit] - h.values[s] for s in range(1 << h.n) if not s & bit}) == 1:
            mask |= bit
    return mask


@PROPERTY_SETTINGS
@given(modular_planted_tables())
@example(MODULAR_BESIDE_COMPLEMENTS)
@example(PROBE_PASSING_NON_MODULAR)
@example(LATE_SLICE_NON_MODULAR)
@example(MODULAR_BELOW_THE_LEAST_X)
def test_modular_workers_change_no_verdict_or_witness(fn):
    modular = _ref_modular_mask(fn)
    core, kept = setfn._interacting_table(fn)
    assert list(core) == [v for m, v in enumerate(fn.scaled) if not m & modular]
    assert kept == [i for i in range(fn.n) if not modular >> i & 1]
    hit = setfn._first_submodularity_violation(fn)
    assert hit == setfn._first_submodularity_violation(fn, core)
    assert hit == next(setfn._submodularity_violations(fn), None)
    assert setfn.is_submodular(fn) == _ref_submodular(fn)
    # the full-table triple test keeps its meaning on any table
    assert (setfn._first_exchange_violation(fn.scaled) is None) == _ref_exchange_triples(fn)
    gross = hit is None and setfn._first_exchange_violation(core) is None
    assert gross == oracles.gross_substitutes_scan(fn).verdict
    chain = setfn.classify(fn)
    if not fn.is_monotone():
        assert list(chain) == ["monotone"]
        return
    for cls, scan in (
        ("strong_substitutes", oracles.strong_substitutes_scan),
        ("gross_substitutes", oracles.gross_substitutes_scan),
    ):
        assert chain[cls].verdict == scan(fn).verdict
        _recheck(fn, chain[cls])
    # the kernels on the whole table, every worker kept, give every witness
    # the same sets: the triple a cut table names maps back through `kept`
    whole = (fn.scaled, list(range(fn.n)))
    with mock.patch.object(setfn, "_interacting_table", lambda h: whole):
        assert setfn.classify(fn) == chain


def test_the_triple_reduction_needs_a_submodular_table():
    fn = MODULAR_BESIDE_COMPLEMENTS
    core, kept = setfn._interacting_table(fn)
    assert (list(core), kept) == ([0, 0, 0, 1], [1, 2])
    assert setfn._first_exchange_violation(core) is None
    assert setfn._first_exchange_violation(fn.scaled) == (0, 1, 2, 0)
    hit = setfn._first_submodularity_violation(fn)
    assert hit == (0, 1, 2)
    # the pair violation (empty, w2, w3) witnesses the false verdict
    gross = setfn.classify(fn)["gross_substitutes"]
    assert gross.witness == {
        "set_a": ["w2", "w3"],
        "set_b": [],
        "worker": "w2",
        "combined_value": "1",
        "best_exchange": "0",
    }
    assert gross == oracles.gross_substitutes_scan(fn)


BOTH_KERNELS = ("_submodular_holds", "_first_exchange_violation")


def _kernel_inputs(monkeypatch) -> list[tuple[str, int]]:
    """(kernel, table size) of every kernel call from here on."""
    calls = []
    for name in BOTH_KERNELS:
        def spy(vals, kernel=getattr(setfn, name), name=name):
            calls.append((name, len(vals)))
            return kernel(vals)

        monkeypatch.setattr(setfn, name, spy)
    return calls


def test_an_additive_table_hands_the_kernels_one_entry(monkeypatch):
    # the table of `jobmarket gen additive 12 1`
    fn = generate("additive", 12, 1).utility("f1")
    calls = _kernel_inputs(monkeypatch)
    chain = setfn.classify(fn)
    assert all(report.verdict for report in chain.values())
    assert calls == [(name, 1) for name in BOTH_KERNELS]


@pytest.mark.parametrize("zeros", (0, 1, 3, 5))
def test_zero_valued_unit_demand_workers_leave_the_kernels(monkeypatch, zeros):
    n = 9
    values = {f"w{i}": (i if i > zeros else 0) for i in range(1, n + 1)}
    fn = SetFunction.unit_demand(_universe(n), values)
    calls = _kernel_inputs(monkeypatch)
    assert setfn.classify(fn)["gross_substitutes"].verdict
    assert calls == [(name, 1 << (n - zeros)) for name in BOTH_KERNELS]


@pytest.mark.parametrize(
    "fn, passing",
    ((PROBE_PASSING_NON_MODULAR, (0, 1)), (LATE_SLICE_NON_MODULAR, (0, 1, 2))),
)
def test_a_passed_probe_is_confirmed_before_a_worker_goes(monkeypatch, fn, passing):
    vals = fn.scaled
    for i in passing:
        bit, top = 1 << i, len(vals) - 1
        assert vals[bit] - vals[0] == vals[top] - vals[top ^ bit]
    assert _ref_modular_mask(fn) == 0
    calls = _kernel_inputs(monkeypatch)
    chain = setfn.classify(fn)
    assert calls == [("_submodular_holds", len(vals))]
    assert chain["submodular"] == _ref_submodular(fn)
    assert not chain["submodular"].verdict


@pytest.mark.parametrize(
    "spec", (("budget_additive", 8, 2, 104), ("random_submodular", 8, 2, 105))
)
def test_a_table_without_modular_workers_passes_whole(monkeypatch, spec):
    fn = generate(*spec).utility("f1")
    assert _ref_modular_mask(fn) == 0
    core, kept = setfn._interacting_table(fn)
    assert core is fn.scaled and kept == list(range(fn.n))
    calls = _kernel_inputs(monkeypatch)
    assert setfn.classify(fn)["submodular"].verdict
    assert calls == [(name, 1 << fn.n) for name in BOTH_KERNELS]


@PROPERTY_SETTINGS
@given(dropped_tables())
def test_monotonicity_verdict_and_witness_match_the_ordered_loop(fn):
    witness = _ref_monotonicity_violation(fn)
    assert fn.first_monotonicity_violation() == witness
    assert fn.is_monotone() == (witness is None)


@PROPERTY_SETTINGS
@given(any_table)
@example(MIXED)
def test_scaled_table_clears_the_common_denominator(fn):
    den = lcm(*(v.denominator for v in fn.values))
    assert fn.scaled == tuple(int(v * den) for v in fn.values)
    assert all(isinstance(v, int) for v in fn.scaled)


def test_false_verdicts_without_a_witness_are_internal_errors(monkeypatch):
    """A kernel that names a violation the table does not have, or an
    exchange that does not lose, is an internal error."""
    # gross substitutes, and no worker is modular
    fn = SetFunction.unit_demand(_universe(4), {"w1": 1, "w2": 2, "w3": 3, "w4": 4})
    assert setfn._interacting_table(fn)[1] == [0, 1, 2, 3]
    with monkeypatch.context() as patch:
        # without the bias every lane's top bit is clear, a drop at the
        # empty set for every bit; h({w1}) = 1 is not below h(empty) = 0
        patch.setattr(model, "lane_tops", lambda width, size, run=0: 0)
        with pytest.raises(RuntimeError, match="names a pair that does not drop"):
            setfn.classify(fn)
    with monkeypatch.context() as patch:
        # (w1, w2, w3) at X = empty: the sums are 2 + 3, 3 + 2 and 3 + 1;
        # at X = {w4} all three are 4 + 4
        for x in (0, 0b1000):
            patch.setattr(setfn, "_first_exchange_violation", lambda vals, x=x: (0, 1, 2, x))
            for check in (setfn.classify, setfn.is_gross_substitutes):
                with pytest.raises(RuntimeError, match="names an X with no strict maximum"):
                    check(fn)
        # moving w1 from {w1, w2} to {w3} keeps 2 + 3
        patch.setattr(setfn, "_triple_exchange", lambda vals, i, j, k, x: (0b011, 0b100, 0))
        with pytest.raises(RuntimeError, match="the reported exchange does not lose value"):
            setfn.classify(fn)
    monkeypatch.setattr(setfn, "_submodular_holds", lambda vals: False)
    for check in (setfn.classify, setfn.is_strong_substitutes):
        with pytest.raises(RuntimeError, match="the ordered walk does not"):
            check(fn)
