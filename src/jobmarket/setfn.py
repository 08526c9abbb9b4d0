"""Valuation-class checks for set functions: substitutes conditions, demand.

Every checker returns a ConditionReport whose witness, when the verdict is
false, holds the exact sets and values of one violated inequality, in the
form of the condition's definition, so that it can be re-checked on the
table alone. Witnesses are plain dicts with rationals rendered as strings
so they can be serialized as-is.

Verdicts are decided on the table's integer form (`SetFunction.scaled`),
and witnesses are read off the same integer table: a sum x of scaled
values is reported as Fraction(x, den). Two classes are decided by a
cheaper equivalent condition than the one they are defined by: strong
substitutes by submodularity, gross substitutes by the local exchange
test, each by one decider that `classify` and its standalone check share.
Each false verdict is witnessed by the local violation its decider found:
- A pair violation (B, i, j), i < j, the first in scan order (base masks
  ascending, then i, then j): h(B+i) + h(B+j) < h(B+i+j) + h(B). It is the
  submodularity witness as it stands. With S = B+i+j it is also the strong
  one, S' = {i, j} removed from S, and the gross one, w = i moved from S to
  T = B, where no swap exists: each inequality is the pair's, rearranged.
- On a submodular table, the first triple i < j < k the exchange kernel
  fails, at the least X within N - {i, j, k} where one of the three sums
  h(X+a+b) + h(X+c) is the strict maximum: the kernel's lowest failing
  lane for that triple. Then (S, T, w) = (X+a+b, X+c, the lower of a and
  b) loses value: moving w alone and swapping it against c give the other
  two sums. The exchange is re-checked on the table before it is returned.
The defining conditions range over pairs of sets, 3^n for strong and 4^n
for gross substitutes; their exhaustive scans are cross-checks in
`oracles`, and no checker here runs one.

Submodularity and the three-element exchange inequality are decided, as
monotonicity is, on the table packed into one int of fixed-width lanes
(`subsets.pack_lanes`): a marginal or an interaction over every set at
once is a shift and a subtraction of big ints, in C, and a comparison is
the top bit of each lane once 2^(width-1) is added. The cost is counted
in big-int operations on the 2^k * width bits of the table: about 5 per
pair of workers, and 17 per triple. Each kernel holds about a dozen
packed ints at a time, at most three of them lane masks: the mask of
the lanes without a pair's or a triple's bits comes from the last one by
a shift and an xor, as in `subsets.lanes_without`, with the bits walked
down. After a false submodularity verdict the ordered pair walk
(`_submodularity_violations`) finds the witness on the full table; the
exchange kernel names its own, a triple and its lowest failing lane.

Both kernels run on the table's interacting workers only. A worker i is
modular when its marginal d_i(S) = h(S+i) - h(S) is one constant c_i on
every S without i: every worker of an additive table, and any worker the
firm values at 0. With i modular, h(S) = h(S - i) + c_i for S holding i,
so `_interacting_table` squeezes i out and loses nothing the kernels read:
- every interaction q_ij(X) = d_i(X+j) - d_i(X) of a pair holding i is 0,
  and q_jk(X+i) = q_jk(X) for every other pair, so h is submodular iff
  the table without i is;
- given submodularity, a triple holding i has interactions 0, 0 and
  q_jk <= 0, whose maximum is reached twice, so a submodular h passes the
  triple test iff the table without i does. The premise is needed: with
  q_jk > 0 the triple fails on h and is gone from the smaller table.
With k the number of workers left, the interacting ones, each kernel runs
on 2^k entries. Finding them costs two reads per worker, d_i(empty)
against d_i(N-i), which are equal for every modular worker (and on a
submodular table, where d_i does not rise, only for those); a worker that
passes goes after one packed test that d_i is that value on every lane
without i. The table over the rest is one gather at their subsets. On a
submodular table the exchange kernel's first failing triple is the same
on either table, since a triple holding a modular worker passes and the
squeeze keeps the workers' order; so is its least X, spread back over
the kept workers, since a modular worker in X adds the same 2 c_i to all
three sums.

`classify` reports monotonicity, with the first drop as witness, then
decides all four classes of a monotone table as one chain (gross
substitutes => submodular = strong substitutes => weak substitutes),
which is what the `classify` command runs. Per table: the monotonicity
kernel, n big-int subtractions (one per worker) on the packed 2^n table,
the O(n) probes and the submodularity kernel, k(k-1)/2 pairs of a few
big-int operations on the packed 2^k table; on a submodular table, the
exchange kernel's C(k,3) triples of about 17; on any other, the ordered
pair walk to the first violation and the O(n 2^n) weak-substitutes scan.
Deriving weak substitutes from submodularity (telescope the marginals
down to the empty set) rests on h(empty) = 0, which SetFunction enforces.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence

from .model import ConditionReport, RationalLike, SetFunction, as_fraction, clear_denominators
from .subsets import (
    bit_indices,
    lane_tops,
    lanes_without,
    pack_lanes,
    subset_sums,
)


def is_weak_substitutes(h: SetFunction) -> ConditionReport:
    """h(S) >= sum over w in S of the w-marginal at S, for every S.

    O(n 2^n). With k = |S| the inequality reads
    sum over w in S of h(S - w) >= (k - 1) h(S).
    """
    vals = h.scaled
    for mask in range(1, 1 << h.n):
        idx = bit_indices(mask)
        below = sum(vals[mask ^ (1 << i)] for i in idx)
        if below < (len(idx) - 1) * vals[mask]:
            marginal_sum = len(idx) * vals[mask] - below
            return ConditionReport(
                verdict=False,
                witness={
                    "subset": list(h.members(mask)),
                    "value": str(h.value(mask)),
                    "marginal_sum": str(Fraction(marginal_sum, h.den)),
                },
                details="set value is below the sum of its members' marginals",
            )
    return ConditionReport(verdict=True)


PairHit = Optional[tuple[int, int, int]]


def _submodularity_violations(h: SetFunction) -> Iterator[tuple[int, int, int]]:
    """Every (base mask, i, j), i < j, with h(S+i) + h(S+j) < h(S+i+j) + h(S).

    Base masks ascending, then i, then j; O(n^2 2^n) when run to the end.
    """
    vals = h.scaled
    n = h.n
    for base in range(1 << n):
        vb = vals[base]
        for i in range(n):
            bi = 1 << i
            if base & bi:
                continue
            vi = vals[base | bi] - vb
            for j in range(i + 1, n):
                bj = 1 << j
                if base & bj:
                    continue
                if vi + vals[base | bj] < vals[base | bi | bj]:
                    yield (base, i, j)


def _interacting_table(h: SetFunction) -> tuple[Sequence[int], list[int]]:
    """h's table with every modular worker squeezed out: the table over
    the workers that interact, which both kernels decide on (see the
    module docstring), and those workers' indices in h, ascending.
    `h.scaled` itself when no worker is modular.

    Worker i is probed in O(1), d_i(empty) against d_i(N-i). One that
    passes goes only if d_i is that value c on every set, by one test on
    h's table packed into lanes of headroom 1 (`SetFunction.lanes`): the
    lanes without i of (P >> width * 2^i) + 2^(width-1) - P all equal
    c + 2^(width-1) (a table that is not submodular can pass the probe).
    The kept workers' table is one gather, at the masks `subset_sums`
    gives their bits.
    """
    vals, n = h.scaled, h.n
    top, kept, packed = len(vals) - 1, [], None
    for i in range(n):
        bit = 1 << i
        c = vals[bit] - vals[0]
        if vals[top] - vals[top ^ bit] == c:
            if packed is None:
                packed, width = h.lanes
                bias = lane_tops(width, len(vals))
            tops = lane_tops(width, len(vals), bit)  # the lanes without i
            ones = tops >> width - 1
            # lane m: d_i(m) + 2^(width-1), read whole on the lanes without i
            d = (packed >> (width << i)) + bias - packed
            if d & ((tops << 1) - ones) == ones * (c + (1 << width - 1)):
                continue
        kept.append(i)
    if len(kept) == n:
        return vals, kept
    return list(map(vals.__getitem__, subset_sums([1 << i for i in kept]))), kept


def _submodular_holds(vals: Sequence[int]) -> bool:
    """The adjacent-pair inequality at every S and i < j of the table
    `vals`, on the table packed into lanes (`subsets.pack_lanes`).

    It says that worker i's marginal d_i(S) = h(S+i) - h(S) does not rise
    when a higher worker j joins S: q_ij(S) = d_i(S+j) - d_i(S) <= 0. For
    each i, d_i is one packed int; each higher j is a shift, a subtraction
    and a mask of it, and the mask of the lanes without bits i and j
    comes from that of j + 1 by one shift and one xor, as in
    `subsets.lanes_without`: about 5 big-int operations per pair. Held at
    a time: the packed table, d_i and three masks.
    """
    n = len(vals).bit_length() - 1
    packed, width = pack_lanes(vals, 2)
    bias = lane_tops(width, len(vals))
    tops = lanes_without(width, n)  # i descending
    half = next(tops, (0, 0))[1]  # lanes without bit n - 1; i = n - 1 has no pair
    for i, without_i in tops:
        # lane m: d_i(m) + 2^(width-1)
        d = (packed >> (width << i)) + bias - packed
        lifted = d + bias
        without = without_i & half
        for j in reversed(range(i + 1, n)):
            # lane m: d_i(m) - d_i(m + 2^j) + 2^(width-1), top bit set iff q_ij(m) <= 0
            if (lifted - (d >> (width << j))) & without != without:
                return False
            without ^= without << (width << j - 1)  # the lanes without bits i and j - 1
    return True


def _first_submodularity_violation(
    h: SetFunction, core: Optional[Sequence[int]] = None
) -> PairHit:
    """First (base mask, i, j) with h(S+i) + h(S+j) < h(S+i+j) + h(S).

    The packed kernel decides on `core`, h's `_interacting_table` (built
    here when not given); only a table that fails it runs the ordered walk
    on h, whose first hit is the witness.
    """
    if _submodular_holds(_interacting_table(h)[0] if core is None else core):
        return None
    hit = next(_submodularity_violations(h), None)
    if hit is None:
        raise RuntimeError(
            "submodularity: the kernel finds a violation but the ordered walk does not"
        )
    return hit


def is_submodular(h: SetFunction) -> ConditionReport:
    """Diminishing marginals; checked in the adjacent-pair form, O(n) probes
    and O(k^2) big-int operations on the packed 2^k table, k the
    interacting workers.

    A violation at base S with workers w, w' is reported in nested form:
    w's marginal on the smaller set S+w is strictly below its marginal on
    the larger set S+w+w'.
    """
    return _submodularity_report(h, _first_submodularity_violation(h))


def _submodularity_report(h: SetFunction, hit: PairHit) -> ConditionReport:
    """is_submodular's report on the first violation `hit` (None: none)."""
    if hit is None:
        return ConditionReport(verdict=True)
    base, i, j = hit
    bi, bj = 1 << i, 1 << j
    smaller = base | bi
    larger = base | bi | bj
    vals = h.scaled
    m_small = Fraction(vals[smaller] - vals[base], h.den)
    m_large = Fraction(vals[larger] - vals[base | bj], h.den)
    return ConditionReport(
        verdict=False,
        witness={
            "smaller_set": list(h.members(smaller)),
            "larger_set": list(h.members(larger)),
            "worker": h.universe[i],
            "marginal_smaller": str(m_small),
            "marginal_larger": str(m_large),
        },
        details="a worker's marginal grows when the set grows",
    )


def is_strong_substitutes(h: SetFunction) -> ConditionReport:
    """h(S) - h(S minus S') >= sum over w in S' of the w-marginal at S.

    S' ranges over all nonempty subsets of S, S itself included. The
    condition is equivalent to submodularity (S' = {i, j} is the
    adjacent-pair inequality; telescoping gives the converse), so it is
    decided and witnessed by the first pair violation.
    """
    return _strong_substitutes(h, _first_submodularity_violation(h))


def _strong_substitutes(h: SetFunction, hit: PairHit) -> ConditionReport:
    """The strong-substitutes report on the first pair violation `hit`
    (B, i, j): S' = {i, j} removed from S = B+i+j, whose drop
    h(S) - h(B) is below the marginal sum 2 h(S) - h(B+j) - h(B+i)."""
    if hit is None:
        return ConditionReport(verdict=True)
    base, i, j = hit
    removed = 1 << i | 1 << j
    s = base | removed
    vals = h.scaled
    drop = vals[s] - vals[base]
    total = 2 * vals[s] - vals[s ^ 1 << i] - vals[s ^ 1 << j]
    return ConditionReport(
        verdict=False,
        witness={
            "set": list(h.members(s)),
            "removed": list(h.members(removed)),
            "value_drop": str(Fraction(drop, h.den)),
            "marginal_sum": str(Fraction(total, h.den)),
        },
        details="removing a group costs less than its members' marginals",
    )


def demand_set(
    h: SetFunction, prices: Mapping[str, RationalLike]
) -> set[frozenset[str]]:
    """All subsets maximizing h(S) - p(S) at the given nonnegative prices."""
    missing = [w for w in h.universe if w not in prices]
    if missing:
        raise ValueError(f"price missing for worker {missing[0]!r}")
    unknown = set(prices) - set(h.universe)
    if unknown:
        raise ValueError(f"price for unknown worker {sorted(unknown)[0]!r}")
    p = [as_fraction(prices[w]) for w in h.universe]
    if any(x < 0 for x in p):
        raise ValueError("prices must be nonnegative")
    den, (scaled_prices,) = clear_denominators([h], [p])
    vals, psum = h.scaled_to(den), subset_sums(scaled_prices)
    best, arg = 0, [0]
    for mask in range(1, 1 << h.n):
        net = vals[mask] - psum[mask]
        if net > best:
            best, arg = net, [mask]
        elif net == best:
            arg.append(mask)
    return {frozenset(h.members(m)) for m in arg}


def is_gross_substitutes(h: SetFunction) -> ConditionReport:
    """Local-exchange test for gross substitutes on a monotone table.

    For every pair of sets S, T and every w in S minus T, moving w across
    (possibly swapping it against some w' in T minus S) must not lose value:

        h(S) + h(T) <= max of  h(S-w) + h(T+w)
                       and     h(S-w+w') + h(T+w-w')  over w' in T minus S.

    This is the exchange axiom of M-natural concavity, which on the whole
    subset lattice holds iff it holds locally (Fujishige & Yang, Math. Oper.
    Res. 28, 2003; Reijnierse, van Gellekom & Potters, Economic Theory 20,
    2002): for every X and distinct i, j, k outside X,

        h(X+i+j) + h(X) <= h(X+i) + h(X+j)
        h(X+i+j) + h(X+k) <= max(h(X+i+k) + h(X+j), h(X+j+k) + h(X+i)).

    The first is the submodularity kernel, the second the exchange kernel,
    on the table over the interacting workers; a false verdict reports the
    (S, T, w) of the local violation found (see the module docstring).

    Non-monotone tables are rejected.
    """
    if not h.is_monotone():
        raise ValueError("gross-substitutes test requires a weakly increasing table")
    core, kept = _interacting_table(h)
    return _gross_substitutes(h, _first_submodularity_violation(h, core), core, kept)


def _gross_substitutes(
    h: SetFunction, hit: PairHit, core: Sequence[int], kept: Sequence[int]
) -> ConditionReport:
    """The gross-substitutes report of a monotone table, on the first pair
    violation `hit` and the interacting table `core` over the workers
    `kept`, whose first failing triple answers for the whole table only
    behind a submodular verdict."""
    if hit is not None:
        base, i, j = hit
        return _exchange_report(h, base | 1 << i | 1 << j, base, i)
    triple = _first_exchange_violation(core)
    if triple is None:
        return ConditionReport(verdict=True)
    i, j, k = (kept[c] for c in triple[:3])
    x = sum(1 << kept[b] for b in bit_indices(triple[3]))  # lane X of `core`, as a set of h
    return _exchange_report(h, *_triple_exchange(h.scaled, i, j, k, x))


def _triple_exchange(vals: Sequence[int], i: int, j: int, k: int, x: int) -> tuple[int, int, int]:
    """(S, T, w) for the triple i < j < k at X = `x`, where one of the three
    sums must be the strict maximum: its pair a < b with X is S, its lone
    worker c with X is T, and w = a."""
    bi, bj, bk = 1 << i, 1 << j, 1 << k
    splits = ((bi, bj, bk), (bi, bk, bj), (bj, bk, bi))  # (a, b, c), a < b
    sums = [vals[x | a | b] + vals[x | c] for a, b, c in splits]
    top = max(sums)
    if sums.count(top) != 1:
        raise RuntimeError(
            "gross substitutes: the exchange kernel names an X with no strict maximum"
        )
    a, b, c = splits[sums.index(top)]
    return x | a | b, x | c, a.bit_length() - 1


def _exchange_report(h: SetFunction, s: int, t: int, i: int) -> ConditionReport:
    """The gross-substitutes report on moving worker i from S = `s` to
    T = `t`, re-checked on the table: no move or swap may reach
    h(S) + h(T)."""
    vals = h.scaled
    bi = 1 << i
    combined = vals[s] + vals[t]
    # bj = 0 moves w alone; any other bj swaps it against that worker of T
    best = max(
        vals[(s ^ bi) | bj] + vals[(t | bi) ^ bj]
        for bj in (0, *(1 << j for j in bit_indices(t & ~s)))
    )
    if not (s & bi and not t & bi and best < combined):
        raise RuntimeError("gross substitutes: the reported exchange does not lose value")
    return ConditionReport(
        verdict=False,
        witness={
            "set_a": list(h.members(s)),
            "set_b": list(h.members(t)),
            "worker": h.universe[i],
            "combined_value": str(Fraction(combined, h.den)),
            "best_exchange": str(Fraction(best, h.den)),
        },
        details="local exchange loses value; not gross substitutes",
    )


def classify(h: SetFunction) -> dict[str, ConditionReport]:
    """The monotonicity report of a table, then its four substitute-class
    reports, by name.

    A table that is not weakly increasing gets only the first, with its
    first drop (`SetFunction.first_monotonicity_violation`) as witness.
    Otherwise the classes are decided as one chain, gross substitutes =>
    submodular = strong substitutes => weak substitutes, with the
    submodularity kernel run once. Both kernels run on one table, h with
    its modular workers squeezed out (`_interacting_table`): a submodular
    verdict there is h's, and so, behind it, is the triple test's. Without
    a submodularity violation the middle classes hold, weak substitutes
    follows by telescoping (this rests on h(empty) = 0), and gross
    substitutes needs only the three-element local inequality. With one,
    strong and gross substitutes fail, witnessed by that violation. The
    strong and gross reports come from the deciders their standalone checks
    call.
    """
    drop = h.first_monotonicity_violation()
    if drop is not None:
        smaller, larger = drop
        witness = {
            "smaller_set": list(h.members(smaller)),
            "larger_set": list(h.members(larger)),
            "value_smaller": str(h.value(smaller)),
            "value_larger": str(h.value(larger)),
        }
        return {"monotone": ConditionReport(verdict=False, witness=witness)}
    holds = ConditionReport(verdict=True)
    core, kept = _interacting_table(h)
    hit = _first_submodularity_violation(h, core)
    return {
        "monotone": holds,
        "weak_substitutes": holds if hit is None else is_weak_substitutes(h),
        "submodular": _submodularity_report(h, hit),
        "strong_substitutes": _strong_substitutes(h, hit),
        "gross_substitutes": _gross_substitutes(h, hit, core, kept),
    }


def _first_exchange_violation(vals: Sequence[int]) -> Optional[tuple[int, int, int, int]]:
    """(i, j, k, X): the first triple i < j < k of the table `vals` that
    fails the three-element local inequality at some X, pairs (i, k)
    ascending and then j, and the least such X; None when every triple
    holds.

    Of the three sums h(X+i+j) + h(X+k), h(X+i+k) + h(X+j) and
    h(X+j+k) + h(X+i), each must be at most the larger of the other two,
    that is, their maximum must be reached at least twice. Less 2 h(X) and
    the three singleton marginals, the sums are the interactions
    x = q_ij(X) = h(X+i+j) - h(X+i) - h(X+j) + h(X), y = q_ik(X) and
    z = q_jk(X), and the triple fails at X when one of them is above both
    others: x - y >= 1 and x - z >= 1, or y - x >= 1 and y - z >= 1, or
    z - x >= 1 and z - y >= 1.

    All of it runs on the table packed into lanes (`subsets.pack_lanes`),
    lane X of each int standing for the set X. For each pair i < k the
    marginals d_i and d_k (d_w(X) = h(X+w) - h(X)) and q_ik are packed
    ints; then q_ij(X) = d_i(X+j) - d_i(X) and q_jk(X) = d_k(X+j) - d_k(X),
    so each j is two shifts and a subtraction or two for each of the six
    differences above (x - z is the sum of the other two), biased so that
    a lane's top bit says the difference is >= 1: about 17 big-int
    operations per triple. Each difference is four table values, two of
    each sign (in x - y, h(X) and h(X+i) cancel), so it is within twice
    the table's range, as an interaction is, and the lanes need the
    submodularity kernel's headroom.

    The masks of the lanes without bits i, j and k come, as in
    `subsets.lanes_without`, each from the last by a shift and an xor,
    which only runs from a bit down to the next lower one: k and then j
    go down, and each i runs all its pairs, keeping the last failing
    triple it meets, the first in the triple order, with its failing
    lanes, of which X is the lowest. Held at a time: about a dozen packed
    ints, two of them masks.

    This is the test on any table, submodular or not. The deciders hand it
    the `_interacting_table` only behind a submodular verdict, where a
    triple that holds a modular worker always passes: on h(S) = [w1 in S]
    + [w2, w3 in S] it fails at X = empty, while the table without w1 has
    no triple at all.
    """
    n = len(vals).bit_length() - 1
    packed, width = pack_lanes(vals, 2)
    bias = lane_tops(width, len(vals))
    below = bias - (bias >> width - 1)  # 2^(width-1) - 1 per lane
    twice = below << 1
    for i in range(n - 2):
        d_i = (packed >> (width << i)) + bias - packed  # lane X: d_i(X) + 2^(width-1)
        both = lane_tops(width, len(vals) >> 1, 1 << i)  # the lanes without bits i and n - 1
        hit = None
        for k in reversed(range(i + 2, n)):
            d_k = (packed >> (width << k)) + bias - packed
            q_ik = (d_i >> (width << k)) - d_i
            # lane X of (d_i >> j) less xy is x - y, and of yz less (d_k >> j)
            # is y - z, each plus 2^(width-1) - 1
            xy = d_i + q_ik - below
            yz = q_ik + d_k + below
            without = both & (both >> (width << k - 1))  # the lanes without bits i, k - 1 and k
            for j in reversed(range(i + 1, k)):
                x_over_y = (d_i >> (width << j)) - xy
                y_over_z = yz - (d_k >> (width << j))
                x_over_z = x_over_y + y_over_z - below
                # twice less a lane's a + 2^(width-1) - 1 is -a + 2^(width-1) - 1
                unique = (
                    x_over_y & x_over_z
                    | (twice - x_over_y) & y_over_z
                    | (twice - x_over_z) & (twice - y_over_z)
                )
                fails = unique & without
                if fails:
                    hit = i, j, k, fails
                without ^= without << (width << j - 1)  # the lanes without bits i, j - 1 and k
            both ^= both << (width << k - 1)  # the lanes without bits i and k - 1
        if hit:
            i, j, k, fails = hit
            return i, j, k, (fails & -fails).bit_length() // width - 1  # the lowest lane
    return None
