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
  fails. One walk over X within N - {i, j, k}, ascending, at most 2^(n-3)
  steps, finds the least X where one of the three sums h(X+a+b) + h(X+c)
  is the strict maximum. Then (S, T, w) = (X+a+b, X+c, the lower of a and
  b) loses value: moving w alone and swapping it against c give the other
  two sums. The exchange is re-checked on the table before it is returned.
The defining conditions range over pairs of sets, 3^n for strong and 4^n
for gross substitutes; their exhaustive scans are cross-checks in
`oracles`, and no checker here runs one.

Submodularity and the three-element exchange inequality are decided on
per-bit slice kernels, as the monotonicity scan is: marginal and
interaction tables built from `subsets.bit_halves` slices, compared slice
against slice with no mask arithmetic per element. They hold a constant
number of 2^(k-1) and 2^(k-2) lists at a time. After a false verdict the
ordered pair walk (`_submodularity_violations`) or the triple's X walk
finds the witness on the full table.

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
passes goes after a slice comparison of d_i with that value, which stops
at the first slice that differs. On a submodular table the exchange
kernel's first failing triple is the same on either table, since a triple
holding a modular worker passes and the squeeze keeps the workers' order;
its X walk runs on the full table, where the least X holds no modular
worker.

`classify` reports monotonicity, with the first drop as witness, then
decides all four classes of a monotone table as one chain (gross
substitutes => submodular = strong substitutes => weak substitutes),
which is what the `classify` command runs. Per table: one
monotonicity scan, the O(n) probes and the submodularity kernel, O(k^2
2^k) element steps on slices; on a submodular table, the exchange
kernel's C(k,3) 2^(k-3) element steps, and the 2^(n-3) X walk after a
false verdict; on any other, the ordered pair walk to the first violation
and the O(n 2^n) weak-substitutes scan. Deriving weak substitutes from
submodularity (telescope the marginals down to the empty set) rests on
h(empty) = 0, which SetFunction enforces.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import eq, lt, sub
from typing import Iterator, Mapping, Optional, Sequence

from .model import ConditionReport, RationalLike, SetFunction, as_fraction, clear_denominators
from .subsets import bit_halves, bit_indices, bit_marginals, drop_bit, subset_sums


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


def _interacting_table(vals: Sequence[int]) -> tuple[Sequence[int], list[int]]:
    """`vals` with every modular worker squeezed out: the table over the
    workers that interact, which both kernels decide on (see the module
    docstring), and those workers' indices in `vals`, ascending. `vals`
    itself when no worker is modular.

    Workers go from the top bit down, so the lower bits keep their
    positions. Worker i is probed in O(1), d_i(empty) against d_i(N-i) on
    the table cut so far. One that passes goes only if d_i is that value
    on every set, by a slice comparison that stops at the first set where
    it is not (a table that is not submodular can pass the probe), and is
    then squeezed out (`subsets.drop_bit`). Dropping a modular worker
    leaves every other marginal list the same, so modularity on the cut
    table is modularity on `vals`.
    """
    n = len(vals).bit_length() - 1
    kept = list(range(n))
    for i in reversed(range(n)):
        bit, top = 1 << i, len(vals) - 1
        c = vals[bit] - vals[0]
        if vals[top] - vals[top ^ bit] == c and all(
            all(map(eq, map(sub, vals[hi], vals[lo]), repeat(c)))
            for lo, hi in bit_halves(len(vals), bit)
        ):
            vals = drop_bit(vals, bit)
            del kept[i]
    return vals, kept


def _submodular_holds(vals: Sequence[int]) -> bool:
    """The adjacent-pair inequality at every S and i < j of the table
    `vals`, on slices.

    It says that worker i's marginal d_i(S) = h(S+i) - h(S) does not rise
    when a higher worker j joins S. For each i, d_i is one list over the
    masks without i, and each higher j is one `bit_halves` pass of C-speed
    comparisons on it: n(n-1)/2 2^(n-2) element steps in all, one marginal
    table of 2^(n-1) entries held at a time.
    """
    n = len(vals).bit_length() - 1
    half = len(vals) >> 1
    for i in range(n):
        _, d = bit_marginals(vals, 1 << i)
        for j in range(i + 1, n):
            # worker j sits at bit j - 1 of d's index
            halves = bit_halves(half, 1 << j - 1)
            if any(any(map(lt, d[lo], d[hi])) for lo, hi in halves):
                return False
    return True


def _first_submodularity_violation(
    h: SetFunction, core: Optional[Sequence[int]] = None
) -> PairHit:
    """First (base mask, i, j) with h(S+i) + h(S+j) < h(S+i+j) + h(S).

    The slice kernel decides on `core`, h's `_interacting_table` (built
    here when not given); only a table that fails it runs the ordered walk
    on h, whose first hit is the witness.
    """
    if _submodular_holds(_interacting_table(h.scaled)[0] if core is None else core):
        return None
    hit = next(_submodularity_violations(h), None)
    if hit is None:
        raise RuntimeError(
            "submodularity: the kernel finds a violation but the ordered walk does not"
        )
    return hit


def is_submodular(h: SetFunction) -> ConditionReport:
    """Diminishing marginals; checked in the adjacent-pair form, O(n) probes
    and O(k^2 2^k) element steps on slices, k the interacting workers.

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
    core, kept = _interacting_table(h.scaled)
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
    return _exchange_report(h, *_triple_exchange(h.scaled, *(kept[c] for c in triple)))


def _triple_exchange(vals: Sequence[int], i: int, j: int, k: int) -> tuple[int, int, int]:
    """(S, T, w) for the triple i < j < k at the least X within N - {i,
    j, k} where one of the three sums is the strict maximum: its pair
    a < b with X is S, its lone worker c with X is T, and w = a."""
    bi, bj, bk = 1 << i, 1 << j, 1 << k
    splits = ((bi, bj, bk), (bi, bk, bj), (bj, bk, bi))  # (a, b, c), a < b
    rest = (len(vals) - 1) ^ bi ^ bj ^ bk
    x = 0
    while True:
        sums = [vals[x | a | b] + vals[x | c] for a, b, c in splits]
        top = max(sums)
        if sums.count(top) == 1:
            a, b, c = splits[sums.index(top)]
            return x | a | b, x | c, a.bit_length() - 1
        if x == rest:
            raise RuntimeError(
                "gross substitutes: the exchange kernel names a triple that holds at every X"
            )
        x = (x - rest) & rest


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
    core, kept = _interacting_table(h.scaled)
    hit = _first_submodularity_violation(h, core)
    return {
        "monotone": holds,
        "weak_substitutes": holds if hit is None else is_weak_substitutes(h),
        "submodular": _submodularity_report(h, hit),
        "strong_substitutes": _strong_substitutes(h, hit),
        "gross_substitutes": _gross_substitutes(h, hit, core, kept),
    }


def _first_exchange_violation(vals: Sequence[int]) -> Optional[tuple[int, int, int]]:
    """The first triple i < j < k of the table `vals` that fails the
    three-element local inequality at some X, pairs (i, k) ascending and
    then j; None when every triple holds.

    Of the three sums h(X+i+j) + h(X+k), h(X+i+k) + h(X+j) and
    h(X+j+k) + h(X+i), each must be at most the larger of the other two,
    that is, their maximum must be reached at least twice. Less 2 h(X) and
    the three singleton marginals, the sums are the interactions
    q_ij(X) = h(X+i+j) - h(X+i) - h(X+j) + h(X), q_ik(X) and q_jk(X).

    For each pair i < k, three lists over the masks Y without i and k:
    d_i(Y), q_ik(Y) = d_i(Y+k) - d_i(Y) and d_k(Y), with d_w the marginal
    of worker w. Then q_ij(X) = d_i(X+j) - d_i(X) and likewise q_jk(X), so
    each j between i and k is one zip over `bit_halves` slices of them,
    with no mask arithmetic per element: C(n,3) 2^(n-3) element steps.
    Held at a time: two tables of 2^(n-1) entries and three of 2^(n-2).

    This is the test on any table, submodular or not. The deciders hand it
    the `_interacting_table` only behind a submodular verdict, where a
    triple that holds a modular worker always passes: on h(S) = [w1 in S]
    + [w2, w3 in S] it fails at X = empty, while the table without w1 has
    no triple at all.
    """
    n = len(vals).bit_length() - 1
    quarter = len(vals) >> 2
    for i in range(n - 2):
        without_i, d_i = bit_marginals(vals, 1 << i)
        for k in range(i + 2, n):
            # over the masks Y without i and k; worker k sits at bit k - 1
            # of the tables without i, worker j (i < j < k) at bit j - 1 of Y
            d_ik, q_ik = bit_marginals(d_i, 1 << k - 1)
            d_ki = bit_marginals(without_i, 1 << k - 1)[1]
            for j in range(i + 1, k):
                for lo, hi in bit_halves(quarter, 1 << j - 1):
                    for a0, a1, y, b0, b1 in zip(d_ik[lo], d_ik[hi], q_ik[lo], d_ki[lo], d_ki[hi]):
                        x = a1 - a0  # q_ij
                        z = b1 - b0  # q_jk
                        # the larger of x, y must be matched by z, or x = y >= z
                        if x < y:
                            if z != y:
                                return i, j, k
                        elif x > y:
                            if z != x:
                                return i, j, k
                        elif z > x:
                            return i, j, k
    return None
