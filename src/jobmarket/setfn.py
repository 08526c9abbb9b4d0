"""Valuation-class checks for set functions: substitutes conditions, demand.

Every checker returns a ConditionReport whose witness, when the verdict is
false, contains the exact sets and values of the first violated inequality
in scan order (subsets ascending by bit pattern, workers ascending by
index). Witnesses are plain dicts with rationals rendered as strings so
they can be re-checked and serialized as-is.

Verdicts are decided on the table's integer form (`SetFunction.scaled`),
and witnesses are read off the same integer table: a sum x of scaled
values is reported as Fraction(x, den). Two classes are decided by a
cheaper equivalent condition than the one they are defined by: strong
substitutes by submodularity, gross substitutes by the local exchange
test, each by one decider that `classify` and its standalone check share.
Their exhaustive scans run only after a false verdict, to locate the
canonical witness, and as independent oracles for the cross-checks.

Submodularity and the three-element exchange inequality are decided on
per-bit slice kernels, as the monotonicity scan is: marginal and
interaction tables built from `subsets.bit_halves` slices, compared slice
against slice with no mask arithmetic per element. They hold a constant
number of 2^(k-1) and 2^(k-2) lists at a time. After a false verdict the
ordered walks (`_submodularity_violations`, the strong and gross scans)
find the witness on the full table.

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
at the first slice that differs.

`classify` reports monotonicity, with the first drop as witness, then
decides all four classes of a monotone table as one chain (gross
substitutes => submodular = strong substitutes => weak substitutes),
which is what the `classify` command runs. Per table: one
monotonicity scan, the O(n) probes and the submodularity kernel, O(k^2
2^k) element steps on slices; on a submodular table, the exchange
kernel's C(k,3) 2^(k-3) element steps; on any other, the ordered pair
walk to the first violation and the O(n 2^n) weak-substitutes scan. The
strong and gross witness scans run only after a false verdict. Deriving
weak substitutes from submodularity (telescope the marginals down to the
empty set) rests on h(empty) = 0, which SetFunction enforces.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import eq, lt, sub
from typing import Iterator, Mapping, Optional, Sequence

from .model import ConditionReport, RationalLike, SetFunction, as_fraction, clear_denominators
from .subsets import bit_halves, bit_indices, bit_marginals, drop_bit, subset_sums


def _witnessed(report: ConditionReport, condition: str) -> ConditionReport:
    """The exhaustive scan's report after a false verdict; it must find one."""
    if report.verdict:
        raise RuntimeError(
            f"{condition}: the verdict is false but the exhaustive scan finds no violation"
        )
    return report


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


def _interacting_table(vals: Sequence[int]) -> Sequence[int]:
    """`vals` with every modular worker squeezed out: the table over the
    workers that interact, which both kernels decide on (see the module
    docstring). `vals` itself when no worker is modular.

    Workers go from the top bit down, so the lower bits keep their
    positions. Worker i is probed in O(1), d_i(empty) against d_i(N-i) on
    the table cut so far. One that passes goes only if d_i is that value
    on every set, by a slice comparison that stops at the first set where
    it is not (a table that is not submodular can pass the probe), and is
    then squeezed out (`subsets.drop_bit`). Dropping a modular worker
    leaves every other marginal list the same, so modularity on the cut
    table is modularity on `vals`.
    """
    for i in reversed(range(len(vals).bit_length() - 1)):
        bit, top = 1 << i, len(vals) - 1
        c = vals[bit] - vals[0]
        if vals[top] - vals[top ^ bit] == c and all(
            all(map(eq, map(sub, vals[hi], vals[lo]), repeat(c)))
            for lo, hi in bit_halves(len(vals), bit)
        ):
            vals = drop_bit(vals, bit)
    return vals


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
    if _submodular_holds(_interacting_table(h.scaled) if core is None else core):
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

    S' ranges over all nonempty subsets of S, S itself included (at S'=S
    this is exactly the weak-substitutes inequality, which is what makes
    this condition the stronger one).

    The condition is equivalent to submodularity: S' = {i, j} is the
    adjacent-pair inequality, and telescoping h(S) - h(S minus S') over
    the members of S' gives the converse. The verdict therefore costs the
    submodularity kernel's O(k^2 2^k) element steps on slices, k the
    interacting workers; a false one runs the ordered pair walk to its
    first violation, then the O(3^n) scan for the witness.
    """
    return _strong_substitutes(h, _first_submodularity_violation(h))


def _strong_substitutes(h: SetFunction, hit: PairHit) -> ConditionReport:
    """The strong-substitutes verdict on the first pair violation `hit`."""
    if hit is None:
        return ConditionReport(verdict=True)
    return _witnessed(_strong_substitutes_scan(h), "strong substitutes")


def _strong_substitutes_scan(h: SetFunction) -> ConditionReport:
    """The defining inequality over every pair S' within S, directly.

    Sets ascending, then removed submasks ascending, which gives the
    canonical witness.
    """
    vals = h.scaled
    for mask in range(1, 1 << h.n):
        vs = vals[mask]
        # marginal sums over the submasks visited so far
        acc = {0: 0}
        sub = 0
        while sub != mask:
            sub = (sub - mask) & mask
            low = sub & -sub
            total = acc[sub] = acc[sub ^ low] + vs - vals[mask ^ low]
            drop = vs - vals[mask ^ sub]
            if drop < total:
                return ConditionReport(
                    verdict=False,
                    witness={
                        "set": list(h.members(mask)),
                        "removed": list(h.members(sub)),
                        "value_drop": str(Fraction(drop, h.den)),
                        "marginal_sum": str(Fraction(total, h.den)),
                    },
                    details="removing a group costs less than its members' marginals",
                )
    return ConditionReport(verdict=True)


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

    The verdict comes from that local test, on the table over the k
    workers that interact (`_interacting_table`). The first inequality is
    the submodularity kernel; the second, symmetric in i and j, is checked
    once per unordered triple by the exchange kernel, C(k,3) 2^(k-3)
    element steps on slices. Only a false verdict runs the O(n^2 4^n)
    pairwise scan, which reports the first violating (S, T, w) in scan
    order; a table that fails the first inequality runs the ordered pair
    walk to its first violation before it.

    Non-monotone tables are rejected.
    """
    if not h.is_monotone():
        raise ValueError("gross-substitutes test requires a weakly increasing table")
    core = _interacting_table(h.scaled)
    return _gross_substitutes(h, _first_submodularity_violation(h, core), core)


def _gross_substitutes_holds(hit: PairHit, core: Sequence[int]) -> bool:
    """The gross-substitutes verdict of a monotone table, without a
    witness: no first pair violation `hit`, then the exchange kernel on
    the table's `_interacting_table` `core`, whose triples answer for the
    whole table only behind that submodular verdict."""
    return hit is None and _exchange_triples_hold(core)


def _gross_substitutes(h: SetFunction, hit: PairHit, core: Sequence[int]) -> ConditionReport:
    """The gross-substitutes report of a monotone table, on the first pair
    violation `hit` and the interacting table `core`."""
    if _gross_substitutes_holds(hit, core):
        return ConditionReport(verdict=True)
    return _witnessed(_gross_substitutes_scan(h), "gross substitutes")


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
    strong and gross substitutes fail, and every false verdict gets its
    standalone check's witness: the strong and gross verdicts come from
    the deciders those checks call.
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
    core = _interacting_table(h.scaled)
    hit = _first_submodularity_violation(h, core)
    return {
        "monotone": holds,
        "weak_substitutes": holds if hit is None else is_weak_substitutes(h),
        "submodular": _submodularity_report(h, hit),
        "strong_substitutes": _strong_substitutes(h, hit),
        "gross_substitutes": _gross_substitutes(h, hit, core),
    }


def _exchange_triples_hold(vals: Sequence[int]) -> bool:
    """The three-element local inequality of the table `vals`, once per X
    and triple i < j < k.

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
                                return False
                        elif x > y:
                            if z != x:
                                return False
                        elif z > x:
                            return False
    return True


def _gross_substitutes_scan(h: SetFunction) -> ConditionReport:
    """The exchange inequality at every (S, T, w), directly.

    S ascending, then T ascending, then w by index: the first violation
    found is the canonical witness.
    """
    vals = h.scaled
    n = h.n
    size = 1 << n
    for s in range(size):
        for t in range(size):
            diff = s & ~t
            if not diff:
                continue
            lhs = vals[s] + vals[t]
            for i in bit_indices(diff):
                bi = 1 << i
                best = vals[s ^ bi] + vals[t | bi]
                if best >= lhs:
                    continue
                for j in bit_indices(t & ~s):
                    bj = 1 << j
                    cand = vals[(s ^ bi) | bj] + vals[(t | bi) ^ bj]
                    if cand > best:
                        best = cand
                        if best >= lhs:
                            break
                if best < lhs:
                    # no break was taken, so best is the maximum over all w'
                    return ConditionReport(
                        verdict=False,
                        witness={
                            "set_a": list(h.members(s)),
                            "set_b": list(h.members(t)),
                            "worker": h.universe[i],
                            "combined_value": str(Fraction(lhs, h.den)),
                            "best_exchange": str(Fraction(best, h.den)),
                        },
                        details="local exchange loses value; not gross substitutes",
                    )
    return ConditionReport(verdict=True)
