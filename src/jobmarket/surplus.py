"""Exact surplus maximization: firm surplus tables and efficient matchings.

A firm's surplus on a pool S is the best it can do hiring any subset of S
at the going disutilities:

    V_f(S) = max over T subset of S of  [ u_f(T) - sum of d_w(f) over T ].

"Tight" sets are those achieving their own surplus (the raw value
u_f - sum of d_w(f) equals V_f); the empty set is always tight. A worker b
whose marginal raw value is negative on every pool, raw(S + b) < raw(S)
for all S, is in no tight set, and V_f(S) = V_f(S minus b): any T holding
b is strictly beaten by T minus b. The table drops such workers one at a
time, from the top bit down, each tested on the pools of the workers still
in, so a worker may go only once another has gone; two O(1) probes (S
empty, S every other survivor) keep most workers without a whole-table
test. The tests read the firm's utility table unscaled: with scale factor
f, b pays on S exactly when u_f(S + b) - u_f(S) >= ceil(d_b(f) / f). A
worker that neither probe keeps is tested on every pool at once, on the
table packed into lanes of one int (`subsets.pack_lanes`): a shift, a
subtraction and a bias per worker, and an `&` per drop. The full 2^n
table is touched only by these tests, by one gather of the survivors'
entries and by spreading V_f back, one slice-copy pass per dropped worker
(`subsets.insert_bit`); the scaling, the cost sums, the raw table and one
`subsets.submask_max`, O(k 2^k) element steps on slices, run over the k
survivors' table, whose tight masks are the firm's. Private disutilities
on [0, ubar] leave most workers unprofitable to most firms; with no drop
the max is the whole table, as under a zero profile.

The efficient matching maximizes the sum of firm surpluses over disjoint
pools via a dynamic program on (firm suffix, worker pool): layer k holds
the best total of firms k, k+1, ... on a pool. Assigned sets are always
tight, with ties broken toward minimum cardinality and then lexicographic
worker order.

Every split of a pool between firm k and the firms after it runs over
firm k's tight sets only. A set t that is not tight is dominated by the
tight set t* inside it that achieves V_f(t), because layer k+1 is monotone
in the pool; so every optimum, and every tie, lies on tight sets. The
join of the last two firms may run over either one's tight list: both V
tables are monotone, so the same argument holds from either side.

* the last firm's layer is its own surplus table, since V_f is monotone
  in the pool and V_f(empty) = 0;
* every other layer is a join, built in one of two forms. Pushed, it is
  a copy of layer k+1 (the empty hire) in which each nonempty tight t
  lifts every pool r outside t to r | t: the sum over tight t of
  2^(n-|t|) steps, at most 3^n. As a memo, it is filled per pool asked
  for, one pass over the tight list each;
* the plan (`_plan_joins`) picks form and side by exact step counts once
  the surplus tables exist. Layer 0 is a memo: pivot payments ask it for
  n+1 pools, W and each W minus w. A layer that R pools may be asked of
  is a memo when R |T| steps are fewer than its push, and then asks at
  most R |T| pools of the next; once one layer is pushed, every later
  one is, since a push reads every pool. A zero profile makes every set
  tight, and the plan pushes every middle layer; 0/ubar profiles leave
  the target firm a few tight sets and the joins around it memos;
* the canonical matching takes one pass over each firm's tight list.

All arithmetic runs on integers after clearing denominators once per solve
(`model.clear_denominators`). The solver keeps that scale: its `den`, the
profile's cost columns on it (`costs`) and the value of any pool times
`den` (`scaled_value_on`), which the pivot prices and the scans compare
on; `value_on` and `total` are the Fractions. The profile is checked on
the scaled columns, in one worker-major scan (`model.refuse_costs`): any
nonnegative profile that fits the market is solved, and `box`, the
solving commands' policy (see cli), refuses entries above ubar as well.
The slow cross-checks of this program (exhaustive search, the
marginal-product order, tight-set closure) live in `oracles`, which no
command loads.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import compress, repeat
from operator import eq, mul, sub

from .model import (
    Market,
    Matching,
    Profile,
    clear_denominators,
    profile_columns,
    refuse_costs,
)
from .subsets import (
    bit_indices,
    canonical_key,
    insert_bit,
    lane_tops,
    lanes_without,
    pack_lanes,
    submask_max,
    subset_sums,
)


class EfficientSolution:
    """An efficient matching and its total surplus.

    ties_broken is set when some firm had several optimal tight pools (the
    canonical rule then picked one).
    """

    def __init__(self, matching: Matching, total: Fraction, ties_broken: bool) -> None:
        self.matching = matching
        self.total = total
        self.ties_broken = ties_broken


def _kept_workers(values: Sequence[int], factor: int, costs: Sequence[int]) -> list[int]:
    """The workers, ascending, that the surplus table of `values` times
    `factor` at `costs` keeps: from the top bit down, b goes when its
    marginal raw value is negative on every pool of the workers still in.

    Worker b pays on S when factor * (u(S + b) - u(S)) >= c_b, that is when
    u(S + b) - u(S) >= need = ceil(c_b / factor), so the tests run on the
    unscaled table. Two O(1) probes, S empty and S every other worker still
    in, keep most workers. Any other b is decided on the table packed into
    lanes (`subsets.pack_lanes`, headroom 2, packed once): lane m of
    (P >> width * 2^b) - P + (2^(width-1) - need) * ones has its top bit set
    exactly when b pays on m, and the lanes read are those without b and
    without every worker already dropped, one `&` per drop of the masks
    `subsets.lanes_without` yields. A need of 2^(width-2) or more is above
    every marginal, and drops b outright.
    """
    alive, kept, walk = len(values) - 1, [], None
    for b in reversed(range(len(costs))):
        bit = 1 << b
        need = -(-costs[b] // factor)
        if values[bit] - values[0] >= need or values[alive] - values[alive ^ bit] >= need:
            kept.append(b)
            continue
        if walk is None:
            packed, width = pack_lanes(values, 2)
            ones = lane_tops(width, len(values)) >> width - 1
            live = ones << width - 1  # the lanes without a dropped worker
            walk = lanes_without(width, len(costs))
        for c, without in walk:  # the masks come top bit first, one per bit
            if c == b:
                break
        if need < 1 << width - 2 and (
            (packed >> (width << b)) - packed + ((1 << width - 1) - need) * ones
        ) & without & live:
            kept.append(b)
        else:
            alive ^= bit
            live &= without
    kept.reverse()
    return kept


def _int_surplus_table(
    values: Sequence[int], factor: int, costs: Sequence[int]
) -> tuple[list[int], list[int]]:
    """V_f over all masks and the tight masks ascending, in integer
    arithmetic, for the utility table `values` times `factor` at `costs`.

    The workers that `_kept_workers` drops are in no tight set, so only the
    survivors' table, gathered from `values` at the masks of the kept
    workers ascending, is scaled, has its cost sums subtracted and is
    maxed; those masks list its positions, and V_f is spread back by
    re-inserting each dropped bit (`subsets.insert_bit`).
    """
    kept = _kept_workers(values, factor, costs)
    cur, masks = values, range(len(values))
    if len(kept) < len(costs):
        masks = subset_sums([1 << i for i in kept])
        cur = list(map(values.__getitem__, masks))
    if factor != 1:
        cur = list(map(mul, cur, repeat(factor)))
    raw = list(map(sub, cur, subset_sums([costs[i] for i in kept])))
    best = submask_max(raw)
    tight = list(compress(masks, map(eq, raw, best)))
    # ascending, so every bit below the one re-inserted is already back
    for i in range(len(costs)):
        if i not in kept:
            best = insert_bit(best, 1 << i)
    return best, tight


def _push_steps(tight: Sequence[int], size: int) -> int:
    """Steps of a join pushed over `tight`: 2^(n-|t|) per nonempty t."""
    return sum([size >> t.bit_count() for t in tight]) - size


def _plan_joins(n: int, tight: Sequence[Sequence[int]]) -> list[tuple[str, int, int]]:
    """(form, side, steps) for each join F_k, k = 0 to m - 2, layer 0 first.

    "memo" fills the layer per pool asked for and "push" builds its whole
    table; side is the firm whose tight list the join runs over, and steps
    what that costs. Layer 0 is asked for n + 1 pools (W and each W minus
    w), and a memo that may be asked for R pools costs R |T| steps and asks
    at most that many of the next layer, never more than 2^n. Layer 0 is
    always a memo. A later layer is pushed when its push steps are no more
    than a memo's, and so is every layer after a pushed one, which reads
    all of the next. The last join may run over either firm's list: a memo
    takes the shorter, a push the one with fewer steps; a tie keeps firm k.
    """
    size, last = 1 << n, len(tight) - 2
    plan, reads, form = [], min(size, n + 1), "memo"
    for k in range(last + 1):
        side = k + 1 if k == last and len(tight[k + 1]) < len(tight[k]) else k
        steps = reads * len(tight[side])
        if k:
            push_side, push = k, _push_steps(tight[k], size)
            if k == last:
                other = _push_steps(tight[k + 1], size)
                if other < push:
                    push_side, push = k + 1, other
            if form == "push" or push <= steps:
                form, side, steps = "push", push_side, push
        plan.append((form, side, steps))
        reads = min(size, steps)
    return plan


class _PoolJoin(dict):
    """A join filled per pool asked for, one pass over the tight list each."""

    __slots__ = ("v", "tight", "nxt")

    def __init__(self, v: Sequence[int], tight: Sequence[int], nxt) -> None:
        self.v, self.tight, self.nxt = v, tight, nxt

    def __missing__(self, pool: int) -> int:
        v, nxt = self.v, self.nxt
        # the tight sets inside the pool; the empty set is always one
        best = self[pool] = max([v[t] + nxt[pool ^ t] for t in self.tight if t & pool == t])
        return best


def _join(v: Sequence[int], tight: Sequence[int], nxt, form: str):
    """max over t in `tight` inside s of v[t] + nxt[s ^ t], on every pool s:
    a `_PoolJoin`, or for "push" the whole table, where each nonempty t
    lifts every pool r outside t to r | t."""
    if form == "memo":
        return _PoolJoin(v, tight, nxt)
    full = len(nxt) - 1
    layer = list(nxt)  # the empty hire, first in the tight list
    for t in tight[1:]:
        value = v[t]
        rest = full ^ t
        r = rest
        while True:
            cand = value + nxt[r]
            if cand > layer[r | t]:
                layer[r | t] = cand
            if r == 0:
                break
            r = (r - 1) & rest
    return layer


class MarketSolver:
    """One denominator-cleared solve of a (market, profile) pair.

    Answers the value function on any worker pool (so all exclusion
    queries come from a single dynamic program) plus the canonical
    matching reconstruction. costs[j][i] is worker i's disutility at firm
    j times `den`. The profile must fit the market and have no negative
    entry, nor with `box` one above the market's ubar.
    """

    def __init__(self, market: Market, profile: Profile | None = None, box: bool = False) -> None:
        self.market = market
        self.profile = market.require_profile(profile)
        nfirms = len(market.firms)
        fns = [fn for _, fn in market.firms]
        self.den, self.costs = clear_denominators(fns, profile_columns(market, self.profile))
        refuse_costs(market, self.den, self.costs, box)
        self.vf: list[list[int]] = []
        # each firm's tight masks, ascending; their values are in self.vf
        self.tight: list[list[int]] = []
        for fn, column in zip(fns, self.costs):
            vf, tight = _int_surplus_table(fn.scaled, self.den // fn.den, column)
            self.vf.append(vf)
            self.tight.append(tight)
        # layers[k][s]: best total of firms k, k+1, ... on pool s, built
        # from the last firm up; a memo layer fills s when it is read
        layers: list[Sequence[int]] = [[0] * (market.full_mask + 1)]
        if nfirms:
            layers.append(self.vf[-1])
        self._plan = _plan_joins(market.n, self.tight)
        for k in reversed(range(nfirms - 1)):
            form, side, _ = self._plan[k]
            # the last join run over the last firm's list reads firm k's V
            nxt = layers[-1] if side == k else self.vf[k]
            layers.append(_join(self.vf[side], self.tight[side], nxt, form))
        layers.reverse()
        self._layers = layers
        self._solution: EfficientSolution | None = None

    def scaled_value_on(self, available_mask: int) -> int:
        """value_on(available_mask) times den, as an exact integer."""
        return self._layers[0][available_mask]

    def total(self) -> Fraction:
        return self.value_on(self.market.full_mask)

    def value_on(self, available_mask: int) -> Fraction:
        """Max total surplus using only workers inside available_mask."""
        return Fraction(self.scaled_value_on(available_mask), self.den)

    def value_excluding_mask(self, excluded_mask: int) -> Fraction:
        return self.value_on(self.market.full_mask & ~excluded_mask)

    def solution(self) -> EfficientSolution:
        if self._solution is not None:
            return self._solution
        market = self.market
        s = market.full_mask
        target = self.scaled_value_on(s)
        assignment: dict[str, str | None] = {}
        ties = False
        for k, (name, _) in enumerate(market.firms):
            vfk, nxt = self.vf[k], self._layers[k + 1]
            optima = [t for t in self.tight[k] if t & s == t and vfk[t] + nxt[s ^ t] == target]
            ties = ties or len(optima) > 1
            best_t = min(optima, key=canonical_key)
            for i in bit_indices(best_t):
                assignment[market.workers[i]] = name
            s ^= best_t
            target = nxt[s]
        # workers left in s stay unmatched
        matching = Matching.from_dict(market.workers, assignment)
        self._solution = EfficientSolution(matching, self.total(), ties)
        return self._solution


def efficient_matching(
    m: Market, u: Profile | None = None, box: bool = False
) -> EfficientSolution:
    return MarketSolver(m, u, box).solution()
