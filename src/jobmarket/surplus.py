"""Exact surplus maximization: firm surplus tables and efficient matchings.

A firm's surplus on a pool S is the best it can do hiring any subset of S
at the going disutilities:

    V_f(S) = max over T subset of S of  [ u_f(T) - sum of d_w(f) over T ].

"Tight" sets are those achieving their own surplus (the raw value
u_f - sum of d_w(f) equals V_f); the empty set is always tight. A worker b
whose marginal raw value is negative on every pool, raw(S + b) < raw(S)
for all S, is in no tight set, and V_f(S) = V_f(S minus b): any T holding
b is strictly beaten by T minus b. The table drops such workers one at a
time, from the top bit down, each tested on the table already cut to the
survivors, so a worker may go only once another has gone; two O(1) probes
(S empty, S every other survivor) keep most workers without a scan. The
tests read the firm's utility table unscaled: with scale factor f, b pays
on S exactly when u_f(S + b) - u_f(S) >= ceil(d_b(f) / f). Each drop
halves the table. The full 2^n table is touched only by these scans and
squeezes and by spreading V_f back, one slice-copy pass per dropped worker
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
in the pool; so every optimum, and every tie, lies on tight sets. Only the
layers that are read get built:

* the last firm's layer is its own surplus table, since V_f is monotone
  in the pool and V_f(empty) = 0;
* a middle layer is pushed from a copy of layer k+1 (the empty hire):
  each nonempty tight t lifts every pool r outside t to r | t, which is
  the sum over tight t of 2^(n-|t|) steps, at most 3^n;
* layer 0 is computed per requested pool, one pass over firm 0's tight
  list each, and memoized. Pivot payments ask for n+1 pools: W and each
  W minus w;
* the canonical matching takes one pass over each firm's tight list.

All arithmetic runs on integers after clearing denominators once per solve
(`model.clear_denominators`); exactness is preserved and results are converted
back to Fraction. Any nonnegative profile that fits the market is solved;
the [0, ubar] box is a policy of the solving commands (see cli).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from operator import eq, lt, mul, sub
from typing import Iterable, Mapping, Optional, Sequence

from .model import (
    ConditionReport,
    Market,
    Matching,
    Profile,
    RationalLike,
    SetFunction,
    SizeLimitError,
    as_fraction,
    clear_denominators,
    validate_profile,
)
from .setfn import is_submodular
from .stability import hire_masks
from .subsets import (
    bit_halves,
    bit_indices,
    canonical_key,
    drop_bit,
    insert_bit,
    submask_max,
    subset_sums,
)

#: brute_force_matching enumerates (m+1)^n assignments; keep it honest but finite.
BRUTE_FORCE_WORKER_CAP = 8
BRUTE_FORCE_FIRM_CAP = 4


@dataclass(frozen=True)
class EfficientSolution:
    """An efficient matching and its total surplus.

    ties_broken is set by the dynamic program when some firm had several
    optimal tight pools (the canonical rule then picked one); the
    brute-force path always reports False there.
    """

    matching: Matching
    total: Fraction
    ties_broken: bool = False


def _int_surplus_table(
    values: Sequence[int], factor: int, costs: Sequence[int]
) -> tuple[list[int], list[int]]:
    """V_f over all masks and the tight masks ascending, in integer
    arithmetic, for the utility table `values` times `factor` at `costs`.

    Worker b pays on S when factor * (u(S + b) - u(S)) >= c_b, that is when
    u(S + b) - u(S) >= ceil(c_b / factor), so the drop tests run on the
    unscaled table. A worker that neither probe keeps is decided by one
    slice comparison that stops at the first S where it pays; a dropped
    worker is squeezed out of the table (`subsets.drop_bit`). Only the
    survivors' table is scaled, has its cost sums subtracted and is maxed;
    the survivors' masks, ascending, list its positions, and V_f is spread
    back by re-inserting each dropped bit (`subsets.insert_bit`).
    """
    n = len(costs)
    cur, kept, dropped = values, [], []
    for i in reversed(range(n)):
        bit, top = 1 << i, len(cur) - 1
        need = -(-costs[i] // factor)
        if (
            cur[bit] - cur[0] >= need
            or cur[top] - cur[top ^ bit] >= need
            or not all(
                all(map(lt, map(sub, cur[hi], cur[lo]), repeat(need)))
                for lo, hi in bit_halves(len(cur), bit)
            )
        ):
            kept.append(i)
        else:
            cur = drop_bit(cur, bit)
            dropped.append(i)
    kept.reverse()
    if factor != 1:
        cur = list(map(mul, cur, repeat(factor)))
    raw = list(map(sub, cur, subset_sums([costs[i] for i in kept])))
    best = submask_max(raw)
    masks = subset_sums([1 << i for i in kept]) if dropped else range(len(raw))
    tight = list(compress(masks, map(eq, raw, best)))
    # ascending, so every bit below the one re-inserted is already back
    for i in reversed(dropped):
        best = insert_bit(best, 1 << i)
    return best, tight


class MarketSolver:
    """One denominator-cleared solve of a (market, profile) pair.

    Answers the value function on any worker pool (so all exclusion
    queries come from a single dynamic program) plus the canonical
    matching reconstruction.
    """

    def __init__(self, market: Market, profile: Optional[Profile] = None) -> None:
        self.market = market
        self.profile = market.require_profile(profile)
        validate_profile(market, self.profile)
        nfirms = len(market.firms)
        columns = [self.profile.column(name) for name, _ in market.firms]
        fns = [fn for _, fn in market.firms]
        self.den, costs = clear_denominators(fns, columns)
        self.vf: list[list[int]] = []
        # each firm's tight masks, ascending; their values are in self.vf
        self.tight: list[list[int]] = []
        for fn, column in zip(fns, costs):
            vf, tight = _int_surplus_table(fn.scaled, self.den // fn.den, column)
            self.vf.append(vf)
            self.tight.append(tight)
        # layers[k][s]: best total of firms k, k+1, ... on pool s. Layer 0
        # stays None when it is filled on demand (two or more firms).
        full = market.full_mask
        layers: list[Optional[Sequence[int]]] = [None] * nfirms + [[0] * (full + 1)]
        if nfirms:
            layers[nfirms - 1] = self.vf[-1]
        for k in range(nfirms - 2, 0, -1):
            vfk, nxt = self.vf[k], layers[k + 1]
            layer = list(nxt)  # the empty hire, first in the tight list
            for t in self.tight[k][1:]:
                v = vfk[t]
                rest = full ^ t
                r = rest
                while True:
                    cand = v + nxt[r]
                    if cand > layer[r | t]:
                        layer[r | t] = cand
                    if r == 0:
                        break
                    r = (r - 1) & rest
            layers[k] = layer
        self._layers = layers
        self._top: dict[int, int] = {}
        self._solution: Optional[EfficientSolution] = None

    def scaled_value_on(self, available_mask: int) -> int:
        """value_on(available_mask) times den, as an exact integer."""
        top = self._layers[0]
        if top is not None:
            return top[available_mask]
        best = self._top.get(available_mask)
        if best is None:
            vf0, nxt, pool = self.vf[0], self._layers[1], available_mask
            # firm 0's tight sets inside the pool; the empty set is always one
            best = max([vf0[t] + nxt[pool ^ t] for t in self.tight[0] if t & pool == t])
            self._top[available_mask] = best
        return best

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
        assignment: dict[str, Optional[str]] = {}
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


def efficient_matching(m: Market, u: Optional[Profile] = None) -> EfficientSolution:
    return MarketSolver(m, u).solution()


def max_surplus_excluding(
    m: Market, u: Optional[Profile] = None, excluded: Iterable[str] = ()
) -> Fraction:
    """Best total surplus once the excluded workers leave the market."""
    solver = MarketSolver(m, u)
    index = m.worker_index
    mask = 0
    for w in excluded:
        if w not in index:
            raise ValueError(f"unknown worker {w!r}")
        mask |= 1 << index[w]
    return solver.value_excluding_mask(mask)


def _canonical_best_subset(values: Sequence[int], costs: Sequence[int], pool: int) -> int:
    """Min-cardinality, lexicographically first argmax of raw value within pool."""
    best_raw: Optional[int] = None
    best_key = None
    best_t = 0
    t = pool
    while True:
        raw = values[t]
        for i in bit_indices(t):
            raw -= costs[i]
        key = canonical_key(t)
        if best_raw is None or raw > best_raw or (raw == best_raw and key < best_key):
            best_raw, best_key, best_t = raw, key, t
        if t == 0:
            break
        t = (t - 1) & pool
    return best_t


def brute_force_matching(m: Market, u: Optional[Profile] = None) -> EfficientSolution:
    """Exhaustive oracle over all (m+1)^n worker-to-firm assignments.

    Independent of the dynamic program on purpose: it enumerates raw
    assignments recursively and keeps the best total. Only the total is
    canonical; the returned matching shrinks each firm's pool to its best
    raw subset but does not canonicalize across ties between assignments.
    """
    profile = m.require_profile(u)
    validate_profile(m, profile)
    n = m.n
    nfirms = len(m.firms)
    if n > BRUTE_FORCE_WORKER_CAP:
        raise SizeLimitError(f"brute force capped at {BRUTE_FORCE_WORKER_CAP} workers")
    if nfirms > BRUTE_FORCE_FIRM_CAP:
        raise SizeLimitError(f"brute force capped at {BRUTE_FORCE_FIRM_CAP} firms")
    columns = [profile.column(name) for name, _ in m.firms]
    den, costs = clear_denominators([fn for _, fn in m.firms], columns)
    tables = [fn.scaled_to(den) for _, fn in m.firms]

    best_total = 0  # empty assignment is always feasible
    best_pools: list[int] = [0] * nfirms
    pools = [0] * nfirms

    def recurse(i: int, cost_acc: int) -> None:
        nonlocal best_total, best_pools
        if i == n:
            total = -cost_acc
            for j in range(nfirms):
                total += tables[j][pools[j]]
            if total > best_total:
                best_total = total
                best_pools = pools.copy()
            return
        recurse(i + 1, cost_acc)  # unmatched
        bit = 1 << i
        for j in range(nfirms):
            pools[j] |= bit
            recurse(i + 1, cost_acc + costs[j][i])
            pools[j] ^= bit

    recurse(0, 0)
    assignment: dict[str, Optional[str]] = {w: None for w in m.workers}
    for j, (name, _) in enumerate(m.firms):
        hired = _canonical_best_subset(tables[j], costs[j], best_pools[j])
        for i in bit_indices(hired):
            assignment[m.workers[i]] = name
    return EfficientSolution(
        Matching.from_dict(m.workers, assignment), Fraction(best_total, den), False
    )


def check_marginal_product_order(
    m: Market, u: Optional[Profile] = None
) -> ConditionReport:
    """Group marginal products at market level never exceed the firm level.

    For the canonical efficient matching and every firm f with assigned set
    A, every S inside A must satisfy

        V(W) - V(W minus S)  <=  V_f(A) - V_f(A minus S).
    """
    solver = MarketSolver(m, u)
    sol = solver.solution()
    full = solver.scaled_value_on(m.full_mask)
    hires = hire_masks(m, sol.matching)
    for k, (name, _) in enumerate(m.firms):
        amask = hires[name]
        vfk = solver.vf[k]
        sub = amask
        while True:
            lhs_num = full - solver.scaled_value_on(m.full_mask & ~sub)
            rhs_num = vfk[amask] - vfk[amask ^ sub]
            if lhs_num > rhs_num:
                return ConditionReport(
                    verdict=False,
                    witness={
                        "firm": name,
                        "removed": [m.workers[i] for i in bit_indices(sub)],
                        "market_marginal": str(Fraction(lhs_num, solver.den)),
                        "firm_marginal": str(Fraction(rhs_num, solver.den)),
                    },
                    details="market-level marginal product exceeds the firm-level one",
                )
            if sub == 0:
                break
            sub = (sub - 1) & amask
    return ConditionReport(verdict=True)


def check_tight_sets_downward_closed(
    u_f: SetFunction, costs: Mapping[str, RationalLike]
) -> ConditionReport:
    """Under a submodular utility, subsets of tight sets are tight.

    When the premise fails the verdict is trivially true and the details
    carry a "premise false" flag.
    """
    premise = is_submodular(u_f)
    if not premise.verdict:
        return ConditionReport(
            verdict=True, details="premise false: utility is not submodular"
        )
    missing = [w for w in u_f.universe if w not in costs]
    if missing:
        raise ValueError(f"cost missing for worker {missing[0]!r}")
    cost_fr = [as_fraction(costs[w]) for w in u_f.universe]
    if any(c < 0 for c in cost_fr):
        raise ValueError("costs must be nonnegative")
    den, (icosts,) = clear_denominators([u_f], [cost_fr])
    _, tight = _int_surplus_table(u_f.scaled, den // u_f.den, icosts)
    tight_set = set(tight)
    for mask in tight:
        for i in bit_indices(mask):
            child = mask ^ (1 << i)
            if child not in tight_set:
                return ConditionReport(
                    verdict=False,
                    witness={
                        "tight_set": list(u_f.members(mask)),
                        "subset": list(u_f.members(child)),
                    },
                    details="a subset of a tight set is not tight",
                )
    return ConditionReport(verdict=True, details="premise holds")
