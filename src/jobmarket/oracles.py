"""Slow independent oracles for the paper's guarantees.

Each function here re-derives, by a different and slower route, something
the engine computes or the paper proves:

* `brute_force_total`: the efficient total by exhaustive search over every
  worker-to-firm assignment, against the surplus program;
* `check_marginal_product_order`: group marginal products at market level
  never exceed those at firm level, on the canonical efficient matching;
* `check_tight_sets_downward_closed`: under a submodular utility, subsets
  of tight sets are tight;
* `check_strategy_proofness`: no grid misreport of one worker's
  disutilities beats truth-telling under pivot salaries;
* `strong_substitutes_scan` and `gross_substitutes_scan`: the two
  substitutes conditions over every pair of sets, as defined, in O(3^n)
  and O(n^2 4^n), against `setfn`'s local deciders. Each reports the first
  violation in its scan order, which need not be the local one that
  `setfn` reports.

Only the self-test and the test suite load this module; no command runs
an oracle, so none of them sits on a command's path.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Mapping, Optional

from .model import (
    ConditionReport,
    Market,
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
from .subsets import bit_indices
from .surplus import MarketSolver, _int_surplus_table

#: brute_force_total enumerates (m+1)^n assignments; keep it honest but finite.
BRUTE_FORCE_WORKER_CAP = 8
BRUTE_FORCE_FIRM_CAP = 4


def brute_force_total(m: Market, u: Optional[Profile] = None) -> Fraction:
    """Best total surplus by exhaustive search over all (m+1)^n
    worker-to-firm assignments.

    Independent of the dynamic program on purpose: it enumerates raw
    assignments recursively and keeps the best total.
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
    pools = [0] * nfirms

    def recurse(i: int, cost_acc: int) -> None:
        nonlocal best_total
        if i == n:
            total = -cost_acc
            for j in range(nfirms):
                total += tables[j][pools[j]]
            if total > best_total:
                best_total = total
            return
        recurse(i + 1, cost_acc)  # unmatched
        bit = 1 << i
        for j in range(nfirms):
            pools[j] |= bit
            recurse(i + 1, cost_acc + costs[j][i])
            pools[j] ^= bit

    recurse(0, 0)
    return Fraction(best_total, den)


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


def check_strategy_proofness(
    m: Market, worker: str, k: int = 6, u: Optional[Profile] = None
) -> ConditionReport:
    """No grid misreport of one worker's disutilities beats truth-telling.

    The worker's reported row ranges over {0, ubar/k, ..., ubar}^m; their
    realized payoff under a misreport uses the true disutility at whatever
    firm the mechanism then assigns. Everyone else reports truthfully.
    """
    if k < 1:
        raise ValueError("grid density k must be at least 1")
    if worker not in m.worker_index:
        raise ValueError(f"unknown worker {worker!r}")
    truth = MarketSolver(m, u)
    profile = truth.profile
    wi = m.worker_index[worker]
    excl = truth.value_excluding_mask(1 << wi)
    truthful = truth.total() - excl
    true_row = profile.row(worker)
    top = m.ubar
    if top == 0:
        grid: tuple[Fraction, ...] = (Fraction(0),)
    else:
        grid = tuple(top * Fraction(i, k) for i in range(k + 1))
    checked = 0
    for combo in product(grid, repeat=len(m.firms)):
        if combo == true_row:
            continue
        checked += 1
        shifted = MarketSolver(m, profile.with_row(worker, combo))
        sol = shifted.solution()
        firm = sol.matching.firm_of(worker)
        if firm is None:
            payoff = Fraction(0)
        else:
            j = m.firm_names.index(firm)
            payoff = shifted.total() - excl + combo[j] - true_row[j]
        if payoff > truthful:
            return ConditionReport(
                verdict=False,
                witness={
                    "worker": worker,
                    "report": {f: str(combo[j]) for j, f in enumerate(m.firm_names)},
                    "payoff": str(payoff),
                    "truthful_payoff": str(truthful),
                },
                details=f"worker {worker} gains {payoff - truthful} by misreporting",
            )
    return ConditionReport(
        verdict=True, details=f"checked {checked} grid misreports (k={k})"
    )


def strong_substitutes_scan(h: SetFunction) -> ConditionReport:
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


def gross_substitutes_scan(h: SetFunction) -> ConditionReport:
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
