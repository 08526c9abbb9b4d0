"""Core stability of outcomes: blocking coalitions and how to pay them.

A firm f and a worker set S block an outcome when the surplus they can
generate together exceeds their combined payoffs under it:

    u_f(S) - sum d_w(f)  >  payoff(f) + sum payoff(w)   over w in S.

The constructed deviation gives the firm half the slack and splits the
other half equally among the coalition's workers, so every member is
strictly better off. S = empty set is allowed (it catches firms running
a deficit); the scan order is firms as declared, then subsets in
ascending bit-pattern order, so the reported block is canonical.

The scan runs on integers: per firm, the utility table, its disutility
column, the worker payoffs and the firm payoff are scaled by one common
denominator (`surplus.clear_denominators`), so salaries of any
denominator are exact. Coalition cost sums grow one worker at a time
along the ascending walk, O(2^n) integer additions per firm, and only the
first blocking coalition is rebuilt in Fraction arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .model import ConditionReport, Market, Outcome, Profile, SetFunction
from .subsets import bit_indices
from .surplus import clear_denominators


@dataclass(frozen=True)
class Block:
    """A profitable deviation: the firm, the coalition, and payments."""

    firm: str
    coalition: tuple[str, ...]
    payments: tuple[tuple[str, Fraction], ...]
    slack: Fraction

    def to_dict(self) -> dict:
        return {
            "firm": self.firm,
            "coalition": list(self.coalition),
            "payments": {w: str(p) for w, p in self.payments},
            "slack": str(self.slack),
        }


def outcome_payoffs(
    m: Market, o: Outcome, u: Optional[Profile] = None
) -> tuple[dict[str, Fraction], dict[str, Fraction]]:
    """(firm payoffs, worker payoffs) induced by an outcome.

    A firm gets its utility minus its wage bill, a worker their salary minus
    their disutility at their firm (0 when unmatched). Every payoff in the
    package, the pivot result's included, is computed here, so this is also
    where an outcome is checked to fit its market: it must list exactly the
    market's workers, each once, and send them only to market firms.
    """
    profile = m.require_profile(u)
    for w, firm in o.matching.assignment:
        if w not in m.worker_index:
            raise ValueError(f"outcome assigns worker {w!r}, who is not in the market")
        if firm is not None and firm not in m.utilities:
            raise ValueError(f"outcome sends worker {w!r} to unknown firm {firm!r}")
    missing = [w for w in m.workers if w not in o.salary]
    if missing:
        raise ValueError(f"outcome leaves out the market's worker {missing[0]!r}")
    if len(o.matching.assignment) != m.n:
        raise ValueError("outcome lists a worker more than once")
    salary = o.salary
    firm_payoffs: dict[str, Fraction] = {}
    for name, fn in m.firms:
        hired = o.matching.workers_of(name)
        bill = sum((salary[w] for w in hired), Fraction(0))
        firm_payoffs[name] = fn.value(fn.mask_of(hired)) - bill
    worker_payoffs: dict[str, Fraction] = {}
    for w, firm in o.matching.assignment:
        if firm is None:
            worker_payoffs[w] = Fraction(0)
        else:
            worker_payoffs[w] = salary[w] - profile.get(w, firm)
    return firm_payoffs, worker_payoffs


def _block(
    name: str,
    fn: SetFunction,
    sub: int,
    column: tuple[Fraction, ...],
    firm_payoff: Fraction,
    worker_payoffs: dict[str, Fraction],
) -> Block:
    """The block of firm `name` with coalition `sub`, in exact arithmetic."""
    members = fn.members(sub)
    cost = {w: column[i] for w, i in zip(members, bit_indices(sub))}
    raw = fn.value(sub) - sum(cost.values(), Fraction(0))
    have = firm_payoff + sum((worker_payoffs[w] for w in members), Fraction(0))
    excess = raw - have
    share = excess / (2 * len(members)) if members else Fraction(0)
    payments = tuple((w, cost[w] + worker_payoffs[w] + share) for w in members)
    return Block(name, members, payments, excess)


def _scan_for_block(
    m: Market,
    profile: Profile,
    payoffs: tuple[dict[str, Fraction], dict[str, Fraction]],
    allowed_mask_of: dict[str, int],
) -> Optional[Block]:
    firm_payoffs, worker_payoffs = payoffs
    payoff_row = [worker_payoffs[w] for w in m.workers]
    for name, fn in m.firms:
        allowed = allowed_mask_of[name]
        column = profile.column(name)
        _, (table,), (costs, payoffs, (have,)) = clear_denominators(
            [fn], [column, payoff_row, (firm_payoffs[name],)]
        )
        # a member's cost to the coalition: disutility plus current payoff
        weights = [costs[i] + payoffs[i] for i in bit_indices(allowed)]
        # sums[j] is the weight of the j-th subset of `allowed` in ascending
        # bit-pattern order; dropping its lowest bit gives an earlier one
        sums = [0] * (1 << len(weights))
        sub = 0
        for j in range(len(sums)):
            if j:
                low = j & -j
                sums[j] = sums[j ^ low] + weights[low.bit_length() - 1]
                sub = (sub - allowed) & allowed
            if table[sub] - sums[j] > have:
                return _block(name, fn, sub, column, firm_payoffs[name], worker_payoffs)
    return None


def find_block(m: Market, o: Outcome, u: Optional[Profile] = None) -> Optional[Block]:
    """First blocking pair over all firms and all worker subsets."""
    profile = m.require_profile(u)
    payoffs = outcome_payoffs(m, o, profile)
    full = m.full_mask
    return _scan_for_block(m, profile, payoffs, {name: full for name in m.firm_names})


def find_weak_block(
    m: Market, o: Outcome, u: Optional[Profile] = None
) -> Optional[Block]:
    """Blocking restricted to each firm's own hires plus unmatched workers."""
    profile = m.require_profile(u)
    # checks that the outcome fits the market before its workers are indexed
    payoffs = outcome_payoffs(m, o, profile)
    index = m.worker_index
    unmatched = 0
    for w in o.matching.unmatched_workers:
        unmatched |= 1 << index[w]
    allowed: dict[str, int] = {}
    for name in m.firm_names:
        own = 0
        for w in o.matching.workers_of(name):
            own |= 1 << index[w]
        allowed[name] = own | unmatched
    return _scan_for_block(m, profile, payoffs, allowed)


def is_stable(m: Market, o: Outcome, u: Optional[Profile] = None) -> ConditionReport:
    """True iff no firm-coalition pair blocks the outcome."""
    block = find_block(m, o, u)
    if block is None:
        return ConditionReport(verdict=True)
    return ConditionReport(
        verdict=False,
        witness=block.to_dict(),
        details=(
            f"firm {block.firm} and {list(block.coalition)} improve "
            f"on the outcome with slack {block.slack}"
        ),
    )
