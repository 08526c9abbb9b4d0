"""Core stability of outcomes: blocking coalitions and how to pay them.

A firm f and a worker set S block an outcome when the surplus they can
generate together exceeds their combined payoffs under it:

    u_f(S) - sum d_w(f)  >  payoff(f) + sum payoff(w)   over w in S.

The constructed deviation gives the firm half the slack and splits the
other half equally among the coalition's workers, so every member is
strictly better off. S = empty set is allowed (it catches firms running
a deficit); the scan order is firms as declared, then subsets in
ascending bit-pattern order, so the reported block is canonical. An
outcome is stable iff `find_block` returns None; a block is the witness.

Firing is the same inequality inside the firm's own hires: a hired
worker's disutility plus payoff is their salary, so on a kept set S it
reads u_f(S) - wages of S > payoff(f). `deviations` is the one walk that
`find_block` (all workers), `find_weak_block` (own hires and unmatched)
and `pivot.check_outcome_sir` (own hires) run.

The walk runs on integers: the coalition costs and the firm payoff are
scaled with the utility table by one common denominator
(`model.clear_denominators`), so salaries of any denominator are exact,
and cost sums take one addition per subset (`subsets.subset_sums`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .model import Market, Matching, Outcome, Profile, clear_denominators
from .subsets import bit_indices, subset_sums


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
    hires = hire_masks(m, o.matching)
    firm_payoffs: dict[str, Fraction] = {}
    for name, fn in m.firms:
        bill = sum((salary[w] for w in fn.members(hires[name])), Fraction(0))
        firm_payoffs[name] = fn.value(hires[name]) - bill
    worker_payoffs: dict[str, Fraction] = {}
    for w, firm in o.matching.assignment:
        if firm is None:
            worker_payoffs[w] = Fraction(0)
        else:
            worker_payoffs[w] = salary[w] - profile.get(w, firm)
    return firm_payoffs, worker_payoffs


def hire_masks(m: Market, matching: Matching) -> dict[Optional[str], int]:
    """Each firm's hires as a mask, and the unmatched workers' under None.

    The matching must already fit the market (see outcome_payoffs).
    """
    masks = dict.fromkeys((None, *m.firm_names), 0)
    index = m.worker_index
    for w, firm in matching.assignment:
        masks[firm] |= 1 << index[w]
    return masks


def deviations(
    m: Market,
    profile: Profile,
    payoffs: tuple[dict[str, Fraction], dict[str, Fraction]],
    firm: str,
    allowed: int,
) -> Iterator[tuple[int, Fraction]]:
    """Each coalition inside `allowed` that blocks with `firm`, ascending
    by bit pattern, with its excess (left side minus right side).

    Only the table entries visited are rescaled: O(2^|allowed|) additions.
    """
    firm_payoffs, worker_payoffs = payoffs
    fn = m.utilities[firm]
    column = profile.column(firm)
    # a member's cost to the coalition: disutility plus current payoff
    costs = [column[i] + worker_payoffs[m.workers[i]] for i in bit_indices(allowed)]
    den, (costs, (have,)) = clear_denominators([fn], [costs, (firm_payoffs[firm],)])
    factor, table = den // fn.den, fn.scaled
    sub = 0
    # the j-th cost is that of the j-th subset of `allowed` in ascending order
    for j, cost in enumerate(subset_sums(costs)):
        if j:
            sub = (sub - allowed) & allowed
        excess = table[sub] * factor - cost - have
        if excess > 0:
            yield sub, Fraction(excess, den)


def _scan_for_block(
    m: Market,
    profile: Profile,
    payoffs: tuple[dict[str, Fraction], dict[str, Fraction]],
    allowed_mask_of: dict[str, int],
) -> Optional[Block]:
    """The first block: firms as declared, then coalitions ascending."""
    worker_payoffs = payoffs[1]
    for name, fn in m.firms:
        hit = next(deviations(m, profile, payoffs, name, allowed_mask_of[name]), None)
        if hit is not None:
            sub, excess = hit
            members = fn.members(sub)
            column = profile.column(name)
            share = excess / (2 * len(members)) if members else Fraction(0)
            payments = tuple(
                (w, column[i] + worker_payoffs[w] + share)
                for w, i in zip(members, bit_indices(sub))
            )
            return Block(name, members, payments, excess)
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
    hires = hire_masks(m, o.matching)
    allowed = {name: hires[name] | hires[None] for name in m.firm_names}
    return _scan_for_block(m, profile, payoffs, allowed)
