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
(`model.clear_denominators`), so salaries of any denominator are exact.
It tests every coalition at once, on the table and the coalition cost
sums packed into lanes of one int each (`subsets.pack_lanes`): a few
big-int operations per firm and one per member of `allowed`, linear in
the 2^|allowed| lanes. Only the coalitions it reports are summed one by
one, to recompute their excess exactly.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from operator import add

from .model import Market, Matching, Outcome, Profile, _Record, clear_denominators
from .subsets import bit_indices, pack_lanes, subset_sums


class Block(_Record):
    """A profitable deviation: the firm, the coalition, and payments."""

    _fields = ("firm", "coalition", "payments", "slack")

    def __init__(
        self,
        firm: str,
        coalition: tuple[str, ...],
        payments: tuple[tuple[str, Fraction], ...],
        slack: Fraction,
    ) -> None:
        self.firm = firm
        self.coalition = coalition
        self.payments = payments
        self.slack = slack

    def to_dict(self) -> dict:
        return {
            "firm": self.firm,
            "coalition": list(self.coalition),
            "payments": {w: str(p) for w, p in self.payments},
            "slack": str(self.slack),
        }


def outcome_payoffs(
    m: Market, o: Outcome, u: Profile | None = None
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


def hire_masks(m: Market, matching: Matching) -> dict[str | None, int]:
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
    descending: bool = False,
) -> Iterator[tuple[int, Fraction]]:
    """Each coalition inside `allowed` that blocks with `firm`, with its
    excess (left side minus right side): ascending by bit pattern, or
    descending when `descending` is set.

    The test runs on lanes, lane j for the j-th subset of `allowed` in
    ascending order: the firm's table (gathered at those subsets first
    when `allowed` is not every worker) packed by `subsets.pack_lanes`,
    and the coalition cost sums, built packed by one doubling per member.
    A cost may be negative, since a payoff under an arbitrary outcome may
    be, so the sums are raised by the sum of the negative costs to keep
    each lane at 0 or more. One biased subtraction then sets a lane's top
    bit exactly when its coalition blocks, and each hit, taken off the top
    bits, has its excess recomputed exactly.
    """
    firm_payoffs, worker_payoffs = payoffs
    fn = m.utilities[firm]
    column = profile.column(firm)
    bits = bit_indices(allowed)
    den, (disutilities, member_payoffs, (have,)) = clear_denominators(
        [fn],
        [[column[i] for i in bits], [worker_payoffs[m.workers[i]] for i in bits], (firm_payoffs[firm],)],
    )
    # a member's cost to the coalition: disutility plus current payoff
    costs = list(map(add, disutilities, member_payoffs))
    factor, table = den // fn.den, fn.scaled
    subs, vals = range(len(table)), table
    if allowed != m.full_mask:
        subs = subset_sums([1 << i for i in bits])
        vals = list(map(table.__getitem__, subs))
    # each cost sum plus lift lies in [0, spread], and factor times a
    # table lane in [0, 2^(width-2)), as pack_lanes sizes the lanes
    spread = sum(map(abs, costs))
    lift = spread - sum(costs) >> 1  # the sum of the negative costs, negated
    packed, width = pack_lanes(vals, 2 + (factor - 1).bit_length(), spread.bit_length() + 2)
    sums, ones = lift, 1
    for k, c in enumerate(costs):
        shift = width << k
        sums |= (sums + c * ones) << shift
        ones |= ones << shift
    # the excess less 1 is factor * (table lane) - (sums lane) + rest; rest
    # is clamped to [-2^(width-2), 2^(width-2)), past which every lane's
    # sign is the same, so each biased lane stays in [0, 2^width)
    low = vals[0] - (packed & (1 << width) - 1)
    reach = 1 << width - 2
    rest = max(-reach, min(reach - 1, factor * low + lift - have - 1))
    hits = (factor * packed + (rest + (reach << 1)) * ones - sums) & ones << width - 1
    while hits:
        top = hits.bit_length() if descending else (hits & -hits).bit_length()
        hits ^= 1 << top - 1
        j = top // width - 1
        excess = table[subs[j]] * factor - sum(costs[k] for k in bit_indices(j)) - have
        if excess <= 0:
            raise RuntimeError("blocking: a lane blocks but its exact excess does not")
        yield subs[j], Fraction(excess, den)


def _scan_for_block(
    m: Market,
    profile: Profile,
    payoffs: tuple[dict[str, Fraction], dict[str, Fraction]],
    allowed_mask_of: dict[str, int],
) -> Block | None:
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


def find_block(m: Market, o: Outcome, u: Profile | None = None) -> Block | None:
    """First blocking pair over all firms and all worker subsets."""
    profile = m.require_profile(u)
    payoffs = outcome_payoffs(m, o, profile)
    full = m.full_mask
    return _scan_for_block(m, profile, payoffs, {name: full for name in m.firm_names})


def find_weak_block(
    m: Market, o: Outcome, u: Profile | None = None
) -> Block | None:
    """Blocking restricted to each firm's own hires plus unmatched workers."""
    profile = m.require_profile(u)
    # checks that the outcome fits the market before its workers are indexed
    payoffs = outcome_payoffs(m, o, profile)
    hires = hire_masks(m, o.matching)
    allowed = {name: hires[name] | hires[None] for name in m.firm_names}
    return _scan_for_block(m, profile, payoffs, allowed)
