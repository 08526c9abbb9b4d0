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

Every scan runs on one integer scale, an outcome's `Ledger`: the
disutilities, salaries and payoffs times one common denominator. A pivot
outcome carries the solve's (`pivot.pivot_outcome`), so its scans clear
no denominator; any other outcome has its own cleared once per scan
(`model.clear_denominators`). The walk, `deviations`, takes the member
costs and the firm payoff already on that scale, with the factor that
brings the firm's table to it. It tests every coalition at once, on the
table and the coalition cost sums packed into lanes of one int each
(`subsets.pack_lanes`): a few big-int operations per firm and one per
member of `allowed`, linear in the 2^|allowed| lanes. Only the coalitions
it reports are summed one by one, to recompute their excess exactly, and
only a reported block's amounts become Fractions.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from fractions import Fraction
from operator import add

from .model import (
    Market,
    Matching,
    Outcome,
    Profile,
    SetFunction,
    _Record,
    clear_denominators,
    profile_columns,
)
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


class Ledger:
    """An outcome's payoffs in `market` under `profile`, on one integer
    scale: every amount is an int over `den`, a multiple of each table's
    denominator. Workers are indexed as in the market, firms likewise.

    costs[j][i] is worker i's disutility at firm j and salaries[i] their
    salary; hires[j] is firm j's hires as a mask and unmatched the
    unmatched workers'. firm[j] is firm j's payoff, its utility less its
    wage bill, and worker[i] worker i's, salary less disutility at their
    firm (0 when unmatched).
    """

    __slots__ = (
        "market", "profile", "matching", "den", "costs", "salaries",
        "hires", "unmatched", "firm", "worker",
    )

    def __init__(
        self,
        market: Market,
        profile: Profile,
        matching: Matching,
        den: int,
        costs: Sequence[Sequence[int]],
        salaries: Sequence[int],
    ) -> None:
        """`matching` must fit the market (see `ledger_of`)."""
        self.market, self.profile, self.matching = market, profile, matching
        self.den, self.costs, self.salaries = den, costs, salaries
        index, at = market.worker_index, market.firm_index
        hires, unmatched, worker = [0] * len(costs), 0, [0] * len(salaries)
        for w, firm in matching.assignment:
            i = index[w]
            if firm is None:
                unmatched |= 1 << i
            else:
                j = at[firm]
                hires[j] |= 1 << i
                worker[i] = salaries[i] - costs[j][i]
        self.hires, self.unmatched, self.worker = hires, unmatched, worker
        self.firm = [
            fn.scaled[mask] * (den // fn.den) - sum([salaries[i] for i in bit_indices(mask)])
            for (_, fn), mask in zip(market.firms, hires)
        ]


def ledger_of(m: Market, o: Outcome, u: Profile | None = None) -> Ledger:
    """The outcome's ledger in `m` under `u` (else the embedded profile):
    the one it carries when it was priced in this market under this
    profile, else one cleared here, once the outcome is checked to fit
    the market: it must list exactly the market's workers, each once, and
    send them only to market firms."""
    profile = m.require_profile(u)
    led = o.ledger
    if led is not None and led.market is m and led.profile is profile:
        return led
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
    den, (*costs, salaries) = clear_denominators(
        [fn for _, fn in m.firms],
        [*profile_columns(m, profile), [salary[w] for w in m.workers]],
    )
    return Ledger(m, profile, o.matching, den, costs, salaries)


def outcome_payoffs(
    m: Market, o: Outcome, u: Profile | None = None
) -> tuple[dict[str, Fraction], dict[str, Fraction]]:
    """(firm payoffs, worker payoffs) induced by an outcome, as Fractions:
    its ledger's (`ledger_of`), firms in market order and workers in the
    matching's."""
    led = ledger_of(m, o, u)
    den, index = led.den, m.worker_index
    firm_payoffs = {name: Fraction(x, den) for name, x in zip(m.firm_names, led.firm)}
    worker_payoffs = {w: Fraction(led.worker[index[w]], den) for w, _ in o.matching.assignment}
    return firm_payoffs, worker_payoffs


def hire_masks(m: Market, matching: Matching) -> dict[str | None, int]:
    """Each firm's hires as a mask, and the unmatched workers' under None.

    The matching must already fit the market (see ledger_of).
    """
    masks = dict.fromkeys((None, *m.firm_names), 0)
    index = m.worker_index
    for w, firm in matching.assignment:
        masks[firm] |= 1 << index[w]
    return masks


def deviations(
    fn: SetFunction,
    factor: int,
    costs: Sequence[int],
    have: int,
    allowed: int,
    descending: bool = False,
) -> Iterator[tuple[int, int]]:
    """Each coalition inside `allowed` that blocks with the firm of utility
    `fn`, with its excess (left side minus right side), on one integer
    scale: the table is `factor` times fn.scaled, costs[i] is worker i's
    cost to a coalition (disutility plus current payoff) and `have` the
    firm's payoff. Ascending by bit pattern, or descending when
    `descending` is set.

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
    table = fn.scaled
    bits = bit_indices(allowed)
    costs = [costs[i] for i in bits]
    subs, vals = range(len(table)), table
    if allowed != len(table) - 1:
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
        yield subs[j], excess


def _scan_for_block(led: Ledger, allowed: Sequence[int]) -> Block | None:
    """The first block, firm j's coalitions inside allowed[j]: firms as
    declared, then coalitions ascending."""
    den = led.den
    for (name, fn), column, have, inside in zip(led.market.firms, led.costs, led.firm, allowed):
        # a member's cost to the coalition: disutility plus current payoff
        costs = list(map(add, column, led.worker))
        hit = next(deviations(fn, den // fn.den, costs, have, inside), None)
        if hit is not None:
            sub, excess = hit
            members = fn.members(sub)
            # each member is paid their cost and an equal share of half the excess
            half = 2 * len(members)
            payments = tuple(
                (w, Fraction(costs[i] * half + excess, den * half))
                for w, i in zip(members, bit_indices(sub))
            )
            return Block(name, members, payments, Fraction(excess, den))
    return None


def find_block(m: Market, o: Outcome, u: Profile | None = None) -> Block | None:
    """First blocking pair over all firms and all worker subsets."""
    return _scan_for_block(ledger_of(m, o, u), [m.full_mask] * len(m.firms))


def find_weak_block(
    m: Market, o: Outcome, u: Profile | None = None
) -> Block | None:
    """Blocking restricted to each firm's own hires plus unmatched workers."""
    led = ledger_of(m, o, u)
    return _scan_for_block(led, [hires | led.unmatched for hires in led.hires])
