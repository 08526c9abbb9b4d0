"""Pivot payments for the matching market and the incentive checks on them.

Each matched worker is paid their externality plus their reported
disutility at the firm they join:

    p(w) = V(W) - V(W minus w) + d_w(firm of w),

unmatched workers are paid 0. Worker payoffs are then exactly the
marginal products V(W) - V(W minus w); a firm's payoff is its utility
minus its wage bill. All exclusion values come from the same dynamic
program as the efficient matching, so a full result costs one solve.

Salaries and payoffs are computed once, as integers over the solve's
denominator (`surplus.MarketSolver.den`), into the outcome's
`stability.Ledger`; the rationality checks and the block scans compare
those integers. A `VcgResult`'s Fractions are built from them when first
read, and its `to_dict` and the checks' witnesses print them by gcd
(`model.ratio_text`) without building one.

Firing-proofness is blocking inside a firm's own hires (for a hired worker,
disutility plus payoff is salary), so `check_outcome_sir` runs the walk of
`stability.deviations` on each firm's hires, from the largest kept set
down: a few big-int operations on 2^|hires| packed lanes per firm.

Strategy-proofness, the pivot rule's other guarantee, is not checked on a
command's path: `oracles.check_strategy_proofness` re-solves the market
under a grid of one worker's misreports, for the self-test and the tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .model import ConditionReport, Market, Matching, Outcome, Profile, ratio_text
from .stability import Ledger, deviations, ledger_of
from .surplus import MarketSolver


class VcgResult:
    """Efficient matching, pivot salaries, and every agent's payoff.

    `profile` is the disutility profile the outcome was priced under; it is
    kept for the rationality checks and left out of `to_dict`. The amounts are integers over the solve's
    denominator: the salaries and payoffs in the outcome's ledger,
    `scaled_total` and `scaled_excluding` (the total without each worker,
    in market order). `total`, `worker_payoffs`, `firm_payoffs` and
    `surplus_excluding` are their Fractions, built when first read, and
    `to_dict` prints them by gcd.
    """

    def __init__(
        self,
        market: Market,
        profile: Profile,
        outcome: Outcome,
        scaled_total: int,
        scaled_excluding: list[int],
        ties_broken: bool,
    ) -> None:
        self.market = market
        self.profile = profile
        self.outcome = outcome
        self.scaled_total = scaled_total
        self.scaled_excluding = scaled_excluding
        self.ties_broken = ties_broken

    def _fractions(self, names, amounts) -> tuple[tuple[str, Fraction], ...]:
        den = self.outcome.ledger.den
        return tuple((name, Fraction(x, den)) for name, x in zip(names, amounts))

    @cached_property
    def total(self) -> Fraction:
        return Fraction(self.scaled_total, self.outcome.ledger.den)

    @cached_property
    def worker_payoffs(self) -> tuple[tuple[str, Fraction], ...]:
        return self._fractions(self.market.workers, self.outcome.ledger.worker)

    @cached_property
    def firm_payoffs(self) -> tuple[tuple[str, Fraction], ...]:
        return self._fractions(self.market.firm_names, self.outcome.ledger.firm)

    @cached_property
    def surplus_excluding(self) -> tuple[tuple[str, Fraction], ...]:
        return self._fractions(self.market.workers, self.scaled_excluding)

    @cached_property
    def _worker_payoff(self) -> dict[str, Fraction]:
        return dict(self.worker_payoffs)

    @cached_property
    def _firm_payoff(self) -> dict[str, Fraction]:
        return dict(self.firm_payoffs)

    def salary(self, worker: str) -> Fraction:
        return self.outcome.salary[worker]

    def worker_payoff(self, worker: str) -> Fraction:
        return self._worker_payoff[worker]

    def firm_payoff(self, firm: str) -> Fraction:
        return self._firm_payoff[firm]

    def to_dict(self) -> dict:
        led = self.outcome.ledger
        den, workers = led.den, self.market.workers
        return {
            "total_surplus": ratio_text(self.scaled_total, den),
            "matching": self.outcome.matching.to_dict(),
            "salaries": {w: ratio_text(x, den) for w, x in zip(workers, led.salaries)},
            "worker_payoffs": {w: ratio_text(x, den) for w, x in zip(workers, led.worker)},
            "firm_payoffs": {
                f: ratio_text(x, den) for f, x in zip(self.market.firm_names, led.firm)
            },
            "surplus_excluding": {
                w: ratio_text(x, den) for w, x in zip(workers, self.scaled_excluding)
            },
            "ties_broken": self.ties_broken,
        }


def pivot_outcome(solver: MarketSolver, matching: Matching) -> Outcome:
    """Price an efficient matching by the pivot formula, on the solve's
    integer scale; the outcome carries the ledger.

    Only matched workers are priced; unmatched ones are paid 0 and cost no
    exclusion query.
    """
    market = solver.market
    full = market.full_mask
    total = solver.scaled_value_on(full)
    index, at = market.worker_index, market.firm_index
    salaries = [0] * market.n
    for w, firm in matching.assignment:
        if firm is not None:
            i = index[w]
            salary = total - solver.scaled_value_on(full ^ 1 << i) + solver.costs[at[firm]][i]
            if salary < 0:
                raise ValueError(f"negative salary for {w}")
            salaries[i] = salary
    return Outcome.priced(
        Ledger(market, solver.profile, matching, solver.den, solver.costs, salaries)
    )


def vcg(m: Market, u: Profile | None = None, box: bool = False) -> VcgResult:
    """The pivot result on profile `u` (else the embedded one); `box` also
    refuses entries above ubar, as `surplus.MarketSolver` does."""
    solver = MarketSolver(m, u, box)
    sol = solver.solution()
    full = m.full_mask
    return VcgResult(
        market=m,
        profile=solver.profile,
        outcome=pivot_outcome(solver, sol.matching),
        scaled_total=solver.scaled_value_on(full),
        scaled_excluding=[solver.scaled_value_on(full ^ 1 << i) for i in range(m.n)],
        ties_broken=sol.ties_broken,
    )


def check_ir(r: VcgResult) -> ConditionReport:
    """Individual rationality of a pivot result (see check_outcome_ir)."""
    return check_outcome_ir(r.market, r.outcome, r.profile)


def check_sir(r: VcgResult) -> ConditionReport:
    """Firing-proofness of a pivot result (see check_outcome_sir)."""
    return check_outcome_sir(r.market, r.outcome, r.profile)


def check_outcome_ir(
    m: Market, o: Outcome, u: Profile | None = None
) -> ConditionReport:
    """Every agent's payoff under the outcome is nonnegative.

    Firms are scanned first, then workers, each in market order.
    """
    return _ir_report(ledger_of(m, o, u))


def _ir_report(led: Ledger) -> ConditionReport:
    m, den = led.market, led.den
    for name, payoff in zip(m.firm_names, led.firm):
        if payoff < 0:
            return ConditionReport(
                verdict=False,
                witness={"agent": name, "kind": "firm", "payoff": ratio_text(payoff, den)},
                details=f"firm {name} runs a deficit of {ratio_text(-payoff, den)}",
            )
    for w, payoff in zip(m.workers, led.worker):
        if payoff < 0:
            return ConditionReport(
                verdict=False,
                witness={"agent": w, "kind": "worker", "payoff": ratio_text(payoff, den)},
                details=(
                    f"worker {w} ends below their outside option by {ratio_text(-payoff, den)}"
                ),
            )
    return ConditionReport(verdict=True)


def check_outcome_sir(
    m: Market, o: Outcome, u: Profile | None = None
) -> ConditionReport:
    """Individual rationality plus: no firm gains by firing a subset.

    A firm keeping R out of its hires A (salaries fixed) gets u_f(R) minus
    the wages of R. The witness is the largest such R by bit pattern.
    """
    led = ledger_of(m, o, u)
    ir = _ir_report(led)
    if not ir.verdict:
        return ConditionReport(
            verdict=False,
            witness={"individual_rationality": ir.witness},
            details="fails individual rationality outright: " + ir.details,
        )
    den = led.den
    # a hired worker's cost to a kept set, disutility plus payoff, is their salary
    for (name, fn), have, hires in zip(led.market.firms, led.firm, led.hires):
        hit = next(deviations(fn, den // fn.den, led.salaries, have, hires, descending=True), None)
        if hit is not None:
            keep, gain = hit
            kept = list(fn.members(keep))
            gain_text = ratio_text(gain, den)
            return ConditionReport(
                verdict=False,
                witness={"firm": name, "keep": kept, "improvement": gain_text},
                details=f"firm {name} gains {gain_text} by keeping only {kept}",
            )
    return ConditionReport(verdict=True)
