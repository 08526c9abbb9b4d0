"""Pivot payments for the matching market and the incentive checks on them.

Each matched worker is paid their externality plus their reported
disutility at the firm they join:

    p(w) = V(W) - V(W minus w) + d_w(firm of w),

unmatched workers are paid 0. Worker payoffs are then exactly the
marginal products V(W) - V(W minus w); a firm's payoff is its utility
minus its wage bill. All exclusion values come from the same dynamic
program as the efficient matching, so a full result costs one solve.

Firing-proofness is blocking inside a firm's own hires (for a hired worker,
disutility plus payoff is salary), so `check_outcome_sir` runs the walk of
`stability.deviations` on each firm's hires, from the largest kept set
down: a few big-int operations on 2^|hires| packed lanes per firm.

Strategy-proofness, the pivot rule's other guarantee, is not checked on a
command's path: `oracles.check_strategy_proofness` re-solves the market
under a grid of one worker's misreports, for the self-test and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .model import ConditionReport, Market, Matching, Outcome, Profile
from .stability import deviations, hire_masks, outcome_payoffs
from .surplus import MarketSolver


@dataclass(frozen=True)
class VcgResult:
    """Efficient matching, pivot salaries, and every agent's payoff.

    `profile` is the disutility profile the outcome was priced under; it is
    kept for the rationality checks and left out of `to_dict`.
    """

    market: Market
    profile: Profile
    outcome: Outcome
    total: Fraction
    worker_payoffs: tuple[tuple[str, Fraction], ...]
    firm_payoffs: tuple[tuple[str, Fraction], ...]
    surplus_excluding: tuple[tuple[str, Fraction], ...]
    ties_broken: bool

    def salary(self, worker: str) -> Fraction:
        return self.outcome.salary[worker]

    def worker_payoff(self, worker: str) -> Fraction:
        return dict(self.worker_payoffs)[worker]

    def firm_payoff(self, firm: str) -> Fraction:
        return dict(self.firm_payoffs)[firm]

    def to_dict(self) -> dict:
        return {
            "total_surplus": str(self.total),
            "matching": self.outcome.matching.to_dict(),
            "salaries": {w: str(s) for w, s in self.outcome.salaries},
            "worker_payoffs": {w: str(x) for w, x in self.worker_payoffs},
            "firm_payoffs": {f: str(x) for f, x in self.firm_payoffs},
            "surplus_excluding": {w: str(x) for w, x in self.surplus_excluding},
            "ties_broken": self.ties_broken,
        }


def pivot_outcome(solver: MarketSolver, matching: Matching) -> Outcome:
    """Price an efficient matching by the pivot formula.

    Only matched workers are priced; unmatched ones are paid 0 and cost no
    exclusion query.
    """
    total = solver.total()
    profile = solver.profile
    salaries: dict[str, Fraction] = {}
    for i, w in enumerate(solver.market.workers):
        firm = matching.firm_of(w)
        if firm is not None:
            salaries[w] = total - solver.value_excluding_mask(1 << i) + profile.get(w, firm)
    return Outcome.build(matching, salaries)


def vcg(m: Market, u: Optional[Profile] = None) -> VcgResult:
    solver = MarketSolver(m, u)
    sol = solver.solution()
    outcome = pivot_outcome(solver, sol.matching)
    firm_payoffs, worker_payoffs = outcome_payoffs(m, outcome, solver.profile)
    return VcgResult(
        market=m,
        profile=solver.profile,
        outcome=outcome,
        total=sol.total,
        worker_payoffs=tuple(worker_payoffs.items()),
        firm_payoffs=tuple(firm_payoffs.items()),
        surplus_excluding=tuple(
            (w, solver.value_excluding_mask(1 << i)) for i, w in enumerate(m.workers)
        ),
        ties_broken=sol.ties_broken,
    )


def check_ir(r: VcgResult) -> ConditionReport:
    """Individual rationality of a pivot result (see check_outcome_ir)."""
    return check_outcome_ir(r.market, r.outcome, r.profile)


def check_sir(r: VcgResult) -> ConditionReport:
    """Firing-proofness of a pivot result (see check_outcome_sir)."""
    return check_outcome_sir(r.market, r.outcome, r.profile)


def check_outcome_ir(
    m: Market, o: Outcome, u: Optional[Profile] = None
) -> ConditionReport:
    """Every agent's payoff under the outcome is nonnegative.

    Firms are scanned first, then workers, each in market order.
    """
    return _ir_report(m, *outcome_payoffs(m, o, u))


def _ir_report(
    m: Market, firm_payoffs: dict[str, Fraction], worker_payoffs: dict[str, Fraction]
) -> ConditionReport:
    for name in m.firm_names:
        payoff = firm_payoffs[name]
        if payoff < 0:
            return ConditionReport(
                verdict=False,
                witness={"agent": name, "kind": "firm", "payoff": str(payoff)},
                details=f"firm {name} runs a deficit of {-payoff}",
            )
    for w in m.workers:
        payoff = worker_payoffs[w]
        if payoff < 0:
            return ConditionReport(
                verdict=False,
                witness={"agent": w, "kind": "worker", "payoff": str(payoff)},
                details=f"worker {w} ends below their outside option by {-payoff}",
            )
    return ConditionReport(verdict=True)


def check_outcome_sir(
    m: Market, o: Outcome, u: Optional[Profile] = None
) -> ConditionReport:
    """Individual rationality plus: no firm gains by firing a subset.

    A firm keeping R out of its hires A (salaries fixed) gets u_f(R) minus
    the wages of R. The witness is the largest such R by bit pattern.
    """
    profile = m.require_profile(u)
    payoffs = outcome_payoffs(m, o, profile)
    ir = _ir_report(m, *payoffs)
    if not ir.verdict:
        return ConditionReport(
            verdict=False,
            witness={"individual_rationality": ir.witness},
            details="fails individual rationality outright: " + ir.details,
        )
    hires = hire_masks(m, o.matching)
    for name, fn in m.firms:
        hit = next(deviations(m, profile, payoffs, name, hires[name], descending=True), None)
        if hit is not None:
            keep, gain = hit
            kept = list(fn.members(keep))
            return ConditionReport(
                verdict=False,
                witness={"firm": name, "keep": kept, "improvement": str(gain)},
                details=f"firm {name} gains {gain} by keeping only {kept}",
            )
    return ConditionReport(verdict=True)
