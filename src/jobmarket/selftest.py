"""Seeded self-test: random markets pushed through every cross-check.

Each suite re-derives something two independent ways (dynamic program vs
exhaustive search, checker vs checker, guarantee direction vs constructed
counterexample), records any disagreement and counts what it saw; two
entry points of one decider are never compared with each other. A
corpus entry is (label, market, profiles): the label is the `gen` line
that rebuilds the market (`gen additive 4 2 --seed 123`), and profiles[0]
is the market's own profile. Every failure line starts with that label,
followed by the profile's entries when the failure is on another profile,
so it reproduces on its own. `run` draws trial t from its own rng, seeded
by (seed, t); the acceptance criteria run the same suites on their own
corpora.

The slow side of each comparison, where it is not a scan of `setfn`,
comes from `oracles`: exhaustive search, the marginal-product order,
tight-set closure, the misreport grid and the exhaustive strong- and
gross-substitutes scans. This module and the tests are the only ones that
load it; the command line imports this module only when `selftest` runs.

Checks call into sibling modules through their module objects on purpose:
the test suite swaps implementations out to confirm the self-test actually
catches corrupted results.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import jobmarket.necessity as necessity
import jobmarket.oracles as oracles
import jobmarket.setfn as setfn
import jobmarket.stability as stability
import jobmarket.surplus as surplus
import jobmarket.pivot as pivot

from .model import Market, Profile

Corpus = list[tuple[str, Market, tuple[Profile, ...]]]


class SuiteResult:
    """One suite's checks, the failure lines and what it counted."""

    def __init__(
        self,
        name: str,
        checked: int,
        failures: tuple[str, ...],
        counts: dict[str, int] | None = None,
    ) -> None:
        self.name = name
        self.checked = checked
        self.failures = failures
        self.counts = {} if counts is None else counts

    @property
    def ok(self) -> bool:
        return not self.failures


class SelftestReport:
    """Every suite's result for one seed, trial count and grid."""

    def __init__(self, seed: int, trials: int, grid: int, suites: tuple[SuiteResult, ...]) -> None:
        self.seed = seed
        self.trials = trials
        self.grid = grid
        self.suites = suites

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.suites)

    def lines(self) -> list[str]:
        out = []
        for s in self.suites:
            mark = "ok" if s.ok else "FAIL"
            out.append(f"{mark:4} {s.name}: {s.checked} checks, {len(s.failures)} failures")
            out.extend(f"     {f}" for f in s.failures[:5])
            if len(s.failures) > 5:
                out.append(f"     ... and {len(s.failures) - 5} more")
        verdict = "all suites passed" if self.ok else "SELF-TEST FAILED"
        out.append(f"{verdict} (trials={self.trials}, seed={self.seed}, grid={self.grid})")
        return out

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "seed": self.seed,
            "trials": self.trials,
            "grid": self.grid,
            "suites": [
                {
                    "name": s.name,
                    "checked": s.checked,
                    "failures": list(s.failures),
                    "counts": dict(s.counts),
                }
                for s in self.suites
            ],
        }


def _generated(kind: str, n: int, nfirms: int, seed: int) -> tuple[str, Market]:
    """A generated market and its label, the `gen` line that rebuilds it."""
    return f"gen {kind} {n} {nfirms} --seed {seed}", necessity.generate(kind, n, nfirms, seed)


def _at(label: str, profiles: tuple[Profile, ...], k: int) -> str:
    """A failure line's head: the gen line, then profile k's entries unless
    it is the market's own (k = 0), as a --profile file would hold them."""
    if k == 0:
        return label
    return f"{label} profile {json.dumps(profiles[k].to_dict(), separators=(',', ':'))}"


def _oracle_equivalence(corpus: Corpus) -> SuiteResult:
    failures = []
    for label, m, _ in corpus:
        fast = surplus.efficient_matching(m)
        slow = oracles.brute_force_total(m)
        if fast.total != slow:
            failures.append(f"{label}: dp total {fast.total} != brute force {slow}")
    return SuiteResult("oracle_equivalence", len(corpus), tuple(failures))


def _marginal_product_order(corpus: Corpus) -> SuiteResult:
    failures = []
    for label, m, _ in corpus:
        report = oracles.check_marginal_product_order(m)
        if not report.verdict:
            failures.append(f"{label}: {report.witness}")
    return SuiteResult("marginal_product_order", len(corpus), tuple(failures))


def _tight_sets_closed(corpus: Corpus) -> SuiteResult:
    failures = []
    checked = held = 0
    for label, m, _ in corpus:
        for name, fn in m.firms:
            checked += 1
            costs = dict(zip(m.workers, m.disutilities.column(name)))
            report = oracles.check_tight_sets_downward_closed(fn, costs)
            if not report.verdict:
                failures.append(f"{label}: {name}: {report.witness}")
            elif report.details == "premise holds":
                held += 1
    return SuiteResult(
        "tight_sets_downward_closed", checked, tuple(failures), {"premise_held": held}
    )


def _truthful_dominance(corpus: Corpus, grid: int) -> SuiteResult:
    failures = []
    checked = 0
    for label, m, _ in corpus:
        for w in m.workers:
            checked += 1
            report = oracles.check_strategy_proofness(m, w, grid)
            if not report.verdict:
                failures.append(f"{label}: {w}: {report.witness}")
    return SuiteResult("truthful_dominance", checked, tuple(failures))


def _ir_iff_weak_substitutes(corpus: Corpus) -> SuiteResult:
    """Markets of weak-substitutes firms are rational on every profile; each
    other firm gets a certificate on which its pivot payoff is negative."""
    failures = []
    rational = built = 0
    for label, m, profiles in corpus:
        bad = [name for name, fn in m.firms if not setfn.is_weak_substitutes(fn).verdict]
        if not bad:
            rational += 1
            for k, profile in enumerate(profiles):
                report = pivot.check_ir(pivot.vcg(m, profile))
                if not report.verdict:
                    failures.append(
                        f"{_at(label, profiles, k)}: all firms weak-substitutes yet {report.witness}"
                    )
        for name in bad:
            try:
                cert = necessity.demonstrate_ir_violation(m, name)
            except Exception as err:  # noqa: BLE001 - any escape is a finding
                failures.append(f"{label}: {name}: no certificate ({err})")
                continue
            r = pivot.vcg(m, cert.profile)
            if pivot.check_ir(r).verdict or r.firm_payoff(name) >= 0:
                failures.append(f"{label}: {name}: certificate does not replay")
            else:
                built += 1
    counts = {"rational_markets": rational, "violations": built}
    return SuiteResult("ir_iff_weak_substitutes", len(corpus), tuple(failures), counts)


def _sir_iff_submodular(corpus: Corpus) -> SuiteResult:
    """Markets of submodular firms are firing-proof on every profile; each
    other firm gets a certificate whose outcome is not, and a canonical one
    replays on the solver's own outcome."""
    failures = []
    proof = canonical = exhibited = 0
    for label, m, profiles in corpus:
        bad = [name for name, fn in m.firms if not setfn.is_submodular(fn).verdict]
        if not bad:
            proof += 1
            for k, profile in enumerate(profiles):
                report = pivot.check_sir(pivot.vcg(m, profile))
                if not report.verdict:
                    failures.append(
                        f"{_at(label, profiles, k)}: all firms submodular yet {report.witness}"
                    )
        for name in bad:
            try:
                cert = necessity.demonstrate_sir_violation(m, name)
            except Exception as err:  # noqa: BLE001 - any escape is a finding
                failures.append(f"{label}: {name}: no certificate ({err})")
                continue
            if pivot.check_outcome_sir(m, cert.outcome, cert.profile).verdict:
                failures.append(f"{label}: {name}: certificate outcome is firing-proof")
            elif not cert.canonical:
                exhibited += 1
            elif pivot.check_sir(pivot.vcg(m, cert.profile)).verdict:
                failures.append(f"{label}: {name}: canonical certificate does not replay")
            else:
                canonical += 1
    counts = {"firing_proof_markets": proof, "canonical": canonical, "exhibited": exhibited}
    return SuiteResult("sir_iff_submodular", len(corpus), tuple(failures), counts)


def _valuation_chain(corpus: Corpus) -> SuiteResult:
    """Gross substitutes <= submodular <= weak substitutes, firm by firm.

    Also replays the chain that `classify` runs against the independent
    checks: its weak-substitutes and submodular reports must equal, verdict
    and witness, the standalone weak-substitutes scan and `is_submodular`,
    and its strong and gross verdicts those of the exhaustive scans in
    `oracles`, whose first violations in scan order need not be the local
    ones the chain reports. The chain takes weak substitutes from
    submodularity; the standalone scan does not. `is_submodular` decides
    on the same packed kernel as the chain, so the chain's submodular
    verdict is also checked against the ordered pair walk.
    `is_strong_substitutes` and `is_gross_substitutes` call the chain's
    own deciders, so they are not compared with it. The counts are the
    independent checks' verdicts.
    """
    failures = []
    checked = gross = sub = weak = 0
    same_witness = ("weak_substitutes", "submodular")
    for label, m, _ in corpus:
        for name, fn in m.firms:
            checked += 1
            where = f"{label}: {name}"
            try:
                chain = setfn.classify(fn)
            except RuntimeError as err:
                failures.append(f"{where}: {err}")
                continue
            if not chain["monotone"].verdict:
                failures.append(f"{where}: classify finds the table not monotone")
                continue
            checks = {
                "weak_substitutes": setfn.is_weak_substitutes(fn),
                "submodular": setfn.is_submodular(fn),
                "strong_substitutes": oracles.strong_substitutes_scan(fn),
                "gross_substitutes": oracles.gross_substitutes_scan(fn),
            }
            for cls, report in checks.items():
                same = chain[cls] == report if cls in same_witness else (
                    chain[cls].verdict == report.verdict
                )
                if not same:
                    failures.append(f"{where}: the chain's {cls} disagrees with the scan")
            walked = next(setfn._submodularity_violations(fn), None) is None
            if chain["submodular"].verdict != walked:
                failures.append(f"{where}: the chain's submodular disagrees with the pair walk")
            if checks["submodular"].verdict:
                if not checks["weak_substitutes"].verdict:
                    failures.append(f"{where}: submodular but not weak-substitutes")
            elif checks["gross_substitutes"].verdict:
                failures.append(f"{where}: gross-substitutes but not submodular")
            gross += checks["gross_substitutes"].verdict
            sub += checks["submodular"].verdict
            weak += checks["weak_substitutes"].verdict
    counts = {"gross_substitutes": gross, "submodular": sub, "weak_substitutes": weak}
    return SuiteResult("valuation_chain", checked, tuple(failures), counts)


def _block_is_sound(m: Market, r: pivot.VcgResult, block) -> bool:
    """Substitute the block's payments back into the two inequalities of
    the outcome `r` it blocks."""
    firm_payoffs, worker_payoffs = stability.outcome_payoffs(m, r.outcome)
    fn = m.utility(block.firm)
    paid = dict(block.payments)
    new_firm = fn.subset_value(block.coalition) - sum(paid.values(), Fraction(0))
    conds = [new_firm - firm_payoffs[block.firm]]
    for w in block.coalition:
        conds.append(paid[w] - m.disutilities.get(w, block.firm) - worker_payoffs[w])
    return all(c >= 0 for c in conds) and any(c > 0 for c in conds)


def _stability_agreement(corpus: Corpus) -> SuiteResult:
    """Stable (`find_block` finds none) implies firing-proof implies
    rational; blocks re-verify.

    Also samples the cited direction that markets of gross-substitutes
    firms leave the pivot outcome unblocked.
    """
    failures = []
    for label, m, _ in corpus:
        r = pivot.vcg(m)
        block = stability.find_block(m, r.outcome)
        sir = pivot.check_sir(r)
        ir = pivot.check_ir(r)
        if block is None and not sir.verdict:
            failures.append(f"{label}: stable yet a firm wants to fire: {sir.witness}")
        if sir.verdict and not ir.verdict:
            failures.append(f"{label}: firing-proof yet not individually rational")
        if block is not None:
            if not _block_is_sound(m, r, block):
                failures.append(f"{label}: block fails substitution: {block.to_dict()}")
            if all(setfn.is_gross_substitutes(fn).verdict for _, fn in m.firms):
                failures.append(f"{label}: gross-substitutes firms yet blocked")
    return SuiteResult("stability", len(corpus), tuple(failures))


def run(trials: int = 200, seed: int = 0, grid: int = 6) -> SelftestReport:
    """Run every suite over a seeded corpus of random markets."""
    if trials < 0:
        raise ValueError("trials must be nonnegative")
    if grid < 1:
        raise ValueError("grid density must be at least 1")
    corpus: Corpus = []
    for t in range(trials):
        rng = random.Random(f"selftest:{seed}:{t}")
        kind = necessity.GENERATOR_KINDS[t % len(necessity.GENERATOR_KINDS)]
        label, m = _generated(kind, rng.randint(1, 5), rng.randint(1, 3), rng.randint(0, 10**6))
        corpus.append((label, m, (m.disutilities, necessity.quarter_grid_profile(rng, m))))
    small = [entry for entry in corpus if len(entry[1].firms) <= 2]
    truthful = (small or corpus)[: max(1, trials // 10)]
    suites = (
        _oracle_equivalence(corpus),
        _marginal_product_order(corpus),
        _tight_sets_closed(corpus),
        _truthful_dominance(truthful, grid),
        _ir_iff_weak_substitutes(corpus),
        _sir_iff_submodular(corpus),
        _valuation_chain(corpus),
        _stability_agreement(corpus),
    )
    return SelftestReport(seed=seed, trials=trials, grid=grid, suites=suites)
