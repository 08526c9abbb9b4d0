"""Adversarial disutility profiles that turn valuation defects into failures.

Two constructions, both verified end to end before being returned:

* a weak-substitutes violation at a set S becomes a profile on which the
  pivot mechanism hands firm f exactly S and a wage bill above u_f(S),
  so the firm's payoff is negative;

* a submodularity violation at (S, wl, wk) becomes a profile on which the
  firm is assigned S plus both workers yet would strictly gain by firing
  the pair, so the outcome is not strongly individually rational.

The profiles are 0/ubar valued: workers meant for the target firm report 0
there and ubar everywhere else, all other workers report the reverse.

Every certificate carries the outcome it is about. Usually that is the
solver's own outcome (`canonical=True`). The exception is a submodularity
violation whose full set T = S + {wl, wk} contains a zero-marginal worker:
the least-cardinality tie-break then never hands the firm all of T, under
any profile, and the firing argument can genuinely be out of the solver's
reach (a three-worker table with exactly one violating triple suffices).
The salary formula p(w) = V(W) - V(W minus w) + d_w does not depend on
which efficient matching is chosen, so the construction instead exhibits
an alternative matching with the same total surplus, prices it with the
pivot formula, and verifies the firing gain there (`canonical=False`).
Verification failures raise ConstructionError instead of returning a bad
certificate.

`generate` builds seeded random markets from a few named families, for
search and for the self-test corpus.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction

from .model import (
    Market,
    Matching,
    Outcome,
    Profile,
    SetFunction,
    check_entry_cap,
    check_worker_cap,
)
from .setfn import (
    _first_submodularity_violation,
    _submodularity_violations,
    is_weak_substitutes,
)
from .stability import hire_masks, outcome_payoffs
from .subsets import bit_indices, subset_sums
from .surplus import MarketSolver
from .pivot import VcgResult, check_ir, check_outcome_sir, pivot_outcome, vcg


class ConstructionError(RuntimeError):
    """A candidate profile failed its post-construction verification."""


class AdversarialProfile:
    """A verified certificate: the profile plus what it makes go wrong.

    `kind` is "ir" or "sir". `outcome` is the efficient pivot-priced
    outcome the certificate talks about; `canonical` records whether it is
    the solver's own outcome or an exhibited alternative with the same
    total surplus.
    """

    def __init__(
        self,
        kind: str,
        firm: str,
        subset: tuple[str, ...],
        pair: tuple[str, str] | None,
        profile: Profile,
        outcome: Outcome,
        canonical: bool,
        summary: dict,
    ) -> None:
        self.kind = kind
        self.firm = firm
        self.subset = subset
        self.pair = pair
        self.profile = profile
        self.outcome = outcome
        self.canonical = canonical
        self.summary = summary

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "firm": self.firm,
            "subset": list(self.subset),
            "pair": list(self.pair) if self.pair is not None else None,
            "profile": self.profile.to_dict(),
            "outcome": {
                "matching": self.outcome.matching.to_dict(),
                "salaries": {w: str(s) for w, s in self.outcome.salaries},
            },
            "canonical": self.canonical,
            "summary": self.summary,
        }


def find_ws_violation(h: SetFunction) -> tuple[str, ...] | None:
    """First weak-substitutes violator in ascending bit-pattern order.

    Scanning masks as integers visits every strict subset of a set before
    the set itself, so the first hit is inclusion-minimal; minimality is
    what makes the individual-rationality construction tie-proof.
    """
    report = is_weak_substitutes(h)
    if report.verdict:
        return None
    return tuple(report.witness["subset"])


def find_submodularity_violation(
    h: SetFunction,
) -> tuple[tuple[str, ...], str, str] | None:
    """First (S, wl, wk) with u(S+wl) + u(S+wk) < u(S+wl+wk) + u(S)."""
    hit = _first_submodularity_violation(h)
    if hit is None:
        return None
    base, i, j = hit
    return (h.members(base), h.universe[i], h.universe[j])


def adversarial_profile(m: Market, firm: str, inside: Iterable[str]) -> Profile:
    """0/ubar profile steering `inside` to `firm` and everyone else away."""
    if firm not in m.firm_names:
        raise ValueError(f"unknown firm {firm!r}")
    inside_set = set(inside)
    unknown = inside_set - set(m.workers)
    if unknown:
        raise ValueError(f"unknown worker {sorted(unknown)[0]!r}")
    top = m.ubar
    entries = {}
    for w in m.workers:
        if w in inside_set:
            entries[w] = {f: (Fraction(0) if f == firm else top) for f in m.firm_names}
        else:
            entries[w] = {f: (top if f == firm else Fraction(0)) for f in m.firm_names}
    return Profile.from_dict(m.workers, m.firm_names, entries)


def _verified_result(m: Market, profile: Profile, firm: str, want_mask: int) -> VcgResult:
    r = vcg(m, profile)
    hired = hire_masks(m, r.outcome.matching)[firm]
    if hired != want_mask:
        fn = m.utility(firm)
        raise ConstructionError(
            f"firm {firm} was assigned {list(fn.members(hired))}, "
            f"construction needs {list(fn.members(want_mask))}"
        )
    return r


def construct_ir_violation(
    m: Market, firm: str, subset: Iterable[str]
) -> AdversarialProfile:
    """Profile on which the pivot outcome pays firm `firm` less than nothing.

    `subset` must violate weak substitutes for the firm's utility; each of
    its members is then paid their full marginal, and those marginals sum
    past the set's value. Raises ConstructionError if the verified outcome
    deviates (possible when `subset` is not inclusion-minimal).
    """
    fn = m.utility(firm)
    smask = fn.mask_of(subset)
    value = fn.value(smask)
    marginals = {fn.universe[i]: value - fn.value(smask ^ (1 << i)) for i in bit_indices(smask)}
    if value >= sum(marginals.values(), Fraction(0)):
        raise ValueError("subset does not violate weak substitutes for this firm")
    members = fn.members(smask)
    profile = adversarial_profile(m, firm, members)
    r = _verified_result(m, profile, firm, smask)
    for w in members:
        if r.salary(w) != marginals[w]:
            raise ConstructionError(
                f"salary of {w} is {r.salary(w)}, expected the marginal {marginals[w]}"
            )
    payoff = r.firm_payoff(firm)
    expected = value - sum(marginals.values(), Fraction(0))
    if payoff != expected:
        raise ConstructionError(f"firm payoff {payoff}, expected {expected}")
    if payoff >= 0 or check_ir(r).verdict:
        raise ConstructionError("outcome is individually rational after all")
    return AdversarialProfile(
        kind="ir",
        firm=firm,
        subset=members,
        pair=None,
        profile=profile,
        outcome=r.outcome,
        canonical=True,
        summary={
            "firm_payoff": str(payoff),
            "salaries": {w: str(marginals[w]) for w in members},
        },
    )


def _restricted(fn: SetFunction, keep: tuple[str, ...]) -> SetFunction:
    """The same utility on a sub-universe (values read off the full table)."""
    masks = subset_sums([1 << fn.index[w] for w in keep])
    return SetFunction(tuple(keep), fn.den, tuple(map(fn.scaled.__getitem__, masks)))


def _exhibited_matching(
    m: Market, profile: Profile, firm: str, inside: tuple[str, ...]
) -> Matching:
    """Hand `inside` to `firm`, match everyone else optimally without them."""
    taken = set(inside)
    assignment: dict[str, str | None] = {
        w: (firm if w in taken else None) for w in m.workers
    }
    outside = tuple(w for w in m.workers if w not in taken)
    others = tuple((g, fn) for g, fn in m.firms if g != firm)
    if outside and others:
        names = [g for g, _ in others]
        entries = {w: {g: profile.get(w, g) for g in names} for w in outside}
        sub = Market(
            outside,
            tuple((g, _restricted(fn, outside)) for g, fn in others),
            Profile.from_dict(outside, names, entries),
        )
        for w, g in MarketSolver(sub).solution().matching.assignment:
            if g is not None:
                assignment[w] = g
    return Matching.from_dict(m.workers, assignment)


def construct_sir_violation(
    m: Market, firm: str, subset: Iterable[str], wl: str, wk: str
) -> AdversarialProfile:
    """Profile on which `firm` hires subset + {wl, wk} but wants to fire the pair.

    The triple must violate submodularity:
    u(S+wl) + u(S+wk) < u(S+wl+wk) + u(S). The pair's pivot salaries then
    cost the firm more than the pair adds. When the solver's own outcome
    already hires T = S + {wl, wk}, the certificate is about that outcome;
    otherwise a tie has shrunk the hire, and the certificate exhibits an
    alternative matching with the same total surplus (verified exactly)
    that does hand the firm T, priced by the same pivot formula.
    """
    fn = m.utility(firm)
    smask = fn.mask_of(subset)
    for w in (wl, wk):
        if w not in fn.index:
            raise ValueError(f"unknown worker {w!r}")
    bl, bk = 1 << fn.index[wl], 1 << fn.index[wk]
    if wl == wk or smask & (bl | bk):
        raise ValueError("wl and wk must be distinct workers outside the subset")
    tmask = smask | bl | bk
    vals = fn.scaled
    if vals[smask | bl] + vals[smask | bk] >= vals[tmask] + vals[smask]:
        raise ValueError("triple does not violate submodularity for this firm")
    inside = fn.members(tmask)
    profile = adversarial_profile(m, firm, inside)
    solver = MarketSolver(m, profile)
    sol = solver.solution()
    canonical = hire_masks(m, sol.matching)[firm] == tmask
    matching = sol.matching if canonical else _exhibited_matching(m, profile, firm, inside)
    outcome = pivot_outcome(solver, matching)
    firm_payoffs, worker_payoffs = outcome_payoffs(m, outcome, profile)
    if not canonical:
        # salaries are transfers, so the payoffs add up to the realized surplus
        realized = sum((*firm_payoffs.values(), *worker_payoffs.values()), Fraction(0))
        if realized != sol.total:
            raise ConstructionError(
                f"exhibited assignment totals {realized}, the optimum is {sol.total}"
            )
    expected = {
        w: Fraction(vals[tmask] - vals[tmask ^ b], fn.den) for w, b in ((wl, bl), (wk, bk))
    }
    for w in (wl, wk):
        if outcome.salary[w] != expected[w]:
            raise ConstructionError(
                f"salary of {w} is {outcome.salary[w]}, expected {expected[w]}"
            )
    keep_s = fn.value(smask) - sum((outcome.salary[w] for w in fn.members(smask)), Fraction(0))
    gain = keep_s - firm_payoffs[firm]
    if gain <= 0:
        raise ConstructionError("firing the pair does not help after all")
    if check_outcome_sir(m, outcome, profile).verdict:
        raise ConstructionError("outcome is strongly individually rational after all")
    return AdversarialProfile(
        kind="sir",
        firm=firm,
        subset=fn.members(smask),
        pair=(wl, wk),
        profile=profile,
        outcome=outcome,
        canonical=canonical,
        summary={
            "hired": list(inside),
            "payments": {w: str(expected[w]) for w in (wl, wk)},
            "firing_gain": str(gain),
        },
    )


def _refuse_non_monotone(m: Market) -> None:
    """After a failed construction, blame a decreasing table, not the code.

    The constructions assume weakly increasing utilities, the target's and
    every co-firm's: the 0/ubar profile steers a worker away from a firm
    only if ubar bounds that firm's table. Monotonicity is checked only
    once a construction has failed, so monotone inputs pay nothing.
    """
    for name, fn in m.firms:
        if not fn.is_monotone():
            raise ValueError(
                f"firm {name}: monotone=no (the constructions need a weakly increasing table)"
            )


def demonstrate_ir_violation(m: Market, firm: str) -> AdversarialProfile:
    """Certificate that the firm's non-weak-substitutes utility breaks IR."""
    fn = m.utility(firm)
    witness = find_ws_violation(fn)
    if witness is None:
        raise ValueError(f"utility of firm {firm!r} satisfies weak substitutes")
    try:
        return construct_ir_violation(m, firm, witness)
    except ConstructionError:
        _refuse_non_monotone(m)
        raise


def demonstrate_sir_violation(m: Market, firm: str) -> AdversarialProfile:
    """Certificate that the firm's non-submodular utility breaks firing-proofness.

    Violating triples whose full set has strictly positive marginals
    throughout are tried first: their certificates are about the solver's
    own outcome. Triples with a zero-marginal member come after and yield
    exhibited-outcome certificates (see construct_sir_violation).
    """
    fn = m.utility(firm)
    vals = fn.scaled

    def by_preference() -> Iterator[tuple[int, int, int]]:
        deferred = []
        for hit in _submodularity_violations(fn):
            base, i, j = hit
            tmask = base | (1 << i) | (1 << j)
            if all(vals[tmask ^ (1 << b)] < vals[tmask] for b in bit_indices(tmask)):
                yield hit
            else:
                deferred.append(hit)
        yield from deferred

    tried = 0
    last: ConstructionError | None = None
    for base, i, j in by_preference():
        tried += 1
        try:
            return construct_sir_violation(
                m, firm, fn.members(base), fn.universe[i], fn.universe[j]
            )
        except ConstructionError as err:
            last = err
    if not tried:
        raise ValueError(f"utility of firm {firm!r} is submodular")
    _refuse_non_monotone(m)
    raise ConstructionError(
        f"none of the {tried} violating triples verified; last failure: {last}"
    )


# ---- seeded market families -------------------------------------------------


def _gen_additive(rng: random.Random, workers: tuple[str, ...]) -> SetFunction:
    return SetFunction.additive(
        workers, {w: Fraction(rng.randint(0, 8), 2) for w in workers}
    )


def _gen_budget_additive(rng: random.Random, workers: tuple[str, ...]) -> SetFunction:
    values = {w: Fraction(rng.randint(1, 8), 2) for w in workers}
    budget = Fraction(rng.randint(1, 10), 2)
    return SetFunction.budget_additive(workers, budget, values)


def _gen_unit_demand(rng: random.Random, workers: tuple[str, ...]) -> SetFunction:
    return SetFunction.unit_demand(
        workers, {w: Fraction(rng.randint(0, 8), 2) for w in workers}
    )


def _gen_random_submodular(rng: random.Random, workers: tuple[str, ...]) -> SetFunction:
    # concave-of-cardinality plus weighted coverage; both parts are
    # submodular and monotone, and sums preserve that. Halves are drawn as
    # their numerators, over den 2.
    n = len(workers)
    increments = sorted((rng.randint(0, 4) for _ in range(n)), reverse=True)
    prefix = [0]
    for inc in increments:
        prefix.append(prefix[-1] + inc)
    ground = n + rng.randint(1, n + 1)
    covers = [
        sum(1 << x for x in rng.sample(range(ground), rng.randint(0, min(3, ground))))
        for _ in workers
    ]
    weight = rng.randint(0, 2)
    sizes, covered = [0], [0]
    for cover in covers:
        sizes += [k + 1 for k in sizes]
        covered += [c | cover for c in covered]
    return SetFunction(
        workers,
        2,
        tuple([prefix[k] + weight * c.bit_count() for k, c in zip(sizes, covered)]),
    )


def _gen_random_monotone(rng: random.Random, workers: tuple[str, ...]) -> SetFunction:
    # each subset adds a bump (in halves, over den 2) to the largest value
    # one worker below it
    vals = [0]
    bumps = (0, 0, 1, 2, 4)
    choice = rng.choice
    for mask in range(1, 1 << len(workers)):
        base, rest = 0, mask
        while rest:
            low = rest & -rest
            below = vals[mask ^ low]
            if below > base:
                base = below
            rest ^= low
        vals.append(base + choice(bumps))
    return SetFunction(workers, 2, tuple(vals))


_FAMILIES = {
    "additive": _gen_additive,
    "budget_additive": _gen_budget_additive,
    "unit_demand": _gen_unit_demand,
    "random_submodular": _gen_random_submodular,
    "random_monotone": _gen_random_monotone,
}

GENERATOR_KINDS = tuple(sorted(_FAMILIES))


def generate(kind: str, n: int, m: int, seed: int = 0) -> Market:
    """Seeded market: n workers, m firms of the named family, disutilities
    drawn from the quarter grid {0, ubar/4, ..., ubar}.

    Same (kind, n, m, seed) always yields the same market.
    """
    if kind not in _FAMILIES:
        raise ValueError(f"unknown kind {kind!r}; choose one of {GENERATOR_KINDS}")
    if n < 0 or m < 0:
        raise ValueError("worker and firm counts must be nonnegative")
    check_worker_cap(n)
    check_entry_cap(m, n)
    import random  # only `gen` draws a market, so no other command loads it

    rng = random.Random(f"{kind}:{n}:{m}:{seed}")
    workers = tuple(f"w{i}" for i in range(1, n + 1))
    make = _FAMILIES[kind]
    firms = tuple((f"f{j}", make(rng, workers)) for j in range(1, m + 1))
    return Market(workers, firms, quarter_grid_profile(rng, Market(workers, firms)))


def quarter_grid_profile(rng: random.Random, m: Market) -> Profile:
    """Disutilities drawn from {0, ubar/4, ..., ubar}, worker by worker."""
    top = m.ubar
    grid = [top * Fraction(i, 4) for i in range(5)] if top > 0 else [Fraction(0)]
    entries = {w: {f: rng.choice(grid) for f in m.firm_names} for w in m.workers}
    return Profile.from_dict(m.workers, m.firm_names, entries)
