"""Exact metamorphic relations of the model, on generated markets of 9 to
12 workers, where the exhaustive cross-checks cannot run.

Each relation follows from the model alone, so it needs no oracle:

- **Scaling.** Multiply every utility and every disutility by a rational
  c > 0. Every comparison keeps its sign, so `classify` gives the same
  verdicts and witness sets, with every witness value times c, and `vcg`
  the same matching and tie-break flag, with the total, every salary,
  payoff and excluded surplus times c.
  `find_block` on an outcome with every salary times c gives the same
  firm and coalition, with the slack and every payment times c. At
  c = 10^30 the surplus tables' drop test and the blocking walk pack
  their tables into lanes many bytes wide.
- **Modular shift.** Add a_{f,w} >= 0 to u_f(S) for each w in S, and the
  same a_{f,w} to w's disutility at f. The surplus of every firm and set is
  unchanged, so `vcg` gives the same matching, total and payoffs, and a
  hired worker's salary rises by a_{f,w} at their firm f. A modular term
  cancels from every inequality the classifiers test, so `classify` gives
  the same verdicts and witness sets; with a >= 0 every table stays
  monotone. With each hire's salary raised by the same a_{f,w}, every
  payoff is unchanged, and so is every excess `find_block` tests: a block
  exists on the image exactly when one does on the market.
"""

import random
from fractions import Fraction

import pytest

from jobmarket.model import Market, Outcome, Profile, SetFunction
from jobmarket.necessity import GENERATOR_KINDS, generate
from jobmarket.pivot import vcg
from jobmarket.setfn import classify
from jobmarket.stability import find_block
from jobmarket.subsets import subset_sums

#: (kind, workers, firms, seed): every kind at 9 to 12 workers
MARKETS = [
    (kind, 9 + (t + k) % 4, 1 + (t + k) % 3, 7 * t + k)
    for k, kind in enumerate(GENERATOR_KINDS)
    for t in range(3)
]


def _transformed(m: Market, utility, disutility) -> Market:
    """m with firm j's utility `utility(j, fn)` and worker i's disutility at
    firm j `disutility(i, j, d)`."""
    firms = tuple((name, utility(j, fn)) for j, (name, fn) in enumerate(m.firms))
    rows = tuple(
        tuple(disutility(i, j, d) for j, d in enumerate(row))
        for i, row in enumerate(m.disutilities.rows)
    )
    return Market(m.workers, firms, Profile(m.workers, m.firm_names, rows))


def _scaled(m: Market, c: Fraction) -> Market:
    return _transformed(
        m,
        lambda j, fn: SetFunction(
            fn.universe, fn.den * c.denominator, tuple(v * c.numerator for v in fn.scaled)
        ),
        lambda i, j, d: d * c,
    )


def _shifted(m: Market, a: list[list[Fraction]]) -> Market:
    """m with the modular term a[j][i] added to firm j's utility of every
    set holding worker i, and to worker i's disutility at firm j."""
    return _transformed(
        m,
        lambda j, fn: SetFunction.from_values(
            fn.universe, [v + s for v, s in zip(fn.values, subset_sums(a[j], Fraction(0)))]
        ),
        lambda i, j, d: d + a[j][i],
    )


def _split(witness: dict) -> tuple[dict, dict]:
    """A witness's sets and worker, and its values as rationals."""
    sets = {k: v for k, v in witness.items() if isinstance(v, list) or k == "worker"}
    return sets, {k: Fraction(v) for k, v in witness.items() if k not in sets}


def _classify_relation(m: Market, image: Market, factor) -> None:
    """Firm by firm, `classify` on `image` gives the verdicts and witness
    sets of `m`; each witness value maps to factor(value), or is left
    unchecked when factor is None."""
    for (name, fn), (_, fn2) in zip(m.firms, image.firms):
        chain, chain2 = classify(fn), classify(fn2)
        assert list(chain) == list(chain2), name
        for cls, report in chain.items():
            report2 = chain2[cls]
            assert report.verdict == report2.verdict, (name, cls)
            if report.verdict:
                continue
            sets, values = _split(report.witness)
            sets2, values2 = _split(report2.witness)
            assert sets == sets2, (name, cls)
            if factor is not None:
                assert values2 == {k: factor(v) for k, v in values.items()}, (name, cls)


def _label(spec) -> str:
    return "-".join(map(str, spec))


@pytest.mark.parametrize("spec", MARKETS, ids=_label)
def test_scaling_multiplies_every_value_and_keeps_every_choice(spec):
    m = generate(*spec)
    rng = random.Random(_label(spec))
    c = Fraction(rng.randint(1, 12), rng.randint(1, 12))
    image = _scaled(m, c)
    _classify_relation(m, image, lambda v: v * c)
    r, r2 = vcg(m), vcg(image)
    assert r2.outcome.matching == r.outcome.matching
    assert r2.ties_broken == r.ties_broken
    assert r2.total == r.total * c
    for pairs, pairs2 in (
        (r.outcome.salaries, r2.outcome.salaries),
        (r.worker_payoffs, r2.worker_payoffs),
        (r.firm_payoffs, r2.firm_payoffs),
        (r.surplus_excluding, r2.surplus_excluding),
    ):
        assert pairs2 == tuple((who, x * c) for who, x in pairs)


@pytest.mark.parametrize("spec", MARKETS, ids=_label)
def test_a_modular_shift_moves_only_the_salaries(spec):
    m = generate(*spec)
    rng = random.Random(_label(spec))
    a = [
        [Fraction(rng.choice((0, 0, 1, 2, 5)), rng.randint(1, 4)) for _ in m.workers]
        for _ in m.firms
    ]
    image = _shifted(m, a)
    _classify_relation(m, image, None)
    r, r2 = vcg(m), vcg(image)
    assert r2.outcome.matching == r.outcome.matching
    assert r2.ties_broken == r.ties_broken
    assert r2.total == r.total
    assert r2.worker_payoffs == r.worker_payoffs
    assert r2.firm_payoffs == r.firm_payoffs
    firm_index = {name: j for j, name in enumerate(m.firm_names)}
    for i, w in enumerate(m.workers):
        firm = r.outcome.matching.firm_of(w)
        rise = 0 if firm is None else a[firm_index[firm]][i]
        assert r2.salary(w) == r.salary(w) + rise, w


def _outcomes(m: Market) -> list[Outcome]:
    """The pivot outcome, and its matching with every salary halved, which
    leaves the hires cheap to raid, so that blocks turn up."""
    o = vcg(m).outcome
    halved = {w: s / 2 for w, s in o.salaries}
    return [o, Outcome.build(o.matching, halved)]


def _repriced(o: Outcome, salary) -> Outcome:
    """o with each worker's salary `salary(worker, firm, s)`."""
    firms = dict(o.matching.assignment)
    return Outcome.build(o.matching, {w: salary(w, firms[w], s) for w, s in o.salaries})


@pytest.mark.parametrize("spec", MARKETS, ids=_label)
def test_scaling_multiplies_every_block(spec):
    m = generate(*spec)
    rng = random.Random(_label(spec))
    for c in (Fraction(rng.randint(1, 12), rng.randint(1, 12)), Fraction(10**30)):
        image = _scaled(m, c)
        assert vcg(image).outcome == _repriced(vcg(m).outcome, lambda w, f, s: s * c)
        for o in _outcomes(m):
            block = find_block(m, o)
            block2 = find_block(image, _repriced(o, lambda w, f, s: s * c))
            assert (block is None) == (block2 is None)
            if block is None:
                continue
            assert (block2.firm, block2.coalition) == (block.firm, block.coalition)
            assert block2.slack == block.slack * c
            assert block2.payments == tuple((w, p * c) for w, p in block.payments)


@pytest.mark.parametrize("spec", MARKETS, ids=_label)
def test_a_modular_shift_keeps_every_block(spec):
    m = generate(*spec)
    rng = random.Random(_label(spec))
    a = [
        [Fraction(rng.choice((0, 0, 1, 2, 5)), rng.randint(1, 4)) for _ in m.workers]
        for _ in m.firms
    ]
    image = _shifted(m, a)
    firm_index = {name: j for j, name in enumerate(m.firm_names)}
    index = m.worker_index

    def raised(w, f, s):
        return s if f is None else s + a[firm_index[f]][index[w]]

    assert vcg(image).outcome == _repriced(vcg(m).outcome, raised)
    for o in _outcomes(m):
        block = find_block(m, o)
        block2 = find_block(image, _repriced(o, raised))
        assert (block is None) == (block2 is None)
        if block is None:
            continue
        assert (block2.firm, block2.coalition, block2.slack) == (
            block.firm, block.coalition, block.slack,
        )
        assert block2.payments == tuple((w, raised(w, block.firm, p)) for w, p in block.payments)
