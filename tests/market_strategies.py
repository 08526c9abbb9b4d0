"""Hypothesis strategies for whole markets, shared by the property tests.

Markets come from three sources: independent monotone tables with
disutilities over mixed denominators (value and cost grids often line up,
so ties between pools are common), strictly increasing tables under a zero
profile (every set is tight, the surplus program's worst case), and the
seeded generator families.
Disutilities may exceed ubar; the engine solves any nonnegative profile
that fits the market, so callers solve them as they are.

Outcomes for a drawn market pay salaries over denominators no market
uses, so the integer scans must clear them with the market's own.
"""

from fractions import Fraction

from hypothesis import strategies as st

from jobmarket.model import Market, Matching, Outcome, Profile, SetFunction
from jobmarket.necessity import GENERATOR_KINDS, generate
from jobmarket.subsets import bit_indices

DENOMINATORS = ((1,), (1, 2), (1, 2, 3, 4, 6))

#: salary denominators no drawn market uses
FOREIGN_DENOMINATORS = (5, 7, 11, 13)


def sizes(top: int, floor: int):
    """Any size in [0, top] half the time, else one in [floor, top], so the
    sizes where the program branches (n >= 4 workers, m >= 3 firms) come up
    in most examples while 0 and 1 stay reachable."""
    return st.integers(0, top) | st.integers(min(floor, top), top)


@st.composite
def random_markets(draw, max_n: int = 6, max_m: int = 4, all_tight: bool = False) -> Market:
    """Monotone tables; with all_tight, strictly increasing tables and a
    zero profile, so that every set is tight for every firm."""
    n = draw(sizes(max_n, 4))
    nfirms = draw(sizes(max_m, 3))
    dens = st.sampled_from(draw(st.sampled_from(DENOMINATORS)))
    steps = (1, 1, 2, 3) if all_tight else (0, 0, 1, 1, 2, 3)
    bump = st.builds(Fraction, st.sampled_from(steps), dens)
    cost = st.just(Fraction(0)) if all_tight else st.builds(Fraction, st.integers(0, 4), dens)
    workers = tuple(f"w{i}" for i in range(1, n + 1))
    names = tuple(f"f{j}" for j in range(1, nfirms + 1))
    firms = []
    for name in names:
        vals = [Fraction(0)] * (1 << n)
        for mask in range(1, 1 << n):
            floor = max(vals[mask ^ (1 << i)] for i in bit_indices(mask))
            vals[mask] = floor + draw(bump)
        firms.append((name, SetFunction.from_values(workers, tuple(vals))))
    entries = {w: {f: draw(cost) for f in names} for w in workers}
    return Market(workers, tuple(firms), Profile.from_dict(workers, names, entries))


def generated_markets(max_n: int = 6, max_m: int = 4):
    return st.builds(
        generate,
        st.sampled_from(GENERATOR_KINDS),
        sizes(max_n, 4),
        sizes(max_m, 3),
        st.integers(0, 10**6),
    )


def markets(max_n: int = 6, max_m: int = 4):
    return st.one_of(
        random_markets(max_n, max_m),
        random_markets(max_n, max_m, all_tight=True),
        generated_markets(max_n, max_m),
    )


@st.composite
def arbitrary_outcomes(draw, m: Market) -> Outcome:
    """Any matching, with salaries over denominators the market never uses."""
    firm = st.sampled_from((None,) + m.firm_names)
    salary = st.builds(
        Fraction, st.integers(0, 40), st.sampled_from((1,) + FOREIGN_DENOMINATORS)
    )
    assignment = {w: draw(firm) for w in m.workers}
    salaries = {w: draw(salary) for w, f in assignment.items() if f is not None}
    return Outcome.build(Matching.from_dict(m.workers, assignment), salaries)


@st.composite
def rational_outcomes(draw, m: Market) -> tuple[Outcome, Profile]:
    """An outcome and a profile under which every agent is individually
    rational, so the firing check always runs past its IR step.

    Each hire is paid at most their firm's average value per hire, which
    often exceeds their marginal value (a firing gain), and their
    disutility there is cut to their salary when it is higher.
    """
    firm = st.sampled_from((None,) + m.firm_names)
    assignment = {w: draw(firm) for w in m.workers}
    salaries = {}
    for name, fn in m.firms:
        hired = [w for w in m.workers if assignment[w] == name]
        if hired:
            den = draw(st.sampled_from(FOREIGN_DENOMINATORS))
            top = int(fn.subset_value(hired) * den / len(hired))
            for w in hired:
                salaries[w] = Fraction(draw(st.integers(0, top)), den)
    profile = m.disutilities
    entries = {
        w: {
            f: min(d, salaries[w]) if assignment[w] == f else d
            for f, d in zip(m.firm_names, profile.row(w))
        }
        for w in m.workers
    }
    outcome = Outcome.build(Matching.from_dict(m.workers, assignment), salaries)
    return outcome, Profile.from_dict(m.workers, m.firm_names, entries)
