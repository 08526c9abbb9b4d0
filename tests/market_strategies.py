"""Hypothesis strategies for whole markets, shared by the property tests.

Markets come from two sources: independent monotone tables with
disutilities over mixed denominators (value and cost grids often line up,
so ties between pools are common), and the seeded generator families.
Disutilities may exceed ubar; the engine solves any nonnegative profile
that fits the market, so callers solve them as they are.
"""

from fractions import Fraction

from hypothesis import strategies as st

from jobmarket.model import Market, Profile, SetFunction
from jobmarket.necessity import GENERATOR_KINDS, generate
from jobmarket.subsets import bit_indices

DENOMINATORS = ((1,), (1, 2), (1, 2, 3, 4, 6))


@st.composite
def random_markets(draw, max_n: int = 6, max_m: int = 4) -> Market:
    n = draw(st.integers(0, max_n))
    nfirms = draw(st.integers(0, max_m))
    dens = st.sampled_from(draw(st.sampled_from(DENOMINATORS)))
    bump = st.builds(Fraction, st.sampled_from((0, 0, 1, 1, 2, 3)), dens)
    cost = st.builds(Fraction, st.integers(0, 4), dens)
    workers = tuple(f"w{i}" for i in range(1, n + 1))
    names = tuple(f"f{j}" for j in range(1, nfirms + 1))
    firms = []
    for name in names:
        vals = [Fraction(0)] * (1 << n)
        for mask in range(1, 1 << n):
            floor = max(vals[mask ^ (1 << i)] for i in bit_indices(mask))
            vals[mask] = floor + draw(bump)
        firms.append((name, SetFunction(workers, tuple(vals))))
    entries = {w: {f: draw(cost) for f in names} for w in workers}
    return Market(workers, tuple(firms), Profile.from_dict(workers, names, entries))


def generated_markets(max_n: int = 6, max_m: int = 4):
    return st.builds(
        generate,
        st.sampled_from(GENERATOR_KINDS),
        st.integers(0, max_n),
        st.integers(0, max_m),
        st.integers(0, 10**6),
    )


def markets(max_n: int = 6, max_m: int = 4):
    return st.one_of(random_markets(max_n, max_m), generated_markets(max_n, max_m))
