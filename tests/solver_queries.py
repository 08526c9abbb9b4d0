"""Queries on the surplus program that only the tests ask."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from jobmarket.model import Market, Profile
from jobmarket.surplus import MarketSolver


def max_surplus_excluding(
    m: Market, u: Optional[Profile] = None, excluded: Iterable[str] = ()
) -> Fraction:
    """Best total surplus once the excluded workers leave the market."""
    solver = MarketSolver(m, u)
    index = m.worker_index
    mask = 0
    for w in excluded:
        if w not in index:
            raise ValueError(f"unknown worker {w!r}")
        mask |= 1 << index[w]
    return solver.value_excluding_mask(mask)
