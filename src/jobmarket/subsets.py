"""Bitmask helpers for subsets of an ordered worker universe.

Subsets of the universe (w_0, ..., w_{n-1}) are encoded as ints: bit i set
means w_i is in the subset. The encoding is a bijection between masks
0..2^n-1 and subsets, which keeps set-function tables flat and cheap.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence


def mask_of(universe_index: dict[str, int], workers: Iterable[str]) -> int:
    """Encode an iterable of worker ids as a mask. Rejects unknown ids."""
    mask = 0
    for w in workers:
        try:
            bit = 1 << universe_index[w]
        except KeyError:
            raise ValueError(f"unknown worker {w!r}") from None
        if mask & bit:
            raise ValueError(f"duplicate worker {w!r}")
        mask |= bit
    return mask


def members(mask: int, universe: Sequence[str]) -> tuple[str, ...]:
    """Decode a mask to worker ids in universe order."""
    return tuple(universe[i] for i in range(len(universe)) if mask >> i & 1)


def subset_sums(weights: Sequence[Any], zero: Any = 0) -> list[Any]:
    """sums[mask] = sum of weights[i] over the bits i of mask, one addition
    per mask: the mask less its lowest bit is already summed."""
    sums = [zero] * (1 << len(weights))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + weights[low.bit_length() - 1]
    return sums


def bit_indices(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    m = mask
    while m:
        if m & 1:
            out.append(i)
        m >>= 1
        i += 1
    return tuple(out)


def canonical_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Tie-break key: cardinality first, then lexicographic by worker index."""
    return (mask.bit_count(), bit_indices(mask))
