"""Bitmask helpers for subsets of an ordered worker universe.

Subsets of the universe (w_0, ..., w_{n-1}) are encoded as ints: bit i set
means w_i is in the subset. The encoding is a bijection between masks
0..2^n-1 and subsets, which keeps set-function tables flat and cheap.
Whole-table kernels run one pass per bit over `bit_halves` slices, O(n 2^n)
element steps in list comprehensions, not one interpreted turn per mask.
"""

from __future__ import annotations

from operator import sub
from typing import Any, Iterable, Iterator, Sequence


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


def bit_halves(size: int, bit: int) -> Iterator[tuple[slice, slice]]:
    """(without-bit, with-bit) slice pairs, hi[i] = lo[i] | bit, covering
    `size` masks once: the contiguous blocks, or the `bit` strided slices
    when those are fewer."""
    step = bit << 1
    if bit * step < size:
        return ((slice(j, None, step), slice(j + bit, None, step)) for j in range(bit))
    return ((slice(b, b + bit), slice(b + bit, b + step)) for b in range(0, size, step))


def _squeezed_halves(size: int, bit: int) -> Iterator[tuple[slice, slice, slice]]:
    """`bit_halves` pairs, each with the slice its without-bit entries fill
    in the half-size table that has `bit` squeezed out: a strided slice
    lands every `bit`-th entry, a block lands contiguously."""
    for lo, hi in bit_halves(size, bit):
        start = lo.start if lo.start < bit else lo.start >> 1
        yield lo, hi, slice(start, None, bit) if lo.step else slice(start, start + bit)


def bit_marginals(vals: Sequence[Any], bit: int) -> tuple[list[Any], list[Any]]:
    """(base, marginal): vals[m] and vals[m | bit] - vals[m] over the masks m
    without `bit`, two lists ascending in m, so each entry sits at m with
    `bit` squeezed out. Copied and subtracted by `bit_halves` slices."""
    half = len(vals) >> 1
    base, marginal = [0] * half, [0] * half
    for lo, hi, dst in _squeezed_halves(len(vals), bit):
        without = vals[lo]
        base[dst] = without
        marginal[dst] = map(sub, vals[hi], without)
    return base, marginal


def drop_bit(vals: Sequence[Any], bit: int) -> list[Any]:
    """vals at the masks without `bit`, ascending: the table with `bit`
    squeezed out, copied by the slices of `bit_marginals`' base."""
    base = [0] * (len(vals) >> 1)
    for lo, _, dst in _squeezed_halves(len(vals), bit):
        base[dst] = vals[lo]
    return base


def subset_sums(weights: Sequence[Any], zero: Any = 0) -> list[Any]:
    """sums[mask] = sum of weights[i] over the bits i of mask, one addition
    per mask: each weight doubles the table, sums[mask | bit i] from mask."""
    sums = [zero]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def submask_max(vals: Sequence[Any]) -> list[Any]:
    """out[mask] = max of vals over the submasks of mask (len(vals) = 2^n),
    by one pass per bit (a zeta transform); ties keep the largest submask."""
    out = list(vals)
    for i in range(len(out).bit_length() - 1):
        for lo, hi in bit_halves(len(out), 1 << i):
            out[hi] = [b if b >= a else a for a, b in zip(out[lo], out[hi])]
    return out


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
