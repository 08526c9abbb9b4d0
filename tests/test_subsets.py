"""The per-bit slice kernels of subsets.py against per-mask references."""

import random
from fractions import Fraction

import pytest

from jobmarket.subsets import bit_halves, bit_marginals, drop_bit, submask_max, subset_sums


def _submasks(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _reference_sums(weights, zero):
    """One addition per mask: the mask less its lowest bit is already summed."""
    sums = [zero] * (1 << len(weights))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + weights[low.bit_length() - 1]
    return sums


@pytest.mark.parametrize("n", range(11))
def test_bit_halves_pair_each_mask_with_its_bit_once(n):
    size = 1 << n
    masks = range(size)
    for i in range(n):
        bit = 1 << i
        pairs = list(bit_halves(size, bit))
        # the fewer of the two ways to cut the table: blocks or strides
        assert len(pairs) == min(bit, size // (2 * bit))
        seen = []
        for lo, hi in pairs:
            los, his = masks[lo], masks[hi]
            assert len(los) == len(his)
            assert all(not a & bit and b == a | bit for a, b in zip(los, his))
            seen += [*los, *his]
        assert sorted(seen) == list(masks)


@pytest.mark.parametrize("n", range(11))
def test_bit_marginals_list_the_masks_without_the_bit_ascending(n):
    rng = random.Random(200 + n)
    vals = [rng.randint(-50, 50) for _ in range(1 << n)]
    for i in range(n):
        bit = 1 << i
        without = [m for m in range(1 << n) if not m & bit]
        base, marginal = bit_marginals(vals, bit)
        assert base == [vals[m] for m in without]
        assert marginal == [vals[m | bit] - vals[m] for m in without]
        assert drop_bit(vals, bit) == base


@pytest.mark.parametrize("n", range(9))
def test_subset_sums_match_per_mask_reference(n):
    rng = random.Random(n)
    ints = [rng.randint(-50, 50) for _ in range(n)]
    assert subset_sums(ints) == _reference_sums(ints, 0)
    fracs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
    sums = subset_sums(fracs, Fraction(0))
    assert sums == _reference_sums(fracs, Fraction(0))
    assert all(type(s) is Fraction for s in sums)


@pytest.mark.parametrize("n", range(9))
def test_submask_max_matches_brute_force(n):
    rng = random.Random(100 + n)
    for spread in (3, 1000):  # a narrow range makes ties common
        vals = [rng.randint(-spread, spread) for _ in range(1 << n)]
        best = [max(vals[s] for s in _submasks(m)) for m in range(1 << n)]
        assert submask_max(vals) == best
    assert submask_max([-7]) == [-7]


@pytest.mark.parametrize("n", range(1, 8))
def test_submask_max_keeps_the_largest_tied_submask(n):
    # 1 and Fraction(1) compare equal but are told apart by type, so the
    # reference pins which submask's entry a tie keeps
    rng = random.Random(200 + n)
    vals = [rng.choice([0, 1, Fraction(0), Fraction(1)]) for _ in range(1 << n)]
    kept = [vals[max(_submasks(m), key=lambda s: (vals[s], s))] for m in range(1 << n)]
    out = submask_max(vals)
    assert [(v, type(v)) for v in out] == [(v, type(v)) for v in kept]
