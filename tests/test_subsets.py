"""The per-bit slice kernels and the lane packing of subsets.py against
per-mask references."""

import random
from fractions import Fraction

import pytest

from jobmarket import subsets
from jobmarket.subsets import (
    bit_halves,
    insert_bit,
    lane_tops,
    lanes_without,
    pack_lanes,
    submask_max,
    subset_sums,
)


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
def test_insert_bit_is_the_inverse_of_drop_bit(n):
    rng = random.Random(300 + n)
    vals = [rng.randint(-50, 50) for _ in range(1 << n)]
    for i in range(n + 1):
        bit = 1 << i
        low = bit - 1
        out = insert_bit(vals, bit)
        # m and m | bit both read vals at m with bit squeezed out
        assert out == [vals[m & low | (m >> 1) & ~low] for m in range(2 << n)]
        # so the masks without the bit, ascending, give vals back
        assert [out[m] for m in range(2 << n) if not m & bit] == vals


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


def _unpacked(packed, width, size):
    return [packed >> width * m & (1 << width) - 1 for m in range(size)]


@pytest.mark.parametrize("n", range(11))
def test_each_lane_holds_its_entry_less_the_minimum(n):
    rng = random.Random(400 + n)
    size = 1 << n
    tables = (
        [0] + [rng.randint(0, 31) for _ in range(size - 1)],  # read as bytes
        [0] + [rng.randint(0, 255) for _ in range(size - 1)],
        [rng.randint(-50, 50) for _ in range(size)],
        [7] * size,
        [rng.randint(0, 9) for _ in range(size - 1)] + [70_000],
        [rng.randint(0, 9) for _ in range(size - 1)] + [1 << 40],
        [rng.randint(-(1 << 70), 1 << 70) for _ in range(size)],  # lanes past 64 bits
    )
    for vals in tables:
        low = min(vals)
        for headroom in (1, 2, 3):
            packed, width = pack_lanes(vals, headroom)
            # the fewest whole bytes above the range and the headroom
            assert width == 8 * -(-((max(vals) - low).bit_length() + headroom) // 8)
            assert packed >> width * size == 0
            assert _unpacked(packed, width, size) == [v - low for v in vals]


@pytest.mark.parametrize("n", range(7))
def test_lanes_take_the_width_asked_for(n):
    # the byte path widens its one-byte lanes by a strided copy; a headroom
    # of 8 bits or more sends no table through one-byte lanes
    rng = random.Random(500 + n)
    size = 1 << n
    tables = (
        [0] * size,
        [0] + [rng.randint(0, 15) for _ in range(size - 1)],  # read as bytes
        [0] + [rng.randint(0, 255) for _ in range(size - 1)],
        [rng.randint(-50, 50) for _ in range(size)],
        [rng.randint(-(1 << 70), 1 << 70) for _ in range(size)],
    )
    for vals in tables:
        low = min(vals)
        for headroom in (1, 2, 4, 8, 10):
            for floor in (0, 8, 9, 16, 17, 72, 80):
                packed, width = pack_lanes(vals, headroom, floor)
                bits = max((max(vals) - low).bit_length() + headroom, floor)
                assert width == 8 * -(-bits // 8)
                assert packed >> width * size == 0
                assert _unpacked(packed, width, size) == [v - low for v in vals]


def test_lanes_written_in_chunks_join_in_mask_order(monkeypatch):
    # chunks of 3 entries: tables of 2^n entries end on a short chunk
    monkeypatch.setattr(subsets, "_PACK_CHUNK", 3)
    rng = random.Random(7)
    for n in range(7):
        vals = [rng.randint(-(1 << 20), 1 << 20) for _ in range(1 << n)]
        packed, width = pack_lanes(vals, 2)
        assert _unpacked(packed, width, 1 << n) == [v - min(vals) for v in vals]


@pytest.mark.parametrize("n", range(8))
def test_lane_masks_mark_the_top_bit_of_the_chosen_lanes(n):
    for width in (8, 16, 72):
        top = 1 << width - 1
        assert lane_tops(width, 1 << n) == sum(top << width * m for m in range(1 << n))
        for b in range(n):
            assert lane_tops(width, 1 << n, 1 << b) == sum(
                top << width * m for m in range(1 << n) if not m >> b & 1
            )
        masks = list(lanes_without(width, n))
        assert [b for b, _ in masks] == list(reversed(range(n)))
        for b, tops in masks:
            assert tops == sum(top << width * m for m in range(1 << n) if not m >> b & 1)
