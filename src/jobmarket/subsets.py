"""Bitmask helpers for subsets of an ordered worker universe.

Subsets of the universe (w_0, ..., w_{n-1}) are encoded as ints: bit i set
means w_i is in the subset. The encoding is a bijection between masks
0..2^n-1 and subsets, which keeps set-function tables flat and cheap.
Whole-table passes run per bit over `bit_halves` slices, O(n 2^n) element
steps in list comprehensions, not one interpreted turn per mask.

The exact-integer kernels go further: `pack_lanes` packs a table into one
int of fixed-width lanes, lane m holding vals[m] - min(vals), so that one
big-int operation acts on all 2^n entries at once, in C. The classify
kernels (`model`, `setfn`), the surplus tables' drop test (`surplus`) and
the blocking walk (`stability`) run on it. Shifting the packed int right
by `width` * 2^b bits puts the entry at m | 2^b in lane m; adding
2^(width-1) per lane (`lane_tops`) to a difference of such ints sets a
lane's top bit exactly when the lane's value is >= 0, as long as the
width leaves every lane expression room below that bit (the `headroom`,
or a width the caller asks for); and `lanes_without` masks the top bits
of the lanes whose mask lacks a bit b, each mask from the one for the bit
above by a shift and an xor, so a kernel that walks the bits down holds
one mask at a time. A kernel's cost is then its count of big-int
operations, each linear in the 2^n * width bits of the table.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat
from operator import sub

_BYTE_VALUES = bytes(range(256))
_PACK_CHUNK = 1 << 12


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


def insert_bit(vals: Sequence[int], bit: int) -> list[int]:
    """The table twice the size in which both m and m | `bit` read vals at
    m with `bit` squeezed out, so the new bit changes no value. Copied by
    `bit_halves` slices: each pair reads every `bit`-th entry of vals from
    its start (strided), or a run of `bit` entries (blocks)."""
    out = [0] * (len(vals) << 1)
    for lo, hi in bit_halves(len(out), bit):
        start = lo.start if lo.start < bit else lo.start >> 1
        out[lo] = out[hi] = vals[start::bit] if lo.step else vals[start : start + bit]
    return out


def subset_sums(weights: Sequence[int]) -> list[int]:
    """sums[mask] = sum of weights[i] over the bits i of mask, one addition
    per mask: each weight doubles the table, sums[mask | bit i] from mask."""
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def submask_max(vals: Sequence[int]) -> list[int]:
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


def pack_lanes(vals: Sequence[int], headroom: int, width: int = 0) -> tuple[int, int]:
    """(packed, width): the table `vals` as one int, lane m (bits
    width * m and up) holding vals[m] - min(vals).

    The width is the fewest whole bytes that hold the range max - min
    with `headroom` bits above it, and at least `width` bits. A lane
    expression within 2^(headroom-1) times the range, plus 2^(width-1) or
    2^(width-1) - 1, then stays in [0, 2^width) and carries nothing into
    its neighbour.

    A table with vals[0] = 0 whose entries all fit in a byte has min 0,
    and is read as a bytearray (twice as fast as `bytes` from a tuple of
    ints): one `translate` per lane width tried finds the fewest bytes its
    range fits, as it does on the generator's tables (h(empty) = 0, small
    values), and lanes wider than a byte are spread from the octets by one
    strided assignment. No min and max
    pass, which costs more than the packing. Any other table pays min and
    max, and its lanes are written entry by entry, `_PACK_CHUNK` entries
    to a bytes object, so the per-entry bytes alive at once stay few at
    the worker cap.
    """
    try:
        octets = bytearray(vals) if vals[0] == 0 else b""
    except ValueError:  # an entry outside 0..255
        octets = b""
    if octets:
        # the range is max(vals) < 2^8: nbytes-byte lanes hold it when
        # every entry is below 2^(8 nbytes - headroom)
        nbytes = max(1, (width + 7) >> 3)
        while (room := (nbytes << 3) - headroom) < 8 and (
            room < 0 or octets.translate(None, _BYTE_VALUES[: 1 << room])
        ):
            nbytes += 1
        if nbytes == 1:
            return int.from_bytes(octets, "little"), 8
        spread = bytearray(len(octets) * nbytes)
        spread[::nbytes] = octets
        return int.from_bytes(spread, "little"), nbytes << 3
    low = min(vals)
    nbytes = max((max(vals) - low).bit_length() + headroom, width) + 7 >> 3
    chunks = (vals[s : s + _PACK_CHUNK] for s in range(0, len(vals), _PACK_CHUNK))
    data = b"".join(
        b"".join(map(int.to_bytes, map(sub, chunk, repeat(low)), repeat(nbytes), repeat("little")))
        for chunk in chunks
    )
    return int.from_bytes(data, "little"), nbytes << 3


def lane_tops(width: int, size: int, run: int = 0) -> int:
    """The top bit of each of `size` lanes of `width` bits (whole bytes):
    2^(width-1) per lane. Added to a lane value v with |v| < 2^(width-1),
    it leaves the lane's top bit set exactly when v >= 0. With a `run` of
    2^b, only the lanes m < `size` without bit b: the first `run` lanes of
    every 2 * `run`."""
    lane = bytes((width >> 3) - 1) + b"\x80"
    if run:
        block = lane * run + bytes(len(lane) * run)
        return int.from_bytes(block * (size // (run << 1)), "little")
    return int.from_bytes(lane * size, "little")


def lanes_without(width: int, n: int) -> Iterator[tuple[int, int]]:
    """(b, tops) for b = n - 1 down to 0: the top bits of the lanes m < 2^n
    without bit b. The first is the low half of the lanes; each next one
    is the last xor itself shifted by 2^(b-1) lanes, as 0x00ff gives 0x0f0f."""
    tops = lane_tops(width, 1 << n >> 1)
    for b in reversed(range(n)):
        yield b, tops
        if b:
            tops ^= tops << (width << b - 1)
