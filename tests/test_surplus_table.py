"""The per-firm surplus kernel `_int_surplus_table` against the full table.

The kernel drops every worker whose marginal raw value is negative on
every pool of the workers left, runs the submask max on the survivors'
table only and spreads it back. It takes the utility table unscaled with
the factor that scales it, and tests each worker on the unscaled table.
The reference here is the plain full computation: the scaled raw table
over all 2^n masks, its submask max and the masks where the two agree.
Every case is deterministic.
"""

import random

import pytest

import jobmarket.surplus as surplus
from jobmarket.subsets import drop_bit, submask_max, subset_sums
from jobmarket.surplus import _int_surplus_table


def _reference(values, costs, factor=1):
    raw = [v * factor - c for v, c in zip(values, subset_sums(costs))]
    vf = submask_max(raw)
    return vf, [mask for mask, (r, v) in enumerate(zip(raw, vf)) if r == v]


def _check(values, costs):
    got = _int_surplus_table(values, 1, costs)
    assert got == _reference(values, costs)
    return got


def _single_bump(n, b, pool, cost):
    """u is 0 except u(pool + b) = 5, so b's marginal is 5 at `pool` and at
    most 0 elsewhere; b costs `cost`, the others 0 or 1 by parity."""
    values = [0] * (1 << n)
    values[pool | 1 << b] = 5
    costs = [i % 2 for i in range(n)]
    costs[b] = cost
    return values, costs


def _pools(n, b):
    """(name, pool) for b's one profitable pool: empty, every other worker,
    and one in the middle of the lattice (every other worker by parity)."""
    rest = ((1 << n) - 1) ^ (1 << b)
    yield "empty", 0
    yield "all others", rest
    if n >= 3:
        yield "middle", rest & 0x155


@pytest.mark.parametrize("n", range(1, 11))
def test_one_profitable_pool_keeps_the_worker_on_a_tie(n):
    for b in sorted({0, n // 2, n - 1}):
        for name, pool in _pools(n, b):
            for cost in (4, 5, 6):  # below, equal to and above b's best marginal
                values, costs = _single_bump(n, b, pool, cost)
                _, tight = _check(values, costs)
                hired = pool | 1 << b
                # b pays (or breaks even) only next to `pool`, and then
                # pool + b is tight exactly when it beats or ties the rest
                assert (hired in tight) == (cost <= 5 - sum(costs[i] for i in range(n) if pool >> i & 1)), (
                    name, b, cost,
                )


@pytest.mark.parametrize("n", range(2, 11))
def test_worker_dominated_only_once_another_is_dropped(n):
    # only the full set has value; the top worker costs more than it is
    # worth, so it goes first, and then every other worker's marginal is
    # -1 everywhere, though on the whole table each pays 9 at W less itself
    values = [0] * (1 << n)
    values[-1] = 10
    costs = [1] * (n - 1) + [10 * n]
    full = (1 << n) - 1
    raw = [v - c for v, c in zip(values, subset_sums(costs))]
    assert raw[full] - raw[full ^ 1] == 9
    vf, tight = _check(values, costs)
    assert tight == [0] and vf == [0] * (1 << n)


@pytest.mark.parametrize("n", range(1, 11))
def test_dropped_worker_below_kept_ones(n):
    # worker 0 costs more than any marginal; the others are free and add 1
    # each, so the survivors' table sits above a squeezed-out bit
    values = subset_sums([3] + [1] * (n - 1))
    costs = [4] + [0] * (n - 1)
    _, tight = _check(values, costs)
    assert tight == [m for m in range(1 << n) if not m & 1]


@pytest.mark.parametrize("n", range(0, 11))
def test_every_worker_dropped(n):
    rng = random.Random(n)
    values = subset_sums([rng.randint(0, 20) for _ in range(n)])
    vf, tight = _check(values, [100] * n)
    assert tight == [0] and vf == [0] * (1 << n)


@pytest.mark.parametrize("n", range(0, 11))
def test_no_worker_dropped(n):
    values = subset_sums(list(range(1, n + 1)))
    vf, tight = _check(values, [0] * n)
    assert tight == list(range(1 << n)) and vf == values


def _random_table(rng, n, kind):
    size = 1 << n
    if kind == "non-monotone":
        return [rng.randint(-10, 30) for _ in range(size)]
    if kind == "additive":
        return subset_sums([rng.randint(0, 12) for _ in range(n)])
    # plateau: a concave function of the pool size that stops rising
    cap = rng.randint(1, max(1, n))
    step = rng.randint(1, 9)
    return [step * min(m.bit_count(), cap) for m in range(size)]


@pytest.mark.parametrize("n", range(0, 11))
def test_random_tables_match_the_full_reference(n):
    rng = random.Random(1000 + n)
    for trial in range(36):
        kind = ("non-monotone", "additive", "plateau")[trial % 3]
        values = _random_table(rng, n, kind)
        costs = [rng.choice([0, 3, 5, 9, 100, rng.randint(0, 12)]) for _ in range(n)]
        _check(values, costs)


def test_no_dominance_scan_when_every_worker_pays_at_once(monkeypatch):
    # zero profile and a strictly increasing table: the probe at the empty
    # pool keeps every worker, so no slice comparison runs
    calls = []
    real = surplus.bit_halves

    def counted(size, bit):
        calls.append(bit)
        return real(size, bit)

    monkeypatch.setattr(surplus, "bit_halves", counted)
    n = 12
    values = subset_sums(list(range(1, n + 1)))
    _, tight = _int_surplus_table(values, 1, [0] * n)
    assert len(tight) == 1 << n
    assert calls == []
    # the counter sees the scan when a worker does need one
    _check(*_single_bump(4, 3, 0b0101, 6))
    assert calls


def _submasks(mask):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _reference_drops(values, factor, costs):
    """The workers the rule drops, top bit first, found on the full scaled
    raw table: b goes when raw(S + b) < raw(S) on every pool S of the
    workers still in."""
    n = len(costs)
    raw = [v * factor - c for v, c in zip(values, subset_sums(costs))]
    alive, dropped = (1 << n) - 1, []
    for b in reversed(range(n)):
        rest = alive ^ 1 << b
        if all(raw[s | 1 << b] < raw[s] for s in _submasks(rest)):
            alive = rest
            dropped.append(b)
    return dropped


def _check_scaled(monkeypatch, values, factor, costs):
    """The kernel at `factor` against the scaled reference, and the workers
    it squeezes out against the rule's."""
    dropped = []

    def counted(vals, bit):
        dropped.append(bit.bit_length() - 1)
        return drop_bit(vals, bit)

    monkeypatch.setattr(surplus, "drop_bit", counted)
    got = _int_surplus_table(values, factor, costs)
    assert got == _reference(values, costs, factor)
    assert dropped == _reference_drops(values, factor, costs)
    return got


FACTORS = (1, 2, 3, 7)


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("n", range(1, 8))
def test_scaled_table_keeps_the_worker_whose_marginal_meets_its_cost(monkeypatch, n, factor):
    # b's best marginal is k unscaled, k * factor scaled: at cost
    # k * factor the tie keeps b while the pool's workers are in, and at
    # k * factor + 1 the rule drops b
    for k in (1, 5):
        for b in sorted({0, n // 2, n - 1}):
            for name, pool in _pools(n, b):
                for cost in (k * factor - 1, k * factor, k * factor + 1):
                    values, costs = _single_bump(n, b, pool, cost)
                    values[pool | 1 << b] = k
                    _, tight = _check_scaled(monkeypatch, values, factor, costs)
                    hired = pool | 1 << b
                    paid = sum(costs[i] for i in range(n) if pool >> i & 1)
                    assert (hired in tight) == (cost <= k * factor - paid), (name, b, cost)


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("n", range(0, 9))
def test_scaled_random_tables_match_the_full_reference(monkeypatch, n, factor):
    rng = random.Random(2000 + 10 * n + factor)
    for trial in range(18):
        # non-monotone tables give negative marginals; costs sit on either
        # side of a multiple of the factor
        kind = ("non-monotone", "additive", "plateau")[trial % 3]
        values = _random_table(rng, n, kind)
        costs = [max(0, rng.randint(0, 12) * factor + rng.choice((-1, 0, 1))) for _ in range(n)]
        _check_scaled(monkeypatch, values, factor, costs)


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("n", range(0, 9))
def test_scaled_table_every_or_no_worker_dropped(monkeypatch, n, factor):
    values = subset_sums(list(range(1, n + 1)))
    # each worker adds i + 1 unscaled, (i + 1) * factor scaled
    vf, tight = _check_scaled(monkeypatch, values, factor, [(n + 1) * factor] * n)
    assert tight == [0] and vf == [0] * (1 << n)
    vf, tight = _check_scaled(monkeypatch, values, factor, [(i + 1) * factor for i in range(n)])
    assert tight == list(range(1 << n)) and vf == [0] * (1 << n)
    vf, tight = _check_scaled(monkeypatch, values, factor, [0] * n)
    assert tight == list(range(1 << n)) and vf == [v * factor for v in values]
