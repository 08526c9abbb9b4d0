"""Domain types for many-to-one job-matching markets with salaries.

A market has a finite ordered universe of workers, firms with set-valued
production utilities over worker subsets, and per-worker per-firm
disutilities of employment (the workers' private types). All numbers are
exact rationals; nothing in this package compares floats.

Utility tables are stored explicitly, one value per subset of the universe,
indexed by bitmask (see subsets.py), as exact integers over one
denominator per table: SetFunction holds (universe, den, scaled), and a
single value comes out as a Fraction. Convenience families (additive,
budget-additive, unit-demand) are compiled down to tables at construction
time, on integers, so every downstream algorithm sees one representation.
Profiles, salaries and payoffs are Fractions.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .subsets import lane_tops, lanes_without, mask_of, members, pack_lanes, subset_sums

#: Hard cap on universe size; tables are dense with 2^n entries.
WORKER_CAP = 20

#: Hard cap on a market's table entries, m firms times 2^n each; an entry
#: costs tens of bytes once its table is built.
ENTRY_CAP = 1 << 24

RationalLike = Fraction | int | str


class SizeLimitError(ValueError):
    """Raised when an input exceeds a documented size cap."""


def check_worker_cap(n: int) -> None:
    """Refuse a universe of n workers before any 2^n table is allocated."""
    if n > WORKER_CAP:
        raise SizeLimitError(f"universe of {n} workers exceeds cap of {WORKER_CAP}")


def check_entry_cap(nfirms: int, n: int) -> None:
    """Refuse nfirms tables over n workers (at most the worker cap) before
    any of them is built."""
    entries = nfirms << n
    if entries > ENTRY_CAP:
        raise SizeLimitError(
            f"{nfirms} firms over {n} workers need {entries} table entries,"
            f" which exceeds cap of {ENTRY_CAP}"
        )


def as_fraction(x: RationalLike) -> Fraction:
    """Coerce int / Fraction / rational string ("3", "3/4", "0.25").

    A Fraction comes back unchanged: it is immutable, and rebuilding it
    costs as much as parsing a string.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"floats are not accepted, got {x!r}; pass a string or Fraction")
    return Fraction(x)


class _Record:
    """The records' one equality rule: another class is not equal, and a
    record of the same class is equal when the attributes its `_fields`
    names are. Defining `__eq__` leaves every record unhashable."""

    _fields: tuple[str, ...]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return [getattr(self, f) for f in fields] == [getattr(other, f) for f in fields]


class ConditionReport(_Record):
    """Outcome of a checkable condition.

    Attributes:
        verdict: whether the condition holds.
        witness: when verdict is False, a JSON-able dict that lets the
            caller re-check the violated inequality independently.
        details: free-form note (e.g. premise flags for conditional checks).
    """

    _fields = ("verdict", "witness", "details")

    def __init__(self, verdict: bool, witness: dict | None = None, details: str = "") -> None:
        if not verdict and witness is None:
            raise ValueError("false verdict requires a witness")
        self.verdict = verdict
        self.witness = witness
        self.details = details


class SetFunction(_Record):
    """Normalized set function on subsets of an ordered worker universe.

    The value on the subset encoded by mask is scaled[mask] / den: one
    exact integer per subset over one positive denominator, kept in lowest
    terms (gcd(den, *scaled) == 1), so `den` is the LCM of the values'
    reduced denominators. A (den, ints) pair with a common factor is
    reduced on construction. scaled[0] (the empty set) must be 0.
    Monotonicity is not enforced here; is_monotone reports on it.
    """

    _fields = ("universe", "den", "scaled")

    def __init__(self, universe: tuple[str, ...], den: int, scaled: tuple[int, ...]) -> None:
        n = len(universe)
        check_worker_cap(n)
        if len(set(universe)) != n:
            raise ValueError("duplicate worker ids in universe")
        if len(scaled) != 1 << n:
            raise ValueError(
                f"table has {len(scaled)} entries, expected {1 << n} "
                "(one per subset, no implicit completion)"
            )
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        if scaled[0] != 0:
            raise ValueError(f"empty set must map to 0, got {Fraction(scaled[0], den)}")
        common = gcd(den, gcd(*scaled))
        if common != 1:
            den //= common
            scaled = tuple([v // common for v in scaled])
        self.universe = universe
        self.den = den
        self.scaled = scaled

    @cached_property
    def index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.universe)}

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        """values[mask] = value(mask), one shared Fraction per distinct value.

        Built whole on first read; no command reads it, they run on
        `scaled` and read single values with `value`.
        """
        den = self.den
        frac = {v: Fraction(v, den) for v in set(self.scaled)}
        return tuple(map(frac.__getitem__, self.scaled))

    def scaled_to(self, den: int) -> Sequence[int]:
        """The values times `den`, a multiple of `self.den`."""
        factor = den // self.den
        return self.scaled if factor == 1 else [v * factor for v in self.scaled]

    @property
    def n(self) -> int:
        return len(self.universe)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.universe)) - 1

    def value(self, mask: int) -> Fraction:
        return Fraction(self.scaled[mask], self.den)

    def mask_of(self, workers: Iterable[str]) -> int:
        return mask_of(self.index, workers)

    def members(self, mask: int) -> tuple[str, ...]:
        return members(mask, self.universe)

    def subset_value(self, workers: Iterable[str]) -> Fraction:
        return self.value(self.mask_of(workers))

    @cached_property
    def lanes(self) -> tuple[int, int]:
        """(packed, width): `scaled` packed into lanes with headroom 1
        (`subsets.pack_lanes`), which the monotonicity kernel and
        `setfn._interacting_table`'s modular test share."""
        return pack_lanes(self.scaled, 1)

    def first_monotonicity_violation(self) -> tuple[int, int] | None:
        """First (submask, supermask) adjacent pair with a value drop.

        First in ascending mask order, then added worker in index order;
        adjacent pairs suffice because monotonicity failures compose along
        one-element chains. Decided and found on the table packed into
        lanes (`lanes`): a shift, a subtraction and a mask per bit b give
        the lanes m without b where vals[m | 2^b] < vals[m], and the
        witness is the least (lowest such lane, b) over all bits,
        re-checked on the table.
        """
        vals = self.scaled
        packed, width = self.lanes
        bias = lane_tops(width, len(vals))
        first = None
        for b, tops in lanes_without(width, self.n):
            # lane m: vals[m | 2^b] - vals[m] + 2^(width-1), top bit clear iff a drop
            drops = tops ^ ((packed >> (width << b)) + bias - packed) & tops
            if drops:
                hit = ((drops & -drops).bit_length() // width - 1, b)  # the lowest lane
                if first is None or hit < first:
                    first = hit
        if first is None:
            return None
        s, b = first
        if not vals[s | 1 << b] < vals[s]:
            raise RuntimeError("monotonicity: the kernel names a pair that does not drop")
        return s, s | 1 << b

    def is_monotone(self) -> bool:
        return self.first_monotonicity_violation() is None

    # ---- ingestion-time families, all compiled to explicit integer tables ----

    @classmethod
    def from_values(
        cls, universe: Sequence[str], values: Sequence[RationalLike]
    ) -> "SetFunction":
        """Build from one rational per mask, clearing their denominators once."""
        den, (ints,) = clear_denominators((), [[as_fraction(v) for v in values]])
        return cls(tuple(universe), den, tuple(ints))

    @classmethod
    def from_table(
        cls,
        universe: Sequence[str],
        table: Mapping[tuple[str, ...], RationalLike]
        | Iterable[tuple[tuple[str, ...], RationalLike]],
    ) -> "SetFunction":
        """Build from {tuple-of-worker-ids: value}, or (ids, value) pairs.

        Every subset of the universe must be present exactly once; missing
        or duplicate entries are errors. Pairs are consumed one at a time,
        so a lazy source's own errors and the duplicate check are raised in
        entry order.
        """
        universe = tuple(universe)
        check_worker_cap(len(universe))
        index = {w: i for i, w in enumerate(universe)}
        vals: list[Fraction | None] = [None] * (1 << len(universe))
        for key, raw in table.items() if isinstance(table, Mapping) else table:
            m = mask_of(index, key)
            if vals[m] is not None:
                raise ValueError(f"subset {key!r} appears twice in table")
            vals[m] = as_fraction(raw)
        missing = [members(m, universe) for m, v in enumerate(vals) if v is None]
        if missing:
            raise ValueError(f"table is missing {len(missing)} subsets, first {missing[0]!r}")
        return cls.from_values(universe, vals)  # type: ignore[arg-type]

    @classmethod
    def additive(
        cls, universe: Sequence[str], values: Mapping[str, RationalLike]
    ) -> "SetFunction":
        universe = tuple(universe)
        check_worker_cap(len(universe))
        den, (per,) = clear_denominators((), [[as_fraction(values.get(w, 0)) for w in universe]])
        return cls(universe, den, tuple(subset_sums(per)))

    @classmethod
    def budget_additive(
        cls,
        universe: Sequence[str],
        budget: RationalLike,
        values: Mapping[str, RationalLike],
    ) -> "SetFunction":
        """min(budget, sum of per-worker values); budget must be >= 0."""
        cap = as_fraction(budget)
        if cap < 0:
            raise ValueError("budget must be nonnegative")
        universe = tuple(universe)
        check_worker_cap(len(universe))
        fracs = [cap, *(as_fraction(values.get(w, 0)) for w in universe)]
        den, ((top, *per),) = clear_denominators((), [fracs])
        return cls(universe, den, tuple([s if s < top else top for s in subset_sums(per)]))

    @classmethod
    def unit_demand(
        cls, universe: Sequence[str], values: Mapping[str, RationalLike]
    ) -> "SetFunction":
        """max over hired workers of the per-worker value (0 on the empty set)."""
        universe = tuple(universe)
        check_worker_cap(len(universe))
        den, (per,) = clear_denominators((), [[as_fraction(values.get(w, 0)) for w in universe]])
        out = [0]
        for w in per:
            out += [x if x >= w else w for x in out]
        return cls(universe, den, tuple(out))


def clear_denominators(
    fns: Sequence[SetFunction], rows: Sequence[Sequence[Fraction]]
) -> tuple[int, list[list[int]]]:
    """(den, int_rows): den is the LCM of every fn.den and row denominator,
    and int_rows[r][i] is rows[r][i] * den. A table at that scale is
    fn.scaled[mask] * (den // fn.den), whole from `scaled_to`."""
    den = lcm(*(fn.den for fn in fns), *(x.denominator for row in rows for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in rows]


class Profile(_Record):
    """Disutility matrix: rows follow worker order, columns firm order."""

    _fields = ("workers", "firms", "rows")

    def __init__(
        self,
        workers: tuple[str, ...],
        firms: tuple[str, ...],
        rows: tuple[tuple[Fraction, ...], ...],
    ) -> None:
        if len(rows) != len(workers):
            raise ValueError("one row per worker required")
        for r in rows:
            if len(r) != len(firms):
                raise ValueError("one entry per firm required in every row")
        self.workers = workers
        self.firms = firms
        self.rows = rows

    @cached_property
    def worker_index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.workers)}

    @cached_property
    def firm_index(self) -> dict[str, int]:
        return {f: i for i, f in enumerate(self.firms)}

    @classmethod
    def from_dict(
        cls,
        workers: Sequence[str],
        firms: Sequence[str],
        entries: Mapping[str, Mapping[str, RationalLike]],
    ) -> "Profile":
        rows = []
        for w in workers:
            if w not in entries:
                raise ValueError(f"disutilities missing worker {w!r}")
            row = entries[w]
            unknown = set(row) - set(firms)
            if unknown:
                raise ValueError(f"worker {w!r} lists unknown firm {sorted(unknown)[0]!r}")
            missing = [f for f in firms if f not in row]
            if missing:
                raise ValueError(f"worker {w!r} is missing firm {missing[0]!r}")
            rows.append(tuple(as_fraction(row[f]) for f in firms))
        unknown_workers = set(entries) - set(workers)
        if unknown_workers:
            raise ValueError(f"disutilities list unknown worker {sorted(unknown_workers)[0]!r}")
        return cls(tuple(workers), tuple(firms), tuple(rows))

    def get(self, worker: str, firm: str) -> Fraction:
        return self.rows[self.worker_index[worker]][self.firm_index[firm]]

    def row(self, worker: str) -> tuple[Fraction, ...]:
        return self.rows[self.worker_index[worker]]

    def column(self, firm: str) -> tuple[Fraction, ...]:
        j = self.firm_index[firm]
        return tuple(r[j] for r in self.rows)

    def with_row(self, worker: str, row: Sequence[Fraction]) -> "Profile":
        """Copy with one worker's row replaced (used for misreport grids)."""
        if len(row) != len(self.firms):
            raise ValueError("row length must match firm count")
        i = self.worker_index[worker]
        rows = list(self.rows)
        rows[i] = tuple(as_fraction(x) for x in row)
        return Profile(self.workers, self.firms, tuple(rows))

    def to_dict(self) -> dict[str, dict[str, str]]:
        return {
            w: {f: str(self.rows[i][j]) for j, f in enumerate(self.firms)}
            for i, w in enumerate(self.workers)
        }


class Market(_Record):
    """Workers, firms with utilities, and (optionally) embedded disutilities.

    Every firm's utility must live on exactly this market's worker universe,
    in the same order. `disutilities` may be None for markets shipped without
    a type profile; operations that need one take it explicitly.
    """

    # ubar is a function of the firms, so the three arguments decide
    _fields = ("workers", "firms", "disutilities")

    def __init__(
        self,
        workers: tuple[str, ...],
        firms: tuple[tuple[str, SetFunction], ...],
        disutilities: Profile | None = None,
    ) -> None:
        if len(set(workers)) != len(workers):
            raise ValueError("duplicate worker ids")
        names = [name for name, _ in firms]
        if len(set(names)) != len(names):
            raise ValueError("duplicate firm ids")
        check_worker_cap(len(workers))
        for name, fn in firms:
            if fn.universe != workers:
                raise ValueError(
                    f"firm {name!r} utility universe {fn.universe} does not match "
                    f"market workers {workers}"
                )
        if disutilities is not None:
            if disutilities.workers != workers or disutilities.firms != tuple(names):
                raise ValueError("disutility matrix does not match market workers/firms")
        self.workers = workers
        self.firms = firms
        self.disutilities = disutilities
        #: largest full-hire utility across firms; 0 for a firmless market
        self.ubar = max((fn.value(fn.full_mask) for _, fn in firms), default=Fraction(0))

    @cached_property
    def firm_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.firms)

    @cached_property
    def utilities(self) -> dict[str, SetFunction]:
        return {name: fn for name, fn in self.firms}

    @cached_property
    def worker_index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.workers)}

    @property
    def n(self) -> int:
        return len(self.workers)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.workers)) - 1

    def utility(self, firm: str) -> SetFunction:
        try:
            return self.utilities[firm]
        except KeyError:
            raise ValueError(f"unknown firm {firm!r}") from None

    def require_profile(self, profile: Profile | None) -> Profile:
        p = profile if profile is not None else self.disutilities
        if p is None:
            raise ValueError("market has no embedded disutilities and none were supplied")
        return p


def validate_profile(m: Market, profile: Profile) -> None:
    """Reject profiles that do not fit the market or have a negative entry."""
    if profile.workers != m.workers or profile.firms != m.firm_names:
        raise ValueError("profile workers/firms do not match market")
    for w, row in zip(m.workers, profile.rows):
        for f, d in zip(m.firm_names, row):
            if d < 0:
                raise ValueError(f"negative disutility {d} for {w} at {f}")


class Matching(_Record):
    """Assignment of workers to firms (None = unmatched), stored worker-major.

    The firm-side view is derived from the worker-side assignment, so the
    two views cannot disagree.
    """

    _fields = ("assignment",)

    def __init__(self, assignment: tuple[tuple[str, str | None], ...]) -> None:
        self.assignment = assignment

    @cached_property
    def _by_worker(self) -> dict[str, str | None]:
        return dict(self.assignment)

    def firm_of(self, worker: str) -> str | None:
        return self._by_worker[worker]

    def workers_of(self, firm: str | None) -> tuple[str, ...]:
        return tuple(w for w, f in self.assignment if f == firm)

    def to_dict(self) -> dict[str, str | None]:
        return dict(self.assignment)

    @classmethod
    def from_dict(
        cls, workers: Sequence[str], assignment: Mapping[str, str | None]
    ) -> "Matching":
        return cls(tuple((w, assignment.get(w)) for w in workers))


class Outcome(_Record):
    """A matching plus salaries. Unmatched workers must be paid exactly 0."""

    _fields = ("matching", "salaries")

    def __init__(self, matching: Matching, salaries: tuple[tuple[str, Fraction], ...]) -> None:
        paid = {w for w, _ in salaries}
        assigned = {w for w, _ in matching.assignment}
        if paid != assigned:
            raise ValueError("salaries must cover exactly the market's workers")
        by_worker = dict(salaries)
        for w, f in matching.assignment:
            if by_worker[w] < 0:
                raise ValueError(f"negative salary for {w}")
            if f is None and by_worker[w] != 0:
                raise ValueError(f"unmatched worker {w} must have salary 0")
        self.matching = matching
        self.salaries = salaries

    @cached_property
    def salary(self) -> dict[str, Fraction]:
        return dict(self.salaries)

    @classmethod
    def build(
        cls, matching: Matching, salaries: Mapping[str, Fraction]
    ) -> "Outcome":
        return cls(
            matching,
            tuple((w, as_fraction(salaries.get(w, 0))) for w, _ in matching.assignment),
        )
