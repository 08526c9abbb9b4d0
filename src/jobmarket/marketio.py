"""JSON ingestion and serialization for markets and disutility profiles.

Market file shape:

    {
      "workers": ["w1", "w2"],
      "firms": [
        {"name": "f1",
         "utility": {"type": "table", "values": ["0", "0", "0", "10"]}}
      ],
      "disutilities": {"w1": {"f1": "3"}, "w2": {"f1": "4"}}
    }

Worker ids are distinct, nonempty and hold no comma, so every table key
splits back into its ids. Rationals are exact strings ("3", "3/4", "0.25")
or JSON integers; floats are rejected. Utility types: "table", "additive",
"budget_additive" (extra "budget" key), "unit_demand" (the last three
default missing workers to 0). A table has two spellings. An array of
exactly 2^n values in mask order: entry i is the value of the set
{worker k : bit k of i is set}, so ["0", "0", "0", "10"] above gives
{w1, w2} the value 10; this is what `dumps_market` writes. Or an object
keyed by subset, every subset required, each key the comma-joined ids of
its members in any order: {"": "0", "w1": "0", "w2": "0", "w1,w2": "10"}.
"disutilities" is optional; a profile can be supplied separately. A profile
file is the bare {worker: {firm: rational-string}} mapping. An object that
names a key twice is refused, in either file.

Every rational, string or integer, is refused past 100 characters (or
digits) before any arithmetic runs, and so is an exponent past 100. An
array of the wrong length is refused before any entry is parsed. A market
past `model.WORKER_CAP` workers, or whose firms' tables would hold more
than `model.ENTRY_CAP` entries in all (m firms times 2^n), is refused
before any table is built.

Cost: one load parses each distinct rational string once (a generated
12-worker table holds a few dozen distinct strings among its 4,096
values) and scales each distinct value once, by the LCM of its table's
denominators, straight into the table's integer form (`SetFunction.den`
and `scaled`); no Fraction is built per entry. Both spellings share that
step; an array is already in mask order, needs no subset key, and JSON
reads it without the per-object duplicate-key check. A keyed table whose
keys are the load's subset key list in mask order is read in file order
after one comparison of the two key lists. Keys in another order resolve
to masks by dict lookup in that list, only keys whose ids come in
another order are split and resolved worker by worker, and only a table
found at fault is walked entry by entry to name its first offender.
`dumps_market` writes its JSON text straight from the integer tables,
one text per distinct value of each table, and `market_digest` is the
sha256 of that same text: the digest of a market is the `sha256sum` of
the file `gen` writes for it. Both spellings of a table load to the same
integer tables, so they share one digest.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Collection, Iterable, Mapping

from .model import (
    Market,
    Profile,
    SetFunction,
    SizeLimitError,
    as_fraction,
    check_entry_cap,
    check_worker_cap,
    clear_denominators,
)
from .subsets import mask_of


class MarketFormatError(ValueError):
    """Malformed market or profile input."""


# Caps on a rational, checked before Fraction builds its integers: "1e5000"
# alone would be a 5,001-digit integer. A JSON integer gets the same cap in
# digits as a string gets in characters.
_MAX_RATIONAL_CHARS = 100
_MAX_EXPONENT = 100
_INT_BOUND = 10**_MAX_RATIONAL_CHARS


def parse_rational(x: Any, where: str = "value") -> Fraction:
    if isinstance(x, bool) or isinstance(x, float):
        raise MarketFormatError(f"{where}: expected a rational string, got {x!r}")
    if not isinstance(x, (str, int)):
        raise MarketFormatError(f"{where}: expected a rational string, got {type(x).__name__}")
    if isinstance(x, int):
        if not -_INT_BOUND < x < _INT_BOUND:
            raise MarketFormatError(f"{where}: integer longer than {_MAX_RATIONAL_CHARS} digits")
    else:
        if len(x) > _MAX_RATIONAL_CHARS:
            raise MarketFormatError(f"{where}: rational longer than {_MAX_RATIONAL_CHARS} characters")
        if "e" in x or "E" in x:
            try:
                exponent = int(x.lower().rpartition("e")[2])
            except ValueError:
                exponent = 0  # malformed; Fraction rejects it below
            if abs(exponent) > _MAX_EXPONENT:
                raise MarketFormatError(f"{where}: exponent of {x!r} exceeds {_MAX_EXPONENT}")
    try:
        return as_fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise MarketFormatError(f"{where}: bad rational {x!r} ({exc})") from None


def _parse_memo(memo: dict[str, Fraction], x: Any, where: str) -> Fraction:
    """parse_rational, run once per distinct string of one load.

    Only strings are stored: True == 1 and both hash alike, so a memo that
    stored integers would hand a later JSON true the value of an earlier 1
    and let it past the bool refusal.
    """
    if type(x) is not str:
        return parse_rational(x, where)
    value = memo.get(x)
    if value is None:
        value = memo[x] = parse_rational(x, where)
    return value


def subset_keys(workers: tuple[str, ...]) -> list[str]:
    """Every subset's table key, workers comma-joined in universe order,
    indexed by mask: the keys of the masks with highest bit i are worker i
    alone, then the keys below it with ",w_i" appended."""
    keys = [""]
    for w in workers:
        tail = "," + w
        keys += [w] + [k + tail for k in keys[1:]]
    return keys


def _key_ids(key: Any) -> tuple[str, ...]:
    """A table key's worker ids as written; stray commas are refused."""
    if not isinstance(key, str):
        raise ValueError(f"table key {key!r} is not a string")
    ids = tuple(key.split(",")) if key else ()
    if "" in ids:
        raise ValueError(f"table key {key!r} has an empty part")
    return ids


class _Load:
    """What one parse_market call shares across its firms and profile."""

    def __init__(self, workers: tuple[str, ...]) -> None:
        self.workers = workers
        self.rationals: dict[str, Fraction] = {}

    @cached_property
    def keys(self) -> list[str]:
        """`subset_keys` of the universe, built at most once per load: for
        a keyed table, or to name a refused array entry."""
        return subset_keys(self.workers)

    @cached_property
    def key_masks(self) -> dict[str, int]:
        """{canonical key: mask}, built by the first table that needs it."""
        return dict(zip(self.keys, range(1 << len(self.workers))))

    @cached_property
    def index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.workers)}

    def positional(self, values: list, where: str) -> SetFunction:
        """One firm's table from its array in mask order: entry i is the
        value of the set whose members are the set bits of i. The length
        is checked before any entry is parsed; a refused entry is named by
        its index and its subset key."""
        size = 1 << len(self.workers)
        if len(values) != size:
            raise MarketFormatError(
                f"{where}: table 'values' holds {len(values)} entries, expected 2^{len(self.workers)}"
                f" = {size}, one per subset in mask order"
            )
        entries = ((f"{where} values[{i}] ({self.keys[i]!r})", raw) for i, raw in enumerate(values))
        return self._set_function(values, entries)

    def keyed(self, values: Mapping, where: str) -> SetFunction:
        """One firm's table from its {key: value} object, put into mask order.

        Keys that are the subset key list itself, in mask order, are taken
        in file order; other keys resolve to masks through `key_masks`, and
        only a key in another order is split. A key set that does not
        resolve to every subset once has its values parsed first, then
        `SetFunction.from_table` names the first bad key in entry order.
        """
        entries = ((f"{where}[{key!r}]", raw) for key, raw in values.items())
        if list(values) == self.keys:
            return self._set_function(values.values(), entries)
        size = 1 << len(self.workers)
        masks = list(map(self.key_masks.get, values))
        found = set(masks)
        if None in found:
            try:
                masks = [
                    mask_of(self.index, _key_ids(key)) if m is None else m
                    for key, m in zip(values, masks)
                ]
                found = set(masks)
            except ValueError:
                masks = []  # a key that does not resolve: named below
        if len(masks) != size or len(found) != size:
            fracs = self._distinct_values(values.values(), entries)
            return SetFunction.from_table(
                self.workers, ((_key_ids(key), fracs[raw]) for key, raw in values.items())
            )
        ordered: list[Any] = [None] * size
        for m, raw in zip(masks, values.values()):
            ordered[m] = raw
        return self._set_function(ordered, entries)

    def _set_function(
        self, ordered: Collection[Any], entries: Iterable[tuple[str, Any]]
    ) -> SetFunction:
        """The bulk step of both spellings, on values in mask order: each
        distinct value is parsed once and scaled once, by the LCM of the
        table's distinct denominators (`model.clear_denominators`).
        `entries` pairs each value as written with its label, in file
        order; it is walked only to name a refused value."""
        fracs = self._distinct_values(ordered, entries)
        den, (cleared,) = clear_denominators((), [list(fracs.values())])
        ints = dict(zip(fracs, cleared))
        return SetFunction(self.workers, den, tuple(map(ints.__getitem__, ordered)))

    def _distinct_values(
        self, raws: Collection[Any], entries: Iterable[tuple[str, Any]]
    ) -> dict[Any, Fraction]:
        """{distinct value as written: Fraction}, strings from the load's memo.

        A string equals only strings, so only a non-string can hide another
        entry from the set (True == 1 == 1.0 hash alike); a table holding
        one has every non-string entry checked. A refused or unhashable
        value is named by a second, per-entry pass over `entries`.
        """
        memo = self.rationals
        try:
            distinct = set(raws)
            if any(type(raw) is not str for raw in distinct):
                for raw in raws:
                    if type(raw) is not str:
                        parse_rational(raw)
            return {raw: _parse_memo(memo, raw, "") for raw in distinct}
        except (MarketFormatError, TypeError):  # TypeError: an unhashable value
            for label, raw in entries:
                _parse_memo(memo, raw, label)
            raise


def _parse_value_map(obj: Any, where: str, memo: dict[str, Fraction]) -> dict[str, Fraction]:
    if not isinstance(obj, Mapping):
        raise MarketFormatError(f"{where}: expected an object of per-worker values")
    for w in obj:
        if not isinstance(w, str):
            raise MarketFormatError(f"{where}: worker key {w!r} is not a string")
    return {w: _parse_memo(memo, v, f"{where}[{w}]") for w, v in obj.items()}


def _parse_utility(spec: Any, load: _Load, firm: str) -> SetFunction:
    workers = load.workers
    memo = load.rationals
    where = f"firm {firm!r} utility"
    if not isinstance(spec, Mapping):
        raise MarketFormatError(f"{where}: expected an object")
    kind = spec.get("type")
    known = {"table", "additive", "budget_additive", "unit_demand"}
    if not isinstance(kind, str) or kind not in known:
        raise MarketFormatError(f"{where}: unknown type {kind!r}, expected one of {sorted(known)}")
    values = spec.get("values")
    if values is None:
        raise MarketFormatError(f"{where}: missing 'values'")
    allowed = {"type", "values", "budget"} if kind == "budget_additive" else {"type", "values"}
    extra = set(spec) - allowed
    if extra:
        raise MarketFormatError(f"{where}: unexpected key {sorted(extra)[0]!r}")
    try:
        if kind == "table":
            if isinstance(values, list):
                return load.positional(values, where)
            if not isinstance(values, Mapping):
                raise MarketFormatError(
                    f"{where}: table 'values' must be an array in mask order"
                    " or an object keyed by subset"
                )
            return load.keyed(values, where)
        per = _parse_value_map(values, where, memo)
        unknown = set(per) - set(workers)
        if unknown:
            raise MarketFormatError(f"{where}: unknown worker {sorted(unknown)[0]!r}")
        if kind == "additive":
            return SetFunction.additive(workers, per)
        if kind == "unit_demand":
            return SetFunction.unit_demand(workers, per)
        budget = spec.get("budget")
        if budget is None:
            raise MarketFormatError(f"{where}: budget_additive requires 'budget'")
        return SetFunction.budget_additive(workers, _parse_memo(memo, budget, f"{where} budget"), per)
    except MarketFormatError:
        raise
    except ValueError as exc:
        raise MarketFormatError(f"{where}: {exc}") from None


def parse_market(obj: Any) -> Market:
    """Build a Market from a parsed JSON object."""
    if not isinstance(obj, Mapping):
        raise MarketFormatError("market: expected a JSON object")
    extra = set(obj) - {"workers", "firms", "disutilities"}
    if extra:
        raise MarketFormatError(f"market: unexpected key {sorted(extra)[0]!r}")
    workers_raw = obj.get("workers")
    if not isinstance(workers_raw, list) or not all(isinstance(w, str) for w in workers_raw):
        raise MarketFormatError("market: 'workers' must be a list of strings")
    workers = tuple(workers_raw)
    try:
        check_worker_cap(len(workers))
    except SizeLimitError as exc:
        raise MarketFormatError(f"market: {exc}") from None
    # table keys join worker ids with commas, so each id must split back out
    for w in workers:
        if not w or "," in w:
            raise MarketFormatError(f"market: worker id {w!r} is empty or holds a comma")
    if len(set(workers)) != len(workers):
        raise MarketFormatError("market: duplicate worker ids")
    firms_raw = obj.get("firms")
    if not isinstance(firms_raw, list):
        raise MarketFormatError("market: 'firms' must be a list")
    check_entry_cap(len(firms_raw), len(workers))
    load = _Load(workers)
    firms = []
    for k, fobj in enumerate(firms_raw):
        if not isinstance(fobj, Mapping) or not isinstance(fobj.get("name"), str):
            raise MarketFormatError(f"market: firm #{k} needs a string 'name'")
        extra = set(fobj) - {"name", "utility"}
        if extra:
            raise MarketFormatError(f"firm {fobj['name']!r}: unexpected key {sorted(extra)[0]!r}")
        firms.append((fobj["name"], _parse_utility(fobj.get("utility"), load, fobj["name"])))
    dis_raw = obj.get("disutilities")
    profile = None
    if dis_raw is not None:
        profile = _parse_profile(dis_raw, workers, tuple(name for name, _ in firms), load.rationals)
    try:
        return Market(workers, tuple(firms), profile)
    except ValueError as exc:
        raise MarketFormatError(f"market: {exc}") from None


def parse_profile(obj: Any, workers: tuple[str, ...], firms: tuple[str, ...]) -> Profile:
    """Parse a bare {worker: {firm: rational}} mapping against known ids."""
    return _parse_profile(obj, workers, firms, {})


def _parse_profile(
    obj: Any, workers: tuple[str, ...], firms: tuple[str, ...], memo: dict[str, Fraction]
) -> Profile:
    if not isinstance(obj, Mapping):
        raise MarketFormatError("disutilities: expected an object keyed by worker")
    entries: dict[str, dict[str, Fraction]] = {}
    for w, row in obj.items():
        if not isinstance(w, str):
            raise MarketFormatError(f"disutilities: worker key {w!r} is not a string")
        if not isinstance(row, Mapping):
            raise MarketFormatError(f"disutilities[{w!r}]: expected an object keyed by firm")
        for f in row:
            if not isinstance(f, str):
                raise MarketFormatError(f"disutilities[{w!r}]: firm key {f!r} is not a string")
        entries[w] = {
            f: _parse_memo(memo, v, f"disutilities[{w!r}][{f!r}]") for f, v in row.items()
        }
    try:
        return Profile.from_dict(workers, firms, entries)
    except ValueError as exc:
        raise MarketFormatError(f"disutilities: {exc}") from None


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object, refused when it names a key twice (json keeps the last)."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        key = next(k for k, count in Counter(k for k, _ in pairs).items() if count > 1)
        raise MarketFormatError(f"duplicate key {key!r}")
    return obj


def _read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise MarketFormatError(f"cannot read {path}: {exc}") from None
    except MarketFormatError as exc:
        raise MarketFormatError(f"{path}: {exc}") from None
    except ValueError as exc:
        # malformed JSON, bytes that are not UTF-8, or an integer past the
        # interpreter's digit limit
        raise MarketFormatError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise MarketFormatError(f"{path}: JSON nested too deeply") from None


def load_market(path: str) -> Market:
    """The market in a JSON file."""
    return parse_market(_read_json(path))


def load_profile(path: str, market: Market) -> Profile:
    return parse_profile(_read_json(path), market.workers, market.firm_names)


def _value_texts(fn: SetFunction) -> list[str]:
    """str of each value in mask order, built once per distinct scaled value."""
    text = {v: str(Fraction(v, fn.den)) for v in set(fn.scaled)}
    return list(map(text.__getitem__, fn.scaled))


def _layout(items: list[str], depth: int, brackets: str = "{}") -> str:
    """A JSON container at `depth` as json.dumps(..., indent=2) lays it out,
    from its items already encoded for depth + 1."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * depth + brackets[1]


def dumps_market(m: Market) -> str:
    """Canonical JSON text: explicit tables as arrays in mask order,
    rationals as strings, laid out by json.dumps(..., indent=2) rules.
    `market_digest` hashes this text."""
    return _canonical_text(m)


def _canonical_text(m: Market) -> str:
    """The text of `dumps_market`, written straight from the integer
    tables: each distinct value of a table is turned into text once, and
    each table's text is copied only into the final join. It is a function
    of its own so that `bench/spans.py`, which books `dumps_market` as the
    dump layer, does not book the digest there too."""
    sep = '",\n' + "  " * 5 + '"'
    parts = ['{\n  "workers": ', _layout(list(map(_quote, m.workers)), 1, "[]"), ',\n  "firms": [']
    for k, (name, fn) in enumerate(m.firms):
        parts.append(
            f'{"," if k else ""}\n    {{\n      "name": {_quote(name)},\n      "utility": {{'
            '\n        "type": "table",\n        "values": [\n          "'
        )
        parts.append(sep.join(_value_texts(fn)))
        parts.append('"\n        ]\n      }\n    }')
    parts.append("\n  ]" if m.firms else "]")
    if m.disutilities is not None:
        rows = [
            f"{_quote(w)}: " + _layout([f"{_quote(f)}: {_quote(d)}" for f, d in row.items()], 2)
            for w, row in m.disutilities.to_dict().items()
        ]
        parts.append(f',\n  "disutilities": {_layout(rows, 1)}')
    parts.append("\n}\n")
    return "".join(parts)


def market_digest(m: Market) -> str:
    """Stable content hash: the sha256 of the canonical text
    `dumps_market` writes, so `sha256sum` of a `gen` file reproduces it.
    The text is pure ASCII, so its bytes do not depend on an encoding."""
    return hashlib.sha256(_canonical_text(m).encode()).hexdigest()
