"""JSON ingestion and serialization for markets and disutility profiles.

Market file shape:

    {
      "workers": ["w1", "w2"],
      "firms": [
        {"name": "f1",
         "utility": {"type": "table",
                     "values": {"": "0", "w1": "0", "w2": "0", "w1,w2": "10"}}}
      ],
      "disutilities": {"w1": {"f1": "3"}, "w2": {"f1": "4"}}
    }

Worker ids are distinct, nonempty and hold no comma, so every table key
splits back into its ids. Rationals are exact strings ("3", "3/4", "0.25")
or JSON integers; floats are rejected. Utility types: "table" (every subset
required, keys are comma-joined worker ids), "additive", "budget_additive"
(extra "budget" key), "unit_demand" (the last three default missing
workers to 0).
"disutilities" is optional; a profile can be supplied separately. A profile
file is the bare {worker: {firm: rational-string}} mapping.

Every rational, string or integer, is refused past 100 characters (or
digits) before any arithmetic runs, and so is an exponent past 100.

Cost: one load parses each distinct rational string once (a generated
12-worker table holds a few dozen distinct strings among its 4,096
values), and resolves each canonical table key (workers in universe order,
as `serialize_market` writes them) with one dict lookup; only keys in
another order are split and resolved worker by worker. The subset keys
are built once per load or serialization by a recurrence over the workers.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from functools import cached_property
from typing import Any, Iterator, Mapping, Optional

from .model import (
    Market,
    Profile,
    SetFunction,
    SizeLimitError,
    as_fraction,
    check_worker_cap,
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
        keys += [w] + [k + "," + w for k in keys[1:]]
    return keys


class _Load:
    """What one parse_market call shares across its firms and profile."""

    def __init__(self, workers: tuple[str, ...]) -> None:
        self.workers = workers
        self.rationals: dict[str, Fraction] = {}

    @cached_property
    def key_masks(self) -> dict[str, int]:
        """{canonical key: mask}, built by the first table that needs it."""
        return dict(zip(subset_keys(self.workers), range(1 << len(self.workers))))

    @cached_property
    def index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.workers)}

    def table_entries(self, table: dict[str, Fraction]) -> Iterator[tuple]:
        """(mask, subset, value) per entry; keys not in canonical order are
        split and resolved only here, when from_masks reaches them."""
        key_masks = self.key_masks
        for key, value in table.items():
            mask = key_masks.get(key)
            if mask is None:
                ids = tuple(key.split(",")) if key else ()
                if "" in ids:
                    raise ValueError(f"table key {key!r} has an empty part")
                yield mask_of(self.index, ids), ids, value
            else:
                yield mask, None, value


def _parse_value_map(obj: Any, where: str, memo: dict[str, Fraction]) -> dict[str, Fraction]:
    if not isinstance(obj, Mapping):
        raise MarketFormatError(f"{where}: expected an object of per-worker values")
    return {str(w): _parse_memo(memo, v, f"{where}[{w}]") for w, v in obj.items()}


def _parse_utility(spec: Any, load: _Load, firm: str) -> SetFunction:
    workers = load.workers
    memo = load.rationals
    where = f"firm {firm!r} utility"
    if not isinstance(spec, Mapping):
        raise MarketFormatError(f"{where}: expected an object")
    kind = spec.get("type")
    known = {"table", "additive", "budget_additive", "unit_demand"}
    if kind not in known:
        raise MarketFormatError(f"{where}: unknown type {kind!r}, expected one of {sorted(known)}")
    values = spec.get("values")
    if values is None:
        raise MarketFormatError(f"{where}: missing 'values'")
    extra = set(spec) - {"type", "values", "budget"}
    if extra:
        raise MarketFormatError(f"{where}: unexpected key {sorted(extra)[0]!r}")
    try:
        if kind == "table":
            if not isinstance(values, Mapping):
                raise MarketFormatError(f"{where}: table 'values' must be an object")
            table: dict[str, Fraction] = {}
            for key, raw in values.items():
                value = memo.get(raw) if type(raw) is str else None
                if value is None:
                    value = _parse_memo(memo, raw, f"{where}[{key!r}]")
                table[key] = value
            return SetFunction.from_masks(workers, load.table_entries(table))
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
        if not isinstance(row, Mapping):
            raise MarketFormatError(f"disutilities[{w!r}]: expected an object keyed by firm")
        entries[str(w)] = {
            str(f): _parse_memo(memo, v, f"disutilities[{w!r}][{f!r}]") for f, v in row.items()
        }
    try:
        return Profile.from_dict(workers, firms, entries)
    except ValueError as exc:
        raise MarketFormatError(f"disutilities: {exc}") from None


def _read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MarketFormatError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        # malformed JSON, bytes that are not UTF-8, or an integer past the
        # interpreter's digit limit
        raise MarketFormatError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise MarketFormatError(f"{path}: JSON nested too deeply") from None


def load_market(path: str) -> Market:
    return parse_market(_read_json(path))


def load_profile(path: str, market: Market) -> Profile:
    return parse_profile(_read_json(path), market.workers, market.firm_names)


def serialize_market(m: Market) -> dict:
    """Canonical JSON form: explicit tables, rationals as strings."""
    keys = subset_keys(m.workers)
    text: dict[int, str] = {}  # str of each distinct value object, by id
    firms = []
    for name, fn in m.firms:
        strs = []
        for v in fn.values:
            s = text.get(id(v))
            if s is None:
                s = text[id(v)] = str(v)
            strs.append(s)
        firms.append({"name": name, "utility": {"type": "table", "values": dict(zip(keys, strs))}})
    out: dict = {"workers": list(m.workers), "firms": firms}
    if m.disutilities is not None:
        out["disutilities"] = m.disutilities.to_dict()
    return out


def dumps_market(m: Market) -> str:
    return json.dumps(serialize_market(m), indent=2) + "\n"


def market_digest(m: Market) -> str:
    """Stable content hash of the canonical serialization."""
    blob = json.dumps(serialize_market(m), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
