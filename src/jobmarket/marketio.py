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

Rationals are exact strings ("3", "3/4", "0.25") or JSON integers; floats
are rejected. Utility types: "table" (every subset required, keys are
comma-joined worker ids), "additive", "budget_additive" (extra "budget"
key), "unit_demand" (the last three default missing workers to 0).
"disutilities" is optional; a profile can be supplied separately. A profile
file is the bare {worker: {firm: rational-string}} mapping.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any, Mapping, Optional

from .model import (
    Market,
    Profile,
    SetFunction,
    SizeLimitError,
    as_fraction,
    check_worker_cap,
)
from .subsets import members


class MarketFormatError(ValueError):
    """Malformed market or profile input."""


# Caps on a rational string, checked before Fraction builds its integers:
# "1e5000" alone would be a 5,001-digit integer.
_MAX_RATIONAL_CHARS = 100
_MAX_EXPONENT = 100


def parse_rational(x: Any, where: str = "value") -> Fraction:
    if isinstance(x, bool) or isinstance(x, float):
        raise MarketFormatError(f"{where}: expected a rational string, got {x!r}")
    if not isinstance(x, (str, int)):
        raise MarketFormatError(f"{where}: expected a rational string, got {type(x).__name__}")
    if isinstance(x, str):
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


def _parse_value_map(obj: Any, where: str) -> dict[str, Fraction]:
    if not isinstance(obj, Mapping):
        raise MarketFormatError(f"{where}: expected an object of per-worker values")
    return {str(w): parse_rational(v, f"{where}[{w}]") for w, v in obj.items()}


def _parse_utility(spec: Any, workers: tuple[str, ...], firm: str) -> SetFunction:
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
            table = {}
            for key, raw in values.items():
                ids = tuple(p for p in str(key).split(",") if p != "")
                table[ids] = parse_rational(raw, f"{where}[{key!r}]")
            return SetFunction.from_table(workers, table)
        per = _parse_value_map(values, where)
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
        return SetFunction.budget_additive(workers, parse_rational(budget, f"{where} budget"), per)
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
    firms_raw = obj.get("firms")
    if not isinstance(firms_raw, list):
        raise MarketFormatError("market: 'firms' must be a list")
    firms = []
    for k, fobj in enumerate(firms_raw):
        if not isinstance(fobj, Mapping) or not isinstance(fobj.get("name"), str):
            raise MarketFormatError(f"market: firm #{k} needs a string 'name'")
        extra = set(fobj) - {"name", "utility"}
        if extra:
            raise MarketFormatError(f"firm {fobj['name']!r}: unexpected key {sorted(extra)[0]!r}")
        firms.append((fobj["name"], _parse_utility(fobj.get("utility"), workers, fobj["name"])))
    dis_raw = obj.get("disutilities")
    profile = None
    if dis_raw is not None:
        profile = parse_profile(dis_raw, workers, tuple(name for name, _ in firms))
    try:
        return Market(workers, tuple(firms), profile)
    except ValueError as exc:
        raise MarketFormatError(f"market: {exc}") from None


def parse_profile(obj: Any, workers: tuple[str, ...], firms: tuple[str, ...]) -> Profile:
    """Parse a bare {worker: {firm: rational}} mapping against known ids."""
    if not isinstance(obj, Mapping):
        raise MarketFormatError("disutilities: expected an object keyed by worker")
    entries: dict[str, dict[str, Fraction]] = {}
    for w, row in obj.items():
        if not isinstance(row, Mapping):
            raise MarketFormatError(f"disutilities[{w!r}]: expected an object keyed by firm")
        entries[str(w)] = {
            str(f): parse_rational(v, f"disutilities[{w!r}][{f!r}]") for f, v in row.items()
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
    except json.JSONDecodeError as exc:
        raise MarketFormatError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise MarketFormatError(f"{path}: JSON nested too deeply") from None


def load_market(path: str) -> Market:
    return parse_market(_read_json(path))


def load_profile(path: str, market: Market) -> Profile:
    return parse_profile(_read_json(path), market.workers, market.firm_names)


def serialize_market(m: Market) -> dict:
    """Canonical JSON form: explicit tables, rationals as strings."""
    firms = []
    for name, fn in m.firms:
        values = {
            ",".join(members(mask, fn.universe)): str(fn.values[mask])
            for mask in range(1 << fn.n)
        }
        firms.append({"name": name, "utility": {"type": "table", "values": values}})
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
