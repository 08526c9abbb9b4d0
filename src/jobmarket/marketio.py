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

Cost: one load reads each distinct rational string once (a generated
12-worker table holds a few dozen distinct strings among its 4,096
values) to an exact (num, den) pair of ints, and scales each distinct
value once, num * (L // den) for the LCM L of its table's denominators,
straight into the table's integer form (`SetFunction.den` and `scaled`);
no table value builds a Fraction. A string already in the canonical form
`str(Fraction)` writes ("3", "-7/2", as `gen` writes every value) is read
by `int()` on its "/"-parts and kept only if den > 1 is prime to num and
the pair prints back to the string; any other string goes to
`parse_rational`, which alone decides refusals. The disutility matrix is
read once, in worker and firm order, through the same memo, and equal
values share one Fraction. Both spellings of a table share the bulk step;
an array is already in mask order, needs no subset key, and JSON reads it
without the per-object duplicate-key check. A keyed table whose keys are
the load's subset key list in mask order is read in file order after one
comparison of the two key lists. Keys in another order resolve to masks by
dict lookup in that list, only keys whose ids come in another order are
split and resolved worker by worker, and only a table found at fault is
walked entry by entry to name its first offender.

`dumps_market` writes its JSON text straight from the integer tables, one
text per distinct value of each table, and the digest is the sha256 of
that same text: the digest of a market is the `sha256sum` of the file
`gen` writes for it. `parse_market` hashes it before the file's values
are dropped, from the texts it has just read: a table whose distinct
values are all canonical strings is hashed from its values as read, any
other is printed from its integers as `dumps_market` prints it, each
distinct value once; a disutility matrix of canonical strings is hashed
from its strings as read, any other from `str` of each entry. The text is
fed to the hash about 2^14 values at a time, so it is never held whole.
`market_digest` returns that digest, or renders a market built any other
way. Both spellings of a table load to the same integer tables, so they
share one digest. `json_text` writes a command's --json payload in the
same indent-2 layout, by `_layout`.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, lcm
from operator import itemgetter
from typing import Any, Optional

from .model import (
    Market,
    Profile,
    SetFunction,
    SizeLimitError,
    as_fraction,
    check_entry_cap,
    check_worker_cap,
)
from .subsets import mask_of


class MarketFormatError(ValueError):
    """Malformed market or profile input."""


# A table's canonical value texts in mask order, as the loader read them.
_Texts = Collection[str]


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


def _exact_pair(raw: str) -> Optional[tuple[int, int]]:
    """(num, den) of a string that is already its own canonical text
    (`str(Fraction)`: "3", "-7/2"), read by `int()` on its "/"-parts, with
    den = 1 for an integer; None for any other string, which
    `parse_rational` then reads or refuses. `int()` reads more than the
    canonical spelling ("+3", " 3", "03", "3_0", "-0", and the "1/-2" that
    Fraction refuses), so the pair counts only when it prints back to
    `raw` exactly, and a "/"-pair only when den > 1 is prime to num
    ("0/5", "6/4" and "3/1" go to `parse_rational`)."""
    if len(raw) > _MAX_RATIONAL_CHARS:
        return None
    num, slash, den = raw.partition("/")
    try:
        n = int(num)
        if not slash:
            return (n, 1) if str(n) == raw else None
        d = int(den)
    except ValueError:
        return None
    return (n, d) if d > 1 and gcd(n, d) == 1 and f"{n}/{d}" == raw else None


def _parse_memo(
    memo: dict[str, tuple[int, int]], x: Any, where: str, plain: Optional[set[str]] = None
) -> tuple[int, int]:
    """The exact (num, den) of a rational, den > 0 and prime to num, from
    `_exact_pair` or else `parse_rational`, once per distinct string of one
    load. A string that `_exact_pair` reads goes into `plain`, when given.

    Only strings are stored: True == 1 and both hash alike, so a memo that
    stored integers would hand a later JSON true the value of an earlier 1
    and let it past the bool refusal.
    """
    if type(x) is not str:
        value = parse_rational(x, where)
        return value.numerator, value.denominator
    pair = memo.get(x)
    if pair is None:
        pair = _exact_pair(x)
        if pair is None:
            value = parse_rational(x, where)
            pair = value.numerator, value.denominator
        elif plain is not None:
            plain.add(x)
        memo[x] = pair
    return pair


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
        #: {distinct rational string: (num, den)}, shared by every value read
        self.rationals: dict[str, tuple[int, int]] = {}
        #: strings of `rationals` that `_exact_pair` read: each is its own
        #: canonical text
        self.plain: set[str] = set()

    def read(self, x: Any, where: str) -> tuple[int, int]:
        """One value's exact (num, den), through this load's memo."""
        return _parse_memo(self.rationals, x, where, self.plain)

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

    def positional(self, values: list, where: str) -> tuple[SetFunction, Optional[_Texts]]:
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

    def keyed(self, values: Mapping, where: str) -> tuple[SetFunction, Optional[_Texts]]:
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
            # a key set at fault: its values are parsed first, then
            # `from_table` names the first bad key
            pairs = self._distinct_values(values.values(), entries)
            return SetFunction.from_table(
                self.workers,
                ((_key_ids(key), Fraction(*pairs[raw])) for key, raw in values.items()),
            ), None
        ordered: list[Any] = [None] * size
        for m, raw in zip(masks, values.values()):
            ordered[m] = raw
        return self._set_function(ordered, entries)

    def _set_function(
        self, ordered: Collection[Any], entries: Iterable[tuple[str, Any]]
    ) -> tuple[SetFunction, Optional[_Texts]]:
        """The bulk step of both spellings, on values in mask order: each
        distinct value is read once, as an exact (num, den) pair, and
        scaled once, num * (den' // den), by the LCM den' of the table's
        distinct denominators. `entries` pairs each value as written with
        its label, in file order; it is walked only to name a refused value.

        Also returns the table's texts: the values as read when every
        distinct one is a canonical string, else None."""
        pairs = self._distinct_values(ordered, entries)
        den = lcm(*[d for _, d in pairs.values()])
        ints = {raw: n * (den // d) for raw, (n, d) in pairs.items()}
        if len(ordered) > 1:
            scaled = itemgetter(*ordered)(ints)
        else:  # itemgetter of one key returns the bare value, not a 1-tuple
            scaled = tuple(map(ints.__getitem__, ordered))
        fn = SetFunction(self.workers, den, scaled)
        return fn, ordered if self.plain.issuperset(pairs) else None

    def _distinct_values(
        self, raws: Collection[Any], entries: Iterable[tuple[str, Any]]
    ) -> dict[Any, tuple[int, int]]:
        """{distinct value as written: (num, den)}, strings from the load's memo.

        A string equals only strings, so only a non-string can hide another
        entry from the set (True == 1 == 1.0 hash alike); a table holding
        one has every non-string entry checked. A refused or unhashable
        value is named by a second, per-entry pass over `entries`.
        """
        memo, plain = self.rationals, self.plain
        try:
            distinct = set(raws)
            if any(type(raw) is not str for raw in distinct):
                for raw in raws:
                    if type(raw) is not str:
                        parse_rational(raw)
            return {raw: _parse_memo(memo, raw, "", plain) for raw in distinct}
        except (MarketFormatError, TypeError):  # TypeError: an unhashable value
            for label, raw in entries:
                _parse_memo(memo, raw, label)
            raise


def _parse_value_map(obj: Any, where: str, load: _Load) -> dict[str, Fraction]:
    if not isinstance(obj, Mapping):
        raise MarketFormatError(f"{where}: expected an object of per-worker values")
    for w in obj:
        if not isinstance(w, str):
            raise MarketFormatError(f"{where}: worker key {w!r} is not a string")
    return {w: Fraction(*load.read(v, f"{where}[{w}]")) for w, v in obj.items()}


def _parse_utility(spec: Any, load: _Load, firm: str) -> tuple[SetFunction, Optional[_Texts]]:
    """The firm's table, and its texts when the file spells it as a table
    of canonical strings (None otherwise)."""
    workers = load.workers
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
        per = _parse_value_map(values, where, load)
        unknown = set(per) - set(workers)
        if unknown:
            raise MarketFormatError(f"{where}: unknown worker {sorted(unknown)[0]!r}")
        if kind == "additive":
            return SetFunction.additive(workers, per), None
        if kind == "unit_demand":
            return SetFunction.unit_demand(workers, per), None
        budget = spec.get("budget")
        if budget is None:
            raise MarketFormatError(f"{where}: budget_additive requires 'budget'")
        budget = Fraction(*load.read(budget, f"{where} budget"))
        return SetFunction.budget_additive(workers, budget, per), None
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
    texts = []
    for k, fobj in enumerate(firms_raw):
        if not isinstance(fobj, Mapping) or not isinstance(fobj.get("name"), str):
            raise MarketFormatError(f"market: firm #{k} needs a string 'name'")
        extra = set(fobj) - {"name", "utility"}
        if extra:
            raise MarketFormatError(f"firm {fobj['name']!r}: unexpected key {sorted(extra)[0]!r}")
        fn, fn_texts = _parse_utility(fobj.get("utility"), load, fobj["name"])
        firms.append((fobj["name"], fn))
        texts.append(fn_texts)
    dis_raw = obj.get("disutilities")
    profile = rows = None
    if dis_raw is not None:
        profile, rows = _parse_profile(dis_raw, load, tuple(name for name, _ in firms))
    try:
        market = Market(workers, tuple(firms), profile)
    except ValueError as exc:
        raise MarketFormatError(f"market: {exc}") from None
    # hashed while the texts as read are still alive; `market_digest` reads
    # it back. `Market.__init__` never sets it, so a market built from this
    # one's fields renders its own digest.
    market.__dict__[_DIGEST] = _digest(market, texts, rows)
    return market


def parse_profile(obj: Any, workers: tuple[str, ...], firms: tuple[str, ...]) -> Profile:
    """Parse a bare {worker: {firm: rational}} mapping against known ids."""
    return _parse_profile(obj, _Load(tuple(workers)), tuple(firms))[0]


def _parse_profile(
    obj: Any, load: _Load, firms: tuple[str, ...]
) -> tuple[Profile, Optional[list[list[str]]]]:
    """The profile over the load's workers and `firms`, and its values as
    read, in worker and firm order, when every one is a canonical string
    (None otherwise).

    A matrix keyed by exactly those workers, each row by exactly those
    firms, is read once, in that order, through the load's memo; equal
    values share one Fraction. Any other matrix, or one holding a value
    that does not read, is walked in file order, so that the first fault
    in the file is the one named, then checked by `Profile.from_dict`.
    """
    if not isinstance(obj, Mapping):
        raise MarketFormatError("disutilities: expected an object keyed by worker")
    workers = load.workers
    raws = _matrix(obj, workers, firms)
    if raws is not None:
        memo, plain = load.rationals, load.plain
        fracs: dict[tuple[int, int], Fraction] = {}
        rows = []
        try:
            for raw_row in raws:
                row = []
                for raw in raw_row:
                    pair = _parse_memo(memo, raw, "", plain)
                    value = fracs.get(pair)
                    if value is None:
                        value = fracs[pair] = Fraction(*pair)
                    row.append(value)
                rows.append(tuple(row))
        except MarketFormatError:
            pass  # named by the walk below
        else:
            texts = raws if all(map(plain.issuperset, raws)) else None
            return Profile(workers, firms, tuple(rows)), texts
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
            f: Fraction(*load.read(v, f"disutilities[{w!r}][{f!r}]")) for f, v in row.items()
        }
    try:
        return Profile.from_dict(workers, firms, entries), None
    except ValueError as exc:
        raise MarketFormatError(f"disutilities: {exc}") from None


def _matrix(
    obj: Mapping, workers: tuple[str, ...], firms: tuple[str, ...]
) -> Optional[list[list[Any]]]:
    """The values of `obj` in worker and firm order, when its keys are
    exactly `workers` and each row is an object keyed by exactly `firms`;
    else None. Ids named twice leave room for a key that is neither, which
    `Profile.from_dict` names, so they give None too."""
    if len(obj) != len(workers) or len(set(workers)) != len(workers) or len(set(firms)) != len(firms):
        return None
    try:
        rows = [obj[w] for w in workers]
        if not all(isinstance(row, Mapping) and len(row) == len(firms) for row in rows):
            return None
        return [[row[f] for f in firms] for row in rows]
    except KeyError:
        return None


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


def _value_texts(fn: SetFunction) -> tuple[tuple[int, ...], dict[int, str]]:
    """The table's scaled values, and the text of each distinct one as
    `str(Fraction(v, den))` prints it, without building the Fraction."""
    den = fn.den
    text = {}
    for v in set(fn.scaled):
        g = gcd(v, den)
        text[v] = str(v // g) if g == den else f"{v // g}/{den // g}"
    return fn.scaled, text


def _layout(items: list[str], depth: int, brackets: str = "{}") -> str:
    """A JSON container at `depth` as json.dumps(..., indent=2) lays it out,
    from its items already encoded for depth + 1."""
    if not items:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * depth + brackets[1]


def json_text(obj: Any, depth: int = 0) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) for a tree of str, int,
    bool, None, lists, tuples and dicts with str keys, the types a
    command's payload holds, laid out by `_layout` at `depth`. Any other
    value, a float or a Fraction among them, and any key that is not a
    str, raises TypeError. On CPython 3.12 and before, json.dumps never
    takes its C encoder with an indent; this writer runs its one C step,
    the string escape, per string."""
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is dict:
        inner = depth + 1
        items = []
        for key in sorted(obj):  # `_quote` refuses a key that is not a str
            items.append(_quote(key) + ": " + json_text(obj[key], inner))
        return _layout(items, depth)
    if kind is list or kind is tuple:
        inner = depth + 1
        return _layout([json_text(x, inner) for x in obj], depth, "[]")
    if kind is bool:
        return "true" if obj else "false"
    if kind is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


# Values per piece of the canonical text: a 2^20-entry table is mapped to
# text, joined and hashed one piece of about 300 KB at a time, never whole.
_TEXT_CHUNK = 1 << 14

# The `Market.__dict__` key under which `parse_market` leaves the digest.
_DIGEST = "_marketio_digest"


def _text_pieces(
    m: Market,
    texts: Optional[Sequence[Optional[_Texts]]] = None,
    rows: Optional[Sequence[Sequence[str]]] = None,
) -> Iterator[str]:
    """The canonical text of `m` in pieces: explicit tables as arrays in
    mask order, rationals as strings, laid out by json.dumps(..., indent=2)
    rules. Firm k's texts are `texts[k]` when given (the loader's), else
    `_value_texts` of its table; values are walked by one iterator and
    mapped to text a chunk at a time, so no table's texts are held whole.
    The disutilities' texts are `rows` when given (the loader's, in worker
    and firm order), else `str` of each entry."""
    sep = '",\n' + "  " * 5 + '"'
    yield '{\n  "workers": ' + _layout(list(map(_quote, m.workers)), 1, "[]") + ',\n  "firms": ['
    for k, (name, fn) in enumerate(m.firms):
        yield (
            f'{"," if k else ""}\n    {{\n      "name": {_quote(name)},\n      "utility": {{'
            '\n        "type": "table",\n        "values": [\n          "'
        )
        read = texts[k] if texts is not None else None
        values, text = (read, None) if read is not None else _value_texts(fn)
        it = iter(values)
        for i in range(0, len(values), _TEXT_CHUNK):
            if i:
                yield sep
            chunk = values if len(values) <= _TEXT_CHUNK else islice(it, _TEXT_CHUNK)
            yield sep.join(chunk if text is None else map(text.__getitem__, chunk))
        yield '"\n        ]\n      }\n    }'
    yield "\n  ]" if m.firms else "]"
    profile = m.disutilities
    if profile is not None:
        if rows is None:
            rows = [[str(d) for d in row] for row in profile.rows]
        # a rational's canonical text needs no escape inside its quotes
        heads = [_quote(f) + ': "' for f in profile.firms]
        lines = [
            _quote(w) + ": " + _layout([head + t + '"' for head, t in zip(heads, row)], 2)
            for w, row in zip(profile.workers, rows)
        ]
        yield ',\n  "disutilities": ' + _layout(lines, 1)
    yield "\n}\n"


def dumps_market(m: Market) -> str:
    """Canonical JSON text, the text `market_digest` hashes. The digest
    never calls this function, so `bench/spans.py`, which books it as the
    dump layer, does not book the digest there too."""
    return "".join(_text_pieces(m))


def _digest(
    m: Market,
    texts: Optional[Sequence[Optional[_Texts]]] = None,
    rows: Optional[Sequence[Sequence[str]]] = None,
) -> str:
    """sha256 of the canonical text, fed piece by piece. The text is pure
    ASCII, so its bytes do not depend on an encoding."""
    h = hashlib.sha256()
    for piece in _text_pieces(m, texts, rows):
        h.update(piece.encode())
    return h.hexdigest()


def market_digest(m: Market) -> str:
    """Stable content hash: the sha256 of the canonical text
    `dumps_market` writes, so `sha256sum` of a `gen` file reproduces it.
    A market from `parse_market` carries the digest its loader took from
    the texts it read; any other market is rendered from its tables."""
    digest = m.__dict__.get(_DIGEST)
    return digest if digest is not None else _digest(m)
