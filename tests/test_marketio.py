"""JSON ingestion, serialization, and digests."""

import hashlib
import itertools
import json
import re
from fractions import Fraction
from math import lcm
from pathlib import Path

import jobmarket.cli as cli
import jobmarket.marketio as marketio
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jobmarket.marketio import (
    MarketFormatError,
    dumps_market,
    load_market,
    load_profile,
    market_digest,
    parse_market,
    parse_profile,
    parse_rational,
    subset_keys,
)
from jobmarket.model import Market, Profile, SetFunction
from jobmarket.necessity import GENERATOR_KINDS, generate
from jobmarket.subsets import members
from market_strategies import markets
from worked_examples import all_or_nothing_market, budget_vs_additive_market

DATA = Path(__file__).parent / "data"
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None)

# sha256 of the canonical serialization, recorded before the loader moved to
# memoized parsing and dict-resolved keys; every later change must keep them.
PINNED_GENERATED = {
    "additive": "829fd2d68a74e33a6bcc153c745683a6b34e6c3784641a92ce56354c50b3e699",
    "budget_additive": "62235d11feb7d9b1f7100f4842784031964c796830673cc0060d03b75c2022b3",
    "random_monotone": "31313b4a09674395347e7505be1f3c9928f8fb69926b7ebd4b05454873598616",
    "random_submodular": "ae611ffa040fd2f82be8fab27636cfea4aa1143bc0e6c16059e6fd06bb966cf7",
    "unit_demand": "1098a1c200deffa67c8314861522d0ca71a517a08766516be6fb80673212a492",
}
PINNED_FILES = {
    "all_or_nothing.json": "c8c4be9c3df11d90a03fdd384cfe4db4153093b25ed2e1031cd07ade102484a4",
    "budget_vs_additive.json": "dff0b1062e530bb0f0e96e620a736615218a1c97698771fbbaa1a249b1fcc584",
    "non_monotone.json": "42724ddd4bd6f47707ad6897ae8dbf16cbda74b36d4ba864a47b31ee1c3329cd",
    "plateau.json": "4beb4fb65686527667f1af61f75e467d544e9609c4751396e20d9be88cc63201",
    "tie_dodger.json": "f10dc78b731fc2dd489764a0e30bfd5531f637bce119328340a0ba6609df506b",
}


def serialize_market(m: Market) -> dict:
    """What `dumps_market` writes: explicit tables as arrays in mask order,
    rationals as strings. Its oracle is json.dumps(indent=2) of this."""
    firms = [
        {"name": name, "utility": {"type": "table", "values": list(map(str, fn.values))}}
        for name, fn in m.firms
    ]
    out: dict = {"workers": list(m.workers), "firms": firms}
    if m.disutilities is not None:
        out["disutilities"] = m.disutilities.to_dict()
    return out


def serialize_keyed(m: Market) -> dict:
    """The keyed canonical form: explicit tables keyed in universe order,
    rationals as strings. `market_digest` hashes its sorted compact text
    without building it; this is its oracle."""
    out = serialize_market(m)
    keys = subset_keys(m.workers)
    for firm in out["firms"]:
        firm["utility"]["values"] = dict(zip(keys, firm["utility"]["values"]))
    return out


GOOD = {
    "workers": ["w1", "w2"],
    "firms": [
        {
            "name": "f1",
            "utility": {
                "type": "table",
                "values": {"": "0", "w1": "0", "w2": "0", "w1,w2": "10"},
            },
        }
    ],
    "disutilities": {"w1": {"f1": "3"}, "w2": {"f1": "4"}},
}


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(5) == 5
    assert parse_rational("0.5") == Fraction(1, 2)
    assert parse_rational("1e100") == 10**100
    assert parse_rational("25E-2") == Fraction(1, 4)
    assert parse_rational(10**100 - 1) == 10**100 - 1
    assert parse_rational(-(10**100 - 1)) == -(10**100 - 1)


# the last five break the size caps: on strings in characters and exponent,
# on JSON integers in digits
@pytest.mark.parametrize(
    "bad",
    [0.5, True, None, [1], "3/0", "abc", "1e5000", "1e-5000", "1" * 101, 10**100, -(10**100)],
)
def test_parse_rational_rejects(bad):
    with pytest.raises(MarketFormatError):
        parse_rational(bad)


def test_format_rational_is_exact():
    assert str(Fraction(3, 4)) == "3/4"
    assert str(Fraction(-2)) == "-2"
    assert parse_rational(str(Fraction(10, 6))) == Fraction(5, 3)


def test_parse_market_table_utility():
    m = parse_market(GOOD)
    assert m.workers == ("w1", "w2")
    assert m.utility("f1").subset_value(("w1", "w2")) == 10
    assert m.disutilities.get("w2", "f1") == 4


def test_parse_market_family_utilities():
    obj = {
        "workers": ["a", "b"],
        "firms": [
            {"name": "f1", "utility": {"type": "additive", "values": {"a": "1", "b": "2"}}},
            {
                "name": "f2",
                "utility": {
                    "type": "budget_additive",
                    "budget": "2",
                    "values": {"a": "1", "b": "2"},
                },
            },
            {"name": "f3", "utility": {"type": "unit_demand", "values": {"a": "1"}}},
        ],
    }
    m = parse_market(obj)
    assert m.utility("f1").subset_value(("a", "b")) == 3
    assert m.utility("f2").subset_value(("a", "b")) == 2
    assert m.utility("f3").subset_value(("a", "b")) == 1
    assert m.disutilities is None


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda o: o.pop("workers"), "workers"),
        (lambda o: o.update(workers="w1"), "list of strings"),
        (lambda o: o.update(extra=1), "unexpected key"),
        (lambda o: o.update(firms=[{"utility": {}}]), "string 'name'"),
        (
            lambda o: o["firms"][0]["utility"].update(type="mystery"),
            "unknown type",
        ),
        (
            lambda o: o["firms"][0]["utility"].update(type=["table"]),
            r"unknown type \['table'\]",
        ),
        (
            lambda o: o["firms"][0]["utility"].update(type={"table": 1}),
            r"unknown type \{'table': 1\}",
        ),
        (
            lambda o: o["firms"][0]["utility"].pop("values"),
            "missing 'values'",
        ),
        (
            lambda o: o["firms"][0]["utility"]["values"].pop("w1,w2"),
            "missing",
        ),
        (
            lambda o: o["disutilities"].pop("w1"),
            "missing worker",
        ),
        (
            lambda o: o["disutilities"]["w1"].update(f1=0.5),
            "rational",
        ),
    ],
)
def test_parse_market_error_paths(mutate, message):
    obj = json.loads(json.dumps(GOOD))
    mutate(obj)
    with pytest.raises(MarketFormatError, match=message):
        parse_market(obj)


def test_parse_market_refuses_oversized_universe_before_firms():
    # the firm spec is broken too; the worker cap must be reported first
    obj = {
        "workers": [f"w{i}" for i in range(40)],
        "firms": [{"name": "f", "utility": {"type": "mystery"}}],
    }
    with pytest.raises(MarketFormatError, match="40 workers exceeds cap of 20"):
        parse_market(obj)


def test_budget_additive_requires_budget():
    obj = {
        "workers": ["a"],
        "firms": [{"name": "f", "utility": {"type": "budget_additive", "values": {"a": 1}}}],
    }
    with pytest.raises(MarketFormatError, match="budget"):
        parse_market(obj)


@pytest.mark.parametrize("kind", ["table", "additive", "unit_demand"])
def test_budget_key_only_on_budget_additive(kind):
    # only budget_additive reads a budget; elsewhere it would be ignored
    values = {"": "0", "a": "5"} if kind == "table" else {"a": "5"}
    obj = {
        "workers": ["a"],
        "firms": [{"name": "f", "utility": {"type": kind, "budget": "1", "values": values}}],
    }
    with pytest.raises(MarketFormatError) as exc:
        parse_market(obj)
    assert str(exc.value) == "firm 'f' utility: unexpected key 'budget'"


@pytest.mark.parametrize("kind", ["additive", "budget_additive", "unit_demand"])
def test_value_map_refuses_non_string_worker_keys(kind):
    # str(1) == "1" would load the value against worker "1"; a Python
    # caller's integer key is refused, as a non-string table key is
    utility = {"type": kind, "values": {1: "5"}}
    if kind == "budget_additive":
        utility["budget"] = "9"
    obj = {"workers": ["1"], "firms": [{"name": "f", "utility": utility}]}
    with pytest.raises(MarketFormatError) as exc:
        parse_market(obj)
    assert str(exc.value) == "firm 'f' utility: worker key 1 is not a string"
    utility["values"] = {"1": "5"}
    assert parse_market(obj).firms[0][1].scaled == (0, 5)


def test_parse_profile_strays():
    with pytest.raises(MarketFormatError, match="expected an object"):
        parse_profile([1], ("w1",), ("f1",))
    with pytest.raises(MarketFormatError, match="unknown firm"):
        parse_profile({"w1": {"f9": "1"}}, ("w1",), ("f1",))


def test_profile_refuses_non_string_keys():
    # str() would load {1: {7: "0"}} as worker "1" at firm "7", and let an
    # integer key and its string spelling collapse into one row
    obj = {
        "workers": ["1", "w1"],
        "firms": [{"name": "7", "utility": {"type": "additive", "values": {"1": "1"}}}],
    }
    cases = [
        ({1: {7: "0"}, "w1": {"7": "0"}}, "disutilities: worker key 1 is not a string"),
        ({"1": {"7": "0"}, "w1": {7: "0"}}, "disutilities['w1']: firm key 7 is not a string"),
        ({1: {"7": "0"}, "1": {"7": "1"}, "w1": {"7": "0"}}, "disutilities: worker key 1 is not a string"),
    ]
    for profile, message in cases:
        obj["disutilities"] = profile
        with pytest.raises(MarketFormatError) as exc:
            parse_market(obj)
        assert str(exc.value) == message
        with pytest.raises(MarketFormatError) as exc:
            parse_profile(profile, ("1", "w1"), ("7",))
        assert str(exc.value) == message
    obj["disutilities"] = {"1": {"7": "1"}, "w1": {"7": "0"}}
    assert parse_market(obj).disutilities.get("1", "7") == 1


def test_serialize_market_roundtrips_exactly():
    for m, serialize in itertools.product(
        (all_or_nothing_market(), budget_vs_additive_market("1/4", "1/4")),
        (serialize_market, serialize_keyed),
    ):
        again = parse_market(serialize(m))
        assert again.workers == m.workers
        assert again.firm_names == m.firm_names
        for name in m.firm_names:
            assert again.utility(name).values == m.utility(name).values
        assert again.disutilities.rows == m.disutilities.rows
        assert market_digest(again) == market_digest(m)


def test_dumps_market_is_stable_and_parseable():
    m = all_or_nothing_market()
    text = dumps_market(m)
    assert text == dumps_market(m)
    assert text.endswith("\n")
    assert parse_market(json.loads(text)).workers == m.workers


def test_market_digest_tracks_content():
    d1 = market_digest(all_or_nothing_market("3", "4"))
    d2 = market_digest(all_or_nothing_market("3", "5"))
    assert d1 != d2
    assert len(d1) == len(d2)


def test_load_market_and_profile(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(GOOD))
    m = load_market(str(path))
    assert m.ubar == 10
    ppath = tmp_path / "p.json"
    ppath.write_text(json.dumps({"w1": {"f1": "1"}, "w2": {"f1": "0"}}))
    p = load_profile(str(ppath), m)
    assert p.get("w1", "f1") == 1


def test_load_market_bad_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(MarketFormatError):
        load_market(str(path))
    with pytest.raises(MarketFormatError):
        load_market(str(tmp_path / "absent.json"))


@pytest.mark.parametrize(
    "name, text, key",
    [
        ("m.json", '{"workers": ["a"], "firms": [{"name": "f", "utility": {"type": "table", '
         '"values": {"": "0", "a": "1", "a": "5"}}}]}', "a"),
        ("m.json", '{"workers": ["a"], "firms": [{"name": "f", "utility": '
         '{"type": "additive", "values": {"a": "1", "a": "5"}}}]}', "a"),
        ("m.json", '{"workers": ["a"], "firms": [{"name": "f", "utility": {"type": "additive", '
         '"values": {"a": "1"}}}], "disutilities": {"a": {"f": "0", "f": "1"}}}', "f"),
        ("p.json", '{"w1": {"f1": "1", "f1": "0"}, "w2": {"f1": "0"}}', "f1"),
        ("p.json", '{"w1": {"f1": "1"}, "w2": {"f1": "0"}, "w1": {"f1": "0"}}', "w1"),
    ],
    ids=["table key", "per-worker value key", "embedded profile entry", "profile entry",
         "profile row"],
)
def test_json_files_refuse_a_duplicate_key(tmp_path, name, text, key):
    # json keeps the last of two equal keys, so each of these loaded silently
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(MarketFormatError, match=f"^{re.escape(str(path))}: duplicate key '{key}'$"):
        if name == "m.json":
            load_market(str(path))
        else:
            load_profile(str(path), parse_market(GOOD))


def test_integer_cap_matches_string_cap():
    with pytest.raises(MarketFormatError, match=r"^v: integer longer than 100 digits$"):
        parse_rational(10**4000, "v")
    assert parse_rational(int("9" * 100)) == parse_rational("9" * 100)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_generated_market_digest_is_pinned(kind):
    assert market_digest(generate(kind, 6, 2, seed=1)) == PINNED_GENERATED[kind]


@pytest.mark.parametrize("name", sorted(PINNED_FILES))
def test_data_market_digest_is_pinned(name):
    assert market_digest(load_market(str(DATA / name))) == PINNED_FILES[name]


def test_every_data_market_is_pinned():
    found = {p.name for p in DATA.glob("*.json") if "workers" in json.loads(p.read_text())}
    assert found == set(PINNED_FILES)


def test_subset_keys_join_members_in_universe_order():
    workers = ("a", "b", "c", "d")
    assert subset_keys(workers) == [",".join(members(m, workers)) for m in range(16)]
    assert subset_keys(()) == [""]


@PROPERTY_SETTINGS
@given(markets(max_n=5, max_m=3))
def test_dump_parse_roundtrip(m):
    again = parse_market(json.loads(dumps_market(m)))
    assert again == m
    assert market_digest(again) == market_digest(m)
    assert [fn.values for _, fn in again.firms] == [fn.values for _, fn in m.firms]
    assert again.disutilities == m.disutilities


@PROPERTY_SETTINGS
@given(st.data(), markets(max_n=5, max_m=2))
def test_key_order_does_not_change_masks(data, m):
    obj = serialize_keyed(m)
    for firm in obj["firms"]:
        respelled = {}
        for key, value in data.draw(st.permutations(list(firm["utility"]["values"].items()))):
            ids = data.draw(st.permutations(key.split(","))) if key else []
            respelled[",".join(ids)] = value
        firm["utility"]["values"] = respelled
    again = parse_market(obj)
    assert [fn.values for _, fn in again.firms] == [fn.values for _, fn in m.firms]


@pytest.mark.parametrize(
    "values, message",
    [
        # a canonical and a reordered spelling of one subset: the later is named
        (
            {"": "0", "w1": "0", "w2": "0", "w2,w1": "10", "w1,w2": "10"},
            "firm 'f1' utility: subset ('w1', 'w2') appears twice in table",
        ),
        (
            {"": "0", "w1": "0", "w2": "0", "w1,w2": "10", "w2,w1": "10"},
            "firm 'f1' utility: subset ('w2', 'w1') appears twice in table",
        ),
        (
            {"": "0", "w1": "0", "w2": "0", "w1,w2": "10", "w3": "1"},
            "firm 'f1' utility: unknown worker 'w3'",
        ),
        (
            {"": "0", "w1": "0", "w2": "0", "w1,w2": "10", "w1,w1": "1"},
            "firm 'f1' utility: duplicate worker 'w1'",
        ),
        (
            {"": "0", "w1": "0", "w1,w2": "10"},
            "firm 'f1' utility: table is missing 1 subsets, first ('w2',)",
        ),
        # a JSON true after a 1 is still a bool, not the memoized 1
        (
            {"": "0", "w1": 1, "w2": True, "w1,w2": "10"},
            "firm 'f1' utility['w2']: expected a rational string, got True",
        ),
        (
            {"": "0", "w1": "1", "w2": True, "w1,w2": "10"},
            "firm 'f1' utility['w2']: expected a rational string, got True",
        ),
        # stray commas are not another spelling of a subset
        (
            {"": "0", "w1": "0", "w2": "0", "w1,w2": "2", "w1,w2,": "7"},
            "firm 'f1' utility: table key 'w1,w2,' has an empty part",
        ),
        (
            {",": "0", "w1": "0", "w2": "0", "w1,w2": "2"},
            "firm 'f1' utility: table key ',' has an empty part",
        ),
        (
            {"": "0", "w1": "0", "w2": "0", "w1,,w2": "2"},
            "firm 'f1' utility: table key 'w1,,w2' has an empty part",
        ),
        # two offenders: the first in entry order is named
        (
            {"": "0", "w1": "0", "w2": "0", "w1,w2": "1", "w2,w1": "1", "w3": "1"},
            "firm 'f1' utility: subset ('w2', 'w1') appears twice in table",
        ),
        (
            {"": "0", "w3": "1", "w1": "0", "w2": "0", "w1,w2": "1", "w2,w1": "1"},
            "firm 'f1' utility: unknown worker 'w3'",
        ),
        (
            {"": "0", "w1": "0", "w2": "0", "w1,w2": "1", "w2,w1": "1", "w1,,w2": "1"},
            "firm 'f1' utility: subset ('w2', 'w1') appears twice in table",
        ),
        (
            {"": "0", "w1": "0", "w2": "0", "w2,,w1": "1", "w1,w2": "1", "w2,w1": "1"},
            "firm 'f1' utility: table key 'w2,,w1' has an empty part",
        ),
        (
            {"": "0", "w1": "0", "w1,w2": "1", "w3": "2"},
            "firm 'f1' utility: unknown worker 'w3'",
        ),
        (
            {"": "0", "w1,w2": "1"},
            "firm 'f1' utility: table is missing 2 subsets, first ('w1',)",
        ),
        (
            {"": "0", "w1": "1/0", "w2": "abc", "w1,w2": "1/0"},
            "firm 'f1' utility['w1']: bad rational '1/0' (Fraction(1, 0))",
        ),
        # every value is parsed before any key is resolved
        (
            {"": "0", "w3": "1", "w1": "0", "w2": "0", "w1,w2": "x"},
            "firm 'f1' utility['w1,w2']: bad rational 'x' (Invalid literal for Fraction: 'x')",
        ),
        (
            {"": "0", "w1": 1, "w2": 1.0, "w1,w2": "10"},
            "firm 'f1' utility['w2']: expected a rational string, got 1.0",
        ),
        (
            {"": "0", "w1": "0", "w2": [1], "w1,w2": "10"},
            "firm 'f1' utility['w2']: expected a rational string, got list",
        ),
        # a Python object may hold the tuple keys SetFunction.from_table takes
        (
            {"": "0", ("w1",): "0", "w2": "0", "w1,w2": "10"},
            "firm 'f1' utility: table key ('w1',) is not a string",
        ),
        (
            {"": "0", "w1": "0", "w2": "0", "w1,w2": "10", 7: "1"},
            "firm 'f1' utility: table key 7 is not a string",
        ),
    ],
)
def test_table_key_and_value_errors(values, message):
    obj = json.loads(json.dumps(GOOD))
    obj["firms"][0]["utility"]["values"] = values
    with pytest.raises(MarketFormatError) as exc:
        parse_market(obj)
    assert str(exc.value) == message


def test_profile_names_first_bad_entry_after_memoized_ones():
    obj = json.loads(json.dumps(GOOD))
    obj["disutilities"] = {"w1": {"f1": "3"}, "w2": {"f1": True}}
    obj["firms"][0]["utility"]["values"]["w1"] = 3
    with pytest.raises(MarketFormatError) as exc:
        parse_market(obj)
    assert str(exc.value) == "disutilities['w2']['f1']: expected a rational string, got True"


# ---- the bulk table loader against a per-entry reference ---------------------

# worker ids with JSON escapes, non-ASCII text and characters that sort
# below '"' and ','
ODD_IDS = ("w1", "a", "a b", "a!", 'a"', "\\", "\u00e9", "\u2603", "\x01", "W")


def _decimal(v: Fraction) -> str:
    """v as a decimal string; its denominator divides 100."""
    c = int(v * 100)
    return f"{'-' if c < 0 else ''}{abs(c) // 100}.{abs(c) % 100:02d}"


def _spellings(v: Fraction) -> list:
    """JSON values that all parse to v."""
    out = [str(v), f"{v.numerator * 3}/{v.denominator * 3}"]
    if 100 % v.denominator == 0:
        out += [_decimal(v), f"{int(v * 100)}e-2"]
    if v.denominator == 1:
        out.append(v.numerator)
    return out


@st.composite
def table_market_objects(draw):
    """(market JSON object, True key or None): tables in shuffled entry
    order, keys in drawn worker order, values in drawn spellings, and now
    and then a JSON true beside a JSON 1 in the first firm."""
    n = draw(st.integers(0, 5))
    workers = draw(st.permutations(ODD_IDS))[:n]
    firms = []
    for j in range(draw(st.integers(1, 3))):
        dens = draw(st.sampled_from(((1,), (1, 2, 4), (1, 2, 3, 5))))
        value = st.builds(Fraction, st.integers(-6, 12), st.sampled_from(dens))
        entries = []
        for mask in range(1 << n):
            ids = [w for i, w in enumerate(workers) if mask >> i & 1]
            if draw(st.booleans()):
                ids = draw(st.permutations(ids))
            v = draw(value) if mask else Fraction(0)
            entries.append([",".join(ids), draw(st.sampled_from(_spellings(v)))])
        entries = draw(st.permutations(entries))
        firms.append({"name": f"f{j}", "utility": {"type": "table", "values": entries}})
    true_key = None
    if n and draw(st.booleans()):
        entries = firms[0]["utility"]["values"]
        picks = [k for k, (key, _) in enumerate(entries) if key]
        one, true = draw(st.permutations(picks))[:2] if len(picks) > 1 else (None, picks[0])
        if one is not None:
            entries[one][1] = 1
        entries[true][1] = True
        true_key = entries[true][0]
    for firm in firms:
        firm["utility"]["values"] = dict(firm["utility"]["values"])
    return json.loads(json.dumps({"workers": list(workers), "firms": firms})), true_key


def _reference_table(workers, values):
    """(values, den, scaled), parsed and placed one entry at a time."""
    index = {w: i for i, w in enumerate(workers)}
    vals = [None] * (1 << len(workers))
    for key, raw in values.items():
        vals[sum(1 << index[w] for w in key.split(",")) if key else 0] = Fraction(raw)
    den = lcm(*(v.denominator for v in vals))
    return tuple(vals), den, tuple(v.numerator * (den // v.denominator) for v in vals)


@PROPERTY_SETTINGS
@given(table_market_objects())
def test_bulk_table_loader_matches_per_entry_reference(case):
    obj, true_key = case
    if true_key is not None:
        with pytest.raises(MarketFormatError) as exc:
            parse_market(obj)
        assert str(exc.value) == (
            f"firm 'f0' utility[{true_key!r}]: expected a rational string, got True"
        )
        return
    m = parse_market(obj)
    for firm, (_, fn) in zip(obj["firms"], m.firms):
        values, den, scaled = _reference_table(obj["workers"], firm["utility"]["values"])
        assert (fn.values, fn.den, fn.scaled) == (values, den, scaled)
        assert all(type(v) is int for v in fn.scaled)


# ---- the digest against json.dumps of the canonical form -----------------------

ODD_TEXT = st.text(
    alphabet=st.sampled_from(" !#\"\\a\u00e9\u2603\x01\x7f-"), min_size=1, max_size=3
)


@st.composite
def odd_markets(draw) -> Market:
    """Markets whose worker and firm ids need escaping or sort below '"'."""
    n = draw(st.integers(0, 5))
    workers = tuple(draw(st.lists(ODD_TEXT, min_size=n, max_size=n, unique=True)))
    names = tuple(draw(st.lists(ODD_TEXT, max_size=3, unique=True)))
    value = st.builds(Fraction, st.integers(-4, 9), st.sampled_from((1, 2, 3, 6)))
    firms = tuple(
        (name, SetFunction.from_values(workers, (Fraction(0), *(draw(value) for _ in range((1 << n) - 1)))))
        for name in names
    )
    profile = None
    if draw(st.booleans()):
        entries = {w: {f: draw(value) for f in names} for w in workers}
        profile = Profile.from_dict(workers, names, entries)
    return Market(workers, firms, profile)


def _oracle_digest(m: Market) -> str:
    blob = json.dumps(serialize_keyed(m), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@PROPERTY_SETTINGS
@given(odd_markets())
@example(
    Market(
        ("a", "a b", 'a"', "a!"),
        (("f", SetFunction.additive(("a", "a b", 'a"', "a!"), {"a": "1/2", "a!": 3})),),
    )
)
def test_market_digest_matches_sorted_json_dumps(m):
    assert market_digest(m) == _oracle_digest(m)
    keys = subset_keys(m.workers)
    tables = [firm["utility"]["values"] for firm in serialize_keyed(m)["firms"]]
    assert tables == [dict(zip(keys, map(str, fn.values))) for _, fn in m.firms]


def _oracle_dump(m: Market) -> str:
    return json.dumps(serialize_market(m), indent=2) + "\n"


@PROPERTY_SETTINGS
@given(odd_markets())
@example(Market((), ()))
@example(Market((), (("f", SetFunction.additive((), {})),), Profile((), ("f",), ())))
@example(Market(("a",), (), Profile(("a",), (), ((),))))
@example(
    Market(
        ('q"', "b\\", "\u00e9", "c\x01"),
        (("f\u2603", SetFunction.unit_demand(('q"', "b\\", "\u00e9", "c\x01"), {"b\\": "-1/3"})),),
    )
)
def test_dumps_market_matches_indented_json_dumps(m):
    assert dumps_market(m) == _oracle_dump(m)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_generated_dump_matches_indented_json_dumps(kind):
    for n, firms in ((0, 0), (0, 2), (1, 1), (3, 0), (7, 3)):
        m = generate(kind, n, firms, seed=2)
        assert dumps_market(m) == _oracle_dump(m)


def test_digest_takes_the_loads_key_list(tmp_path):
    m = generate("random_monotone", 5, 2, seed=3)
    path = tmp_path / "m.json"
    path.write_text(dumps_market(m))
    keys: list[str] = []
    loaded = load_market(str(path), keys)
    assert keys == subset_keys(m.workers)
    assert market_digest(loaded, keys) == market_digest(loaded) == market_digest(m)


# ---- the array spelling beside the keyed one -------------------------------

GOOD_ARRAY = {
    "workers": ["w1", "w2", "w3"],
    "firms": [
        {"name": "f1", "utility": {"type": "table", "values": ["0", "1", "1", "2", "1", "2", "2", "3"]}}
    ],
}


def _assert_spellings_agree(m: Market) -> None:
    arrays = parse_market(json.loads(dumps_market(m)))
    keyed = parse_market(serialize_keyed(m))
    assert arrays == keyed == m
    assert market_digest(arrays) == market_digest(keyed) == market_digest(m)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_both_spellings_load_alike_on_every_generator_kind(kind):
    for n, firms in ((0, 1), (1, 2), (4, 3), (7, 2)):
        _assert_spellings_agree(generate(kind, n, firms, seed=4))


@PROPERTY_SETTINGS
@given(odd_markets())
@example(Market(('q"', "b\\", "é"), (("f", SetFunction.additive(('q"', "b\\", "é"), {"é": "1/3"})),)))
def test_both_spellings_load_alike_on_odd_ids(m):
    _assert_spellings_agree(m)


@pytest.mark.parametrize(
    "values", [["0", "1e5000", "1"], ["0", "1e5000", "1", "2", "1", "2", "2", "3", "4"], []]
)
def test_wrong_length_array_is_refused_before_any_entry(monkeypatch, values):
    parsed = []
    monkeypatch.setattr(marketio, "parse_rational", lambda *a: parsed.append(a))
    monkeypatch.setattr(marketio, "_parse_memo", lambda *a: parsed.append(a))
    obj = json.loads(json.dumps(GOOD_ARRAY))
    obj["firms"][0]["utility"]["values"] = values
    with pytest.raises(MarketFormatError) as exc:
        parse_market(obj)
    assert str(exc.value) == (
        f"firm 'f1' utility: table 'values' holds {len(values)} entries, expected 2^3 = 8,"
        " one per subset in mask order"
    )
    assert parsed == []


@pytest.mark.parametrize(
    "index, entry, message",
    [
        (5, "x", " values[5] ('w1,w3'): bad rational 'x' (Invalid literal for Fraction: 'x')"),
        (5, True, " values[5] ('w1,w3'): expected a rational string, got True"),
        (3, 1.5, " values[3] ('w1,w2'): expected a rational string, got 1.5"),
        (7, None, " values[7] ('w1,w2,w3'): expected a rational string, got NoneType"),
        (4, ["1"], " values[4] ('w3'): expected a rational string, got list"),
        (6, {"a": "1"}, " values[6] ('w2,w3'): expected a rational string, got dict"),
        (2, "1e5000", " values[2] ('w2'): exponent of '1e5000' exceeds 100"),
        (0, "1", ": empty set must map to 0, got 1"),
    ],
)
def test_bad_array_entries_exit_2_named_by_index_and_key(capsys, tmp_path, index, entry, message):
    obj = json.loads(json.dumps(GOOD_ARRAY))
    obj["firms"][0]["utility"]["values"][index] = entry
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    rc = cli.main(["classify", str(path)])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    assert captured.err == f"error: firm 'f1' utility{message}\n"


def test_a_true_after_a_one_in_an_array_is_still_a_bool():
    obj = json.loads(json.dumps(GOOD_ARRAY))
    obj["firms"][0]["utility"]["values"][1:3] = [1, True]
    with pytest.raises(MarketFormatError) as exc:
        parse_market(obj)
    assert str(exc.value) == "firm 'f1' utility values[2] ('w2'): expected a rational string, got True"


@pytest.mark.parametrize("values", ["0,1,1,2,1,2,2,3", 7, True])
def test_table_values_of_neither_form_exit_2(capsys, tmp_path, values):
    obj = json.loads(json.dumps(GOOD_ARRAY))
    obj["firms"][0]["utility"]["values"] = values
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    rc = cli.main(["vcg", str(path)])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    assert captured.err == (
        "error: firm 'f1' utility: table 'values' must be an array in mask order"
        " or an object keyed by subset\n"
    )


def test_array_and_keyed_files_give_byte_identical_commands(capsys, tmp_path):
    m = generate("random_monotone", 5, 2, seed=6)
    arrays, keyed = tmp_path / "arrays.json", tmp_path / "keyed.json"
    arrays.write_text(dumps_market(m))
    keyed.write_text(json.dumps(serialize_keyed(m)))
    assert json.loads(arrays.read_text()) != json.loads(keyed.read_text())
    for argv in (["classify"], ["solve"], ["vcg"], ["stability"], ["necessity", "--firm", "f2"]):
        for tail in ([], ["--json"]):
            outputs = []
            for path in (arrays, keyed):
                rc = cli.main([argv[0], str(path), *argv[1:], *tail])
                outputs.append((rc, capsys.readouterr()))
            assert outputs[0] == outputs[1], argv + tail
