"""JSON ingestion, serialization, and digests."""

import hashlib
import itertools
import json
import re
from fractions import Fraction
from math import gcd, lcm
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

# sha256 of the canonical text `dumps_market` writes, which the digest hashes;
# every later change must keep them.
PINNED_GENERATED = {
    "additive": "e7552b789f0f0a4d36f723648a7a1f6a5802826a5310f60f8f776fbf2be900eb",
    "budget_additive": "81383b6e9d0f459fe1aa81ae0423090f6e76c959213200c645f9eda964f7735a",
    "random_monotone": "495722084c15e77282bbc616cb0552b17a545d646f43dab4ef49569e298be459",
    "random_submodular": "49eab08d912b4e8fe719552bc80140a43066f1e84fcd299bf7351c2519934922",
    "unit_demand": "4ad6e571e01a126769764c2a73887cade0a566fdb468440aeab6dee793348226",
}
PINNED_FILES = {
    "all_or_nothing.json": "1af969abdaa454e694a3d3fbc4d37cf91722b1810517a94f959e776cf892923e",
    "budget_vs_additive.json": "4af8a904497f2beaf9e4a29cdea3cc807e95ec8eaae6bcac6c8e9afe940309ad",
    "non_monotone.json": "3d900150bb1042ea68c9b5ffabd5adee838f8fffde0faf2091db7f813036011f",
    "plateau.json": "2cbd2817b286628279532d362aa2cb1a80a9ba48213f4790ba39c04ea5156558",
    "tie_dodger.json": "8070ebab11cd8f737a35dfc3921f5293806738cd9c9d8e66c8dcc579dbc6377b",
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
    """The market with every table as an object keyed by subset, keys in
    universe order, rationals as strings: the second spelling a file may
    use, to load beside the arrays of `serialize_market`."""
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


def test_profile_in_any_key_order_loads_and_hashes_in_worker_order():
    """The matrix is read in worker and firm order, whatever order the file
    lists its keys in, and hashed as `gen` writes it; of two bad values the
    one the file lists first is named, as a walk in file order names it."""
    workers = ("w1", "w2", "w3")
    fn = SetFunction.additive(workers, {"w1": 2, "w2": 3, "w3": 4})
    firms = (("f1", fn), ("f2", fn))
    rows = (("1/2", "0"), ("2", "7/3"), ("0", "1"))
    m = Market(workers, firms, Profile(workers, ("f1", "f2"), tuple(
        tuple(map(Fraction, row)) for row in rows)))
    obj = json.loads(dumps_market(m))
    obj["disutilities"] = {
        w: dict(reversed(list(obj["disutilities"][w].items()))) for w in ("w3", "w1", "w2")
    }
    loaded = parse_market(obj)
    assert loaded == m
    assert market_digest(loaded) == hashlib.sha256(dumps_market(m).encode()).hexdigest()
    obj["disutilities"]["w3"]["f1"] = "x"
    obj["disutilities"]["w1"]["f2"] = "y"
    with pytest.raises(MarketFormatError) as exc:
        parse_market(obj)
    assert str(exc.value) == (
        "disutilities['w3']['f1']: bad rational 'x' (Invalid literal for Fraction: 'x')"
    )
    with pytest.raises(MarketFormatError) as exc:
        parse_profile(obj["disutilities"], workers, ("f1", "f2"))
    assert str(exc.value) == (
        "disutilities['w3']['f1']: bad rational 'x' (Invalid literal for Fraction: 'x')"
    )


# pairs of bad values: the first is listed first in the file but read
# second in worker order; each kind of refusal the bulk step can meet
BAD_VALUE_PAIRS = [
    ("x", "y"),
    (True, "y"),
    ("x", False),
    (["1"], "2"),
    ("1e5000", {"a": "1"}),
    (1.5, "1/0"),
    ("y", "x"),
]


def _first_refusal(raw, where: str) -> str:
    with pytest.raises(MarketFormatError) as exc:
        parse_rational(raw, where)
    return str(exc.value)


@pytest.mark.parametrize("first, second", BAD_VALUE_PAIRS)
def test_matrix_names_its_first_bad_value_in_file_order(first, second):
    """A matrix keyed in another worker and firm order is read in worker
    order, but of two bad values the one the file lists first is named."""
    obj = {
        "workers": ["w1", "w2", "w3"],
        "firms": [
            {"name": "f1", "utility": {"type": "additive", "values": {"w1": "1"}}},
            {"name": "f2", "utility": {"type": "additive", "values": {"w2": "1"}}},
        ],
        "disutilities": {
            "w3": {"f2": "1", "f1": first},
            "w1": {"f2": second, "f1": "0"},
            "w2": {"f2": "1/2", "f1": "0"},
        },
    }
    expected = _first_refusal(first, "disutilities['w3']['f1']")
    with pytest.raises(MarketFormatError) as exc:
        parse_market(obj)
    assert str(exc.value) == expected
    with pytest.raises(MarketFormatError) as exc:
        parse_profile(obj["disutilities"], ("w1", "w2", "w3"), ("f1", "f2"))
    assert str(exc.value) == expected


@pytest.mark.parametrize("kind", ["additive", "budget_additive", "unit_demand"])
@pytest.mark.parametrize("first, second", BAD_VALUE_PAIRS)
def test_value_map_names_its_first_bad_value_in_file_order(kind, first, second):
    utility = {"type": kind, "values": {"w3": first, "w2": "1", "w1": second}}
    if kind == "budget_additive":
        utility["budget"] = "9"
    obj = {"workers": ["w1", "w2", "w3"], "firms": [{"name": "f", "utility": utility}]}
    with pytest.raises(MarketFormatError) as exc:
        parse_market(obj)
    assert str(exc.value) == _first_refusal(first, "firm 'f' utility[w3]")


def test_profile_against_ids_named_twice_names_the_stray_key():
    """A row as long as a firm list that names a firm twice holds a key
    that is no firm: it is named, not read past in firm order."""
    fn = {"type": "additive", "values": {"a": "1"}}
    obj = {
        "workers": ["a"],
        "firms": [{"name": "f1", "utility": fn}, {"name": "f1", "utility": fn}],
        "disutilities": {"a": {"f1": "1", "f2": "2"}},
    }
    with pytest.raises(MarketFormatError, match=r"^disutilities: worker 'a' lists unknown firm 'f2'$"):
        parse_market(obj)
    with pytest.raises(MarketFormatError, match=r"^disutilities: disutilities list unknown worker 'b'$"):
        parse_profile({"a": {"f": "1"}, "b": {"f": "1"}}, ("a", "a"), ("f",))


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
    assert market_digest(m) == _rendered_digest(m)


# ---- the dump and the digest against json.dumps of the canonical form --------

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


def _oracle_dump(m: Market) -> str:
    return json.dumps(serialize_market(m), indent=2) + "\n"


def _oracle_digest(m: Market) -> str:
    return hashlib.sha256(_oracle_dump(m).encode("utf-8")).hexdigest()


@PROPERTY_SETTINGS
@given(odd_markets())
@example(
    Market(
        ("a", "a b", 'a"', "a!"),
        (("f", SetFunction.additive(("a", "a b", 'a"', "a!"), {"a": "1/2", "a!": 3})),),
    )
)
def test_market_digest_is_the_sha256_of_indented_json_dumps(m):
    assert market_digest(m) == _oracle_digest(m)
    # and the keyed spelling the loader tests write keys each value by its subset
    keys = subset_keys(m.workers)
    tables = [firm["utility"]["values"] for firm in serialize_keyed(m)["firms"]]
    assert tables == [dict(zip(keys, map(str, fn.values))) for _, fn in m.firms]


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


def test_array_files_build_no_subset_keys(capsys, tmp_path, monkeypatch):
    """Array tables are read by mask, and the digest hashes the dumped
    arrays, so no command on a `gen` file needs the 2^n subset keys."""
    path = tmp_path / "m.json"
    path.write_text(dumps_market(generate("random_monotone", 6, 2, seed=1)))

    def refuse(workers):
        raise AssertionError(f"subset keys built for {workers}")

    monkeypatch.setattr(marketio, "subset_keys", refuse)
    for command in ("vcg", "classify"):
        rc = cli.main([command, str(path), "--json"])
        captured = capsys.readouterr()
        assert rc in (0, 1) and captured.err == "", command
        assert json.loads(captured.out)["command"] == command


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


# ---- the loader's digest: hashed from the texts it read ---------------------

# Each spelling of a value the loader must hash as its canonical text; the
# table values below have denominators 1 and 2, so every spelling applies.
RESPELLINGS = {
    "canonical": str,
    "json integer": lambda v: v.numerator if v.denominator == 1 else str(v),
    "decimal": _decimal,
    "unreduced": lambda v: f"{2 * v.numerator}/{2 * v.denominator}",
    "exponent": lambda v: f"{v * 10}e-1",
    "plus": lambda v: f"+{v}",
    "space": lambda v: f" {v}",
    "leading zero": lambda v: f"0{v}",
}

DIGEST_WORKERS = ("w1", "w2", "w3")
DIGEST_TABLES = {
    "f1": ("0", "1", "1/2", "2", "3/2", "5/2", "2", "7/2"),
    "f2": ("0", "3", "3", "3", "1", "4", "4", "9/2"),
}
DIGEST_PROFILE = {
    "w1": {"f1": "1/2", "f2": "1"},
    "w2": {"f1": "0", "f2": "3/2"},
    "w3": {"f1": "2", "f2": "0"},
}


def _rendered_digest(m: Market) -> str:
    return hashlib.sha256(dumps_market(m).encode()).hexdigest()


def _digest_market(profile: bool) -> Market:
    firms = tuple(
        (name, SetFunction.from_values(DIGEST_WORKERS, tuple(map(Fraction, values))))
        for name, values in DIGEST_TABLES.items()
    )
    dis = Profile.from_dict(DIGEST_WORKERS, tuple(DIGEST_TABLES), DIGEST_PROFILE) if profile else None
    return Market(DIGEST_WORKERS, firms, dis)


def _respelled_object(m: Market, respell, table: str, every: int) -> dict:
    """m as a market object with every `every`-th value respelled (the rest
    canonical) and each table spelled as `table`."""

    def spell(k: int, v: Fraction):
        return respell(v) if k % every == 0 else str(v)

    obj = serialize_market(m)
    keys = subset_keys(m.workers)
    for firm, (_, fn) in zip(obj["firms"], m.firms):
        values = [spell(k, v) for k, v in enumerate(fn.values)]
        if table == "positional":
            firm["utility"]["values"] = values
            continue
        pairs = list(zip(keys, values))
        if table == "keyed reversed":
            pairs.reverse()
        elif table == "keyed, one key out of order":
            pairs[3] = ("w2,w1", pairs[3][1])
        firm["utility"]["values"] = dict(pairs)
    if m.disutilities is not None:
        obj["disutilities"] = {
            w: {f: spell(k + j, Fraction(d)) for j, (f, d) in enumerate(row.items())}
            for k, (w, row) in enumerate(m.disutilities.to_dict().items())
        }
    return json.loads(json.dumps(obj))


@pytest.mark.parametrize("profile", [True, False], ids=["disutilities", "no disutilities"])
@pytest.mark.parametrize(
    "table", ["positional", "keyed", "keyed reversed", "keyed, one key out of order"]
)
@pytest.mark.parametrize("spelling", sorted(RESPELLINGS))
def test_loaded_digest_is_the_rendered_digest_for_every_spelling(spelling, table, profile):
    m = _digest_market(profile)
    assert subset_keys(DIGEST_WORKERS)[3] == "w1,w2"
    for every in (1, 2):
        obj = _respelled_object(m, RESPELLINGS[spelling], table, every)
        loaded = parse_market(obj)
        assert loaded == m
        assert market_digest(loaded) == _rendered_digest(loaded) == market_digest(m)


@pytest.mark.parametrize("spelling", sorted(RESPELLINGS))
def test_loaded_digest_of_compact_utilities_is_the_rendered_digest(spelling):
    respell = RESPELLINGS[spelling]
    workers = ("a", "b", "c")
    values = {"a": Fraction(3, 2), "b": Fraction(2), "c": Fraction(1, 2)}
    budget = Fraction(5, 2)
    firms = (
        ("add", SetFunction.additive(workers, values)),
        ("unit", SetFunction.unit_demand(workers, values)),
        ("budget", SetFunction.budget_additive(workers, budget, values)),
        ("table", SetFunction.additive(workers, {"a": 1, "b": 3})),
    )
    m = Market(workers, firms)
    spelled = {w: respell(v) for w, v in values.items()}
    obj = json.loads(json.dumps({
        "workers": list(workers),
        "firms": [
            {"name": "add", "utility": {"type": "additive", "values": spelled}},
            {"name": "unit", "utility": {"type": "unit_demand", "values": spelled}},
            {"name": "budget", "utility": {
                "type": "budget_additive", "values": spelled, "budget": respell(budget)}},
            {"name": "table", "utility": {"type": "table", "values": list(map(str, firms[3][1].values))}},
        ],
    }))
    loaded = parse_market(obj)
    assert loaded == m
    assert market_digest(loaded) == _rendered_digest(loaded) == market_digest(m)


def test_replaced_market_renders_its_own_digest():
    """The loader's digest lives beside the fields, not among them, so a
    market built from the loaded market's fields never carries it over."""
    loaded = parse_market(json.loads(dumps_market(_digest_market(True))))

    def rebuilt(firms=loaded.firms, disutilities=loaded.disutilities):
        return Market(loaded.workers, firms, disutilities)

    for changes in (
        {"firms": loaded.firms[::-1], "disutilities": None},
        {"firms": ((loaded.firms[0][0], loaded.firms[1][1]), loaded.firms[1])},
        {"disutilities": None},
    ):
        other = rebuilt(**changes)
        assert market_digest(other) == _rendered_digest(other) != market_digest(loaded)
    assert market_digest(rebuilt()) == market_digest(loaded)


@pytest.mark.parametrize("chunk", [1, 3, 8, 9])
def test_text_fed_in_chunks_is_the_whole_text(monkeypatch, chunk):
    """Tables longer than a chunk (8 values here) are joined and hashed
    piece by piece; the pieces must add up to the one canonical text, from
    the loader's array, its keyed object's values, or printed values."""
    monkeypatch.setattr(marketio, "_TEXT_CHUNK", chunk)
    m = _digest_market(True)
    assert dumps_market(m) == _oracle_dump(m)
    assert market_digest(m) == _oracle_digest(m)
    for table in ("positional", "keyed"):
        for spelling, every in (("canonical", 1), ("plus", 1), ("plus", 2)):
            loaded = parse_market(_respelled_object(m, RESPELLINGS[spelling], table, every))
            assert market_digest(loaded) == _oracle_digest(m), (table, spelling, every)


# every one is refused by, or read exactly by, parse_rational; none is the
# canonical text of its value, so the int() reading must not keep it
NOT_CANONICAL = ["+3", " 3", "3_0", "03", "-0", "0/5", "6/4", "3/1", "٣"]
REFUSED = ["1/-2", "1/0", "1e101", "abc", "1" * 101]
CANONICAL = ["0", "3", "-7", "7/2", "-7/2", "-1/3", "9" * 100]


def _outcome(read, raw):
    """("refused", message), or ("value", (num, den)) in lowest terms with
    den > 0, from a Fraction or an int pair alike."""
    try:
        value = read(raw)
    except MarketFormatError as exc:
        return "refused", str(exc)
    if isinstance(value, Fraction):
        return "value", (value.numerator, value.denominator)
    num, den = value
    assert type(num) is int and type(den) is int and den > 0 and gcd(num, den) == 1
    return "value", (num, den)


@pytest.mark.parametrize("raw", NOT_CANONICAL + REFUSED + ["-7/2"])
def test_int_reading_gives_exactly_what_parse_rational_gives(raw):
    label = "firm 'f' utility values[1] ('a')"
    expected = _outcome(lambda x: parse_rational(x, label), raw)
    assert expected[0] == ("refused" if raw in REFUSED else "value")
    # the pair reader keeps the canonical text alone, and reads it exactly
    pair = marketio._exact_pair(raw)
    assert pair == (expected[1] if raw in CANONICAL else None)
    plain: set = set()
    assert _outcome(lambda x: marketio._parse_memo({}, x, label, plain), raw) == expected
    assert plain == ({raw} if pair else set())
    obj = {"workers": ["a"], "firms": [{"name": "f", "utility": {"type": "table", "values": ["0", raw]}}]}
    loaded = _outcome(lambda _: parse_market(obj).utility("f").value(1), raw)
    assert loaded == expected


@pytest.mark.parametrize("raw", CANONICAL)
def test_canonical_strings_are_read_by_int_and_kept_as_written(raw):
    plain: set = set()
    value = parse_rational(raw)
    assert marketio._parse_memo({}, raw, "v", plain) == (value.numerator, value.denominator)
    assert marketio._exact_pair(raw) == (value.numerator, value.denominator)
    assert plain == {raw}


def test_gen_tables_load_without_parse_rational_or_a_fraction(monkeypatch):
    """Every value `gen` writes is canonical: its tables are read by the
    pair reader alone, and no table value builds a Fraction."""
    m = generate("random_monotone", 6, 3, seed=2)
    obj = json.loads(dumps_market(m))
    del obj["disutilities"]
    expected = Market(m.workers, m.firms)

    def refuse(*args, **kwargs):
        raise AssertionError("called while loading a gen market's tables")

    monkeypatch.setattr(marketio, "parse_rational", refuse)
    monkeypatch.setattr(marketio, "Fraction", refuse)
    loaded = parse_market(obj)
    assert loaded == expected
    assert market_digest(loaded) == hashlib.sha256(dumps_market(expected).encode()).hexdigest()


def test_commands_on_a_gen_file_print_no_table_text(capsys, tmp_path, monkeypatch):
    """vcg and classify on a `gen` file hash the texts the loader read, so
    no table is printed back to text; a market built in memory still is."""
    calls = []
    real = marketio._value_texts

    def counted(fn):
        calls.append(fn)
        return real(fn)

    monkeypatch.setattr(marketio, "_value_texts", counted)
    m = generate("random_monotone", 6, 2, seed=1)
    path = tmp_path / "m.json"
    path.write_text(dumps_market(m))
    assert len(calls) == 2
    calls.clear()
    for command in ("vcg", "classify"):
        rc = cli.main([command, str(path), "--json"])
        captured = capsys.readouterr()
        assert rc in (0, 1) and captured.err == "", command
        assert json.loads(captured.out)["market"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert calls == []
    assert market_digest(m) == hashlib.sha256(path.read_bytes()).hexdigest()
    assert len(calls) == 2
