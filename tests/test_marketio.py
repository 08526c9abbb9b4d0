"""JSON ingestion, serialization, and digests."""

import json
from fractions import Fraction

import pytest

from jobmarket.fixtures import all_or_nothing_market, budget_vs_additive_market
from jobmarket.marketio import (
    MarketFormatError,
    dumps_market,
    load_market,
    load_profile,
    market_digest,
    parse_market,
    parse_profile,
    parse_rational,
    serialize_market,
)

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


# the last three break the size caps on rational strings
@pytest.mark.parametrize(
    "bad", [0.5, True, None, [1], "3/0", "abc", "1e5000", "1e-5000", "1" * 101]
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


def test_parse_profile_strays():
    with pytest.raises(MarketFormatError, match="expected an object"):
        parse_profile([1], ("w1",), ("f1",))
    with pytest.raises(MarketFormatError, match="unknown firm"):
        parse_profile({"w1": {"f9": "1"}}, ("w1",), ("f1",))


def test_serialize_market_roundtrips_exactly():
    for m in (all_or_nothing_market(), budget_vs_additive_market("1/4", "1/4")):
        again = parse_market(serialize_market(m))
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
