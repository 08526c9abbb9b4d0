"""Data-layer checks: set functions, profiles, markets, matchings, outcomes."""

import copy
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

import jobmarket.cli as cli
import jobmarket.model as model
from jobmarket.marketio import dumps_market
from jobmarket.model import (
    ConditionReport,
    Market,
    Matching,
    Outcome,
    Profile,
    SetFunction,
    SizeLimitError,
    as_fraction,
    validate_profile,
)
from jobmarket.oracles import brute_force_total
from jobmarket.stability import Block
from jobmarket.subsets import lane_tops
from jobmarket.surplus import efficient_matching


def test_as_fraction_accepts_exact_forms():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction("0.25") == Fraction(1, 4)
    assert as_fraction(Fraction(7, 2)) == Fraction(7, 2)


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError, match="floats are not accepted"):
        as_fraction(0.25)


def test_from_table_requires_every_subset():
    with pytest.raises(ValueError, match="missing"):
        SetFunction.from_table(("a", "b"), {(): 0, ("a",): 1, ("b",): 1})


def test_from_table_rejects_unknown_worker():
    with pytest.raises(ValueError):
        SetFunction.from_table(("a",), {(): 0, ("a",): 1, ("zz",): 2})


def test_normalization_enforced():
    with pytest.raises(ValueError, match="empty set"):
        SetFunction.from_values(("a",), (Fraction(1), Fraction(2)))


def test_value_lookup_and_members_roundtrip():
    fn = SetFunction.from_table(
        ("a", "b", "c"),
        {
            (): 0,
            ("a",): 1,
            ("b",): 2,
            ("c",): 3,
            ("a", "b"): 3,
            ("a", "c"): 4,
            ("b", "c"): 5,
            ("a", "b", "c"): 6,
        },
    )
    for mask in range(8):
        assert fn.mask_of(fn.members(mask)) == mask
    assert fn.subset_value(("b", "c")) == Fraction(5)
    assert fn.subset_value(()) == 0


def test_mask_of_order_insensitive():
    fn = SetFunction.additive(("a", "b"), {"a": 1, "b": 2})
    assert fn.mask_of(("b", "a")) == fn.mask_of(("a", "b")) == 3


def test_additive_family_values():
    fn = SetFunction.additive(("a", "b", "c"), {"a": "1/2", "b": 1, "c": 0})
    assert fn.subset_value(("a", "b")) == Fraction(3, 2)
    assert fn.subset_value(("c",)) == 0
    assert fn.is_monotone()


def test_budget_additive_caps_the_sum():
    fn = SetFunction.budget_additive(("a", "b", "c"), 2, {"a": 1, "b": 1, "c": 2})
    assert fn.subset_value(("a",)) == 1
    assert fn.subset_value(("a", "b")) == 2
    assert fn.subset_value(("a", "b", "c")) == 2
    assert fn.is_monotone()


def test_unit_demand_takes_the_best_member():
    fn = SetFunction.unit_demand(("a", "b"), {"a": "3/2", "b": 1})
    assert fn.subset_value(("a", "b")) == Fraction(3, 2)
    assert fn.subset_value(("b",)) == 1


def test_family_constructors_default_missing_workers_to_zero():
    fn = SetFunction.additive(("a", "b"), {"a": 2})
    assert fn.subset_value(("b",)) == 0
    assert fn.subset_value(("a", "b")) == 2


def test_budget_additive_rejects_negative_budget():
    with pytest.raises(ValueError, match="budget"):
        SetFunction.budget_additive(("a",), "-2", {"a": 1})
    # a negative per-worker value is legal input but shows up as non-monotone
    assert not SetFunction.additive(("a",), {"a": "-1"}).is_monotone()


def test_set_function_is_kept_in_lowest_terms():
    fn = SetFunction(("a", "b"), 6, (0, 3, 9, 12))
    assert (fn.den, fn.scaled) == (2, (0, 1, 3, 4))
    assert fn == SetFunction.from_values(("a", "b"), ("0", "1/2", "3/2", "2"))
    assert fn.value(2) == Fraction(3, 2) and fn.values == (0, Fraction(1, 2), Fraction(3, 2), 2)
    assert SetFunction.budget_additive(("a", "b"), "7/3", {"a": 1, "b": 1}).den == 1
    with pytest.raises(ValueError, match="denominator"):
        SetFunction(("a",), 0, (0, 1))


WIDE = tuple(f"w{i}" for i in range(16))
HALVES = {w: Fraction(i % 9, 2) for i, w in enumerate(WIDE)}


@pytest.mark.parametrize(
    "build",
    [
        lambda: SetFunction.additive(WIDE, HALVES),
        lambda: SetFunction.unit_demand(WIDE, HALVES),
        lambda: SetFunction.budget_additive(WIDE, Fraction(41, 2), HALVES),
    ],
    ids=["additive", "unit_demand", "budget_additive"],
)
def test_compact_constructors_build_on_integers(build):
    """At 16 workers each constructor peaks near twice the finished table's
    pointer array: the list it doubles plus the tuple copied from it (2.0 to
    2.1 times, measured). Building the same table through Fractions and
    clearing it afterwards peaked at 9.1 times (additive) and 3.1 times
    (unit demand)."""
    tracemalloc.start()
    try:
        fn = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * sys.getsizeof(fn.scaled)


def test_first_monotonicity_violation_found():
    fn = SetFunction.from_values(("a", "b"), (Fraction(0), Fraction(2), Fraction(1), Fraction(1)))
    hit = fn.first_monotonicity_violation()
    assert hit is not None
    smaller, larger = hit
    assert smaller & larger == smaller and smaller != larger
    assert fn.values[smaller] > fn.values[larger]
    assert not fn.is_monotone()


def test_a_drop_the_walk_cannot_find_raises(monkeypatch):
    # with a lane bias one lower the kernel reads a flat step as a drop; the
    # ordered walk finds no strict one, and a disagreement must not read as
    # monotone
    def bias_one_lower(width, size):
        tops = lane_tops(width, size)
        return tops - (tops >> width - 1)

    monkeypatch.setattr(model, "lane_tops", bias_one_lower)
    fn = SetFunction.from_values(("a", "b"), [0, 1, 1, 1])
    with pytest.raises(RuntimeError, match="monotonicity"):
        fn.is_monotone()


def test_monotone_table_has_no_violation():
    fn = SetFunction.additive(("a", "b", "c"), {"a": 1, "b": 2, "c": 3})
    assert fn.first_monotonicity_violation() is None


def test_universe_cap_enforced():
    names = tuple(f"w{i}" for i in range(21))
    with pytest.raises(SizeLimitError):
        SetFunction.additive(names, {})


@pytest.mark.parametrize(
    "build",
    [
        lambda names: SetFunction.additive(names, {}),
        lambda names: SetFunction.unit_demand(names, {}),
        lambda names: SetFunction.budget_additive(names, 1, {}),
        lambda names: SetFunction.from_table(names, {(): 0}),
    ],
    ids=["additive", "unit_demand", "budget_additive", "from_table"],
)
def test_constructors_refuse_oversized_universe_before_allocating(build):
    # a 2^40-entry table cannot be allocated, so only an up-front check passes
    names = tuple(f"w{i}" for i in range(40))
    with pytest.raises(SizeLimitError, match="40 workers exceeds cap"):
        build(names)


def test_entry_cap_counts_every_firm_table():
    model.check_entry_cap(16, 20)
    model.check_entry_cap(model.ENTRY_CAP, 0)
    for nfirms, n in ((17, 20), (model.ENTRY_CAP + 1, 0), (1 << 5, 20)):
        with pytest.raises(SizeLimitError, match=f"{nfirms} firms over {n} workers"):
            model.check_entry_cap(nfirms, n)


def test_profile_from_dict_and_accessors():
    p = Profile.from_dict(
        ("w1", "w2"),
        ("f1", "f2"),
        {"w1": {"f1": "1/2", "f2": 1}, "w2": {"f1": 0, "f2": "2"}},
    )
    assert p.get("w1", "f2") == 1
    assert p.row("w2") == (Fraction(0), Fraction(2))
    assert p.column("f1") == (Fraction(1, 2), Fraction(0))
    assert p.to_dict() == {
        "w1": {"f1": "1/2", "f2": "1"},
        "w2": {"f1": "0", "f2": "2"},
    }


def test_profile_with_row_is_a_copy():
    p = Profile.from_dict(("w1",), ("f1", "f2"), {"w1": {"f1": 1, "f2": 2}})
    q = p.with_row("w1", (Fraction(5), Fraction(6)))
    assert p.get("w1", "f1") == 1
    assert q.get("w1", "f1") == 5
    with pytest.raises(ValueError, match="row length"):
        p.with_row("w1", (Fraction(5),))
    with pytest.raises(TypeError, match="floats are not accepted"):
        p.with_row("w1", (Fraction(5), 0.1))


def test_profile_from_dict_rejects_gaps_and_strays():
    with pytest.raises(ValueError, match="missing worker"):
        Profile.from_dict(("w1",), ("f1",), {})
    with pytest.raises(ValueError, match="unknown firm"):
        Profile.from_dict(("w1",), ("f1",), {"w1": {"f1": 0, "f9": 1}})
    with pytest.raises(ValueError, match="missing firm"):
        Profile.from_dict(("w1",), ("f1", "f2"), {"w1": {"f1": 0}})
    with pytest.raises(ValueError, match="unknown worker"):
        Profile.from_dict(("w1",), ("f1",), {"w1": {"f1": 0}, "w9": {"f1": 0}})


def _tiny_market() -> Market:
    u = SetFunction.additive(("w1", "w2"), {"w1": 2, "w2": 3})
    v = SetFunction.unit_demand(("w1", "w2"), {"w1": 4, "w2": 1})
    profile = Profile.from_dict(
        ("w1", "w2"),
        ("f1", "f2"),
        {"w1": {"f1": 0, "f2": 1}, "w2": {"f1": 1, "f2": 0}},
    )
    return Market(("w1", "w2"), (("f1", u), ("f2", v)), profile)


def test_market_accessors():
    m = _tiny_market()
    assert m.firm_names == ("f1", "f2")
    assert m.worker_index == {"w1": 0, "w2": 1}
    assert m.n == 2 and m.full_mask == 3
    assert m.utility("f2").subset_value(("w1", "w2")) == 4
    with pytest.raises(ValueError, match="unknown firm"):
        m.utility("f9")


def test_market_ubar_is_the_best_full_hire():
    m = _tiny_market()
    assert m.ubar == 5
    empty = Market((), (), None)
    assert empty.ubar == 0


def test_market_rejects_mismatched_universe():
    u = SetFunction.additive(("w1",), {"w1": 1})
    with pytest.raises(ValueError, match="universe"):
        Market(("w1", "w2"), (("f1", u),), None)


def test_market_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate worker"):
        Market(("w1", "w1"), (), None)
    v = SetFunction.additive(("w1",), {"w1": 1})
    with pytest.raises(ValueError, match="duplicate firm"):
        Market(("w1",), (("f1", v), ("f1", v)), None)


def test_market_require_profile():
    m = _tiny_market()
    assert m.require_profile(None) is m.disutilities
    bare = Market(m.workers, m.firms, None)
    with pytest.raises(ValueError, match="no embedded disutilities"):
        bare.require_profile(None)


def test_validate_profile_passes_on_good_input():
    m = _tiny_market()
    validate_profile(m, m.disutilities)


def test_validate_profile_flags_negative_entries_only(capsys, tmp_path):
    # the engine solves a report above ubar; the solving commands refuse it
    m = _tiny_market()
    high = Profile.from_dict(
        m.workers,
        m.firm_names,
        {"w1": {"f1": "99", "f2": 0}, "w2": {"f1": 0, "f2": 0}},
    )
    validate_profile(m, high)
    assert efficient_matching(m, high).total == brute_force_total(m, high) == 7
    path = tmp_path / "high.json"
    path.write_text(dumps_market(Market(m.workers, m.firms, high)))
    assert cli.main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: disutility 99 for w1 at f1 exceeds ubar=5\n"
    neg = Profile(m.workers, m.firm_names, ((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(0))))
    with pytest.raises(ValueError, match="negative disutility -1 for w1 at f1"):
        validate_profile(m, neg)


def test_matching_views_agree():
    matching = Matching.from_dict(
        ("w1", "w2", "w3"), {"w1": "f1", "w2": None, "w3": "f1"}
    )
    assert matching.firm_of("w2") is None
    assert matching.workers_of("f1") == ("w1", "w3")
    assert matching.workers_of(None) == ("w2",)
    assert matching.to_dict() == {"w1": "f1", "w2": None, "w3": "f1"}


def test_outcome_invariants():
    matching = Matching.from_dict(("w1", "w2"), {"w1": "f1", "w2": None})
    o = Outcome(matching, (("w1", Fraction(5)), ("w2", Fraction(0))))
    assert o.salary == {"w1": Fraction(5), "w2": Fraction(0)}
    with pytest.raises(ValueError, match="salary 0"):
        Outcome(matching, (("w1", Fraction(5)), ("w2", Fraction(1))))
    with pytest.raises(ValueError, match="negative"):
        Outcome(matching, (("w1", Fraction(-5)), ("w2", Fraction(0))))
    with pytest.raises(ValueError, match="cover exactly"):
        Outcome(matching, (("w1", Fraction(5)),))


def test_set_function_values_are_fractions_after_construction():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(1, 4)
        names = tuple(f"w{i}" for i in range(n))
        fn = SetFunction.additive(
            names, {w: Fraction(rng.randint(0, 6), rng.randint(1, 3)) for w in names}
        )
        assert all(isinstance(v, Fraction) for v in fn.values)
        assert len(fn.values) == 1 << n



def _records():
    """One record of each class that callers compare, with the fields its
    equality must read; `Market` leaves out `ubar`, a function of its firms."""
    fn = SetFunction(("a", "b"), 2, (0, 1, 1, 3))
    profile = Profile(("a", "b"), ("f",), ((Fraction(1),), (Fraction(2),)))
    matching = Matching((("a", "f"), ("b", None)))
    records = [
        (ConditionReport(False, {"a": 1}, "note"), ("verdict", "witness", "details")),
        (fn, ("universe", "den", "scaled")),
        (profile, ("workers", "firms", "rows")),
        (Market(("a", "b"), (("f", fn),), profile), ("workers", "firms", "disutilities")),
        (matching, ("assignment",)),
        (Outcome(matching, (("a", Fraction(1)), ("b", Fraction(0)))), ("matching", "salaries")),
        (
            Block("f", ("a",), (("a", Fraction(1)),), Fraction(1, 2)),
            ("firm", "coalition", "payments", "slack"),
        ),
    ]
    return [pytest.param(r, fields, id=type(r).__name__) for r, fields in records]


@pytest.mark.parametrize("record, fields", _records())
def test_records_share_one_equality_rule(record, fields):
    """Every record is equal to a copy, unequal once any one named field
    changes, unequal to another class with the same fields, and unhashable.
    Its `_fields` are every attribute its constructor sets but `ubar`."""
    assert record._fields == fields
    assert set(vars(record)) - {"ubar"} == set(fields)
    assert copy.copy(record) == record
    for f in fields:
        changed = copy.copy(record)
        setattr(changed, f, object())
        assert changed != record and record != changed
    other = copy.copy(record)
    other.__class__ = type("Other", (type(record),), {})
    assert other != record and record != other
    assert record != object()
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)
