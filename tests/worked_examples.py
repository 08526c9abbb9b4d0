"""Small hand-checkable markets used across the test suite and docs."""

from __future__ import annotations

from jobmarket.model import Market, Profile, RationalLike, SetFunction


def all_or_nothing_market(d1: RationalLike = "3", d2: RationalLike = "4") -> Market:
    """One firm that values only the full pair of workers (at 10).

    The classic individual-rationality failure case: each worker's marginal
    product is the whole surplus, so VCG salaries overshoot the firm's value.
    """
    workers = ("w1", "w2")
    u = SetFunction.from_table(
        workers, {(): 0, ("w1",): 0, ("w2",): 0, ("w1", "w2"): 10}
    )
    profile = Profile.from_dict(workers, ("f",), {"w1": {"f": d1}, "w2": {"f": d2}})
    return Market(workers, (("f", u),), profile)


def plateau_table() -> SetFunction:
    """Three-worker table: value 2 on every nonempty set of size <= 2, 3 on all three.

    Weak substitutes holds with nothing to spare, submodularity does not:
    the third worker's marginal is 0 next to a single co-worker but 1 on top
    of the other two.
    """
    workers = ("w1", "w2", "w3")
    table = {(): "0", ("w1", "w2", "w3"): "3"}
    for s in [("w1",), ("w2",), ("w3",), ("w1", "w2"), ("w1", "w3"), ("w2", "w3")]:
        table[s] = "2"
    return SetFunction.from_table(workers, table)


def plateau_market() -> Market:
    """The plateau table as a single-firm market with zero disutilities."""
    u = plateau_table()
    profile = Profile.from_dict(
        u.universe, ("f",), {w: {"f": "0"} for w in u.universe}
    )
    return Market(u.universe, (("f", u),), profile)


def budget_vs_additive_market(
    d1: RationalLike = "1/4", d2: RationalLike = "1/4"
) -> Market:
    """Two firms over three workers: a budget-capped buyer vs a plain additive one.

    Firm f1 is budget-additive (cap 2, per-worker values 1, 1, 2), firm f2 is
    additive (1 each). Worker disutilities are 0 at f1; d1, d2, 0 at f2.
    Low d puts w3 at f1 and the pair at f2; past d=1/2 the efficient
    matching flips and the VCG outcome stops being core-stable.
    """
    workers = ("w1", "w2", "w3")
    f1 = SetFunction.budget_additive(workers, "2", {"w1": "1", "w2": "1", "w3": "2"})
    f2 = SetFunction.additive(workers, {"w1": "1", "w2": "1", "w3": "1"})
    profile = Profile.from_dict(
        workers,
        ("f1", "f2"),
        {
            "w1": {"f1": "0", "f2": d1},
            "w2": {"f1": "0", "f2": d2},
            "w3": {"f1": "0", "f2": "0"},
        },
    )
    return Market(workers, (("f1", f1), ("f2", f2)), profile)
