"""Adversarial profile constructions and the seeded market families.

The certificates returned here are the package's strongest claims, so the
tests re-verify them from scratch instead of trusting the construction's own
verification pass.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

import jobmarket.necessity as necessity
import jobmarket.setfn as setfn
from jobmarket.model import Market, Profile, SetFunction, SizeLimitError
from jobmarket.necessity import (
    AdversarialProfile,
    ConstructionError,
    GENERATOR_KINDS,
    adversarial_profile,
    construct_ir_violation,
    construct_sir_violation,
    demonstrate_ir_violation,
    demonstrate_sir_violation,
    find_submodularity_violation,
    find_ws_violation,
    generate,
)
from jobmarket.pivot import check_ir, check_outcome_sir, check_sir, vcg
from jobmarket.setfn import is_submodular, is_weak_substitutes
from jobmarket.surplus import efficient_matching
from market_strategies import markets
from worked_examples import all_or_nothing_market, plateau_market


def _zero_cost_market(fn: SetFunction) -> Market:
    profile = Profile.from_dict(
        fn.universe, ("f1",), {w: {"f1": 0} for w in fn.universe}
    )
    return Market(fn.universe, (("f1", fn),), profile)


# three workers, one violating triple ({w3}, w1, w2), and w3 contributes
# nothing on top of the pair: the tie-break never hires all three
TIE_DODGER = SetFunction.from_values(
    ("w1", "w2", "w3"),
    (
        Fraction(0),
        Fraction(2),
        Fraction(2),
        Fraction(4),
        Fraction(1),
        Fraction(2),
        Fraction(2),
        Fraction(4),
    ),
)


def _submodularity_violations(h: SetFunction) -> list[tuple[tuple[str, ...], str, str]]:
    """Every violating (S, wl, wk), base mask ascending, then worker pairs."""
    return [
        (h.members(base), h.universe[i], h.universe[j])
        for base, i, j in setfn._submodularity_violations(h)
    ]


def test_find_ws_violation_is_minimal():
    m = all_or_nothing_market()
    assert find_ws_violation(m.utility("f")) == ("w1", "w2")
    additive = SetFunction.additive(("a", "b"), {"a": 1, "b": 2})
    assert find_ws_violation(additive) is None


def test_find_submodularity_violation_plateau():
    m = plateau_market()
    hit = find_submodularity_violation(m.utility("f"))
    assert hit == (("w1",), "w2", "w3")


def test_iter_violations_orders_by_base_mask():
    hits = _submodularity_violations(TIE_DODGER)
    assert hits == [(("w3",), "w1", "w2")]
    plateau_hits = _submodularity_violations(plateau_market().utility("f"))
    assert plateau_hits[0] == (("w1",), "w2", "w3")
    assert len(plateau_hits) == 3


def test_adversarial_profile_shape():
    m = generate("random_monotone", 3, 2, 5)
    p = adversarial_profile(m, "f2", ("w1", "w3"))
    top = m.ubar
    for w in m.workers:
        for f in m.firm_names:
            want_zero = (w in ("w1", "w3")) == (f == "f2")
            assert p.get(w, f) == (0 if want_zero else top)
    with pytest.raises(ValueError, match="unknown firm"):
        adversarial_profile(m, "f9", ())
    with pytest.raises(ValueError, match="unknown worker"):
        adversarial_profile(m, "f1", ("ghost",))


def test_construct_ir_violation_all_or_nothing():
    m = all_or_nothing_market("3", "4")
    cert = construct_ir_violation(m, "f", ("w1", "w2"))
    assert cert.kind == "ir"
    assert cert.canonical
    assert cert.subset == ("w1", "w2")
    assert cert.summary["firm_payoff"] == "-10"
    assert cert.summary["salaries"] == {"w1": "10", "w2": "10"}
    r = vcg(m, cert.profile)
    assert not check_ir(r).verdict
    assert r.firm_payoff("f") == -10


def test_construct_ir_violation_rejects_good_subsets():
    m = all_or_nothing_market()
    with pytest.raises(ValueError, match="does not violate"):
        construct_ir_violation(m, "f", ("w1",))


def test_construct_sir_violation_all_or_nothing():
    m = all_or_nothing_market("3", "4")
    cert = construct_sir_violation(m, "f", (), "w1", "w2")
    assert cert.kind == "sir"
    assert cert.canonical
    assert cert.pair == ("w1", "w2")
    assert cert.summary["payments"] == {"w1": "10", "w2": "10"}
    assert Fraction(cert.summary["firing_gain"]) == 10
    assert not check_sir(vcg(m, cert.profile)).verdict


def test_construct_sir_violation_validates_triple():
    m = all_or_nothing_market()
    with pytest.raises(ValueError, match="distinct workers"):
        construct_sir_violation(m, "f", ("w1",), "w1", "w2")
    with pytest.raises(ValueError, match="unknown worker"):
        construct_sir_violation(m, "f", (), "w1", "zz")
    additive = _zero_cost_market(SetFunction.additive(("a", "b"), {"a": 1, "b": 2}))
    with pytest.raises(ValueError, match="does not violate"):
        construct_sir_violation(additive, "f1", (), "a", "b")


def test_plateau_sir_certificate_is_canonical():
    m = plateau_market()
    cert = demonstrate_sir_violation(m, "f")
    assert cert.canonical
    assert set(cert.subset) | set(cert.pair) == {"w1", "w2", "w3"}
    r = vcg(m, cert.profile)
    assert not check_sir(r).verdict
    assert check_ir(r).verdict  # the plateau violation is firing-only


def test_tie_dodging_table_gets_exhibited_certificate():
    m = _zero_cost_market(TIE_DODGER)
    cert = demonstrate_sir_violation(m, "f1")
    assert not cert.canonical
    assert cert.subset == ("w3",)
    assert cert.pair == ("w1", "w2")
    # the exhibited outcome hires all three and pays pair marginals 2, 2
    assert cert.outcome.matching.workers_of("f1") == ("w1", "w2", "w3")
    assert cert.outcome.salary == {
        "w1": Fraction(2),
        "w2": Fraction(2),
        "w3": Fraction(0),
    }
    assert Fraction(cert.summary["firing_gain"]) == 1
    assert not check_outcome_sir(m, cert.outcome, cert.profile).verdict
    # while the solver's tie-broken outcome genuinely dodges the violation
    r = vcg(m, cert.profile)
    assert r.outcome.matching.workers_of("f1") == ("w1", "w2")
    assert check_sir(r).verdict


def test_exhibited_outcome_is_efficient():
    m = _zero_cost_market(TIE_DODGER)
    cert = demonstrate_sir_violation(m, "f1")
    best = efficient_matching(m, cert.profile)
    realized = Fraction(0)
    for name, fn in m.firms:
        hired = cert.outcome.matching.workers_of(name)
        bill = sum((cert.profile.get(w, name) for w in hired), Fraction(0))
        realized += fn.value(fn.mask_of(hired)) - bill
    assert realized == best.total


def test_exhibited_certificates_with_other_firms_present():
    # same tie-dodging table, but now a second firm competes for the pair
    side = SetFunction.additive(("w1", "w2", "w3"), {"w1": 1, "w2": 1, "w3": 1})
    profile = Profile.from_dict(
        ("w1", "w2", "w3"),
        ("f1", "f2"),
        {w: {"f1": 0, "f2": 0} for w in ("w1", "w2", "w3")},
    )
    m = Market(("w1", "w2", "w3"), (("f1", TIE_DODGER), ("f2", side)), profile)
    cert = demonstrate_sir_violation(m, "f1")
    assert not cert.canonical
    assert cert.outcome.matching.workers_of("f1") == ("w1", "w2", "w3")
    assert not check_outcome_sir(m, cert.outcome, cert.profile).verdict


def test_exhibited_certificate_matches_the_workers_left_over():
    # the tie-dodging table on w1-w3, with w4 adding nothing to it, and a
    # second firm that values w4: the exhibited matching hands w1-w3 to f1
    # and solves the sub-market of w4 and f2 on its own
    workers = ("w1", "w2", "w3", "w4")
    f1 = SetFunction.from_values(
        workers, tuple(TIE_DODGER.values[mask & 7] for mask in range(16))
    )
    f2 = SetFunction.additive(workers, {"w4": 1, "w1": Fraction(1, 2)})
    m = Market(workers, (("f1", f1), ("f2", f2)), None)
    cert = demonstrate_sir_violation(m, "f1")
    assert not cert.canonical
    assert cert.outcome.matching.to_dict() == {"w1": "f1", "w2": "f1", "w3": "f1", "w4": "f2"}
    assert cert.summary["firing_gain"] == "1"
    assert not check_outcome_sir(m, cert.outcome, cert.profile).verdict


def test_demonstrate_rejects_well_behaved_firms():
    additive = _zero_cost_market(SetFunction.additive(("a", "b"), {"a": 1, "b": 2}))
    with pytest.raises(ValueError, match="weak substitutes"):
        demonstrate_ir_violation(additive, "f1")
    with pytest.raises(ValueError, match="submodular"):
        demonstrate_sir_violation(additive, "f1")


def test_demonstrate_prefers_canonical_certificates():
    # plateau has three violating triples, all with positive marginals at
    # the top; a canonical certificate must come back
    m = plateau_market()
    assert demonstrate_sir_violation(m, "f").canonical


def test_demonstrate_tries_positive_marginal_triples_first(monkeypatch):
    """All constructions failing: every triple is tried once, in preference
    order, and the error counts them."""
    for seed in range(100):
        m = generate("random_monotone", 5, 1, seed)
        fn = m.utility("f1")
        triples = _submodularity_violations(fn)

        def positive(triple):
            subset, wl, wk = triple
            tmask = fn.mask_of((*subset, wl, wk))
            return all(
                fn.values[tmask ^ (1 << i)] < fn.values[tmask]
                for i in range(fn.n)
                if tmask >> i & 1
            )

        first = [t for t in triples if positive(t)]
        later = [t for t in triples if not positive(t)]
        if first and later:
            break
    tried = []

    def failing(m, firm, subset, wl, wk):
        tried.append((tuple(subset), wl, wk))
        raise ConstructionError(f"attempt {len(tried)}")

    monkeypatch.setattr(necessity, "construct_sir_violation", failing)
    with pytest.raises(ConstructionError) as err:
        demonstrate_sir_violation(m, "f1")
    assert tried == first + later
    assert str(err.value) == (
        f"none of the {len(triples)} violating triples verified; "
        f"last failure: attempt {len(triples)}"
    )


def test_demonstrations_refuse_non_monotone_tables():
    # u({w1,w3}) = u({w2,w3}) = 1 and 0 elsewhere: both constructions fail
    values = [Fraction(0)] * 8
    values[0b101] = values[0b110] = Fraction(1)
    m = _zero_cost_market(SetFunction.from_values(("w1", "w2", "w3"), tuple(values)))
    for demonstrate in (demonstrate_ir_violation, demonstrate_sir_violation):
        with pytest.raises(ValueError, match="firm f1: monotone=no") as err:
            demonstrate(m, "f1")
        assert not isinstance(err.value, ConstructionError)


def test_demonstrations_name_a_non_monotone_co_firm():
    # f1 is monotone; f2 drops from {w1} (3) to {w1,w2} (2), so ubar = 2 does
    # not bound it and the 0/ubar profile cannot steer w1 away from f2
    ws = ("w1", "w2")
    f1 = SetFunction.from_values(ws, tuple(map(Fraction, (0, 0, 0, 2))))
    f2 = SetFunction.from_values(ws, tuple(map(Fraction, (0, 3, 1, 2))))
    zero = Profile.from_dict(ws, ("f1", "f2"), {w: {"f1": 0, "f2": 0} for w in ws})
    m = Market(ws, (("f1", f1), ("f2", f2)), zero)
    with pytest.raises(ValueError, match="^firm f2: monotone=no ") as err:
        demonstrate_ir_violation(m, "f1")
    assert not isinstance(err.value, ConstructionError)


def test_construction_error_on_monotone_table_propagates(monkeypatch):
    def failing(*args):
        raise ConstructionError("planted")

    monkeypatch.setattr(necessity, "construct_ir_violation", failing)
    with pytest.raises(ConstructionError, match="planted"):
        demonstrate_ir_violation(all_or_nothing_market(), "f")


def test_certificates_survive_independent_reverification():
    rng = random.Random(51)
    ir_seen = sir_seen = 0
    for t in range(150):
        kind = GENERATOR_KINDS[t % len(GENERATOR_KINDS)]
        m = generate(kind, rng.randint(1, 5), rng.randint(1, 3), rng.randint(0, 10**6))
        for name, fn in m.firms:
            if not is_weak_substitutes(fn).verdict:
                cert = demonstrate_ir_violation(m, name)
                ir_seen += 1
                r = vcg(m, cert.profile)
                assert not check_ir(r).verdict
                assert r.firm_payoff(name) == Fraction(cert.summary["firm_payoff"])
            if not is_submodular(fn).verdict:
                cert = demonstrate_sir_violation(m, name)
                sir_seen += 1
                assert not check_outcome_sir(m, cert.outcome, cert.profile).verdict
                if cert.canonical:
                    assert not check_sir(vcg(m, cert.profile)).verdict
                assert efficient_matching(m, cert.profile).total == sum(
                    (
                        fn2.value(fn2.mask_of(cert.outcome.matching.workers_of(g)))
                        - sum(
                            (cert.profile.get(w, g) for w in cert.outcome.matching.workers_of(g)),
                            Fraction(0),
                        )
                        for g, fn2 in m.firms
                    ),
                    Fraction(0),
                )
    assert ir_seen > 20 and sir_seen > 20


@settings(max_examples=150, deadline=None)
@given(markets())
def test_demonstrations_succeed_on_monotone_violators(m):
    # a ConstructionError here is a fault in the constructions: every
    # monotone firm outside a class has a certificate
    for name, fn in m.firms:
        if not fn.is_monotone():
            continue
        if not is_weak_substitutes(fn).verdict:
            cert = demonstrate_ir_violation(m, name)
            assert not check_ir(vcg(m, cert.profile)).verdict
        if not is_submodular(fn).verdict:
            cert = demonstrate_sir_violation(m, name)
            assert not check_outcome_sir(m, cert.outcome, cert.profile).verdict


def test_certificate_to_dict_shape():
    m = all_or_nothing_market()
    cert = demonstrate_ir_violation(m, "f")
    d = cert.to_dict()
    assert d["kind"] == "ir"
    assert d["pair"] is None
    assert d["canonical"] is True
    assert d["outcome"]["matching"] == {"w1": "f", "w2": "f"}
    assert d["outcome"]["salaries"] == {"w1": "10", "w2": "10"}
    assert d["profile"]["w1"]["f"] == "0"


def test_generate_is_deterministic():
    a = generate("budget_additive", 4, 2, 9)
    b = generate("budget_additive", 4, 2, 9)
    assert a.workers == b.workers
    assert all(x.values == y.values for (_, x), (_, y) in zip(a.firms, b.firms))
    assert a.disutilities.rows == b.disutilities.rows
    c = generate("budget_additive", 4, 2, 10)
    assert any(x.values != y.values for (_, x), (_, y) in zip(a.firms, c.firms)) or (
        a.disutilities.rows != c.disutilities.rows
    )


def test_generate_family_properties():
    rng = random.Random(52)
    for kind in GENERATOR_KINDS:
        for _ in range(6):
            m = generate(kind, rng.randint(1, 5), rng.randint(1, 3), rng.randint(0, 10**6))
            for name, fn in m.firms:
                assert fn.is_monotone(), (kind, name)
                if kind != "random_monotone":
                    assert is_submodular(fn).verdict, (kind, name)
            top = m.ubar
            for w in m.workers:
                for f in m.firm_names:
                    assert 0 <= m.disutilities.get(w, f) <= top


def test_generate_rejects_bad_arguments():
    with pytest.raises(ValueError, match="unknown kind"):
        generate("mystery", 2, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        generate("additive", -1, 2)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_generate_refuses_oversized_universe(kind):
    with pytest.raises(SizeLimitError, match="40 workers exceeds cap"):
        generate(kind, 40, 1)
