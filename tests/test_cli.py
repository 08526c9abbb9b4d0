"""Command-line behavior: golden transcripts, JSON mode, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import jobmarket.cli as cli
import jobmarket.selftest as selftest
from jobmarket.marketio import load_market, market_digest, parse_market
from jobmarket.model import ENTRY_CAP, SetFunction, SizeLimitError
from jobmarket.necessity import generate
from jobmarket.selftest import SelftestReport, SuiteResult

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    rc = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


GOLDEN_CASES = [
    ("classify_budget_vs_additive.txt", 0, ["classify", DATA / "budget_vs_additive.json"]),
    ("classify_plateau.txt", 0, ["classify", DATA / "plateau.json"]),
    ("classify_all_or_nothing.txt", 0, ["classify", DATA / "all_or_nothing.json"]),
    ("classify_tie_dodger.txt", 0, ["classify", DATA / "tie_dodger.json"]),
    ("classify_non_monotone.txt", 0, ["classify", DATA / "non_monotone.json"]),
    ("solve_budget_low.txt", 0, ["solve", DATA / "budget_vs_additive.json"]),
    ("vcg_all_or_nothing.txt", 1, ["vcg", DATA / "all_or_nothing.json"]),
    (
        "vcg_budget_high.txt",
        0,
        ["vcg", DATA / "budget_vs_additive.json", "--profile", DATA / "high_profile.json"],
    ),
    (
        "stability_budget_high.txt",
        1,
        ["stability", DATA / "budget_vs_additive.json", "--profile", DATA / "high_profile.json"],
    ),
    ("necessity_all_or_nothing.txt", 0, ["necessity", DATA / "all_or_nothing.json", "--firm", "f"]),
    ("necessity_plateau.txt", 0, ["necessity", DATA / "plateau.json", "--firm", "f"]),
    ("necessity_tie_dodger.txt", 0, ["necessity", DATA / "tie_dodger.json", "--firm", "f1"]),
    ("gen_additive.txt", 0, ["gen", "additive", "3", "2", "--seed", "5"]),
    ("selftest_small.txt", 0, ["selftest", "--trials", "8", "--seed", "0"]),
]


@pytest.mark.parametrize(
    "golden,expected_rc,argv", GOLDEN_CASES, ids=[c[0].removesuffix(".txt") for c in GOLDEN_CASES]
)
def test_golden_transcripts(capsys, golden, expected_rc, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == expected_rc
    assert err == ""
    assert out == GOLDEN.joinpath(golden).read_text()


def test_necessity_golden_on_a_generated_three_firm_market(capsys, tmp_path):
    """0/ubar profiles leave the target firm a few tight sets and each
    co-firm all of its own: the regime where the solve's joins switch
    between a pushed table and per-pool passes."""
    rc, text, _ = run_cli(capsys, "gen", "random_monotone", "10", "3", "--seed", "102")
    assert rc == 0
    path = tmp_path / "market.json"
    path.write_text(text)
    outs = []
    for firm in ("f1", "f2", "f3"):
        rc, out, err = run_cli(capsys, "necessity", path, "--firm", firm)
        assert (rc, err) == (0, "")
        outs.append(out)
    assert "".join(outs) == GOLDEN.joinpath("necessity_random_monotone_10_3.txt").read_text()


def test_one_parser_serves_every_call(capsys):
    """The parser is built once per process; a flag, a default or an error
    in one call must not leak into the next."""
    assert cli.build_parser() is cli.build_parser()
    sequence = [
        (None, ["vcg", DATA / "all_or_nothing.json", "--json"]),
        ("vcg_all_or_nothing.txt", ["vcg", DATA / "all_or_nothing.json"]),
        (None, ["gen", "additive", "three", "2"]),
        ("classify_plateau.txt", ["classify", DATA / "plateau.json"]),
        ("necessity_tie_dodger.txt", ["necessity", DATA / "tie_dodger.json", "--firm", "f1"]),
        ("gen_additive.txt", ["gen", "additive", "3", "2", "--seed", "5"]),
        (None, ["selftest", "--trials", "2"]),
    ]

    def one_pass():
        results = []
        for _, argv in sequence:
            try:
                results.append(run_cli(capsys, *argv))
            except SystemExit as exc:
                results.append((exc.code, *capsys.readouterr()))
        return results

    first = one_pass()
    assert one_pass() == first
    for (golden, _), (rc, out, err) in zip(sequence, first):
        if golden is not None:
            assert out == GOLDEN.joinpath(golden).read_text()
            assert err == ""
    assert json.loads(first[0][1])["command"] == "vcg"
    assert [rc for rc, _, _ in first] == [1, 1, 2, 0, 0, 0, 0]
    rc, out, err = first[2]
    assert (rc, out) == (2, "")
    assert err.startswith("usage: jobmarket gen") and "invalid int value: 'three'" in err
    # selftest's defaults (seed 0, grid 6) hold after gen's --seed 5
    report = selftest.run(2, 0, 6)
    assert first[6] == (0, "".join(line + "\n" for line in report.lines()), "")


def test_classify_json(capsys):
    rc, out, _ = run_cli(capsys, "classify", DATA / "budget_vs_additive.json", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["command"] == "classify"
    by_name = {f["firm"]: f for f in payload["firms"]}
    assert by_name["f1"]["submodular"]["verdict"] is True
    assert by_name["f1"]["gross_substitutes"]["verdict"] is False
    assert by_name["f1"]["gross_substitutes"]["witness"] is not None
    assert by_name["f2"]["gross_substitutes"]["verdict"] is True


def test_vcg_json(capsys):
    rc, out, _ = run_cli(capsys, "vcg", DATA / "all_or_nothing.json", "--json")
    assert rc == 1
    payload = json.loads(out)
    assert payload["result"]["salaries"] == {"w1": "6", "w2": "7"}
    assert payload["result"]["firm_payoffs"] == {"f": "-3"}
    assert payload["individually_rational"]["verdict"] is False
    assert payload["firing_proof"]["verdict"] is False


def test_solve_json_profile_override(capsys):
    rc, out, _ = run_cli(
        capsys,
        "solve",
        DATA / "budget_vs_additive.json",
        "--profile",
        DATA / "high_profile.json",
        "--json",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["total_surplus"] == "3"
    assert payload["matching"] == {"w1": "f1", "w2": "f1", "w3": "f2"}


def test_stability_json(capsys):
    rc, out, _ = run_cli(
        capsys,
        "stability",
        DATA / "budget_vs_additive.json",
        "--profile",
        DATA / "high_profile.json",
        "--json",
    )
    assert rc == 1
    payload = json.loads(out)
    assert payload["stable"] is False
    assert payload["block"]["firm"] == "f1"
    assert payload["block"]["coalition"] == ["w3"]
    assert payload["block"]["payments"] == {"w3": "5/4"}
    assert payload["block"]["slack"] == "1/2"
    assert payload["weakly_stable"] is True
    assert payload["weak_block"] is None


def test_stability_low_regime_exits_zero(capsys):
    rc, out, _ = run_cli(capsys, "stability", DATA / "budget_vs_additive.json", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["stable"] is True and payload["block"] is None


def test_necessity_json_reports_exhibited_outcome(capsys):
    rc, out, _ = run_cli(capsys, "necessity", DATA / "tie_dodger.json", "--firm", "f1", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["ir"] is None
    sir = payload["sir"]
    assert sir["canonical"] is False
    assert sir["pair"] == ["w1", "w2"]
    assert sir["outcome"]["matching"] == {"w1": "f1", "w2": "f1", "w3": "f1"}
    assert sir["outcome"]["salaries"] == {"w1": "2", "w2": "2", "w3": "0"}


MARKET_COMMANDS = [
    ["classify", DATA / "plateau.json"],
    ["solve", DATA / "budget_vs_additive.json"],
    ["vcg", DATA / "all_or_nothing.json"],
    ["stability", DATA / "budget_vs_additive.json", "--profile", DATA / "high_profile.json"],
    ["necessity", DATA / "tie_dodger.json", "--firm", "f1"],
]


@pytest.mark.parametrize("argv", MARKET_COMMANDS, ids=[a[0] for a in MARKET_COMMANDS])
def test_every_market_command_shares_the_envelope(capsys, argv):
    digest = market_digest(load_market(str(argv[1])))
    rc, out, err = run_cli(capsys, *argv, "--json")
    payload = json.loads(out)
    assert (payload["command"], payload["market"], err) == (argv[0], digest, "")
    rc_text, out, err = run_cli(capsys, *argv)
    assert (rc_text, err) == (rc, "")
    assert out.splitlines()[0] == f"market {digest}"


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_a_refusing_body_prints_nothing_and_skips_the_digest(
    capsys, tmp_path, monkeypatch, json_flag
):
    edited = _with_disutilities(tmp_path, "budget_vs_additive.json", ABOVE_UBAR)
    costs = tmp_path / "costs.json"
    costs.write_text(json.dumps(json.loads(edited.read_text())["disutilities"]))
    digests = []
    monkeypatch.setattr(cli, "market_digest", lambda *a: digests.append(a))
    for argv in (
        ["necessity", DATA / "plateau.json", "--firm", "nope"],
        ["vcg", DATA / "budget_vs_additive.json", "--profile", costs],
    ):
        rc, out, err = run_cli(capsys, *argv, *json_flag)
        assert (rc, out, digests) == (2, "", [])
        assert err.startswith("error:")


def test_gen_takes_no_json_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "additive", "3", "1", "--json"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --json" in err


@pytest.mark.parametrize(
    "profile,scans",
    [([], 0), (["--profile", DATA / "high_profile.json"], 1)],
    ids=["stable", "blocked"],
)
def test_stability_scans_for_a_weak_block_only_after_a_block(capsys, monkeypatch, profile, scans):
    argv = ["stability", DATA / "budget_vs_additive.json", *profile]
    expected = [run_cli(capsys, *argv, *flag) for flag in ([], ["--json"])]
    find_weak_block = cli.find_weak_block
    calls = []

    def spy(*args):
        calls.append(args)
        return find_weak_block(*args)

    monkeypatch.setattr(cli, "find_weak_block", spy)
    for flag, before in zip(([], ["--json"]), expected):
        calls.clear()
        assert run_cli(capsys, *argv, *flag) == before
        assert len(calls) == scans
    # the blocked outcome is still weakly stable: the scan ran and found none
    assert "weakly_stable yes" in expected[0][1]


def test_non_monotone_witness_rechecks_from_the_table(capsys):
    rc, out, _ = run_cli(capsys, "classify", DATA / "non_monotone.json", "--json")
    assert rc == 0
    (entry,) = json.loads(out)["firms"]
    assert entry["monotone"] is False
    witness = entry["monotone_witness"]
    fn = load_market(str(DATA / "non_monotone.json")).utility("f")
    smaller, larger = set(witness["smaller_set"]), set(witness["larger_set"])
    assert smaller < larger and len(larger - smaller) == 1
    assert witness["value_smaller"] == str(fn.subset_value(smaller))
    assert witness["value_larger"] == str(fn.subset_value(larger))
    assert fn.subset_value(larger) < fn.subset_value(smaller)


# sha256 of `gen` output, re-pinned when `gen` began to write tables as
# arrays in mask order; each loads to the market of the keyed text pinned
# before, which was recorded while tables were still built and dumped
# through Fractions and json.dumps. The market digest is the sha256 of that
# same text, so each file, loaded, digests to its own pin.
PINNED_GEN = {
    "additive 12 2 --seed 1": "da16d203114e044a799a3516efd0d8453d5b05b335b132e7895baafddaa98ae5",
    "budget_additive 10 3 --seed 1": "82f8142cfd139ca406f8712ebec65e250dbd6e0bfe1b1b56ff379ea54f3f6323",
    "unit_demand 12 2 --seed 1": "3c900f9f812b545f8b47722c3b09556e430b43c3bed94ebf143b9bee03252298",
    "random_submodular 11 3 --seed 1": "1ad4bb357ae0a2a1c249a1aa825fc87c937a744c7d45c3c5a842a03597156afe",
    "random_monotone 10 2 --seed 1": "57e406e9c15559fe2e35cfa8724af9f81b2dfeb72f7a954ad30fc077aba9088f",
    # empty containers keep json's [] and {} spelling
    "additive 0 0": "9d97c4f9f77e8a71c512d52c1b12aff9e722f580d8729ace174dcc0d20daab2d",
    "unit_demand 0 2": "47529d90dcdc83ccdc5d2de42624a513621ce77ec7ac80468b83f4583e0150bd",
    "random_monotone 3 0": "1a705f3a34a783f3b4f67d5e83a20c7160fcf595afade31301bebc93c3e45060",
    "budget_additive 1 1": "530866d6cd3266ab85961a08dd0948faf6bf5e7073f2fdbb0cc3fed6da0529c7",
}


@pytest.mark.parametrize("spec", sorted(PINNED_GEN))
def test_gen_output_is_pinned(capsys, spec):
    rc, out, err = run_cli(capsys, "gen", *spec.split())
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_GEN[spec]
    assert market_digest(parse_market(json.loads(out))) == PINNED_GEN[spec]


def test_commands_never_build_a_whole_values_view(capsys, tmp_path, monkeypatch):
    """The commands run on the integer tables; `SetFunction.values` is the
    Fraction view for tests and oracles only."""
    reads = []
    monkeypatch.setattr(SetFunction, "values", property(lambda fn: reads.append(fn.n)))
    for kind in ("random_monotone", "budget_additive"):
        rc, out, _ = run_cli(capsys, "gen", kind, "12", "2", "--seed", "1")
        assert rc == 0
        path = tmp_path / f"{kind}.json"
        path.write_text(out)
        for argv in (["classify"], ["solve"], ["vcg"], ["stability"], ["necessity", "--firm", "f1"]):
            rc, _, err = run_cli(capsys, argv[0], path, *argv[1:], "--json")
            assert rc in (0, 1), err
    assert reads == []


def test_gen_is_deterministic_and_loadable(capsys, tmp_path):
    rc1, out1, _ = run_cli(capsys, "gen", "random_monotone", "4", "2", "--seed", "11")
    rc2, out2, _ = run_cli(capsys, "gen", "random_monotone", "4", "2", "--seed", "11")
    assert rc1 == rc2 == 0
    assert out1 == out2
    m = parse_market(json.loads(out1))
    assert m.workers == ("w1", "w2", "w3", "w4")
    path = tmp_path / "generated.json"
    path.write_text(out1)
    rc3, out3, _ = run_cli(capsys, "solve", path)
    assert rc3 == 0
    assert "total_surplus" in out3


def test_selftest_json(capsys):
    rc, out, _ = run_cli(capsys, "selftest", "--trials", "5", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["suites"]) == 8


def test_selftest_failure_exits_one(capsys, monkeypatch):
    broken = SelftestReport(
        seed=0,
        trials=1,
        grid=6,
        suites=(SuiteResult("oracle_equivalence", 1, ("totals diverged",)),),
    )
    monkeypatch.setattr(selftest, "run", lambda *a: broken)
    rc, out, _ = run_cli(capsys, "selftest", "--trials", "1")
    assert rc == 1
    assert "FAIL oracle_equivalence" in out
    assert "SELF-TEST FAILED" in out


def test_missing_file_exits_two(capsys):
    rc, out, err = run_cli(capsys, "solve", DATA / "no_such_market.json")
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


def test_malformed_market_exits_two(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"workers": "oops"}')
    rc, _, err = run_cli(capsys, "classify", path)
    assert rc == 2
    assert err.startswith("error:")


def test_unknown_firm_exits_two(capsys):
    rc, _, err = run_cli(capsys, "necessity", DATA / "plateau.json", "--firm", "zz")
    assert rc == 2
    assert "unknown firm" in err


def test_necessity_refuses_non_monotone_firm(capsys):
    # the constructions fail on this decreasing table; the CLI names the
    # firm instead of ending in a traceback
    rc, out, err = run_cli(capsys, "necessity", DATA / "non_monotone.json", "--firm", "f")
    assert rc == 2
    assert out == ""
    assert err == "error: firm f: monotone=no (the constructions need a weakly increasing table)\n"


def test_necessity_names_a_non_monotone_co_firm(capsys, tmp_path):
    # f1 is monotone and not submodular; f2({w1,w2}) = 10 exceeds ubar =
    # f2(W) = 2, so no 0/ubar profile keeps f2 off {w1,w2}
    values = {
        "f1": ["0", "0", "1", "1", "0", "0", "1", "3/2"],
        "f2": ["0", "1/2", "1", "10", "1/2", "3/2", "3/2", "2"],
    }
    keys = ["", "w1", "w2", "w1,w2", "w3", "w1,w3", "w2,w3", "w1,w2,w3"]
    firms = [
        {"name": f, "utility": {"type": "table", "values": dict(zip(keys, v))}}
        for f, v in values.items()
    ]
    path = tmp_path / "cofirm.json"
    path.write_text(json.dumps({"workers": ["w1", "w2", "w3"], "firms": firms}))
    rc, out, err = run_cli(capsys, "necessity", path, "--firm", "f1")
    assert rc == 2
    assert out == ""
    assert err == "error: firm f2: monotone=no (the constructions need a weakly increasing table)\n"


def test_deeply_nested_json_exits_two(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    rc, out, err = run_cli(capsys, "vcg", path)
    assert rc == 2
    assert out == ""
    assert err == f"error: {path}: JSON nested too deeply\n"
    rc, out, err = run_cli(capsys, "vcg", DATA / "all_or_nothing.json", "--profile", path)
    assert rc == 2
    assert err == f"error: {path}: JSON nested too deeply\n"


def test_oversized_rational_exits_two(capsys, tmp_path):
    market = json.loads((DATA / "all_or_nothing.json").read_text())
    market["firms"][0]["utility"]["values"]["w1,w2"] = "1e5000"
    path = tmp_path / "big.json"
    path.write_text(json.dumps(market))
    rc, out, err = run_cli(capsys, "classify", path)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")
    assert "exponent of '1e5000' exceeds" in err


def test_oversized_integer_exits_two(capsys, tmp_path):
    # a JSON integer gets the cap a rational string gets
    market = {
        "workers": ["w1"],
        "firms": [{"name": "f", "utility": {"type": "additive", "values": {"w1": 10**4000}}}],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(market))
    rc, out, err = run_cli(capsys, "classify", path)
    assert (rc, out) == (2, "")
    assert err == "error: firm 'f' utility[w1]: integer longer than 100 digits\n"


def test_integer_past_the_digit_limit_names_the_file(capsys, tmp_path):
    # written as text, so no test code converts the integer either
    path = tmp_path / "huge.json"
    path.write_text('{"workers": [], "firms": [], "x": ' + "1" + "0" * 5000 + "}")
    rc, out, err = run_cli(capsys, "classify", path)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {path}: invalid JSON (")


ADDITIVE = {"type": "additive", "values": {"c": "1"}}
TABLE = {"type": "table", "values": {"": "0", "c": "1", "d": "1", "c,d": "2", "c,d,": "7"}}


@pytest.mark.parametrize(
    "workers, utility, message",
    [
        (["a,b", "c"], ADDITIVE, "market: worker id 'a,b' is empty or holds a comma"),
        (["", "c"], ADDITIVE, "market: worker id '' is empty or holds a comma"),
        (["c", "c"], ADDITIVE, "market: duplicate worker ids"),
        (["c", "d"], TABLE, "firm 'f' utility: table key 'c,d,' has an empty part"),
    ],
)
def test_ids_and_keys_that_do_not_split_exit_two(capsys, tmp_path, workers, utility, message):
    # the first two loaded before, but their dumps could not be loaded back
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"workers": workers, "firms": [{"name": "f", "utility": utility}]}))
    rc, out, err = run_cli(capsys, "classify", path)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_budget_on_a_non_budget_utility_exits_two(capsys, tmp_path):
    # loaded as an uncapped additive table before: total_surplus 10, exit 0
    utility = {"type": "additive", "budget": "1", "values": {"a": "5", "b": "5"}}
    market = {
        "workers": ["a", "b"],
        "firms": [{"name": "f", "utility": utility}],
        "disutilities": {"a": {"f": "0"}, "b": {"f": "0"}},
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(market))
    for command in ("solve", "classify"):
        rc, out, err = run_cli(capsys, command, path)
        assert (rc, out, err) == (2, "", "error: firm 'f' utility: unexpected key 'budget'\n")


def test_gen_rejects_negative_counts(capsys):
    rc, _, err = run_cli(capsys, "gen", "additive", "-1", "2")
    assert rc == 2
    assert "nonnegative" in err


def test_gen_rejects_unknown_kind(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "mystery", "2", "2"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_profile_must_cover_market(capsys, tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"w1": {"f": "0"}}))
    rc, _, err = run_cli(capsys, "vcg", DATA / "all_or_nothing.json", "--profile", path)
    assert rc == 2
    assert err.startswith("error:")


def test_oversized_market_exits_two_before_allocating(capsys, tmp_path):
    # 40 workers would need 2^40-entry tables; the cap must refuse first
    workers = [f"w{i}" for i in range(40)]
    market = {
        "workers": workers,
        "firms": [{"name": "f", "utility": {"type": "additive", "values": {"w0": "1"}}}],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(market))
    rc, out, err = run_cli(capsys, "vcg", path)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")
    assert "40 workers exceeds cap of 20" in err


def test_gen_refuses_oversized_universe(capsys):
    rc, out, err = run_cli(capsys, "gen", "additive", "40", "1")
    assert rc == 2
    assert out == ""
    assert "40 workers exceeds cap of 20" in err


@pytest.fixture
def no_table_built(monkeypatch):
    """Every way to build a SetFunction fails the test instead."""

    def built(*args, **kwargs):
        raise AssertionError("a table was built before the refusal")

    monkeypatch.setattr(SetFunction, "__post_init__", built)
    for name in ("from_values", "from_table", "additive", "budget_additive", "unit_demand"):
        monkeypatch.setattr(SetFunction, name, classmethod(built))


# 17 firms over 20 workers: 17 * 2^20 table entries, one firm past the cap
OVER_ENTRY_CAP = (20, 17)
ENTRY_CAP_MESSAGE = f"17 firms over 20 workers need {17 << 20} table entries, which exceeds cap of {ENTRY_CAP}"


def test_market_over_the_entry_cap_exits_two_before_any_table(capsys, tmp_path, no_table_built):
    n, nfirms = OVER_ENTRY_CAP
    workers = [f"w{i}" for i in range(n)]
    market = {
        "workers": workers,
        "firms": [
            {"name": f"f{j}", "utility": {"type": "additive", "values": {"w0": "1"}}}
            for j in range(nfirms)
        ],
    }
    with pytest.raises(SizeLimitError, match=ENTRY_CAP_MESSAGE):
        parse_market(market)
    path = tmp_path / "many_firms.json"
    path.write_text(json.dumps(market))
    rc, out, err = run_cli(capsys, "classify", path)
    assert (rc, out, err) == (2, "", f"error: {ENTRY_CAP_MESSAGE}\n")


def test_gen_refuses_a_market_over_the_entry_cap_before_any_table(capsys, no_table_built):
    n, nfirms = OVER_ENTRY_CAP
    with pytest.raises(SizeLimitError, match=ENTRY_CAP_MESSAGE):
        generate("additive", n, nfirms)
    rc, out, err = run_cli(capsys, "gen", "additive", n, nfirms)
    assert (rc, out, err) == (2, "", f"error: {ENTRY_CAP_MESSAGE}\n")


def _with_disutilities(tmp_path, name, entries):
    """A copy of a data market with some embedded disutilities replaced."""
    market = json.loads((DATA / name).read_text())
    for w, row in entries.items():
        market["disutilities"][w].update(row)
    path = tmp_path / f"edited_{name}"
    path.write_text(json.dumps(market))
    return path


# w1 at f2 comes first worker-major, w2 at f1 first firm-major
ABOVE_UBAR = {"w1": {"f2": "7/2"}, "w2": {"f1": "4"}}


@pytest.mark.parametrize("source", ["profile", "embedded"])
@pytest.mark.parametrize("command", ["solve", "vcg", "stability"])
def test_solving_commands_refuse_entries_above_ubar(capsys, tmp_path, command, source):
    edited = _with_disutilities(tmp_path, "budget_vs_additive.json", ABOVE_UBAR)
    if source == "profile":
        path = tmp_path / "costs.json"
        path.write_text(json.dumps(json.loads(edited.read_text())["disutilities"]))
        argv = [command, DATA / "budget_vs_additive.json", "--profile", path]
    else:
        argv = [command, edited]
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == "error: disutility 7/2 for w1 at f2 exceeds ubar=3\n"


def test_negative_entry_before_the_box_is_named_by_the_engine(capsys, tmp_path):
    entries = {"w1": {"f1": "-1", "f2": "7/2"}, "w2": {"f1": "4"}}
    path = _with_disutilities(tmp_path, "budget_vs_additive.json", entries)
    rc, out, err = run_cli(capsys, "vcg", path)
    assert (rc, out) == (2, "")
    assert err == "error: negative disutility -1 for w1 at f1\n"


@pytest.mark.parametrize(
    "name,entries,argv",
    [
        ("budget_vs_additive.json", ABOVE_UBAR, ["classify"]),
        ("all_or_nothing.json", {"w1": {"f": "11"}}, ["necessity", "--firm", "f"]),
    ],
)
def test_box_leaves_classify_and_necessity_alone(capsys, tmp_path, name, entries, argv):
    edited = _with_disutilities(tmp_path, name, entries)
    rc, out, err = run_cli(capsys, argv[0], edited, *argv[1:])
    rc0, out0, _ = run_cli(capsys, argv[0], DATA / name, *argv[1:])
    assert (rc, err) == (rc0, "") == (0, "")
    # only the digest line differs: these commands never read the profile
    assert out.splitlines()[1:] == out0.splitlines()[1:]
    assert out.splitlines()[0] != out0.splitlines()[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["vcg", DATA / "all_or_nothing.json"],
        ["classify", DATA / "budget_vs_additive.json", "--json"],
        ["gen", "additive", "4", "2", "--seed", "7"],
    ],
    ids=["vcg", "classify-json", "gen"],
)
def test_closed_stdout_exits_141_without_traceback(argv):
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "jobmarket.cli", *map(str, argv)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


# prints the jobmarket modules a command leaves loaded, after the command
LOADED_PROBE = """
import contextlib, io, sys
import jobmarket.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(name for name in sys.modules if name.startswith("jobmarket")))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", DATA / "budget_vs_additive.json"],
        ["solve", DATA / "budget_vs_additive.json"],
        ["vcg", DATA / "budget_vs_additive.json"],
        ["stability", DATA / "budget_vs_additive.json"],
        ["necessity", DATA / "plateau.json", "--firm", "f"],
    ],
    ids=lambda argv: argv[0],
)
def test_market_commands_load_no_oracle(argv):
    """The oracles and the self-test that runs them stay off every market
    command's path: a fresh interpreter never imports either."""
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_PROBE, *map(str, argv)],
        capture_output=True,
        env=env,
        text=True,
        timeout=60,
    )
    assert proc.stderr == ""
    code, *loaded = proc.stdout.split()
    assert code in ("0", "1")
    assert "jobmarket.surplus" in loaded
    assert "jobmarket.selftest" not in loaded
    assert "jobmarket.oracles" not in loaded
