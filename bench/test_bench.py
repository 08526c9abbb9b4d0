"""Tests of the benchmark itself: its checkers reject corrupted outputs,
every workload runs end to end at a tiny size, and the traced run reports
every per-layer metric named in BENCHMARK.json.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import copy
import json
from dataclasses import replace
from fractions import Fraction

import pytest

import checks
import run
import spans

jm = run.import_program()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def output(tmp_path, market, argv):
    path = tmp_path / "m.json"
    path.write_text(jm.marketio.dumps_market(market), encoding="utf-8")
    _, rc, text = run.call(jm.cli, [argv[0], str(path), *argv[1:], "--json"])
    return rc, json.loads(text)


def reference(market, kind):
    return checks.Reference(market, kind, jm.marketio.market_digest(market))


def first_market(kind, n, m, want):
    """First seed whose market satisfies `want` (deterministic search)."""
    for seed in range(200):
        market = jm.necessity.generate(kind, n, m, seed)
        if want(market):
            return market
    raise AssertionError("no market found")


def bump(text, ref):
    """A printed rational moved by the smallest unit of the market's grid."""
    return str(Fraction(text) + Fraction(1, ref.den))


def rejects(check, *args):
    with pytest.raises(checks.REJECTIONS):
        check(*args)


def test_vcg_checker_rejects_corruptions(tmp_path):
    def firing_only(market):
        r = jm.pivot.vcg(market)
        return jm.pivot.check_ir(r).verdict and not jm.pivot.check_sir(r).verdict

    market = first_market("random_monotone", 5, 2, firing_only)
    ref = reference(market, "random_monotone")
    rc, out = output(tmp_path, market, ["vcg"])
    assert rc == 1
    checks.check_vcg(ref, out, rc)

    flipped = copy.deepcopy(out)
    flipped["firing_proof"]["verdict"] = True
    rejects(checks.check_vcg, ref, flipped, rc)
    rejects(checks.check_vcg, ref, out, 0)

    total = copy.deepcopy(out)
    total["result"]["total_surplus"] = bump(total["result"]["total_surplus"], ref)
    rejects(checks.check_vcg, ref, total, rc)

    salary = copy.deepcopy(out)
    hired = next(w for w, f in salary["result"]["matching"].items() if f is not None)
    salary["result"]["salaries"][hired] = bump(salary["result"]["salaries"][hired], ref)
    rejects(checks.check_vcg, ref, salary, rc)

    witness = copy.deepcopy(out)
    keep = witness["firing_proof"]["witness"]["keep"]
    firm = witness["firing_proof"]["witness"]["firm"]
    others = [w for w, f in out["result"]["matching"].items() if f == firm and w not in keep]
    witness["firing_proof"]["witness"]["keep"] = keep + others[:1] if others else keep[1:]
    rejects(checks.check_vcg, ref, witness, rc)

    digest = copy.deepcopy(out)
    digest["market"] = "0" * 64
    rejects(checks.check_vcg, ref, digest, rc)


def test_stability_checker_rejects_corruptions(tmp_path):
    def blocked(market):
        r = jm.pivot.vcg(market)
        block = jm.stability.find_block(market, r.outcome)
        return block is not None and block.coalition

    market = first_market("random_monotone", 5, 2, blocked)
    ref = reference(market, "random_monotone")
    _, vcg_out = output(tmp_path, market, ["vcg"])
    checks.check_vcg(ref, vcg_out, 0 if vcg_out["firing_proof"]["verdict"] else 1)
    rc, out = output(tmp_path, market, ["stability"])
    assert rc == 1
    checks.check_stability(ref, vcg_out, out, rc)

    flipped = copy.deepcopy(out)
    flipped["stable"] = True
    rejects(checks.check_stability, ref, vcg_out, flipped, rc)

    slack = copy.deepcopy(out)
    slack["block"]["slack"] = bump(slack["block"]["slack"], ref)
    rejects(checks.check_stability, ref, vcg_out, slack, rc)

    payment = copy.deepcopy(out)
    w = next(iter(payment["block"]["payments"]))
    payment["block"]["payments"][w] = bump(payment["block"]["payments"][w], ref)
    rejects(checks.check_stability, ref, vcg_out, payment, rc)

    coalition = copy.deepcopy(out)
    coalition["block"]["coalition"] = coalition["block"]["coalition"][1:]
    rejects(checks.check_stability, ref, vcg_out, coalition, rc)


def test_classify_checker_rejects_corruptions(tmp_path):
    market = jm.necessity.generate("random_monotone", 5, 1, 3)
    ref = reference(market, "random_monotone")
    rc, out = output(tmp_path, market, ["classify"])
    checks.check_classify(ref, out, rc)
    firm = out["firms"][0]
    assert not firm["weak_substitutes"]["verdict"]

    for key in ("weak_substitutes", "submodular", "gross_substitutes"):
        flipped = copy.deepcopy(out)
        flipped["firms"][0][key]["verdict"] = True
        rejects(checks.check_classify, ref, flipped, rc)

    value = copy.deepcopy(out)
    wit = value["firms"][0]["weak_substitutes"]["witness"]
    wit["marginal_sum"] = bump(wit["marginal_sum"], ref)
    rejects(checks.check_classify, ref, value, rc)

    for key, field in (("weak_substitutes", "subset"), ("strong_substitutes", "removed"),
                       ("gross_substitutes", "set_a")):
        altered = copy.deepcopy(out)
        wit = altered["firms"][0][key]["witness"]
        spare = [w for w in ref.workers if w not in wit[field]]
        wit[field] = wit[field][:-1] + spare[:1]
        rejects(checks.check_classify, ref, altered, rc)

    additive = jm.necessity.generate("additive", 5, 1, 0)
    ref = reference(additive, "additive")
    rc, out = output(tmp_path, additive, ["classify"])
    checks.check_classify(ref, out, rc)
    flipped = copy.deepcopy(out)
    flipped["firms"][0]["gross_substitutes"]["verdict"] = False
    flipped["firms"][0]["gross_substitutes"]["witness"] = {}
    rejects(checks.check_classify, ref, flipped, rc)


def test_necessity_checker_rejects_corruptions(tmp_path):
    market = jm.necessity.generate("random_monotone", 6, 2, 1)
    ref = reference(market, "random_monotone")
    rc, out = output(tmp_path, market, ["necessity", "--firm", "f1"])
    checks.check_necessity(ref, "f1", out, rc)
    assert out["ir"] is not None and out["sir"] is not None

    flipped = copy.deepcopy(out)
    flipped["sir"] = None
    rejects(checks.check_necessity, ref, "f1", flipped, rc)

    for kind in ("ir", "sir"):
        salary = copy.deepcopy(out)
        sal = salary[kind]["outcome"]["salaries"]
        w = salary[kind]["subset"][0] if kind == "ir" else salary[kind]["pair"][0]
        sal[w] = bump(sal[w], ref)
        rejects(checks.check_necessity, ref, "f1", salary, rc)

        subset = copy.deepcopy(out)
        members = subset[kind]["subset"]
        spare = [w for w in ref.workers if w not in members
                 and w not in (subset[kind]["pair"] or [])]
        subset[kind]["subset"] = members[1:] if members else spare[:1]
        rejects(checks.check_necessity, ref, "f1", subset, rc)

    profile = copy.deepcopy(out)
    row = profile["ir"]["profile"]["w1"]
    row["f2"] = bump(row["f2"], ref)
    rejects(checks.check_necessity, ref, "f1", profile, rc)

    gain = copy.deepcopy(out)
    gain["sir"]["summary"]["firing_gain"] = bump(gain["sir"]["summary"]["firing_gain"], ref)
    rejects(checks.check_necessity, ref, "f1", gain, rc)


def test_exhaustive_max_matches_max_plus():
    market = jm.necessity.generate("random_monotone", 6, 3, 5)
    ref = reference(market, "random_monotone")
    raws = [ref.raw(f, ref.costs[f]) for f in range(3)]
    assert checks.exhaustive_max(raws, ref.n) == ref.values()[0]


def tiny(workload):
    return replace(workload, markets=tuple((k, min(n, 6), m) for k, n, m in workload.markets))


def names(section):
    return sorted(m["name"] for m in BENCHMARK[section])


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_end_to_end_tiny(name):
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])
    result = run.run_workload(tiny(run.WORKLOADS[name]), f"tiny-{name}", 1, 0.01, False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert sorted(result["metrics"]) == names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name):
    result = run.run_workload(tiny(run.WORKLOADS[name]), f"tiny-{name}", 2, 0.01, True)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert sorted(metrics) == names("per_layer")
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(result["metrics"][k]["unit"] == units[k] for k in metrics)
    accounted = sum(metrics[b] for b in spans.COMMAND_BUCKETS)
    assert accounted == pytest.approx(metrics["bench.command_s"], rel=1e-9)
    assert metrics["marketio.digest_calls"] >= 1


def test_tracer_restores_every_binding():
    before = {id(getattr(jm.cli, k)) for k in vars(jm.cli)}
    from_table = jm.model.SetFunction.__dict__["from_table"]
    with spans.Tracer():
        assert hasattr(jm.cli.market_digest, "__wrapped__")
        assert hasattr(jm.necessity.vcg, "__wrapped__")
    assert {id(getattr(jm.cli, k)) for k in vars(jm.cli)} == before
    assert jm.model.SetFunction.__dict__["from_table"] is from_table
