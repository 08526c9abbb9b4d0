"""Command-line front end.

Commands:
    classify   per-firm valuation verdicts (monotone, substitute classes)
    solve      efficient matching and total surplus
    vcg        pivot salaries, payoffs, rationality verdicts
    stability  blocking search against the pivot outcome
    necessity  adversarial profile construction for one firm
    gen        seeded random market to stdout
    selftest   cross-check suites on random markets

Exit codes: 0 success, 1 the checked property fails (vcg: IR or SIR false;
stability: blocked; selftest: any suite failure), 2 bad input, 141 stdout
closed before the output was written (console entry only). Output is
deterministic for a fixed input and seed; --json emits a stable schema with
all rationals as exact strings, in the layout of json.dumps(payload,
indent=2, sort_keys=True). The package writes that text itself
(`marketio.json_text`): json.dumps given an indent runs its pure-Python
encoder on CPython 3.12 and before. `gen` always writes a market file,
which is JSON, and takes no --json.

The five market commands share one envelope, built in `main`: it loads the
market, calls the body `(args, market) -> (code, lines, payload)`, then
prints `market <digest>` before the lines, or the payload with `command`
and `market` keys under --json. The loader hashes the market as it reads
it, and `market_digest` after the body hands that digest over; a body that
refuses its input (exit 2) prints nothing, digest included.

The argument parser is built once per process, on the first call of
`main`, and reused by every later call in the same process (tests, the
benchmark, any embedding); a console run calls `main` once either way.
The parser keeps each command function's name, not the function, and each
call looks it up in this module, so a function rebound here (a test's
monkeypatch, a tracer's wrapper) takes effect without a new parser, and
`cmd_gen` and `cmd_selftest` keep the reference the dead-names test needs.

`cmd_selftest` imports `selftest` when it runs, not at the top of this
module: the self-test loads `oracles`, the slow cross-checks, and none of
the five market commands loads either.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Sequence

from .marketio import dumps_market, json_text, load_market, load_profile, market_digest
from .model import ConditionReport, Market, Profile
from .necessity import (
    GENERATOR_KINDS,
    demonstrate_ir_violation,
    demonstrate_sir_violation,
    find_submodularity_violation,
    find_ws_violation,
    generate,
)
from .setfn import classify
from .stability import find_block, find_weak_block
from .surplus import efficient_matching
from .pivot import check_ir, check_sir, vcg


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, (list, tuple)):
        return "{" + ",".join(str(x) for x in v) + "}"
    if isinstance(v, dict):
        return "{" + " ".join(f"{k}={_fmt_value(x)}" for k, x in v.items()) + "}"
    return str(v)


def _fmt_witness(witness: dict | None) -> str:
    if not witness:
        return ""
    return " ".join(f"{k}={_fmt_value(v)}" for k, v in witness.items())


def _cond_dict(r: ConditionReport) -> dict:
    return {"verdict": r.verdict, "witness": r.witness, "details": r.details}


def _emit(args, lines: list[str], payload: dict) -> None:
    if args.json:
        print(json_text(payload))
    else:
        for line in lines:
            print(line)


def _profile_for(args, m: Market) -> Profile | None:
    """The --profile file, else the embedded one, refused outside [0, ubar].

    The engine solves any nonnegative profile; the commands keep to the
    type space the paper's results range over. Entries are scanned
    worker-major; a negative one is left for the engine to name.
    """
    profile = load_profile(args.profile, m) if args.profile else m.disutilities
    if profile is None:
        return None
    for w, row in zip(m.workers, profile.rows):
        for f, d in zip(m.firm_names, row):
            if d < 0:
                return profile
            if d > m.ubar:
                raise ValueError(f"disutility {d} for {w} at {f} exceeds ubar={m.ubar}")
    return profile


def cmd_classify(args, m: Market) -> tuple[int, list[str], dict]:
    lines = []
    firms_out = []
    for name, fn in m.firms:
        checks = classify(fn)
        monotone = checks.pop("monotone")
        entry: dict = {"firm": name, "monotone": monotone.verdict}
        if monotone.verdict:
            flags = " ".join(
                f"{k}={_fmt_value(r.verdict)}" for k, r in checks.items()
            )
            lines.append(f"firm {name}: monotone=yes {flags}")
            for k, r in checks.items():
                entry[k] = _cond_dict(r)
                if not r.verdict:
                    lines.append(f"  {k} witness: {_fmt_witness(r.witness)}")
        else:
            entry["monotone_witness"] = monotone.witness
            lines.append(
                f"firm {name}: monotone=no (substitute classes need a weakly increasing table)"
            )
            lines.append(f"  monotone witness: {_fmt_witness(monotone.witness)}")
        firms_out.append(entry)
    return 0, lines, {"firms": firms_out}


def cmd_solve(args, m: Market) -> tuple[int, list[str], dict]:
    sol = efficient_matching(m, _profile_for(args, m))
    assign = " ".join(
        f"{w}->{f if f is not None else '-'}" for w, f in sol.matching.assignment
    )
    lines = [
        f"total_surplus {sol.total}",
        f"matching {assign}".rstrip(),
        f"ties_broken {_fmt_value(sol.ties_broken)}",
    ]
    return 0, lines, {
        "total_surplus": str(sol.total),
        "matching": sol.matching.to_dict(),
        "ties_broken": sol.ties_broken,
    }


def cmd_vcg(args, m: Market) -> tuple[int, list[str], dict]:
    r = vcg(m, _profile_for(args, m))
    ir = check_ir(r)
    sir = check_sir(r)
    lines = [f"total_surplus {r.total}"]
    for w, f in r.outcome.matching.assignment:
        firm = f if f is not None else "-"
        lines.append(
            f"worker {w}: firm={firm} salary={r.salary(w)} payoff={r.worker_payoff(w)}"
        )
    for f, payoff in r.firm_payoffs:
        lines.append(f"firm {f}: payoff={payoff}")
    lines.append(f"individually_rational {_fmt_value(ir.verdict)}")
    if not ir.verdict:
        lines.append(f"  witness: {_fmt_witness(ir.witness)}")
    lines.append(f"firing_proof {_fmt_value(sir.verdict)}")
    if not sir.verdict:
        lines.append(f"  witness: {_fmt_witness(sir.witness)}")
    return (0 if ir.verdict and sir.verdict else 1), lines, {
        "result": r.to_dict(),
        "individually_rational": _cond_dict(ir),
        "firing_proof": _cond_dict(sir),
    }


def cmd_stability(args, m: Market) -> tuple[int, list[str], dict]:
    profile = _profile_for(args, m)
    r = vcg(m, profile)
    block = find_block(m, r.outcome, profile)
    # a weak block is a block, so only a blocked outcome can have one
    weak = None if block is None else find_weak_block(m, r.outcome, profile)
    lines = [f"stable {_fmt_value(block is None)}"]
    if block is not None:
        pay = " ".join(f"{w}={p}" for w, p in block.payments)
        lines.append(
            f"  block: firm={block.firm} coalition={_fmt_value(list(block.coalition))} "
            f"slack={block.slack} payments {pay}".rstrip()
        )
    lines.append(f"weakly_stable {_fmt_value(weak is None)}")
    if weak is not None:
        lines.append(
            f"  weak block: firm={weak.firm} coalition={_fmt_value(list(weak.coalition))} "
            f"slack={weak.slack}"
        )
    return (0 if block is None else 1), lines, {
        "stable": block is None,
        "block": block.to_dict() if block is not None else None,
        "weakly_stable": weak is None,
        "weak_block": weak.to_dict() if weak is not None else None,
    }


def cmd_necessity(args, m: Market) -> tuple[int, list[str], dict]:
    fn = m.utility(args.firm)
    lines = [f"firm {args.firm}"]
    payload: dict = {"firm": args.firm, "sir": None, "ir": None}
    if find_submodularity_violation(fn) is None:
        lines.append("submodular: no SIR construction")
    else:
        cert = demonstrate_sir_violation(m, args.firm)
        wl, wk = cert.pair
        lines.append(
            f"not submodular: firing {wl},{wk} beside {_fmt_value(list(cert.subset))} "
            f"gains {cert.summary['firing_gain']}"
        )
        if not cert.canonical:
            hire = ",".join(cert.outcome.matching.workers_of(args.firm))
            lines.append(
                f"  (at the equally efficient matching that hires {{{hire}}};"
                " the tie-broken one dodges the violation)"
            )
        lines.extend(_profile_lines(cert.profile))
        payload["sir"] = cert.to_dict()
    if find_ws_violation(fn) is None:
        lines.append("weak substitutes: no IR construction")
    else:
        cert = demonstrate_ir_violation(m, args.firm)
        lines.append(
            f"not weak substitutes: hiring {_fmt_value(list(cert.subset))} "
            f"pays out {cert.summary['firm_payoff']}"
        )
        lines.extend(_profile_lines(cert.profile))
        payload["ir"] = cert.to_dict()
    return 0, lines, payload


def _profile_lines(profile: Profile) -> list[str]:
    out = ["  profile:"]
    for w in profile.workers:
        row = " ".join(f"{f}={profile.get(w, f)}" for f in profile.firms)
        out.append(f"    {w}: {row}")
    return out


def cmd_gen(args) -> int:
    m = generate(args.kind, args.workers, args.firms, args.seed)
    sys.stdout.write(dumps_market(m))
    return 0


def cmd_selftest(args) -> int:
    from . import selftest  # loads the oracles, which no market command needs

    report = selftest.run(args.trials, args.seed, args.grid)
    _emit(args, report.lines(), {"command": "selftest", **report.to_dict()})
    return 0 if report.ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jobmarket",
        description="Exact matching, pivot payments, and valuation analysis "
        "for job markets with transferable salaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str, market: bool = True, profile: bool = False):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func.__name__)
        if market:
            p.add_argument("market", help="market JSON file")
        if profile:
            p.add_argument(
                "--profile", help="disutility JSON file (overrides embedded matrix)"
            )
        if name != "gen":  # gen always writes a market file, which is JSON
            p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        return p

    add("classify", cmd_classify, "valuation class verdicts per firm")
    add("solve", cmd_solve, "efficient matching and total surplus", profile=True)
    add("vcg", cmd_vcg, "pivot salaries, payoffs, rationality verdicts", profile=True)
    add("stability", cmd_stability, "blocking search on the pivot outcome", profile=True)
    p = add("necessity", cmd_necessity, "adversarial profile for one firm")
    p.add_argument("--firm", required=True, help="firm to construct against")
    p = add("gen", cmd_gen, "emit a seeded random market", market=False)
    p.add_argument("kind", choices=GENERATOR_KINDS)
    p.add_argument("workers", type=int)
    p.add_argument("firms", type=int)
    p.add_argument("--seed", type=int, default=0)
    p = add("selftest", cmd_selftest, "run the cross-check suites", market=False)
    p.add_argument("--trials", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", type=int, default=6)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "market" not in args:
            return globals()[args.func](args)
        m = load_market(args.market)
        code, lines, payload = globals()[args.func](args, m)
        digest = market_digest(m)
        _emit(args, [f"market {digest}", *lines],
              {"command": args.command, "market": digest, **payload})
        return code
    except ValueError as err:  # bad input; marketio.MarketFormatError is one
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    """Console entry: main, then exit 141 (128 + SIGPIPE) if stdout closed early."""
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; let that flush succeed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entry()
