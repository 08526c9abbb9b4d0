"""Benchmark of the jobmarket command line, run in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory. Markets are generated from the seed, written as JSON
files, and each command is a call of ``jobmarket.cli.main([..., "--json"])``
with stdout captured, one at a time in a closed loop from this single
thread. The loop repeats whole rounds of the workload's commands until
S seconds have passed. Every output is checked by ``checks.py`` outside
the timed region. The last line of stdout is one JSON object: correct,
attempted, failed and the metrics (end to end with --trace 0, per layer
with --trace 1). See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 5

# Every timed interval is bracketed by a fixed pure-Python Fraction loop,
# and its duration is scaled by REFERENCE_LOOP_S over the mean time of the
# two bracketing loops. On the shared 2-vCPU host the benchmark was tuned
# on, speed drifted by up to 1.7x over seconds to tens of seconds, so whole
# runs landed in a fast or a slow phase, which per-run medians alone cannot
# undo. The scaled times are "reference seconds": the time in a phase
# where the loop takes REFERENCE_LOOP_S (that host's slow phase).
CALIBRATION_STEPS = 2000
REFERENCE_LOOP_S = 0.008

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import jobmarket.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


@dataclass(frozen=True)
class Workload:
    """Markets as (generator kind, workers, firms); commands run on each."""

    markets: tuple[tuple[str, int, int], ...]
    commands: tuple[str, ...]


WORKLOADS = {
    "vcg_stability": Workload(
        markets=(
            ("additive", 12, 2),
            ("unit_demand", 12, 2),
            ("budget_additive", 10, 3),
            ("budget_additive", 10, 3),
            ("random_submodular", 11, 3),
            ("random_submodular", 11, 3),
            ("random_monotone", 10, 2),
            ("random_monotone", 10, 2),
        ),
        commands=("vcg", "stability"),
    ),
    "classify_tables": Workload(
        markets=(
            ("additive", 9, 1),
            ("additive", 9, 1),
            ("unit_demand", 9, 1),
            ("unit_demand", 9, 1),
            ("budget_additive", 8, 2),
            ("random_submodular", 8, 2),
            ("random_monotone", 10, 2),
        ),
        commands=("classify",),
    ),
    "necessity_certs": Workload(
        markets=(
            ("random_monotone", 9, 3),
            ("random_monotone", 10, 2),
            ("random_monotone", 10, 3),
            ("random_monotone", 11, 2),
        ),
        commands=("necessity",),
    ),
}

END_TO_END = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def calibration_loop() -> float:
    start = perf_counter()
    x = Fraction(0)
    for i in range(1, CALIBRATION_STEPS):
        x += Fraction(1, i % 7 + 1)
    return perf_counter() - start


def scaled(timed: Callable[[], float]) -> float:
    """Run `timed` (returns its own seconds) between two calibration loops."""
    before = calibration_loop()
    seconds = timed()
    after = calibration_loop()
    return seconds * REFERENCE_LOOP_S * 2 / (before + after)


def import_program():
    """Import the package from this checkout's src, never from elsewhere."""
    if not (SRC / "jobmarket" / "cli.py").is_file():
        raise SystemExit(f"error: no jobmarket sources under {SRC}; run from a checkout root")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import jobmarket.cli
    import jobmarket.marketio
    import jobmarket.necessity

    if Path(jobmarket.cli.__file__).resolve().parent != (SRC / "jobmarket").resolve():
        raise SystemExit(f"error: jobmarket was imported from {jobmarket.cli.__file__}")
    return jobmarket


@dataclass
class Pair:
    """One (command, market) pair of the corpus."""

    argv: list[str]
    market: int
    command: str
    firm: Optional[str] = None


def market_seed(seed: int, index: int) -> int:
    return seed * 100 + index


def build_corpus(jm, workload: Workload, seed: int, workdir: Path) -> None:
    """Generate every market and write it as JSON, one market at a time."""
    for k, (kind, n, m) in enumerate(workload.markets):
        market = jm.necessity.generate(kind, n, m, market_seed(seed, k))
        (workdir / f"m{k}.json").write_text(jm.marketio.dumps_market(market), encoding="utf-8")


def measure_import() -> float:
    proc = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def set_up(jm, workload: Workload, seed: int, workdir: Path):
    """Repeated set-up: per-repeat seconds (import plus corpus) and import seconds."""
    totals, imports = [], []

    def once() -> float:
        imports.append(measure_import())
        start = perf_counter()
        build_corpus(jm, workload, seed, workdir)
        return imports[-1] + perf_counter() - start

    for _ in range(SETUP_REPEATS):
        totals.append(scaled(once))
    return totals, imports


def references(jm, workload: Workload, seed: int) -> list:
    """Regenerate each market untimed and keep only its integer reference,
    so the benchmark's own data stays small beside the program's peak."""
    refs = []
    for k, (kind, n, m) in enumerate(workload.markets):
        market = jm.necessity.generate(kind, n, m, market_seed(seed, k))
        ref = checks.Reference(market, kind, jm.marketio.market_digest(market))
        if "vcg" in workload.commands:
            ref.values()
        refs.append(ref)
    return refs


def corpus_pairs(workload: Workload, refs: list, workdir: Path) -> list[Pair]:
    pairs = []
    for k, ref in enumerate(refs):
        path = str(workdir / f"m{k}.json")
        for cmd in workload.commands:
            if cmd == "necessity":
                for firm in ref.firms:
                    pairs.append(Pair([cmd, path, "--firm", firm, "--json"], k, cmd, firm))
            else:
                pairs.append(Pair([cmd, path, "--json"], k, cmd))
    return pairs


class Verifier:
    """Checks each pair's output: fully the first time, then by identity."""

    def __init__(self, refs: list) -> None:
        self.refs = refs
        self.verified: dict[int, tuple[int, str]] = {}
        self.vcg_out: dict[int, dict] = {}
        self.errors: list[str] = []

    def __call__(self, k: int, pair: Pair, rc, text: str) -> bool:
        if self.verified.get(k) == (rc, text):
            return True
        try:
            self.full_check(pair, rc, text)
        except checks.REJECTIONS as err:
            self.errors.append(f"{' '.join(pair.argv)}: {type(err).__name__}: {err}")
            return False
        self.verified[k] = (rc, text)
        return True

    def full_check(self, pair: Pair, rc, text: str) -> None:
        checks.require(rc in (0, 1), f"exit code {rc!r}")
        out = json.loads(text)
        ref = self.refs[pair.market]
        if pair.command == "vcg":
            checks.check_vcg(ref, out, rc)
            self.vcg_out[pair.market] = out
        elif pair.command == "stability":
            checks.require(pair.market in self.vcg_out, "stability checked before its vcg")
            checks.check_stability(ref, self.vcg_out[pair.market], out, rc)
        elif pair.command == "classify":
            checks.check_classify(ref, out, rc)
        elif pair.command == "necessity":
            checks.check_necessity(ref, pair.firm, out, rc)
        else:
            raise checks.CheckError(f"no check for {pair.command}")


def call(cli, argv: list[str]) -> tuple[float, object, str]:
    """One CLI call timed in reference seconds; rc is None when it raised."""
    buf, err = io.StringIO(), io.StringIO()
    rc = None

    def timed() -> float:
        nonlocal rc
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a raising command is counted as failed
                print(f"{type(exc).__name__}: {exc}", file=err)
            return perf_counter() - start

    elapsed = scaled(timed)
    return elapsed, rc, buf.getvalue() if rc is not None else err.getvalue()


def run_rounds(cli, pairs: list[Pair], seconds: float, verify: Callable, tracer=None):
    """Whole rounds of every pair until `seconds` have passed.

    With a tracer, each pair runs traced and then untraced in the same
    round, so both timings see the same machine state. Returns (untraced
    times, traced times, rounds, failed), times listed per pair.
    """
    plain: list[list[float]] = [[] for _ in pairs]
    traced: list[list[float]] = [[] for _ in pairs]
    failed = rounds = 0

    def one(k: int, pair: Pair, sink: list[float]) -> None:
        nonlocal failed
        elapsed, rc, text = call(cli, pair.argv)
        sink.append(elapsed)
        if rc is None or rc == 2 or not verify(k, pair, rc, text):
            failed += 1

    start = perf_counter()
    while rounds == 0 or perf_counter() - start < seconds:
        for k, pair in enumerate(pairs):
            if tracer is not None:
                tracer.begin_command()
                with tracer:
                    one(k, pair, traced[k])
            one(k, pair, plain[k])
        rounds += 1
    return plain, traced, rounds, failed


def medians(times: list[list[float]]) -> list[float]:
    return [statistics.median(t) for t in times]


def run_workload(workload: Workload, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    jm = import_program()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir()
    setup_tracer = spans.Tracer() if trace else None
    tracer = spans.Tracer() if trace else None
    try:
        with setup_tracer or contextlib.nullcontext():
            setup_totals, imports = set_up(jm, workload, seed, workdir)
        refs = references(jm, workload, seed)
        pairs = corpus_pairs(workload, refs, workdir)
        verify = Verifier(refs)
        plain, traced, rounds, failed = run_rounds(jm.cli, pairs, seconds, verify, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = rounds * len(pairs) * (2 if trace else 1)
    if not trace:
        values = {
            "ops_per_s": len(pairs) / sum(medians(plain)),
            "setup_s": statistics.median(setup_totals),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        values = spans.command_metrics(tracer)
        values["marketio.dumps_s"] = setup_tracer.inclusive(
            "marketio.dumps_market") / SETUP_REPEATS
        values["necessity.generate_s"] = setup_tracer.inclusive(
            "necessity.generate") / SETUP_REPEATS
        values["cli.import_s"] = statistics.median(imports)
        values["bench.trace_overhead_s"] = statistics.fmean(
            a - b for a, b in zip(medians(traced), medians(plain)))
        metrics = {k: {"value": v, "unit": spans.unit_of(k)}
                   for k, v in sorted(values.items())}
        with open(OUT / f"trace-{name}-{seed}.jsonl", "w", encoding="utf-8") as fh:
            setup_tracer.dump(fh, "setup")
            tracer.dump(fh, "command")
    for line in verify.errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not verify.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (OUT / f"result-{name}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return result


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_workload(WORKLOADS[args.workload], args.workload, args.seed,
                          args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
