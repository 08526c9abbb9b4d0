"""Span tracer that instruments jobmarket from outside the package.

Each traced function is replaced by a wrapper that records a span
(command id, name, start, end, parent span, note). The wrapper is bound
under every name that refers to the original in any loaded ``jobmarket``
module, so ``from .marketio import market_digest`` in ``cli`` is traced
too; class methods are patched on the class. ``uninstall`` puts every
original back, so untraced timings run the unmodified program.

Spans stay in memory until the run ends. A span's self time is its
duration minus the durations of its direct children; every span carries a
bucket (one per-layer seconds metric), and because the root span of each
command is ``cli.main``, the buckets' self times add up to the traced
command time exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional

# (module, function or Class.method, bucket). Only layer boundaries are
# listed: per-value helpers (model.as_fraction, marketio.parse_rational,
# the subsets module) run thousands of times per command, so wrapping
# them would measure the wrapper. Their time stays in their caller's span.
TRACED = (
    ("cli", "main", "cli.self_s"),
    ("cli", "cmd_classify", "cli.self_s"),
    ("cli", "cmd_solve", "cli.self_s"),
    ("cli", "cmd_vcg", "cli.self_s"),
    ("cli", "cmd_stability", "cli.self_s"),
    ("cli", "cmd_necessity", "cli.self_s"),
    ("marketio", "load_market", "marketio.load_s"),
    ("marketio", "load_profile", "marketio.load_s"),
    ("marketio", "market_digest", "marketio.digest_s"),
    ("marketio", "dumps_market", "marketio.dumps_s"),
    ("model", "SetFunction.from_table", "model.table_compile_s"),
    ("model", "SetFunction.additive", "model.table_compile_s"),
    ("model", "SetFunction.budget_additive", "model.table_compile_s"),
    ("model", "SetFunction.unit_demand", "model.table_compile_s"),
    ("model", "SetFunction.is_monotone", "model.is_monotone_s"),
    ("surplus", "MarketSolver.__init__", "surplus.solver_s"),
    ("surplus", "MarketSolver.solution", "surplus.solution_s"),
    ("pivot", "vcg", "pivot.vcg_self_s"),
    ("pivot", "check_ir", "pivot.checks_s"),
    ("pivot", "check_sir", "pivot.checks_s"),
    ("pivot", "check_outcome_ir", "pivot.checks_s"),
    ("pivot", "check_outcome_sir", "pivot.checks_s"),
    ("stability", "find_block", "stability.find_block_s"),
    ("stability", "find_weak_block", "stability.find_weak_block_s"),
    ("setfn", "is_weak_substitutes", "setfn.weak_substitutes_s"),
    ("setfn", "is_submodular", "setfn.submodular_s"),
    ("setfn", "is_strong_substitutes", "setfn.strong_substitutes_s"),
    ("setfn", "is_gross_substitutes", "setfn.gross_substitutes_s"),
    ("necessity", "find_ws_violation", "necessity.find_violation_s"),
    ("necessity", "find_submodularity_violation", "necessity.find_violation_s"),
    ("necessity", "demonstrate_ir_violation", "necessity.demonstrate_self_s"),
    ("necessity", "demonstrate_sir_violation", "necessity.demonstrate_self_s"),
    ("necessity", "construct_ir_violation", "necessity.demonstrate_self_s"),
    ("necessity", "construct_sir_violation", "necessity.demonstrate_self_s"),
    ("necessity", "generate", "necessity.generate_s"),
)

CLASSIFIERS = frozenset(
    {"setfn.is_weak_substitutes", "setfn.is_submodular",
     "setfn.is_strong_substitutes", "setfn.is_gross_substitutes"}
)
CONSTRUCTIONS = frozenset(
    {"necessity.construct_ir_violation", "necessity.construct_sir_violation"}
)
DEMONSTRATIONS = frozenset(
    {"necessity.demonstrate_ir_violation", "necessity.demonstrate_sir_violation"}
)
SOLVER = "surplus.MarketSolver.__init__"

# Seconds buckets reported per command, in report order.
COMMAND_BUCKETS = (
    "marketio.load_s",
    "marketio.digest_s",
    "model.table_compile_s",
    "model.is_monotone_s",
    "surplus.solver_s",
    "surplus.solution_s",
    "pivot.vcg_self_s",
    "pivot.checks_s",
    "stability.find_block_s",
    "stability.find_weak_block_s",
    "setfn.weak_substitutes_s",
    "setfn.submodular_s",
    "setfn.strong_substitutes_s",
    "setfn.gross_substitutes_s",
    "necessity.find_violation_s",
    "necessity.demonstrate_self_s",
    "cli.self_s",
)

BUCKET = {f"{mod}.{name}": bucket for mod, name, bucket in TRACED}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    return "count"


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records spans while installed; ``begin_command`` tags later spans."""

    def __init__(self) -> None:
        # (command id, name, start, end, parent index, note)
        self.spans: list[Optional[tuple]] = []
        self._stack: list[int] = []
        self._command = -1
        self._restore: list[Callable[[], None]] = []

    def begin_command(self) -> None:
        self._command += 1

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        note_of: Optional[Callable] = None
        if name in CLASSIFIERS:
            note_of = lambda result: bool(result.verdict)  # noqa: E731
        rss = name == SOLVER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            before = _maxrss_kb() if rss else 0
            start = perf_counter()
            note = "raised"
            try:
                result = fn(*args, **kwargs)
                note = note_of(result) if note_of is not None else None
                return result
            finally:
                end = perf_counter()
                if rss:
                    note = _maxrss_kb() - before
                stack.pop()
                spans[sid] = (self._command, name, start, end, parent, note)

        return traced

    def install(self) -> None:
        """Wrap every TRACED function, under every name that refers to it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        loaded = [m for k, m in sorted(sys.modules.items())
                  if k == "jobmarket" or k.startswith("jobmarket.")]
        for mod_name, attr, _ in TRACED:
            module = importlib.import_module(f"jobmarket.{mod_name}")
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(name, raw.__func__))
                else:
                    patched = self._wrap(name, raw)
                setattr(cls, meth, patched)
                self._restore.append(lambda c=cls, k=meth, v=raw: setattr(c, k, v))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._restore.append(
                            lambda m=mod, k=key, v=orig: setattr(m, k, v)
                        )

    def uninstall(self) -> None:
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_times(self) -> dict[str, float]:
        """Total self time per bucket over all recorded spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            _, _, start, end, parent, _ = span
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (_, name, start, end, _, _) in enumerate(self.spans):
            out[BUCKET[name]] += end - start - child[k]
        return out

    def inclusive(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[1] == name)

    def count(self, pred: Callable[[tuple], bool]) -> int:
        return sum(1 for s in self.spans if pred(s))

    def dump(self, fh, phase: str) -> None:
        """Write the spans as JSON lines: phase, cmd, id, parent, name, start, end, note."""
        for k, (cmd, name, start, end, parent, note) in enumerate(self.spans):
            fh.write(json.dumps({
                "phase": phase, "cmd": cmd, "id": k, "parent": parent,
                "name": name, "start": start, "end": end, "note": note,
            }) + "\n")


def command_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-command layer metrics from a tracer that recorded CLI commands."""
    commands = tracer.count(lambda s: s[1] == "cli.main" and s[4] is None)
    if commands == 0:
        raise ValueError("no traced commands")
    selfs = tracer.self_times()
    out = {b: selfs.get(b, 0.0) / commands for b in COMMAND_BUCKETS}
    out["marketio.digest_calls"] = tracer.count(
        lambda s: s[1] == "marketio.market_digest") / commands
    out["surplus.solver_calls"] = tracer.count(lambda s: s[1] == SOLVER) / commands
    out["surplus.maxrss_raise_mb"] = sum(
        s[5] for s in tracer.spans if s[1] == SOLVER and isinstance(s[5], int)
    ) / 1024
    out["setfn.full_scans"] = tracer.count(
        lambda s: s[1] in CLASSIFIERS and s[5] is True) / commands
    certificates = tracer.count(lambda s: s[1] in DEMONSTRATIONS and s[5] != "raised")
    attempts = tracer.count(lambda s: s[1] in CONSTRUCTIONS)
    out["necessity.construct_attempts"] = attempts / certificates if certificates else 0.0
    out["bench.command_s"] = tracer.inclusive("cli.main") / commands
    return out
