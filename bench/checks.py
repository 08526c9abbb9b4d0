"""Independent checks of jobmarket command output.

Nothing here calls the program's solvers, scans or classifiers. The
reference is built from the generated market's raw tables and profile,
cleared to integers by one common denominator, and every reported number
is compared with it exactly. A check that fails raises CheckError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional


class CheckError(AssertionError):
    """A command's output disagrees with the independent reference."""


# What a check raises on malformed or wrong output: its own CheckError, or
# the lookup and parse errors of output that lacks the expected shape.
REJECTIONS = (CheckError, AttributeError, IndexError, KeyError, TypeError, ValueError)


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def bits(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def submasks_ascending(mask: int):
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def subset_max(raw: list[int]) -> list[int]:
    """g[S] = max of raw[T] over T inside S."""
    g = list(raw)
    for s in range(1, len(raw)):
        for i in bits(s):
            v = g[s ^ (1 << i)]
            if v > g[s]:
                g[s] = v
    return g


def best_on_submasks(table: list[int], rest: int) -> int:
    best = table[0]
    t = rest
    while t:
        v = table[t]
        if v > best:
            best = v
        t = (t - 1) & rest
    return best


def max_plus(g: list[int], h: list[int]) -> list[int]:
    """out[S] = max over T inside S of g[T] + h[S minus T]."""
    out = [0] * len(g)
    for s in range(len(g)):
        best = g[0] + h[s]
        t = s
        while t:
            v = g[t] + h[s ^ t]
            if v > best:
                best = v
            t = (t - 1) & s
        out[s] = best
    return out


def exhaustive_max(raws: list[list[int]], n: int) -> int:
    """Best total over all (m+1)^n assignments of workers to firms or none."""
    last = len(raws) - 1

    def rec(k: int, rest: int) -> int:
        if k == last:
            return best_on_submasks(raws[k], rest)
        table = raws[k]
        best = table[0] + rec(k + 1, rest)
        t = rest
        while t:
            v = table[t] + rec(k + 1, rest ^ t)
            if v > best:
                best = v
            t = (t - 1) & rest
        return best

    return rec(0, (1 << n) - 1) if raws else 0


@dataclass
class FirmClass:
    monotone: bool
    weak_substitutes: bool
    submodular: bool
    additive: bool
    unit_demand: bool


def classify_table(t: list[int], n: int) -> FirmClass:
    size = 1 << n
    singles = [t[1 << i] for i in range(n)]
    monotone = ws = sub = add = unit = True
    for s in range(size):
        vs = t[s]
        members = bits(s)
        if add and vs != sum(singles[i] for i in members):
            add = False
        if unit and vs != max((singles[i] for i in members), default=0):
            unit = False
        if ws and vs < sum(vs - t[s ^ (1 << i)] for i in members):
            ws = False
        for i in range(n):
            bi = 1 << i
            if s & bi:
                continue
            gain = t[s | bi] - vs
            if gain < 0:
                monotone = False
            if sub:
                for j in range(i + 1, n):
                    bj = 1 << j
                    if not s & bj and gain < t[s | bi | bj] - t[s | bj]:
                        sub = False
                        break
    return FirmClass(monotone, ws, sub, add, unit)


class Reference:
    """Raw integer tables of one generated market, and what follows from them."""

    def __init__(self, market, kind: str, digest: str) -> None:
        self.kind = kind
        self.digest = digest
        self.workers = tuple(market.workers)
        self.firms = tuple(market.firm_names)
        self.n = len(self.workers)
        self.windex = {w: i for i, w in enumerate(self.workers)}
        prof = market.disutilities
        den = 1
        for _, fn in market.firms:
            for v in fn.values:
                den = lcm(den, v.denominator)
        for row in prof.rows:
            for d in row:
                den = lcm(den, d.denominator)
        self.den = den
        self.tables = [[self._int(v) for v in fn.values] for _, fn in market.firms]
        self.costs = [[self._int(prof.rows[i][j]) for i in range(self.n)]
                      for j in range(len(self.firms))]
        self.ubar = max((t[-1] for t in self.tables), default=0)
        self.classes = [classify_table(t, self.n) for t in self.tables]
        self._values: Optional[tuple[int, list[int]]] = None

    def _int(self, x) -> int:
        q = Fraction(x) * self.den
        require(q.denominator == 1, f"{x} is not on the 1/{self.den} grid")
        return q.numerator

    def q(self, text) -> Fraction:
        """Parse an exact rational printed by the program."""
        require(isinstance(text, str), f"expected a rational string, got {text!r}")
        return Fraction(text)

    def frac(self, scaled: int) -> Fraction:
        return Fraction(scaled, self.den)

    def mask(self, names) -> int:
        m = 0
        for w in names:
            require(w in self.windex, f"unknown worker {w!r}")
            bit = 1 << self.windex[w]
            require(not m & bit, f"worker {w!r} listed twice")
            m |= bit
        return m

    def raw(self, f: int, costs: list[int]) -> list[int]:
        t = self.tables[f]
        out = list(t)
        acc = [0] * len(t)
        for s in range(1, len(t)):
            low = s & -s
            acc[s] = acc[s ^ low] + costs[low.bit_length() - 1]
            out[s] = t[s] - acc[s]
        return out

    def values(self) -> tuple[int, list[int]]:
        """V(W) and V(W minus w) for every w, by max-plus over firm tables."""
        if self._values is None:
            full = (1 << self.n) - 1
            gs = [subset_max(self.raw(f, self.costs[f])) for f in range(len(self.firms))]
            if not gs:
                self._values = (0, [0] * self.n)
            else:
                rest = gs[-1]
                for g in reversed(gs[1:-1]):
                    rest = max_plus(g, rest)
                if len(gs) == 1:
                    top = lambda s: gs[0][s]  # noqa: E731
                else:
                    top = lambda s: max(  # noqa: E731
                        gs[0][t] + rest[s ^ t] for t in submasks_ascending(s))
                self._values = (top(full), [top(full ^ (1 << i)) for i in range(self.n)])
        return self._values

    def hired(self, matching: dict) -> list[int]:
        require(set(matching) == set(self.workers), "matching must list every worker")
        masks = [0] * len(self.firms)
        for w, f in matching.items():
            if f is not None:
                require(f in self.firms, f"unknown firm {f!r}")
                masks[self.firms.index(f)] |= 1 << self.windex[w]
        return masks

    def realised(self, masks: list[int], costs: list[list[int]]) -> int:
        return sum(self.tables[f][m] - sum(costs[f][i] for i in bits(m))
                   for f, m in enumerate(masks))


def check_common(ref: Reference, out: dict, command: str) -> None:
    require(out.get("command") == command, f"command field is {out.get('command')!r}")
    require(out.get("market") == ref.digest,
            "digest differs from the generated market's digest")


# ---- vcg --------------------------------------------------------------------


def check_vcg(ref: Reference, out: dict, rc: int) -> None:
    check_common(ref, out, "vcg")
    res = out["result"]
    VW, VWo = ref.values()
    masks = ref.hired(res["matching"])
    total = ref.q(res["total_surplus"])
    require(total == ref.frac(ref.realised(masks, ref.costs)),
            "total differs from the realised surplus of the matching")
    require(total == ref.frac(VW), f"total {total} is not the maximum {ref.frac(VW)}")
    excl = res["surplus_excluding"]
    sal = {w: ref.q(res["salaries"].get(w)) for w in ref.workers}
    wpay = {w: ref.q(res["worker_payoffs"].get(w)) for w in ref.workers}
    for i, w in enumerate(ref.workers):
        require(ref.q(excl.get(w)) == ref.frac(VWo[i]),
                f"surplus_excluding[{w}] is not the maximum without {w}")
        require(wpay[w] == ref.frac(VW - VWo[i]), f"payoff of {w} is not V(W) - V(W-{w})")
        firm = res["matching"][w]
        if firm is None:
            require(sal[w] == 0, f"unmatched {w} is paid {sal[w]}")
        else:
            d = ref.frac(ref.costs[ref.firms.index(firm)][i])
            require(sal[w] == wpay[w] + d, f"salary of {w} is not payoff plus disutility")

    def kept(f: int, mask: int) -> Fraction:
        """Firm f's utility on `mask` minus the reported salaries there."""
        bill = sum((sal[ref.workers[i]] for i in bits(mask)), Fraction(0))
        return ref.frac(ref.tables[f][mask]) - bill

    fpay = {}
    for f, name in enumerate(ref.firms):
        fpay[name] = ref.q(res["firm_payoffs"].get(name))
        require(fpay[name] == kept(f, masks[f]),
                f"payoff of firm {name} is not utility minus wage bill")
    ir_expect = all(x >= 0 for x in fpay.values()) and all(x >= 0 for x in wpay.values())
    firing = any(kept(f, keep) > kept(f, masks[f])
                 for f in range(len(ref.firms)) for keep in submasks_ascending(masks[f]))
    sir_expect = ir_expect and not firing
    ir, sir = out["individually_rational"], out["firing_proof"]
    require(ir["verdict"] is ir_expect, "individually_rational verdict disagrees")
    require(sir["verdict"] is sir_expect, "firing_proof verdict disagrees")
    require(rc == (0 if ir_expect and sir_expect else 1), f"exit code {rc}")
    if not ir_expect:
        _check_ir_witness(ir["witness"], fpay, wpay)
        require(sir["witness"].get("individual_rationality") == ir["witness"],
                "firing_proof witness must repeat the rationality witness")
    elif not sir_expect:
        wit = sir["witness"]
        f = ref.firms.index(wit["firm"])
        keep = ref.mask(wit["keep"])
        require(keep & ~masks[f] == 0, "fired-down set is not inside the hire")
        require(ref.q(wit["improvement"]) == kept(f, keep) - kept(f, masks[f]) > 0,
                "firing witness does not re-check")
    if all(c.weak_substitutes for c in ref.classes):
        require(ir_expect, "weak-substitutes market is not individually rational")
    if all(c.submodular for c in ref.classes):
        require(sir_expect, "submodular market is not firing-proof")


def _check_ir_witness(wit: dict, fpay: dict, wpay: dict) -> None:
    pay = fpay if wit["kind"] == "firm" else wpay
    require(wit["agent"] in pay, "rationality witness names an unknown agent")
    require(Fraction(wit["payoff"]) == pay[wit["agent"]] < 0,
            "rationality witness does not re-check")


# ---- stability --------------------------------------------------------------


def _first_block(ref: Reference, fpay: list[int], wpay: list[int],
                 allowed: list[int]) -> Optional[tuple[int, int, int]]:
    for f in range(len(ref.firms)):
        t = ref.tables[f]
        costs = [ref.costs[f][i] + wpay[i] for i in range(ref.n)]
        for s in submasks_ascending(allowed[f]):
            excess = t[s] - sum(costs[i] for i in bits(s)) - fpay[f]
            if excess > 0:
                return f, s, excess
    return None


def check_stability(ref: Reference, vcg_out: dict, out: dict, rc: int) -> None:
    """`vcg_out` is the already-checked vcg output for the same market."""
    check_common(ref, out, "stability")
    res = vcg_out["result"]
    masks = ref.hired(res["matching"])
    fpay = [ref._int(res["firm_payoffs"][f]) for f in ref.firms]
    wpay = [ref._int(res["worker_payoffs"][w]) for w in ref.workers]
    full = (1 << ref.n) - 1
    unmatched = full & ~sum(masks)
    strong = _first_block(ref, fpay, wpay, [full] * len(ref.firms))
    weak = _first_block(ref, fpay, wpay, [m | unmatched for m in masks])
    require(out["stable"] is (strong is None), "stable verdict disagrees")
    require(out["weakly_stable"] is (weak is None), "weakly_stable verdict disagrees")
    require(rc == (0 if strong is None else 1), f"exit code {rc}")
    for key, expect in (("block", strong), ("weak_block", weak)):
        block = out[key]
        if expect is None:
            require(block is None, f"{key} reported on a stable outcome")
            continue
        f = ref.firms.index(block["firm"])
        s = ref.mask(block["coalition"])
        require((f, s) == expect[:2], f"{key} is not the first block in scan order")
        slack = ref.q(block["slack"])
        raw = ref.tables[f][s] - sum(ref.costs[f][i] + wpay[i] for i in bits(s))
        require(slack == ref.frac(raw - fpay[f]) > 0, f"{key} slack does not re-check")
        pays = block["payments"]
        require(set(pays) == {ref.workers[i] for i in bits(s)}, f"{key} payments list")
        for i in bits(s):
            p = ref.q(pays[ref.workers[i]])
            require(p - ref.frac(ref.costs[f][i]) > ref.frac(wpay[i]),
                    f"{key} does not pay {ref.workers[i]} more than the outcome")
            require(p == ref.frac(ref.costs[f][i] + wpay[i]) + slack / (2 * len(pays)),
                    f"{key} payment to {ref.workers[i]} is not the even split")
        kept = ref.frac(ref.tables[f][s]) - sum((ref.q(p) for p in pays.values()), Fraction(0))
        require(kept > ref.frac(fpay[f]), f"{key} does not pay the firm more")
    if all(c.additive or c.unit_demand for c in ref.classes):
        require(strong is None and out["stable"], "gross-substitutes market is blocked")


# ---- classify ---------------------------------------------------------------


def _witness_rechecks(ref: Reference, t: list[int], key: str, wit: dict) -> None:
    if key == "weak_substitutes":
        s = ref.mask(wit["subset"])
        total = sum((ref.frac(t[s] - t[s ^ (1 << i)]) for i in bits(s)), Fraction(0))
        require(ref.q(wit["value"]) == ref.frac(t[s]) and ref.q(wit["marginal_sum"]) == total
                and ref.frac(t[s]) < total, "weak-substitutes witness does not re-check")
    elif key == "submodular":
        small, large = ref.mask(wit["smaller_set"]), ref.mask(wit["larger_set"])
        w = 1 << ref.windex[wit["worker"]]
        extra = large & ~small
        require(small & ~large == 0 and extra and extra & (extra - 1) == 0 and small & w,
                "submodularity witness sets are not nested by one worker")
        ms = ref.frac(t[small] - t[small ^ w])
        ml = ref.frac(t[large] - t[large ^ w])
        require(ref.q(wit["marginal_smaller"]) == ms and ref.q(wit["marginal_larger"]) == ml
                and ms < ml, "submodularity witness does not re-check")
    elif key == "strong_substitutes":
        s, r = ref.mask(wit["set"]), ref.mask(wit["removed"])
        require(r and r & ~s == 0, "strong-substitutes witness removes outside the set")
        drop = ref.frac(t[s] - t[s ^ r])
        total = sum((ref.frac(t[s] - t[s ^ (1 << i)]) for i in bits(r)), Fraction(0))
        require(ref.q(wit["value_drop"]) == drop and ref.q(wit["marginal_sum"]) == total
                and drop < total, "strong-substitutes witness does not re-check")
    elif key == "gross_substitutes":
        a, b = ref.mask(wit["set_a"]), ref.mask(wit["set_b"])
        w = 1 << ref.windex[wit["worker"]]
        require(a & w and not b & w, "exchange worker must be in set_a only")
        best = t[a ^ w] + t[b | w]
        for j in bits(b & ~a):
            bj = 1 << j
            best = max(best, t[(a ^ w) | bj] + t[(b | w) ^ bj])
        combined = t[a] + t[b]
        require(ref.q(wit["combined_value"]) == ref.frac(combined)
                and ref.q(wit["best_exchange"]) == ref.frac(best) and best < combined,
                "gross-substitutes witness does not re-check")


def check_classify(ref: Reference, out: dict, rc: int) -> None:
    check_common(ref, out, "classify")
    require(rc == 0, f"exit code {rc}")
    firms = out["firms"]
    require([e["firm"] for e in firms] == list(ref.firms), "firm list")
    for f, entry in enumerate(firms):
        cls, t, name = ref.classes[f], ref.tables[f], entry["firm"]
        require(entry["monotone"] is cls.monotone, f"{name}: monotone verdict disagrees")
        if not cls.monotone:
            continue
        verdicts = {}
        for key in ("weak_substitutes", "submodular", "strong_substitutes",
                    "gross_substitutes"):
            rep = entry[key]
            verdicts[key] = rep["verdict"]
            require(isinstance(rep["verdict"], bool), f"{name}: {key} verdict")
            if not rep["verdict"]:
                _witness_rechecks(ref, t, key, rep["witness"])
        require(verdicts["weak_substitutes"] is cls.weak_substitutes,
                f"{name}: weak-substitutes verdict disagrees")
        require(verdicts["submodular"] is cls.submodular, f"{name}: submodular verdict disagrees")
        require(verdicts["strong_substitutes"] is cls.submodular,
                f"{name}: strong substitutes differs from submodular")
        require(cls.submodular or not verdicts["gross_substitutes"],
                f"{name}: gross substitutes without submodularity")
        if cls.additive or cls.unit_demand:
            require(verdicts["gross_substitutes"], f"{name}: additive/unit-demand not GS")
        if ref.kind == "random_submodular":
            require(verdicts["submodular"], f"{name}: random-submodular table not submodular")


# ---- necessity --------------------------------------------------------------


def check_necessity(ref: Reference, firm: str, out: dict, rc: int) -> None:
    check_common(ref, out, "necessity")
    require(rc == 0, f"exit code {rc}")
    require(out.get("firm") == firm, "firm field")
    f = ref.firms.index(firm)
    cls = ref.classes[f]
    require((out["sir"] is None) is cls.submodular, "SIR certificate presence disagrees")
    require((out["ir"] is None) is cls.weak_substitutes, "IR certificate presence disagrees")
    for kind in ("ir", "sir"):
        if out[kind] is not None:
            _check_certificate(ref, f, kind, out[kind])


def _check_certificate(ref: Reference, f: int, kind: str, cert: dict) -> None:
    t = ref.tables[f]
    firm = ref.firms[f]
    require(cert["kind"] == kind and cert["firm"] == firm, "certificate header")
    prof = cert["profile"]
    require(set(prof) == set(ref.workers), "profile must list every worker")
    costs = [[0] * ref.n for _ in ref.firms]
    for w, row in prof.items():
        require(set(row) == set(ref.firms), f"profile row of {w} must list every firm")
        for g, text in row.items():
            d = ref._int(ref.q(text))
            require(d in (0, ref.ubar), f"profile value {text} is neither 0 nor ubar")
            costs[ref.firms.index(g)][ref.windex[w]] = d
    matching = cert["outcome"]["matching"]
    masks = ref.hired(matching)
    sal = {w: ref.q(x) for w, x in cert["outcome"]["salaries"].items()}
    require(set(sal) == set(ref.workers), "salaries must list every worker")
    s = ref.mask(cert["subset"])
    summary = cert["summary"]

    def kept(mask: int) -> Fraction:
        return ref.frac(t[mask]) - sum((sal[ref.workers[i]] for i in bits(mask)), Fraction(0))

    if kind == "ir":
        require(masks[f] == s, "firm is not handed exactly the claimed set")
        named = summary["salaries"]
        require(set(named) == set(cert["subset"]), "named salaries")
        for i in bits(s):
            w = ref.workers[i]
            marg = ref.frac(t[s] - t[s ^ (1 << i)])
            require(ref.q(named[w]) == marg == sal[w], f"salary of {w} is not its marginal")
        require(ref.q(summary["firm_payoff"]) == kept(s) < 0, "IR payoff does not re-check")
    else:
        wl, wk = cert["pair"]
        tmask = s | ref.mask([wl, wk])
        require(ref.mask([wl, wk]) & s == 0, "pair overlaps the subset")
        require(masks[f] == tmask and ref.mask(summary["hired"]) == tmask,
                "firm is not handed exactly the claimed set")
        require(set(summary["payments"]) == {wl, wk}, "named payments")
        for w in (wl, wk):
            bit = 1 << ref.windex[w]
            marg = ref.frac(t[tmask] - t[tmask ^ bit])
            require(ref.q(summary["payments"][w]) == marg == sal[w],
                    f"salary of {w} is not its marginal")
        require(ref.q(summary["firing_gain"]) == kept(s) - kept(tmask) > 0,
                "firing gain does not re-check")
    best = exhaustive_max([ref.raw(g, costs[g]) for g in range(len(ref.firms))], ref.n)
    require(ref.realised(masks, costs) == best,
            "certificate matching is not efficient under its profile")
