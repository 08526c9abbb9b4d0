"""Mutation fuzz: no market or profile file ends in a traceback.

Small valid markets and profiles are mutated by replacing, deleting or
adding one JSON node, and one market command, drawn at random, runs in
process on the result. It must return 0 or 1 (a verdict) or 2 (refused
input); any exception but SystemExit is a failure. The cases come from
fixed seeds, and a failure line holds the command and the file text it
ran on. Each market is fuzzed in both table spellings: as `dumps_market`
writes it (arrays in mask order, which also get one entry more, one
fewer, or a `values` that is no array) and as its keyed twin.
"""

import contextlib
import copy
import io
import json
import random

import jobmarket.cli as cli
from jobmarket.marketio import dumps_market, subset_keys
from jobmarket.necessity import GENERATOR_KINDS, generate

# the last three are valid rationals, so that a mutated file also gets past
# the loader: a table raised to 100 at one set no longer increases
ATOMS = (None, True, False, [], {}, 2**70, "1e400", "", "1/0", "１", "0", "5/2", "100")
NEW_KEYS = ("extra", "w1", "w9", "w1,w9", "", "f1", "budget")
CASES_PER_SEED = 700


def _base_markets() -> list[dict]:
    """Small generated markets as `dumps_market` writes them."""
    return [
        json.loads(dumps_market(generate(kind, n, firms, seed)))
        for seed, kind in enumerate(GENERATOR_KINDS)
        for n, firms in ((2, 1), (3, 2))
    ]


def _keyed_twin(doc: dict) -> dict:
    """The market with every table array written as an object keyed by subset."""
    doc = copy.deepcopy(doc)
    keys = subset_keys(tuple(doc["workers"]))
    for firm in doc["firms"]:
        firm["utility"]["values"] = dict(zip(keys, firm["utility"]["values"]))
    return doc


def _resized(rng: random.Random, doc: dict) -> dict:
    """A copy of doc whose first table array has one entry more, one
    fewer, or is replaced by a value that is no array."""
    doc = copy.deepcopy(doc)
    utility = doc["firms"][0]["utility"]
    values = utility["values"]
    op = rng.choice(("more", "fewer", "no array"))
    if op == "more":
        values.insert(rng.randrange(len(values) + 1), copy.deepcopy(rng.choice(ATOMS)))
    elif op == "fewer":
        del values[rng.randrange(len(values))]
    else:
        utility["values"] = copy.deepcopy(rng.choice([a for a in ATOMS if type(a) is not list]))
    return doc


def _paths(node, path=()):
    """The path of every node below `node`."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children if isinstance(node, (dict, list)) else ():
        yield (*path, key)
        yield from _paths(child, (*path, key))


def _mutated(rng: random.Random, doc):
    """A copy of doc with one node replaced, deleted or added beside it.

    A depth is drawn first, then a node at that depth, so the few
    structural nodes (a type, a name, the worker list) are drawn about as
    often as the many table entries.
    """
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))
    depth = rng.choice(sorted({len(p) for p in paths}))
    *head, key = rng.choice([p for p in paths if len(p) == depth])
    parent = doc
    for k in head:
        parent = parent[k]
    atom = copy.deepcopy(rng.choice(ATOMS))
    op = rng.choice(("replace", "delete", "add"))
    if op == "replace":
        parent[key] = atom
    elif op == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, atom)
    else:
        parent[rng.choice(NEW_KEYS)] = atom
    return doc


def _exit_code(argv: list[str]):
    """main's exit code, SystemExit's code, or the exception it raised."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # noqa: BLE001 - any escape is a finding
            return exc


def _commands(market: str, profile: str, mutate_profile: bool, json_mode: bool):
    """The commands a case draws from: all five on a mutated market, the
    three that take --profile on a mutated profile."""
    tail = ["--json"] if json_mode else []
    if mutate_profile:
        return [[cmd, market, "--profile", profile, *tail] for cmd in ("solve", "vcg", "stability")]
    return [[cmd, market, *tail] for cmd in ("classify", "solve", "vcg", "stability")] + [
        ["necessity", market, "--firm", "f1", *tail]
    ]


def _failures(seed: int, tmp_path) -> list[str]:
    rng = random.Random(f"fuzz:{seed}")
    arrays = _base_markets()
    bases = arrays + [_keyed_twin(doc) for doc in arrays]
    market, profile = tmp_path / "m.json", tmp_path / "p.json"
    failures = []
    for _ in range(CASES_PER_SEED):
        base = rng.choice(bases)
        mutate_profile = rng.random() < 0.3
        doc = base["disutilities"] if mutate_profile else base
        texts = [json.dumps(base), json.dumps(base["disutilities"])]
        if not mutate_profile and base in arrays and rng.random() < 0.2:
            texts[0] = json.dumps(_resized(rng, base))
        else:
            texts[mutate_profile] = json.dumps(_mutated(rng, doc))
        market.write_text(texts[0])
        profile.write_text(texts[1])
        argv = rng.choice(_commands(str(market), str(profile), mutate_profile, rng.random() < 0.5))
        code = _exit_code(argv)
        if code not in (0, 1, 2):
            failures.append(f"{argv[0]} {argv[2:]} -> {code!r} on {texts[mutate_profile]}")
    return failures


def test_mutated_inputs_end_in_an_exit_code(tmp_path):
    failures = _failures(1, tmp_path) + _failures(2, tmp_path)
    assert not failures, f"{len(failures)} failures, first: {failures[0]}"


def test_text_level_duplicate_key_exits_2(tmp_path):
    market, profile = tmp_path / "m.json", tmp_path / "p.json"
    for base in map(_keyed_twin, _base_markets()):
        profile.write_text(json.dumps(base["disutilities"]))
        text = json.dumps(base)
        # the first key of the first table or value map, named again
        head = text.index('"values": {') + len('"values": {')
        first = text[head:text.index(",", head) + 1]
        market.write_text(text[:head] + first + " " + text[head:])
        for argv in _commands(str(market), str(profile), False, False):
            assert _exit_code(argv) == 2, argv
