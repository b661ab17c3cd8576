"""A seeded manifest fuzzer: bad input ends in exit 0 or a structured fatal, never a traceback.

Each case takes a bundled manifest (kt4, torus4 or nil6) and applies one to
three random edits to its JSON: a value replaced, deleted, or appended to a
list or object.  Half the new values are rational strings, so that many
edits still parse; the rest are small ints, non-rational strings, a float,
null, a boolean, containers, 10^30 and copies of values found elsewhere in
the manifest.  The truncation of a parsed torus_fourier
model is kept at 2 or below, so every case stays cheap.  Every case runs
under `validate`, `diamond` and `verify` through `main`, which must return 0,
or 2 with a `fatal` object, and must not raise.
"""

import copy
import json
import random

import pytest

from acx.cli import main

from conftest import bundled_manifest_path

BASES = ("kt4", "torus4", "nil6")
COMMANDS = ("validate", "diamond", "verify")
SEEDS = range(10)
CASES_PER_BASE = 10
RATIONALS = ("0", "1", "-1", "2", "1/2", "-3/2")
LEAVES = (0, 1, 2, -1, "1/0", "i", "", None, True, 0.5, [], {}, [["1"]], 10**30)
KEYS = ("name", "real_dim", "brackets", "J", "metric", "coefficients", "type", "rank", "actions", "truncation", "tasks")


def _load(name: str) -> dict:
    with open(bundled_manifest_path(name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _paths(value, path=()):
    """Every path to a value inside a JSON document, the root's () first."""
    yield path
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _paths(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _paths(v, path + (i,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _value(rng: random.Random, doc):
    """A rational string (half the time, so that many edits still parse), another leaf of the pool,
    or a copy of a value found in the document."""
    x = rng.random()
    if x < 0.5:
        return rng.choice(RATIONALS)
    if x < 0.8:
        return copy.deepcopy(rng.choice(LEAVES))
    return copy.deepcopy(_at(doc, rng.choice(list(_paths(doc)))))


def mutate(raw: dict, rng: random.Random):
    """One to three random replacements, deletions or appends of JSON values."""
    doc = copy.deepcopy(raw)
    for _ in range(rng.randint(1, 3)):
        paths = list(_paths(doc))
        op = rng.choice(("replace", "replace", "replace", "delete", "append"))
        if op == "append":
            containers = [p for p in paths if isinstance(_at(doc, p), (list, dict))]
            if not containers:
                continue
            target = _at(doc, rng.choice(containers))
            if isinstance(target, list):
                target.append(_value(rng, doc))
            else:
                target[rng.choice(KEYS + ("extra",))] = _value(rng, doc)
            continue
        path = rng.choice(paths)
        if not path:
            if op == "replace":
                doc = _value(rng, doc)
            continue
        parent = _at(doc, path[:-1])
        if op == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = _value(rng, doc)
    coefficients = doc.get("coefficients") if isinstance(doc, dict) else None
    if isinstance(coefficients, dict):
        truncation = coefficients.get("truncation")
        # a valid truncation above 2 is a slow case, not a bad one; 10^30 stays as the refused one
        if type(truncation) is int and 2 < truncation < 10**6:
            coefficients["truncation"] = 2
    return doc


def run_main(tmp_path, doc, command: str, capsys) -> tuple[int, dict]:
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    try:
        code = main([command, str(path), "--format", "json"])
    except Exception as exc:
        pytest.fail(f"{command} raised {type(exc).__name__}: {exc} on {json.dumps(doc)[:400]}")
    return code, json.loads(capsys.readouterr().out)


def test_mutated_manifests_end_in_exit_0_or_a_structured_fatal(tmp_path, capsys):
    """300 mutated manifests (10 seeds, 10 a base) under three commands each."""
    seen = set()
    for seed in SEEDS:
        rng = random.Random(seed)
        for name in BASES:
            raw = _load(name)
            for _ in range(CASES_PER_BASE):
                doc = mutate(raw, rng)
                for command in COMMANDS:
                    code, payload = run_main(tmp_path, doc, command, capsys)
                    assert code in (0, 2), (seed, command, code, doc)
                    if code == 2:
                        assert set(payload["fatal"]) == {"type", "detail"}, (seed, command, payload)
                        seen.add(payload["fatal"]["type"])
                    else:
                        assert "fatal" not in payload, (seed, command, payload)
                        seen.add("ok")
    # non-vacuity: some cases run to the end, and parsing, validation and the model checks refuse some
    assert {"ok", "ParseError", "ValidationError", "InconsistentModel"} <= seen, seen


def test_a_real_dim_past_the_ssize_t_range_is_a_structured_fatal(tmp_path, capsys):
    doc = {**_load("kt4"), "real_dim": 10**30}
    for command in COMMANDS:
        code, payload = run_main(tmp_path, doc, command, capsys)
        assert code == 2 and payload["fatal"]["type"] == "ValidationError", (command, payload)
