"""Workload definitions: seeded inputs, CLI call lists and verdict checks.

Each workload is a fixed list of ``kspace`` CLI calls.  The seed never
changes how much work a workload holds; it changes what the program is
given:

* ``cascade-explore`` passes the seed to ``gen_cascade``, which only
  shuffles listing order, so every tree statistic is seed-independent.
* ``fuzz-corpus`` and ``wide-run`` generate fixed base documents (the
  1000 acceptance-suite ``gen_random`` instances, and this module's wide
  instances) and then relabel every atom and question id with a
  seed-dependent prefix and shuffle every list.  The prefix preserves the
  lexicographic order of ids, so candidate order, strategy choices and
  therefore every output are those of the base document with the prefix
  added.  Varying the corpus itself is not an option: per-instance cost is
  heavy-tailed, and a different block of 1000 ``gen_random`` seeds costs
  between 0.5x and 2x as much as the acceptance block.

Because of this, one golden reference recorded at seed 0 checks the
outputs for every seed once the prefix is stripped.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

FUZZ_SEED_COUNT = 1000
FUZZ_MAX_NODES = 300_000

# 8 wide instances against 2 argmin instances (~2 ms per call) keep the
# p50 and p90 call latencies inside the cluster of wide calls, not on the
# gap between clusters, where they would jump from run to run
WIDE_INSTANCES = 8
WIDE_LEVELS = 4
# 12 independent questions at one open level give 2**12 - 1 = 4095
# candidates, just under the engine's 4096-candidate cap.
WIDE_QUESTIONS = 12
# 12 * (1 + 3) = 48 raw proposals, under the realizer's cap of 64.
WIDE_WRONG_PER_QUESTION = 3
ARGMIN_INSTANCES = 2
ARGMIN_POINTS = 32

STRATEGIES = (
    "lowest-level-first",
    "highest-level-first",
    "maximal-set-per-lowest-level",
    "seeded-random",
)

Check = Callable[[dict], Optional[str]]


# prepare_* call tick() after writing each document, so that the speed
# probe (speed.py) can take its samples during set-up
def _no_tick() -> None:
    pass


@dataclass
class Call:
    argv: list[str]
    # known answer, independent of the program: returns an error or None
    check: Check


@dataclass
class Prepared:
    calls: list[Call]
    # documents as the program receives them, with the seed undone
    base_docs: list[dict]
    prefix: str


# ---------------------------------------------------------------------------
# seed transform

def prefix_for(seed: int) -> str:
    return "" if seed == 0 else f"s{seed}."


def relabel(doc: dict, seed: int) -> dict:
    """Prefix every atom and question id and shuffle every list."""
    prefix = prefix_for(seed)
    if not prefix:
        return doc

    def expr(e: dict) -> dict:
        ((key, value),) = e.items()
        if key in ("present", "answered"):
            return {key: prefix + value}
        if key == "not":
            return {key: expr(value)}
        if key in ("and", "or"):
            return {key: [expr(sub) for sub in value]}
        return {key: value}

    out = {
        "atoms": [{**a, "id": prefix + a["id"], "question": prefix + a["question"]}
                  for a in doc["atoms"]],
        "truth_rules": [{"atom": prefix + r["atom"], "condition": expr(r["condition"])}
                        for r in doc["truth_rules"]],
        "realizer_rules": [{"condition": expr(r["condition"]),
                            "propose": [prefix + a for a in r["propose"]]}
                           for r in doc["realizer_rules"]],
        "initial": [prefix + a for a in doc["initial"]],
    }
    rng = random.Random(seed)
    for key in ("atoms", "truth_rules", "realizer_rules", "initial"):
        rng.shuffle(out[key])
    return out


def unprefix(value, prefix: str):
    """Strip the seed prefix from every string in a JSON value."""
    if not prefix:
        return value
    if isinstance(value, str):
        return value[len(prefix):] if value.startswith(prefix) else value
    if isinstance(value, list):
        return [unprefix(v, prefix) for v in value]
    if isinstance(value, dict):
        return {k: unprefix(v, prefix) for k, v in value.items()}
    return value


def fingerprint(docs: list[dict]) -> str:
    """Digest of the documents as canonical JSON, independent of list order."""
    def canonical(doc: dict) -> dict:
        return {key: sorted(doc[key], key=lambda x: json.dumps(x, sort_keys=True))
                for key in doc}
    text = json.dumps([canonical(d) for d in docs], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _write(doc: dict, path: str) -> None:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _doc_dict(doc) -> dict:
    return {"atoms": doc.atoms, "truth_rules": doc.truth_rules,
            "realizer_rules": doc.realizer_rules, "initial": doc.initial}


# ---------------------------------------------------------------------------
# known answers

def _expect(pairs: dict) -> Check:
    def check(out: dict) -> Optional[str]:
        for key, want in pairs.items():
            if out.get(key) != want:
                return f"{key} is {out.get(key)!r}, expected {want!r}"
        return None
    return check


def _expect_run(final_state: Optional[list[str]] = None,
                witness: Optional[int] = None) -> Check:
    def check(out: dict) -> Optional[str]:
        result = out.get("result", {})
        if result.get("is_prefixed") is not True or result.get("is_sound") is not True:
            return "final state is not a sound pre-fixed point"
        if final_state is not None and result.get("final_state") != final_state:
            return f"final state {result.get('final_state')}, expected {final_state}"
        if witness is not None and result.get("witness") != witness:
            return f"witness {result.get('witness')}, expected {witness}"
        return None
    return check


# ---------------------------------------------------------------------------
# cascade-explore

def _cascade_normal_form(depth: int) -> list[list[str]]:
    return [sorted(["base"] + [f"right{n}" for n in range(1, depth + 1)])]


def prepare_cascade(kspace, seed: int, work_dir: str,
                    tick: Callable[[], None] = _no_tick) -> Prepared:
    inst = kspace.instances
    docs = [_doc_dict(inst.builtin_t3()),
            _doc_dict(inst.gen_cascade(6, 2, seed)),
            _doc_dict(inst.gen_cascade(8, 3, seed))]
    fmt = ["--format", "json"]
    calls = [
        Call(["explore", "t3"] + fmt,
             _expect({"node_count": 8, "edge_count": 7, "max_depth": 4,
                      "normal_forms": [["a0", "b1'", "c2"]],
                      "check_failures": []})),
        Call(["explore", f"cascade:6,2,{seed}"] + fmt,
             _expect({"normal_forms": _cascade_normal_form(6),
                      "check_failures": []})),
        Call(["lint", f"cascade:6,2,{seed}"] + fmt, _expect({"violations": []})),
        Call(["explore", f"cascade:8,3,{seed}", "--no-check-lemmas"] + fmt,
             _expect({"normal_forms": _cascade_normal_form(8),
                      "check_failures": []})),
    ]
    return Prepared(calls, docs, "")


# ---------------------------------------------------------------------------
# fuzz-corpus

def fuzz_params(seed: int) -> tuple[int, int, int]:
    """The acceptance suite's (n_atoms, max_level, n_rules) for a seed."""
    rng = random.Random(seed)
    n_atoms = rng.randint(3, 20)
    max_level = rng.randint(1, 5)
    n_rules = rng.randint(2, n_atoms)
    return n_atoms, max_level, n_rules


def prepare_fuzz(kspace, seed: int, work_dir: str,
                 tick: Callable[[], None] = _no_tick) -> Prepared:
    calls, base = [], []
    explore_ok = _expect({"check_failures": []})
    lint_ok = _expect({"violations": []})
    for k in range(FUZZ_SEED_COUNT):
        n_atoms, max_level, n_rules = fuzz_params(k)
        doc = _doc_dict(kspace.instances.gen_random(n_atoms, max_level, n_rules, k))
        base.append(doc)
        path = os.path.join(work_dir, f"fuzz{k:04d}.json")
        _write(relabel(doc, seed), path)
        tick()
        budget = ["--format", "json", "--max-depth", str(10 * (n_atoms + 1)),
                  "--max-nodes", str(FUZZ_MAX_NODES)]
        calls.append(Call(["explore", path] + budget, explore_ok))
        calls.append(Call(["lint", path] + budget, lint_ok))
    return Prepared(calls, base, prefix_for(seed))


# ---------------------------------------------------------------------------
# wide-run

def wide_doc(index: int) -> tuple[dict, list[str]]:
    """A layered instance whose levels open one at a time.

    Each level has WIDE_QUESTIONS independent questions, each with one
    true atom and WIDE_WRONG_PER_QUESTION false ones; a level's rules fire
    once every question of the level below is answered.  Returns the
    document and its unique normal form (every true atom).
    """
    rng = random.Random(index)
    atoms, truth_rules, realizer_rules, rights = [], [], [], []
    rights_below: list[str] = []
    questions_below: list[str] = []
    for level in range(WIDE_LEVELS):
        level_rights, level_questions = [], []
        for j in range(WIDE_QUESTIONS):
            question = f"q{level}_{j}"
            ids = [f"x{level}_{j}_{k}" for k in range(WIDE_WRONG_PER_QUESTION + 1)]
            right = rng.choice(ids)
            if level == 0:
                cond = {"const": True}
            else:
                cond = {"and": [{"present": a} for a in rng.sample(rights_below, 2)]}
            for atom_id in ids:
                atoms.append({"id": atom_id, "question": question, "level": level})
                truth_rules.append({"atom": atom_id, "condition":
                                    cond if atom_id == right else {"not": cond}})
            gate = [{"not": {"answered": question}}]
            gate += [{"answered": q} for q in questions_below]
            realizer_rules.append({"condition": {"and": gate}, "propose": ids})
            level_rights.append(right)
            level_questions.append(question)
        rights += level_rights
        rights_below, questions_below = level_rights, level_questions
    doc = {"atoms": atoms, "truth_rules": truth_rules,
           "realizer_rules": realizer_rules, "initial": []}
    return doc, sorted(rights)


def argmin_points(index: int) -> list[int]:
    rng = random.Random(1000 + index)
    return [rng.randint(0, 999) for _ in range(ARGMIN_POINTS)]


def prepare_wide(kspace, seed: int, work_dir: str,
                 tick: Callable[[], None] = _no_tick) -> Prepared:
    calls, base = [], []
    for i in range(WIDE_INSTANCES):
        doc, normal_form = wide_doc(i)
        base.append(doc)
        path = os.path.join(work_dir, f"wide{i}.json")
        _write(relabel(doc, seed), path)
        tick()
        check = _expect_run(final_state=normal_form)
        for strategy in STRATEGIES:
            calls.append(Call(["run", path, "--format", "json", "--strategy",
                               strategy, "--seed", str(i)], check))
    for i in range(ARGMIN_INSTANCES):
        points = argmin_points(i)
        check = _expect_run(witness=points.index(min(points)))
        spec = "argmin:" + ",".join(map(str, points))
        for strategy in STRATEGIES:
            calls.append(Call(["run", spec, "--format", "json", "--strategy",
                               strategy, "--seed", str(i)], check))
    return Prepared(calls, base, prefix_for(seed))


PREPARE = {
    "cascade-explore": prepare_cascade,
    "fuzz-corpus": prepare_fuzz,
    "wide-run": prepare_wide,
}


# ---------------------------------------------------------------------------
# golden outputs

def key_schema(value):
    """Key tree of a JSON value: dicts map keys to sub-trees, lists of
    dicts map "[]" to the union of their elements' trees."""
    if isinstance(value, dict):
        return {k: key_schema(v) for k, v in value.items()}
    if isinstance(value, list):
        merged: dict = {}
        for item in value:
            if isinstance(item, dict):
                merge_schema(merged, key_schema(item))
        return {"[]": merged} if merged else None
    return None


def merge_schema(into: dict, other: dict) -> None:
    for key, sub in other.items():
        if isinstance(sub, dict) and isinstance(into.get(key), dict):
            merge_schema(into[key], sub)
        elif into.get(key) is None:
            into[key] = sub


def project(value, schema):
    """Keep only the keys the schema names, so that keys a later version
    adds to the output do not change the digest."""
    if schema is None:
        return value
    if isinstance(value, dict):
        return {k: project(value[k], schema[k]) for k in schema if k in value}
    if isinstance(value, list) and "[]" in schema:
        return [project(v, schema["[]"]) for v in value]
    return value


def output_digest(exit_code: int, output, schema) -> str:
    text = json.dumps([exit_code, project(output, schema)], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
