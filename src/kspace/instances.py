"""Declarative instance documents, built-in examples and generators.

An instance document lists atoms, truth rules (one boolean condition per
atom, masked to lower levels), realizer rules (condition plus proposals)
and an initial state.  Documents are plain JSON; loading validates the
schema, the level mask, and the soundness of the initial state.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .core import (
    Atom,
    AtomUniverse,
    InvalidState,
    KspaceError,
    State,
    is_state,
)
from .oracle import Realizer, StateView, Valuation, is_sound

ARGMIN_MAX_POINTS = 32
RANDOM_MAX_ATOMS = 64
RANDOM_MAX_LEVEL = 16
RANDOM_MAX_RULES = 256


class InstanceError(KspaceError):
    pass


class SchemaError(InstanceError):
    pass


class UnknownReference(InstanceError):
    pass


class DuplicateTruthRule(InstanceError):
    pass


class LevelMaskViolation(InstanceError):
    pass


class UnsoundInitial(InstanceError):
    pass


# ---------------------------------------------------------------------------
# boolean conditions

_EXPR_KEYS = {"const", "present", "answered", "not", "and", "or"}


def validate_expr(expr) -> None:
    if not isinstance(expr, dict) or len(expr) != 1:
        raise SchemaError(f"condition must be a single-key object, got {expr!r}")
    key, value = next(iter(expr.items()))
    if key not in _EXPR_KEYS:
        raise SchemaError(f"unknown condition key {key!r}")
    if key == "const":
        if not isinstance(value, bool):
            raise SchemaError("const takes a boolean")
    elif key in ("present", "answered"):
        if not isinstance(value, str):
            raise SchemaError(f"{key} takes an id string")
    elif key == "not":
        validate_expr(value)
    else:  # and / or
        if not isinstance(value, list):
            raise SchemaError(f"{key} takes a list of conditions")
        for sub in value:
            validate_expr(sub)


def expr_refs(expr) -> tuple[set[str], set[str]]:
    """(atom ids, question ids) referenced anywhere in the condition."""
    key, value = next(iter(expr.items()))
    if key == "present":
        return {value}, set()
    if key == "answered":
        return set(), {value}
    if key == "not":
        return expr_refs(value)
    if key in ("and", "or"):
        atoms: set[str] = set()
        questions: set[str] = set()
        for sub in value:
            a, q = expr_refs(sub)
            atoms |= a
            questions |= q
        return atoms, questions
    return set(), set()


def eval_expr(expr, view: StateView) -> bool:
    key, value = next(iter(expr.items()))
    if key == "const":
        return value
    if key == "present":
        return view.present(value)
    if key == "answered":
        return view.answered(value)
    if key == "not":
        return not eval_expr(value, view)
    if key == "and":
        return all(eval_expr(sub, view) for sub in value)
    if key == "or":
        return any(eval_expr(sub, view) for sub in value)
    raise SchemaError(f"unknown condition key {key!r}")


# ---------------------------------------------------------------------------
# documents

_ATOM_KEYS = {"id", "question", "level", "label"}
_DOC_KEYS = {"atoms", "truth_rules", "realizer_rules", "initial"}


@dataclass
class InstanceDoc:
    atoms: list[dict]
    truth_rules: list[dict]
    realizer_rules: list[dict]
    initial: list[str]

    def to_json(self) -> str:
        return json.dumps(
            {"atoms": self.atoms, "truth_rules": self.truth_rules,
             "realizer_rules": self.realizer_rules, "initial": self.initial},
            sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "InstanceDoc":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data) -> "InstanceDoc":
        if not isinstance(data, dict):
            raise SchemaError("document must be a JSON object")
        if set(data) != _DOC_KEYS:
            raise SchemaError(
                f"top-level keys must be exactly {sorted(_DOC_KEYS)}, "
                f"got {sorted(data)}")
        for atom in data["atoms"]:
            if not isinstance(atom, dict) or not set(atom) <= _ATOM_KEYS:
                raise SchemaError(f"bad atom entry {atom!r}")
            if not {"id", "question", "level"} <= set(atom):
                raise SchemaError(f"atom entry missing fields: {atom!r}")
        for rule in data["truth_rules"]:
            if not isinstance(rule, dict) or set(rule) != {"atom", "condition"}:
                raise SchemaError(f"bad truth rule {rule!r}")
            validate_expr(rule["condition"])
        for rule in data["realizer_rules"]:
            if not isinstance(rule, dict) or set(rule) != {"condition", "propose"}:
                raise SchemaError(f"bad realizer rule {rule!r}")
            validate_expr(rule["condition"])
            if not isinstance(rule["propose"], list):
                raise SchemaError("propose must be a list of atom ids")
        if not isinstance(data["initial"], list):
            raise SchemaError("initial must be a list of atom ids")
        return cls(atoms=data["atoms"], truth_rules=data["truth_rules"],
                   realizer_rules=data["realizer_rules"], initial=data["initial"])


@dataclass
class LoadedInstance:
    universe: AtomUniverse
    valuation: Valuation
    realizer: Realizer
    initial: State
    witness: Optional[Callable[[State], int]] = None
    doc: Optional[InstanceDoc] = None
    truth_rule_count: Optional[int] = None
    realizer_rule_count: Optional[int] = None


def _rule_valuation(universe: AtomUniverse, rules: dict[str, dict]) -> Valuation:
    # unruled atoms default to false: explicit rules only
    def evaluate(atom: Atom, view: StateView) -> bool:
        expr = rules.get(atom.id)
        return eval_expr(expr, view) if expr is not None else False
    return Valuation(universe, evaluate)


def _rule_realizer(universe: AtomUniverse, rules: list[dict]) -> Realizer:
    def propose(view: StateView) -> set[str]:
        out: set[str] = set()
        for rule in rules:
            if eval_expr(rule["condition"], view):
                out.update(rule["propose"])
        return out
    return Realizer(universe, propose)


def load_instance(doc: InstanceDoc) -> LoadedInstance:
    """Validate a document and build its universe, valuation and realizer."""
    try:
        universe = AtomUniverse(
            Atom(a["id"], a["question"], a["level"], a.get("label"))
            for a in doc.atoms)
    except InvalidState as exc:
        raise SchemaError(str(exc)) from None

    truth_rules: dict[str, dict] = {}
    for rule in doc.truth_rules:
        atom_id = rule["atom"]
        if atom_id not in universe:
            raise UnknownReference(f"truth rule for unknown atom {atom_id!r}")
        if atom_id in truth_rules:
            raise DuplicateTruthRule(f"two truth rules for atom {atom_id!r}")
        truth_rules[atom_id] = rule["condition"]

    question_levels = {q: universe.question_level(q)
                       for q in universe.question_index}

    def check_refs(expr, where: str, level_cap: Optional[int]) -> None:
        atoms, questions = expr_refs(expr)
        for ref in sorted(atoms):
            if ref not in universe:
                raise UnknownReference(f"{where} references unknown atom {ref!r}")
            if level_cap is not None and universe.level(ref) >= level_cap:
                raise LevelMaskViolation(
                    f"{where} references atom {ref!r} at level "
                    f"{universe.level(ref)}, at or above its own level {level_cap}")
        for ref in sorted(questions):
            if ref not in question_levels:
                raise UnknownReference(f"{where} references unknown question {ref!r}")
            if level_cap is not None and question_levels[ref] >= level_cap:
                raise LevelMaskViolation(
                    f"{where} references question {ref!r} at level "
                    f"{question_levels[ref]}, at or above its own level {level_cap}")

    for atom_id, expr in truth_rules.items():
        check_refs(expr, f"truth rule for {atom_id!r}", universe.level(atom_id))
    for i, rule in enumerate(doc.realizer_rules):
        check_refs(rule["condition"], f"realizer rule {i}", None)
        for ref in rule["propose"]:
            if ref not in universe:
                raise UnknownReference(
                    f"realizer rule {i} proposes unknown atom {ref!r}")

    for atom_id in doc.initial:
        if atom_id not in universe:
            raise UnknownReference(f"initial state names unknown atom {atom_id!r}")
    if not is_state(doc.initial, universe):
        raise SchemaError("initial members answer some question twice")
    initial = frozenset(doc.initial)

    valuation = _rule_valuation(universe, truth_rules)
    realizer = _rule_realizer(universe, doc.realizer_rules)
    if not is_sound(valuation, initial):
        raise UnsoundInitial(
            f"initial state {sorted(initial)} is not sound under the rules")

    return LoadedInstance(
        universe=universe, valuation=valuation, realizer=realizer,
        initial=initial, doc=doc,
        truth_rule_count=len(truth_rules),
        realizer_rule_count=len(doc.realizer_rules))


# ---------------------------------------------------------------------------
# built-ins

def builtin_t3() -> InstanceDoc:
    """Canonical 3-level fixture: one base fact, a revisable guess at level 1
    and a level-2 atom depending on the revised guess."""
    return InstanceDoc(
        atoms=[
            {"id": "a0", "question": "q0", "level": 0},
            {"id": "b1", "question": "q1", "level": 1},
            {"id": "b1'", "question": "q1", "level": 1},
            {"id": "c2", "question": "q2", "level": 2},
        ],
        truth_rules=[
            {"atom": "a0", "condition": {"const": True}},
            {"atom": "b1", "condition": {"not": {"present": "a0"}}},
            {"atom": "b1'", "condition": {"present": "a0"}},
            {"atom": "c2", "condition": {"present": "b1'"}},
        ],
        realizer_rules=[
            {"condition": {"not": {"answered": "q0"}}, "propose": ["a0"]},
            {"condition": {"and": [{"not": {"answered": "q1"}},
                                   {"not": {"present": "a0"}}]},
             "propose": ["b1"]},
            {"condition": {"and": [{"present": "a0"},
                                   {"not": {"answered": "q1"}}]},
             "propose": ["b1'"]},
            {"condition": {"and": [{"present": "b1'"},
                                   {"not": {"answered": "q2"}}]},
             "propose": ["c2"]},
        ],
        initial=[],
    )


def builtin_argmin(points: list[int]) -> LoadedInstance:
    """Witness-learning instance: level-0 atoms record evaluated positions,
    a single level-1 question holds the current argmin guess.

    The realizer proposes one atom per state: a guess when the witness
    question is open, otherwise the least unevaluated counterexample.
    """
    if not points:
        raise InstanceError("need at least one point")
    if len(points) > ARGMIN_MAX_POINTS:
        raise InstanceError(f"at most {ARGMIN_MAX_POINTS} points supported")

    atoms = [Atom(f"e{n}", f"q_e{n}", 0, label=f"value at {n} evaluated")
             for n in range(len(points))]
    atoms += [Atom(f"w{m}", "q_w", 1, label=f"{m} is the argmin")
              for m in range(len(points))]
    universe = AtomUniverse(atoms)

    def evaluate(atom: Atom, view: StateView) -> bool:
        if atom.level == 0:
            return True
        m = int(atom.id[1:])
        return not any(view.present(f"e{n}") for n in range(len(points))
                       if points[n] < points[m])

    def propose(view: StateView) -> set[str]:
        if not view.answered("q_w"):
            evaluated = [n for n in range(len(points)) if view.present(f"e{n}")]
            m = min(evaluated, key=lambda n: (points[n], n)) if evaluated else 0
            return {f"w{m}"}
        (witness_id,) = view.query("q_w")
        m = int(witness_id[1:])
        for n in range(len(points)):
            if points[n] < points[m] and not view.present(f"e{n}"):
                return {f"e{n}"}
        return set()

    def witness(members: State) -> int:
        found = [int(a[1:]) for a in members if universe.atom(a).question == "q_w"]
        if len(found) != 1:
            raise InstanceError(f"state {sorted(members)} carries no unique witness")
        return found[0]

    return LoadedInstance(
        universe=universe,
        valuation=Valuation(universe, evaluate),
        realizer=Realizer(universe, propose),
        initial=frozenset(),
        witness=witness,
    )


def gen_cascade(depth: int, width: int, seed: int) -> InstanceDoc:
    """Chain instance with `depth`+1 levels forcing erasure cascades.

    Level 0 holds one base fact.  Each level n >= 1 has one question with
    a "right" atom (true once the right atom below is in) and `width`
    interchangeable "wrong" atoms (true while it is not).  Wrong atoms
    are proposable only while the question below is still open, so early
    high-level guesses get erased when lower answers arrive.  The seed
    only shuffles listing order.
    """
    if depth < 1 or width < 1:
        raise InstanceError("depth and width must be >= 1")

    atoms = [{"id": "base", "question": "q0", "level": 0}]
    truth_rules = [{"atom": "base", "condition": {"const": True}}]
    realizer_rules = [
        {"condition": {"not": {"answered": "q0"}}, "propose": ["base"]}]
    right_below = "base"
    for n in range(1, depth + 1):
        q = f"q{n}"
        right = f"right{n}"
        atoms.append({"id": right, "question": q, "level": n})
        truth_rules.append({"atom": right, "condition": {"present": right_below}})
        realizer_rules.append(
            {"condition": {"and": [{"present": right_below},
                                   {"not": {"answered": q}}]},
             "propose": [right]})
        for j in range(width):
            wrong = f"wrong{n}_{j}"
            atoms.append({"id": wrong, "question": q, "level": n})
            truth_rules.append(
                {"atom": wrong, "condition": {"not": {"present": right_below}}})
            # wrong guesses only while every question below is still open;
            # keeps the exhaustive tree polynomial in depth and width
            open_below = [{"not": {"answered": f"q{m}"}} for m in range(n)]
            realizer_rules.append(
                {"condition": {"and": [{"not": {"answered": q}}] + open_below},
                 "propose": [wrong]})
        right_below = right

    rng = random.Random(seed)
    rng.shuffle(atoms)
    rng.shuffle(truth_rules)
    rng.shuffle(realizer_rules)
    return InstanceDoc(atoms=atoms, truth_rules=truth_rules,
                       realizer_rules=realizer_rules, initial=[])


def gen_random(n_atoms: int, max_level: int, n_rules: int, seed: int) -> InstanceDoc:
    """Seeded random instance for fuzzing.

    Truth rules reference only strictly lower levels.  Every realizer
    rule's condition conjoins, per proposed atom, "question open" with the
    atom's own truth condition, so raw proposals never break the realizer
    contract (lint-clean by construction); extra conjuncts may reference
    any level.
    """
    if not (1 <= n_atoms <= RANDOM_MAX_ATOMS):
        raise InstanceError(f"n_atoms must be in 1..{RANDOM_MAX_ATOMS}")
    if not (0 <= max_level <= RANDOM_MAX_LEVEL):
        raise InstanceError(f"max_level must be in 0..{RANDOM_MAX_LEVEL}")
    if not (0 <= n_rules <= RANDOM_MAX_RULES):
        raise InstanceError(f"n_rules must be in 0..{RANDOM_MAX_RULES}")
    rng = random.Random(seed)

    atoms: list[dict] = []
    question = 0
    while len(atoms) < n_atoms:
        level = rng.randint(0, max_level)
        share = rng.random() < 0.3 and n_atoms - len(atoms) >= 2
        for _ in range(2 if share else 1):
            atoms.append({"id": f"a{len(atoms)}", "question": f"q{question}",
                          "level": level})
        question += 1

    def rand_expr(pool: list[dict], depth: int) -> dict:
        if not pool or depth == 0 or rng.random() < 0.25:
            if pool and rng.random() < 0.8:
                picked = rng.choice(pool)
                if rng.random() < 0.5:
                    return {"present": picked["id"]}
                return {"answered": picked["question"]}
            return {"const": rng.random() < 0.7}
        op = rng.choice(["not", "and", "or"])
        if op == "not":
            return {"not": rand_expr(pool, depth - 1)}
        return {op: [rand_expr(pool, depth - 1)
                     for _ in range(rng.randint(1, 3))]}

    truth_exprs: dict[str, dict] = {}
    truth_rules: list[dict] = []
    for atom in atoms:
        lower = [a for a in atoms if a["level"] < atom["level"]]
        expr = rand_expr(lower, 2) if rng.random() < 0.9 else None
        if expr is None:
            continue
        truth_exprs[atom["id"]] = expr
        truth_rules.append({"atom": atom["id"], "condition": expr})

    proposable = sorted((a for a in atoms if a["id"] in truth_exprs),
                        key=lambda a: (a["level"], a["id"]))
    question_level = {a["question"]: a["level"] for a in atoms}
    realizer_rules: list[dict] = []
    for idx in range(n_rules):
        if not proposable:
            break
        k = 2 if rng.random() < 0.15 and len(proposable) >= 2 else 1
        chosen = rng.sample(proposable, k=k)
        conjuncts = []
        for atom in chosen:
            conjuncts.append({"not": {"answered": atom["question"]}})
            conjuncts.append(truth_exprs[atom["id"]])
        # the first rules are ungated starters; the rest fire only once
        # other (preferably lower-level) questions are answered.  Without
        # sequencing, exhaustive trees count every interleaving and explode.
        if idx >= 3:
            top = min(a["level"] for a in chosen)
            pool = sorted(q for q, lvl in question_level.items() if lvl <= top)
            if not pool:
                pool = sorted(question_level)
            for q in rng.sample(pool, k=min(rng.randint(1, 2), len(pool))):
                conjuncts.append({"answered": q})
        if rng.random() < 0.3:
            conjuncts.append(rand_expr(atoms, 1))
        realizer_rules.append({"condition": {"and": conjuncts},
                               "propose": sorted(a["id"] for a in chosen)})

    return InstanceDoc(atoms=atoms, truth_rules=truth_rules,
                       realizer_rules=realizer_rules, initial=[])
