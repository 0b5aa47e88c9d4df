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
from itertools import compress
from types import FunctionType
from typing import Callable, Iterable, Optional

from .core import (
    Atom,
    AtomUniverse,
    InvalidState,
    KspaceError,
    State,
    UnknownAtom,
    UnknownQuestion,
)
from .oracle import PROPOSAL_CAP, Realizer, StateView, Valuation, is_sound

ARGMIN_MAX_POINTS = 32
RANDOM_MAX_ATOMS = 64
RANDOM_MAX_LEVEL = 16
RANDOM_MAX_RULES = 256
#: Longest InstanceError message; a longer one is cut there and ends in "...".
MESSAGE_LIMIT = 200


class InstanceError(KspaceError):
    def __init__(self, message: str):
        if len(message) > MESSAGE_LIMIT:
            message = message[:MESSAGE_LIMIT] + "..."
        super().__init__(message)


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


def _shown(value) -> str:
    """repr(value) for a message, or a stand-in when the value holds an
    int past the interpreter's int-to-str digit limit or is nested past
    the recursion limit, which only a document built in Python can (JSON
    parsing rejects both)."""
    try:
        return repr(value)
    except (ValueError, RecursionError):
        return "<a value too large to print>"


# ---------------------------------------------------------------------------
# boolean conditions

#: Deepest condition accepted, counting one level per nested object.  The
#: generators write at most a handful; the bound keeps compiling and
#: evaluating a condition far from the interpreter's recursion limit.
MAX_CONDITION_DEPTH = 100

# the tags of compiled condition nodes
PRESENT, ABSENT, ANSWERED, OPEN, NOT, AND, OR, CONST = range(8)

#: A compiled condition: a node `(tag, arg)`.  PRESENT and ABSENT hold an
#: atom id, ANSWERED and OPEN a question id (ABSENT and OPEN are a negated
#: `present` and `answered` leaf), NOT one node, AND and OR a list of
#: nodes built at load, and CONST a bool.  `eval_expr` evaluates it.
Condition = tuple


def compile_expr(expr, atoms: set[str], questions: set[str],
                 depth: int = 1) -> Condition:
    """Compile a condition into a tree of nodes (see `Condition`), adding
    the atom and question ids it references to `atoms` and `questions`.

    Raises SchemaError at the first malformed node, in document order.  No
    node shares a list or dict with the condition, so changing the
    condition afterwards changes nothing compiled.
    """
    if depth > MAX_CONDITION_DEPTH:
        raise SchemaError(
            f"condition nested more than {MAX_CONDITION_DEPTH} levels deep")
    if not isinstance(expr, dict) or len(expr) != 1:
        raise SchemaError(f"condition must be a single-key object, got {_shown(expr)}")
    # keys in order of how often conditions use them
    (key,) = expr
    value = expr[key]
    if key == "answered":
        if not isinstance(value, str):
            raise SchemaError("answered takes an id string")
        questions.add(value)
        return ANSWERED, value
    if key in ("and", "or"):
        if not isinstance(value, list):
            raise SchemaError(f"{key} takes a list of conditions")
        # a loop, not a comprehension: on Python 3.11 a comprehension is one
        # more frame per node, which load time shows
        subs = []
        for sub in value:
            subs.append(compile_expr(sub, atoms, questions, depth + 1))
        return (AND if key == "and" else OR), subs
    if key == "not":
        # a negated well-formed leaf within the depth bound is one node;
        # anything else compiles, or fails, as the general case does
        if (depth < MAX_CONDITION_DEPTH and isinstance(value, dict)
                and len(value) == 1):
            ((leaf, ref),) = value.items()
            if isinstance(ref, str):
                if leaf == "answered":
                    questions.add(ref)
                    return OPEN, ref
                if leaf == "present":
                    atoms.add(ref)
                    return ABSENT, ref
        return NOT, compile_expr(value, atoms, questions, depth + 1)
    if key == "present":
        if not isinstance(value, str):
            raise SchemaError("present takes an id string")
        atoms.add(value)
        return PRESENT, value
    if key == "const":
        if not isinstance(value, bool):
            raise SchemaError("const takes a boolean")
        return CONST, value
    raise SchemaError(f"unknown condition key {_shown(key)}")


def eval_expr(cond: Condition, view: StateView) -> bool:
    """One evaluation of a compiled condition on a state view.

    Sub-conditions are evaluated in document order, stopping at the first
    that decides an "and" or "or", and every leaf reads the state through
    the view, so a masked view enforces its level mask.
    """
    # the constant and the leaves first: a third of the fuzz corpus's truth
    # conditions are constants, and a cascade's are all leaves
    tag, arg = cond
    if tag == CONST:
        return arg
    if tag == PRESENT:
        return view.present(arg)
    if tag == ABSENT:
        return not view.present(arg)
    if tag == ANSWERED:
        return view.answered(arg)
    if tag == OPEN:
        return not view.answered(arg)
    if tag == AND:
        for sub in arg:
            if not _eval(sub, view):
                return False
        return True
    if tag == OR:
        for sub in arg:
            if _eval(sub, view):
                return True
        return False
    return not _eval(arg, view)  # NOT


# `eval_expr` under a private name, through which it recurses: one
# evaluation is one call of `eval_expr` whatever its depth, and a wrapper
# put on `eval_expr` (a tracer's) is not entered again for each node
_eval = FunctionType(eval_expr.__code__, globals(), "_eval")


#: A compiled realizer rule: the questions it needs answered, the questions
#: it needs open, the atoms it needs present, the atoms it needs absent, and
#: its other parts, each a compiled condition.  It holds when the state
#: passes the four set tests and every other part holds, evaluated in order
#: by `eval_expr`.
RealizerRule = tuple[frozenset[str], frozenset[str], frozenset[str],
                     frozenset[str], list[Condition]]


def compile_rule(expr, atoms: set[str], questions: set[str]) -> RealizerRule:
    """Compile a realizer rule's condition, adding the atom and question ids
    it references to `atoms` and `questions`.

    The well-formed `answered` and `present` leaves and their negations
    among the parts of a top-level "and", or the condition itself when it
    is one, become the rule's id sets.  Every other part is compiled by
    `compile_expr` in document order at the depth it has in the condition,
    so a malformed one raises the SchemaError that `compile_expr` raises
    for the whole condition.  The sets and the list of parts are built
    here, so the rule shares nothing with the condition.
    """
    parts, depth = [expr], 1
    if isinstance(expr, dict) and len(expr) == 1 and isinstance(expr.get("and"), list):
        parts, depth = expr["and"], 2
    # [questions answered, questions open, atoms present, atoms absent]
    sets: list[set[str]] = [set(), set(), set(), set()]
    rest: list[Condition] = []
    for part in parts:
        if isinstance(part, dict) and len(part) == 1:
            ((key, ref),) = part.items()
            negated = key == "not" and isinstance(ref, dict) and len(ref) == 1
            if negated:
                ((key, ref),) = ref.items()
            if isinstance(ref, str):
                if key == "answered":
                    questions.add(ref)
                    sets[negated].add(ref)
                    continue
                if key == "present":
                    atoms.add(ref)
                    sets[2 + negated].add(ref)
                    continue
        rest.append(compile_expr(part, atoms, questions, depth))
    return (*map(frozenset, sets), rest)


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
        # a JSONDecodeError, or an integer past the interpreter's digit limit
        except ValueError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from None
        except RecursionError:
            raise SchemaError("JSON nested too deeply") from None
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data) -> "InstanceDoc":
        """The document a parsed JSON value holds.  Only the top-level keys
        are checked here; `load_instance` checks every field."""
        if not isinstance(data, dict):
            raise SchemaError("document must be a JSON object")
        if set(data) != _DOC_KEYS:
            raise SchemaError(
                f"top-level keys must be exactly {sorted(_DOC_KEYS)}, "
                f"got {sorted(data)}")
        return cls(**data)


# Field checks `load_instance` runs on every document, parsed or built in
# Python.

def _require_list(value, key: str) -> None:
    if not isinstance(value, list):
        raise SchemaError(f"{key} must be a list, got {_shown(value)}")


def _check_atom(atom) -> None:
    # three fields of exact types and ASCII ids pass every check below; any
    # other entry runs them in order, for its message
    try:
        if (type(atom) is dict and len(atom) == 3 and type(atom["level"]) is int
                and type(i := atom["id"]) is type(q := atom["question"]) is str
                and (i + q).isascii()):
            return
    except KeyError:
        pass
    if not isinstance(atom, dict) or not _ATOM_KEYS.issuperset(atom):
        raise SchemaError(f"bad atom entry {_shown(atom)}")
    if not ("id" in atom and "question" in atom and "level" in atom):
        raise SchemaError(f"atom entry missing fields: {_shown(atom)}")
    if not (isinstance(atom["id"], str) and isinstance(atom["question"], str)):
        raise SchemaError(f"atom id and question must be strings: {_shown(atom)}")
    # JSON's \ud800 escape gives a lone surrogate, which UTF-8 cannot encode
    try:
        (atom["id"] + atom["question"]).encode()
    except UnicodeEncodeError:
        raise SchemaError(
            f"atom id and question must be UTF-8 text: {_shown(atom)}") from None
    # bool is a subclass of int, but true is not a level
    if not isinstance(atom["level"], int) or isinstance(atom["level"], bool):
        raise SchemaError(f"atom level must be an integer: {_shown(atom)}")
    if not isinstance(atom.get("label", ""), str):
        raise SchemaError(f"atom label must be a string: {_shown(atom)}")


def _check_truth_rule(rule) -> None:
    if not (isinstance(rule, dict) and len(rule) == 2
            and "atom" in rule and "condition" in rule):
        raise SchemaError(f"bad truth rule {_shown(rule)}")
    if not isinstance(rule["atom"], str):
        raise SchemaError(f"truth rule atom must be an id string: {_shown(rule)}")


def _check_realizer_rule(rule) -> None:
    if not (isinstance(rule, dict) and len(rule) == 2
            and "condition" in rule and "propose" in rule):
        raise SchemaError(f"bad realizer rule {_shown(rule)}")


def _require_ids(value, what: str) -> None:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise SchemaError(
            f"{what} must be a list of atom id strings, got {_shown(value)}")


@dataclass
class LoadedInstance:
    universe: AtomUniverse
    valuation: Valuation
    realizer: Realizer
    initial: State
    witness: Optional[Callable[[State], int]] = None
    truth_rule_count: Optional[int] = None
    realizer_rule_count: Optional[int] = None


def _rule_valuation(universe: AtomUniverse, rules: dict[str, Condition]) -> Valuation:
    # unruled atoms default to false: explicit rules only
    def evaluate(atom: Atom, view: StateView) -> bool:
        cond = rules.get(atom.id)
        return eval_expr(cond, view) if cond is not None else False
    return Valuation(universe, evaluate)


def _rule_realizer(universe: AtomUniverse,
                   rules: list[tuple[RealizerRule, tuple[str, ...], set[str], set[str]]]
                   ) -> Realizer:
    """The realizer of a document's rules, each given as its compiled
    condition, its proposals and the atom and question ids its condition
    reads: the union of the proposals of the rules whose conditions hold.

    A call diffs its state against the last state realized and evaluates
    only the rules that read a changed atom or the question of one; every
    other rule reads the same ids in both states and keeps its verdict.
    The first call evaluates every rule.  A rule's question sets are tested
    against the state's answered questions, built once per call when a
    rule evaluated has any.
    """
    forms = [form for form, _, _, _ in rules]
    proposals = [ids for _, ids, _, _ in rules]
    question_of = universe.question_of
    # atom id -> the numbers of the rules that read the atom or its question;
    # the atoms of a question share one list until a rule reads one directly
    by_question: dict[str, list[int]] = {}
    for i, (_, _, _, questions) in enumerate(rules):
        for question in questions:
            by_question.setdefault(question, []).append(i)
    readers = {atom_id: ids for question, ids in by_question.items()
               for atom_id in universe.question_atoms(question)}
    for i, (_, _, atoms, _) in enumerate(rules):
        for atom_id in atoms:
            readers[atom_id] = readers.get(atom_id, []) + [i]
    # the last state realized and each rule's verdict on it
    memo: Optional[tuple[State, list[bool]]] = None

    def propose(view: StateView) -> set[str]:
        nonlocal memo
        # a view may hold a mutable set, which the memo must not share
        members = frozenset(view.members())
        if memo is None:
            stale: Iterable[int] = range(len(forms))
            verdicts = [False] * len(forms)
        else:
            last, verdicts = memo
            touched: set[int] = set()
            for atom_id in last ^ members:
                touched.update(readers.get(atom_id, ()))
            stale = sorted(touched)
            verdicts = verdicts.copy()
        answered: Optional[set] = None
        for i in stale:
            need_q, avoid_q, need_a, avoid_a, rest = forms[i]
            if need_q or avoid_q:
                if answered is None:
                    # an id outside the universe maps to None, no question
                    answered = set(map(question_of.get, members))
                if not (need_q <= answered and avoid_q.isdisjoint(answered)):
                    verdicts[i] = False
                    continue
            verdict = need_a <= members and avoid_a.isdisjoint(members)
            if verdict:
                for cond in rest:
                    if not eval_expr(cond, view):
                        verdict = False
                        break
            verdicts[i] = verdict
        # committed only after every evaluation has returned, so a call
        # that raises leaves the memo as it was
        memo = members, verdicts
        out: set[str] = set()
        for ids in compress(proposals, verdicts):
            out.update(ids)
        return out
    return Realizer(universe, propose)


def _compiled(expr) -> tuple[Condition, set[str], set[str]]:
    """A condition compiled, with the atom and question ids it reads."""
    atoms: set[str] = set()
    questions: set[str] = set()
    return compile_expr(expr, atoms, questions), atoms, questions


def _check_reads(universe: AtomUniverse, where: str, atoms: set[str],
                 questions: set[str], level_cap: Optional[int]) -> None:
    """Raise at the first atom, then question, in id order that a condition
    reads but that is unknown or, under a level cap, not strictly below it.
    Run only on a rule that `AtomUniverse.known_below` rejects."""
    for kind, refs, level_of in (
            ("atom", atoms, universe.level_of.__getitem__),
            ("question", questions, universe.question_level)):
        for ref in sorted(refs):
            try:
                level = level_of(ref)
            except (UnknownAtom, UnknownQuestion):
                raise UnknownReference(
                    f"{where} references unknown {kind} {ref!r}") from None
            if level_cap is not None and level >= level_cap:
                raise LevelMaskViolation(
                    f"{where} references {kind} {ref!r} at level "
                    f"{level}, at or above its own level {level_cap}")


def load_instance(doc: InstanceDoc) -> LoadedInstance:
    """Check a document, compile its conditions and build its universe,
    valuation and realizer.

    This is the only place a document is checked, whether it was parsed
    from JSON or built in Python, and each condition is walked once.  The
    shape of every field comes first, field by field in document order,
    with each condition checked as it is compiled.  The checks that need
    the universe follow: unknown ids, duplicate truth rules, the level
    mask, the initial state and its soundness.
    """
    for key in ("atoms", "truth_rules", "realizer_rules"):
        _require_list(getattr(doc, key), key)
    listed = []
    for entry in doc.atoms:
        _check_atom(entry)
        listed.append(Atom(entry["id"], entry["question"], entry["level"]))
    # (atom id, condition, atom ids read, question ids read)
    truth: list[tuple[str, Condition, set[str], set[str]]] = []
    for rule in doc.truth_rules:
        _check_truth_rule(rule)
        truth.append((rule["atom"], *_compiled(rule["condition"])))
    # (compiled condition, proposals, atom ids read, question ids read)
    realizer_rules: list[tuple[RealizerRule, tuple[str, ...], set[str], set[str]]] = []
    for rule in doc.realizer_rules:
        _check_realizer_rule(rule)
        atoms: set[str] = set()
        questions: set[str] = set()
        form = compile_rule(rule["condition"], atoms, questions)
        _require_ids(rule["propose"], "propose")
        # a copy, so that changing the document changes no proposal
        proposals = tuple(rule["propose"])
        realizer_rules.append((form, proposals, atoms, questions))
    _require_ids(doc.initial, "initial")

    try:
        universe = AtomUniverse(listed)
    except InvalidState as exc:
        raise SchemaError(str(exc)) from None
    truth_rules: dict[str, Condition] = {}
    for atom_id, cond, _, _ in truth:
        if atom_id not in universe:
            raise UnknownReference(f"truth rule for unknown atom {atom_id!r}")
        if atom_id in truth_rules:
            raise DuplicateTruthRule(f"two truth rules for atom {atom_id!r}")
        truth_rules[atom_id] = cond
    for atom_id, _, atoms, questions in truth:
        cap = universe.level_of[atom_id]
        if not universe.known_below(atoms, questions, cap):
            _check_reads(universe, f"truth rule for {atom_id!r}", atoms,
                         questions, cap)
    for i, (_, proposals, atoms, questions) in enumerate(realizer_rules):
        if not universe.known_below(atoms, questions):
            _check_reads(universe, f"realizer rule {i}", atoms, questions, None)
        for ref in proposals:
            if ref not in universe:
                raise UnknownReference(
                    f"realizer rule {i} proposes unknown atom {ref!r}")

    for atom_id in doc.initial:
        if atom_id not in universe:
            raise UnknownReference(f"initial state names unknown atom {atom_id!r}")
    initial = frozenset(doc.initial)
    if len({universe.question_of[a] for a in initial}) != len(initial):
        raise SchemaError("initial members answer some question twice")

    valuation = _rule_valuation(universe, truth_rules)
    realizer = _rule_realizer(universe, realizer_rules)
    if not is_sound(valuation, initial):
        raise UnsoundInitial(
            f"initial state {sorted(initial)} is not sound under the rules")

    return LoadedInstance(
        universe=universe, valuation=valuation, realizer=realizer,
        initial=initial,
        truth_rule_count=len(truth_rules),
        realizer_rule_count=len(realizer_rules))


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

    atoms = [Atom(f"e{n}", f"q_e{n}", 0) for n in range(len(points))]
    atoms += [Atom(f"w{m}", "q_w", 1) for m in range(len(points))]
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
    only shuffles listing order.  The root proposes the base fact and
    every wrong atom, so depth*width + 1 may not exceed `PROPOSAL_CAP`.
    """
    if depth < 1 or width < 1:
        raise InstanceError("depth and width must be >= 1")
    if depth * width + 1 > PROPOSAL_CAP:
        raise InstanceError(
            f"depth*width + 1 must be at most {PROPOSAL_CAP}, the proposal cap "
            f"(got {depth * width + 1})")

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


def _rand_expr(rng: random.Random, pool: list[dict], depth: int) -> dict:
    """A random condition of nesting depth at most `depth` over the atoms
    of `pool`."""
    if not pool or depth == 0 or rng.random() < 0.25:
        if pool and rng.random() < 0.8:
            picked = rng.choice(pool)
            if rng.random() < 0.5:
                return {"present": picked["id"]}
            return {"answered": picked["question"]}
        return {"const": rng.random() < 0.7}
    op = rng.choice(["not", "and", "or"])
    if op == "not":
        return {"not": _rand_expr(rng, pool, depth - 1)}
    return {op: [_rand_expr(rng, pool, depth - 1)
                 for _ in range(rng.randint(1, 3))]}


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

    truth_exprs: dict[str, dict] = {}
    truth_rules: list[dict] = []
    for atom in atoms:
        lower = [a for a in atoms if a["level"] < atom["level"]]
        expr = _rand_expr(rng, lower, 2) if rng.random() < 0.9 else None
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
            conjuncts.append(_rand_expr(rng, atoms, 1))
        realizer_rules.append({"condition": {"and": conjuncts},
                               "propose": sorted(a["id"] for a in chosen)})

    return InstanceDoc(atoms=atoms, truth_rules=truth_rules,
                       realizer_rules=realizer_rules, initial=[])
