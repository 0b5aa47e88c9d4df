"""Test-only reference: the two-pass document checks that `load_instance`
replaced, kept to check that checking each document once changes nothing
observable.

`validate_expr`, `compile_expr`, `_reject` and `load_instance` are the
former `instances` functions verbatim, and `from_dict` is the former
`InstanceDoc.from_dict` as a plain function: it type-checks every field
and walks every condition, and `load_instance` then runs the field checks
again and walks every condition a second time while compiling it.
`compile_expr` compiles a condition into a closure, as the former one
did.  The one change to `load_instance` is that it builds its valuation
and realizer on those closures itself (`_closure_valuation`,
`_closure_realizer`): the realizer calls every rule's closure on every
state, so it shares neither the program's condition interpreter nor its
realizer rule form.
"""

from __future__ import annotations

from typing import Callable, Iterable, NoReturn, Optional

from kspace.core import AtomUniverse, InvalidState
from kspace.instances import (
    MAX_CONDITION_DEPTH,
    _DOC_KEYS,
    DuplicateTruthRule,
    InstanceDoc,
    LevelMaskViolation,
    LoadedInstance,
    SchemaError,
    UnknownReference,
    UnsoundInitial,
    _check_atom,
    _check_realizer_rule,
    _check_truth_rule,
    _require_ids,
    _require_list,
)
from kspace.oracle import Realizer, StateView, Valuation, is_sound

from reference_steps import atom_table


#: A compiled condition: a function of a (masked) state view.
Condition = Callable[[StateView], bool]


def validate_expr(expr, depth: int = 1) -> None:
    """Raise SchemaError unless `expr` is a well-formed condition."""
    if depth > MAX_CONDITION_DEPTH:
        raise SchemaError(
            f"condition nested more than {MAX_CONDITION_DEPTH} levels deep")
    if not isinstance(expr, dict) or len(expr) != 1:
        raise SchemaError(f"condition must be a single-key object, got {expr!r}")
    ((key, value),) = expr.items()
    if key == "const":
        if not isinstance(value, bool):
            raise SchemaError("const takes a boolean")
    elif key in ("present", "answered"):
        if not isinstance(value, str):
            raise SchemaError(f"{key} takes an id string")
    elif key == "not":
        validate_expr(value, depth + 1)
    elif key in ("and", "or"):
        if not isinstance(value, list):
            raise SchemaError(f"{key} takes a list of conditions")
        for sub in value:
            validate_expr(sub, depth + 1)
    else:
        raise SchemaError(f"unknown condition key {key!r}")


def compile_expr(expr, atoms: set[str], questions: set[str],
                 depth: int = 1) -> Condition:
    """Compile a condition into a function of a state view, adding the atom
    and question ids it references to `atoms` and `questions`.

    Each node gets the checks `validate_expr` gives it, and a node that
    fails them raises the same SchemaError, so a document built in Python,
    which `from_dict` never saw, is rejected too.  The compiled function
    evaluates sub-conditions in document order and stops at the first that
    decides an "and" or "or".
    """
    if depth > MAX_CONDITION_DEPTH or not isinstance(expr, dict) or len(expr) != 1:
        _reject(expr, depth)
    ((key, value),) = expr.items()
    if key == "const" and isinstance(value, bool):
        return lambda view: value
    if key == "present" and isinstance(value, str):
        atoms.add(value)
        return lambda view: view.present(value)
    if key == "answered" and isinstance(value, str):
        questions.add(value)
        return lambda view: view.answered(value)
    if key == "not":
        inner = compile_expr(value, atoms, questions, depth + 1)
        return lambda view: not inner(view)
    if key not in ("and", "or") or not isinstance(value, list):
        _reject(expr, depth)
    subs = []
    for sub in value:
        subs.append(compile_expr(sub, atoms, questions, depth + 1))
    if key == "and":
        def conjunction(view: StateView) -> bool:
            for sub in subs:
                if not sub(view):
                    return False
            return True
        return conjunction

    def disjunction(view: StateView) -> bool:
        for sub in subs:
            if sub(view):
                return True
        return False
    return disjunction


def _reject(expr, depth: int) -> NoReturn:
    """Raise the SchemaError `validate_expr` raises for a node that is
    malformed in itself."""
    validate_expr(expr, depth)
    raise AssertionError(f"validate_expr accepted {expr!r}")


def from_dict(data) -> InstanceDoc:
    if not isinstance(data, dict):
        raise SchemaError("document must be a JSON object")
    if set(data) != _DOC_KEYS:
        raise SchemaError(
            f"top-level keys must be exactly {sorted(_DOC_KEYS)}, "
            f"got {sorted(data)}")
    for key in ("atoms", "truth_rules", "realizer_rules"):
        _require_list(data[key], key)
    for atom in data["atoms"]:
        _check_atom(atom)
    for rule in data["truth_rules"]:
        _check_truth_rule(rule)
        validate_expr(rule["condition"])
    for rule in data["realizer_rules"]:
        _check_realizer_rule(rule)
        validate_expr(rule["condition"])
        _require_ids(rule["propose"], "propose")
    _require_ids(data["initial"], "initial")
    return InstanceDoc(atoms=data["atoms"], truth_rules=data["truth_rules"],
                       realizer_rules=data["realizer_rules"], initial=data["initial"])


def is_state(members: Iterable[str], universe: AtomUniverse) -> bool:
    """True iff no two distinct members answer the same question: the
    former `core.is_state`."""
    atoms = atom_table(universe)
    seen: set[str] = set()
    for atom_id in set(members):
        q, _ = atoms[atom_id]
        if q in seen:
            return False
        seen.add(q)
    return True


def _closure_valuation(universe: AtomUniverse,
                       rules: dict[str, Condition]) -> Valuation:
    # unruled atoms default to false: explicit rules only
    def evaluate(atom_id: str, view: StateView) -> bool:
        cond = rules.get(atom_id)
        return cond(view) if cond is not None else False
    return Valuation(universe, evaluate)


def _closure_realizer(universe: AtomUniverse,
                      rules: list[tuple[Condition, list[str]]]) -> Realizer:
    """The union of the proposals of the rules whose conditions hold."""
    def propose(view: StateView) -> set[str]:
        out: set[str] = set()
        for cond, proposals in rules:
            if cond(view):
                out.update(proposals)
        return out
    return Realizer(universe, propose)


def load_instance(doc: InstanceDoc) -> LoadedInstance:
    """Validate a document, compile its conditions and build its universe,
    valuation and realizer.

    Every field is type-checked as `from_dict` checks it, with its
    messages, so a document built in Python is rejected as a JSON one is.
    """
    _require_list(doc.atoms, "atoms")
    listed = []
    for entry in doc.atoms:
        _check_atom(entry)
        listed.append((entry["id"], entry["question"], entry["level"]))
    try:
        universe = AtomUniverse(listed)
    except InvalidState as exc:
        raise SchemaError(str(exc)) from None

    _require_list(doc.truth_rules, "truth_rules")
    truth_exprs: dict[str, dict] = {}
    for rule in doc.truth_rules:
        _check_truth_rule(rule)
        atom_id = rule["atom"]
        if atom_id not in universe:
            raise UnknownReference(f"truth rule for unknown atom {atom_id!r}")
        if atom_id in truth_exprs:
            raise DuplicateTruthRule(f"two truth rules for atom {atom_id!r}")
        truth_exprs[atom_id] = rule["condition"]

    def compile_checked(expr, where: str, level_cap: Optional[int]
                        ) -> tuple[Condition, set[str], set[str]]:
        """The compiled condition and the atom and question ids it reads."""
        atoms: set[str] = set()
        questions: set[str] = set()
        cond = compile_expr(expr, atoms, questions)
        for ref in sorted(atoms):
            if ref not in universe:
                raise UnknownReference(f"{where} references unknown atom {ref!r}")
            level = universe.level_of[ref]
            if level_cap is not None and level >= level_cap:
                raise LevelMaskViolation(
                    f"{where} references atom {ref!r} at level "
                    f"{level}, at or above its own level {level_cap}")
        for ref in sorted(questions):
            if ref not in universe.question_index:
                raise UnknownReference(f"{where} references unknown question {ref!r}")
            level = universe.question_level(ref)
            if level_cap is not None and level >= level_cap:
                raise LevelMaskViolation(
                    f"{where} references question {ref!r} at level "
                    f"{level}, at or above its own level {level_cap}")
        return cond, atoms, questions

    truth_rules = {
        atom_id: compile_checked(expr, f"truth rule for {atom_id!r}",
                                 universe.level_of[atom_id])[0]
        for atom_id, expr in truth_exprs.items()}
    _require_list(doc.realizer_rules, "realizer_rules")
    realizer_rules = []
    for i, rule in enumerate(doc.realizer_rules):
        _check_realizer_rule(rule)
        cond = compile_checked(rule["condition"], f"realizer rule {i}", None)[0]
        _require_ids(rule["propose"], "propose")
        for ref in rule["propose"]:
            if ref not in universe:
                raise UnknownReference(
                    f"realizer rule {i} proposes unknown atom {ref!r}")
        realizer_rules.append((cond, rule["propose"]))

    _require_ids(doc.initial, "initial")
    for atom_id in doc.initial:
        if atom_id not in universe:
            raise UnknownReference(f"initial state names unknown atom {atom_id!r}")
    if not is_state(doc.initial, universe):
        raise SchemaError("initial members answer some question twice")
    initial = frozenset(doc.initial)

    valuation = _closure_valuation(universe, truth_rules)
    realizer = _closure_realizer(universe, realizer_rules)
    if not is_sound(valuation, initial):
        raise UnsoundInitial(
            f"initial state {sorted(initial)} is not sound under the rules")

    return LoadedInstance(
        universe=universe, valuation=valuation, realizer=realizer,
        initial=initial,
        truth_rule_count=len(truth_rules),
        realizer_rule_count=len(doc.realizer_rules))
