"""Test-only reference: the condition interpreter that compiled conditions
replaced, kept to check that compiling changes nothing observable.

`eval_expr` is the former `instances.eval_expr` verbatim: it walks the
condition's JSON tree node by node on every call.  `reference_valuation`
and `reference_realizer` build a document's valuation and realizer on it
the way `load_instance` used to.
"""

from __future__ import annotations

from kspace.core import Atom, AtomUniverse
from kspace.instances import InstanceDoc, SchemaError
from kspace.oracle import Realizer, StateView, Valuation


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


def reference_valuation(universe: AtomUniverse, doc: InstanceDoc) -> Valuation:
    rules = {rule["atom"]: rule["condition"] for rule in doc.truth_rules}

    def evaluate(atom: Atom, view: StateView) -> bool:
        expr = rules.get(atom.id)
        return eval_expr(expr, view) if expr is not None else False
    return Valuation(universe, evaluate)


def reference_realizer(universe: AtomUniverse, doc: InstanceDoc) -> Realizer:
    def propose(view: StateView) -> set[str]:
        out: set[str] = set()
        for rule in doc.realizer_rules:
            if eval_expr(rule["condition"], view):
                out.update(rule["propose"])
        return out
    return Realizer(universe, propose)
