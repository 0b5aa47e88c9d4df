"""Test-only reference: the two-pass `lint` that reading the violations off
the explorer's one pass replaced, kept to check that the change alters no
output or exit code.

`ContractViolation`, `realize` (with its filter and strict modes) and
`cmd_lint` are the former `oracle` and `cli` code verbatim.  `cmd_lint`
explores every reachable state, then realizes each state again in strict
mode, which raises at the first proposal that filter mode drops.  `main`
is the former `cli.main` with `lint` bound to this `cmd_lint`.
"""

from __future__ import annotations

import sys
from typing import Optional

from kspace import engine
from kspace.cli import (
    EXIT_CHECK,
    EXIT_CODES,
    EXIT_OK,
    PARSER,
    _emit,
    _explore,
    resolve_instance,
)
from kspace.core import KspaceError, State
from kspace.oracle import Realizer, StateView, Valuation, truth


class ContractViolation(KspaceError):
    """A raw proposal broke the realizer contract (strict mode only)."""

    CLAUSE_ANSWERED = "question-already-answered"
    CLAUSE_UNTRUE = "truth-false"

    def __init__(self, atom_id: str, clause: str, state: State):
        self.atom_id = atom_id
        self.clause = clause
        self.state = state
        super().__init__(f"proposal {atom_id!r} violates clause {clause}")


def realize(r: Realizer, v: Valuation, members: State,
            mode: str = "filter") -> frozenset[str]:
    """Contract-checked proposal set for a state.

    In ``filter`` mode, proposals whose question is already answered or
    whose truth fails are dropped silently (the filtered map is itself a
    realizer).  In ``strict`` mode the first violation raises
    :class:`ContractViolation` and the raw set is returned only when clean.
    """
    if mode not in ("filter", "strict"):
        raise ValueError(f"unknown realize mode {mode!r}")
    universe = r.universe
    raw = r.propose(StateView(universe, members))
    kept = []
    for atom_id in sorted(raw):
        atom = universe.atom(atom_id)
        if members & universe.question_atoms(atom.question):
            if mode == "strict":
                raise ContractViolation(
                    atom_id, ContractViolation.CLAUSE_ANSWERED, members)
            continue
        if not truth(v, atom_id, members):
            if mode == "strict":
                raise ContractViolation(
                    atom_id, ContractViolation.CLAUSE_UNTRUE, members)
            continue
        kept.append(atom_id)
    return raw if mode == "strict" else frozenset(kept)


def cmd_lint(args) -> int:
    inst = resolve_instance(args.instance)
    # lint reads only the reachable states, never the lemma verdicts
    tree = _explore(args, inst, check_lemmas=False)
    violations = []
    for state in sorted(tree.parent, key=sorted):
        try:
            realize(inst.realizer, inst.valuation, state, mode="strict")
        except ContractViolation as exc:
            violations.append({"state": sorted(state), "atom": exc.atom_id,
                               "clause": exc.clause})
    lines = [f"states_checked: {tree.distinct_state_count}",
             f"violations: {len(violations)}"]
    for item in violations:
        lines.append(f"  VIOLATION {item['atom']} ({item['clause']}) "
                     f"in state {item['state']}")
    _emit(args, {"states_checked": tree.distinct_state_count,
                 "violations": violations}, lines)
    return EXIT_CHECK if violations else EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    args = PARSER.parse_args(argv)
    if args.command == "lint":
        args.func = cmd_lint
    try:
        return args.func(args)
    except (KspaceError, OSError) as exc:
        message = str(exc)
        if isinstance(exc, engine.BudgetExceeded):
            message += f" (branch prefix: {[sorted(s) for s in exc.branch]})"
        print(f"error: {message}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))
