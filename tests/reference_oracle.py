"""Test-only reference: `truth`, `is_sound` and `realize` as they were
before masked views were shared, kept to check that sharing changes
nothing observable.

Each truth evaluation here builds its own masked `StateView` (and so its
own `answered` memo); the `oracle` functions share one view per level
cap within a call.
"""

from __future__ import annotations

from kspace.core import State
from kspace.oracle import (
    CLAUSE_ANSWERED,
    CLAUSE_UNTRUE,
    Proposals,
    Realizer,
    StateView,
    Valuation,
)


def truth(v: Valuation, atom_id: str, members: State) -> bool:
    atom = v.universe.atom(atom_id)
    view = StateView(v.universe, members, level_cap=atom.level)
    return v.evaluate(atom, view)


def is_sound(v: Valuation, members: State) -> bool:
    return all(truth(v, a, members) for a in members)


def realize(r: Realizer, v: Valuation, members: State) -> Proposals:
    universe = r.universe
    view = StateView(universe, members)
    kept, dropped = [], []
    for atom_id in sorted(r.propose(view)):
        if view.answered(universe.atom(atom_id).question):
            dropped.append((atom_id, CLAUSE_ANSWERED))
        elif truth(v, atom_id, members):
            kept.append(atom_id)
        else:
            dropped.append((atom_id, CLAUSE_UNTRUE))
    return Proposals(kept, dropped[0] if dropped else None)
