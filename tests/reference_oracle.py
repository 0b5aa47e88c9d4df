"""Test-only reference: `truth`, `is_sound` and `realize` as they were
before masked views were shared, kept to check that sharing changes
nothing observable.

Each truth evaluation here builds its own masked `StateView` (and so its
own `answered` memo); the `oracle` functions share one view per level
cap within a call.  Levels and questions are looked up in a table built
from the universe's `atoms()` rows (`reference_steps.atom_table`).
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

from reference_steps import atom_table


def truth(v: Valuation, atom_id: str, members: State) -> bool:
    level = atom_table(v.universe)[atom_id][1]
    view = StateView(v.universe, members, level_cap=level)
    return bool(v.fn(atom_id, view))


def is_sound(v: Valuation, members: State) -> bool:
    return all(truth(v, a, members) for a in members)


def realize(r: Realizer, v: Valuation, members: State) -> Proposals:
    universe = r.universe
    atoms = atom_table(universe)
    view = StateView(universe, members)
    kept, dropped = [], []
    for atom_id in sorted(r.propose(view)):
        if view.answered(atoms[atom_id][0]):
            dropped.append((atom_id, CLAUSE_ANSWERED))
        elif truth(v, atom_id, members):
            kept.append(atom_id)
        else:
            dropped.append((atom_id, CLAUSE_UNTRUE))
    return Proposals(kept, dropped[0] if dropped else None)
