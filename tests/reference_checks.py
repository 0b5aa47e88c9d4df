"""Test-only reference: the per-edge invariant suite as it was before the
level checks ran on bit sets, kept to check that the masks change nothing
observable.

`check_edge` is the former `engine.check_edge`, with the level filters
it took from `level_restrict`'s former selectors written out in `lr`.
Each integer level costs it four frozenset filters.
"""

from __future__ import annotations

import operator

from kspace.engine import ReductionStep
from kspace.oracle import Valuation, is_sound, truth

_CMP = {"below": operator.lt, "at": operator.eq, "at_or_below": operator.le}


def check_edge(v: Valuation, edge: ReductionStep) -> list[str]:
    """Names of the per-edge invariants the edge violates (empty if clean)."""
    universe = v.universe
    X, s, Y, n = edge.source, edge.chosen, edge.target, edge.level
    fails: list[str] = []

    def lr(members, cmp, m):
        """The members whose level is "below", "at" or "at_or_below" m."""
        keep = _CMP[cmp]
        return frozenset(a for a in members if keep(universe.level_of[a], m))

    if not lr(X, "at", n) < lr(Y, "at", n):
        fails.append("at-level-strict-growth")
    if Y == X:
        fails.append("no-self-step")
    for m in range(universe.max_level() + 2):
        le_x, le_y = lr(X, "at_or_below", m), lr(Y, "at_or_below", m)
        lt_x, lt_y = lr(X, "below", m), lr(Y, "below", m)
        if m <= n and not le_x <= le_y:
            fails.append(f"low-levels-preserved[m={m}]")
        if not le_x <= le_y and lr(Y, "at", m):
            fails.append(f"lost-level-emptied[m={m}]")
        if lt_x == lt_y and m > n:
            fails.append(f"unchanged-prefix-bound[m={m}]")
        if lt_x == lt_y and not le_x <= le_y:
            fails.append(f"unchanged-prefix-growth[m={m}]")
    if len(Y) > len(X) + len(s):
        fails.append("finiteness-bound")
    if is_sound(v, X) and not is_sound(v, Y):
        fails.append("soundness-preserved")
    for atom in universe.atoms():
        if atom.level <= n and truth(v, atom.id, Y) != truth(v, atom.id, X):
            fails.append(f"truth-stability[{atom.id}]")
    return fails
