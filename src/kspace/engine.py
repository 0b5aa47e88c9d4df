"""Single reduction steps, deterministic strategies and the exhaustive
reduction-graph explorer.

A step picks a nonempty homogeneous set ``s`` of proposals at one level
``n``, keeps everything in the state at levels <= n, adds ``s``, and
erases every atom above n.  The explorer walks every state reachable
from a root once, checking the per-state and per-edge invariants once
per distinct state and edge, and derives the figures of the reduction
tree (one node per path) from path counts instead of building it.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import (
    AtomUniverse,
    KspaceError,
    State,
    homogeneous_level,
    level_restrict,
)
from .oracle import Realizer, Valuation, is_sound, realize, truth

DEFAULT_CANDIDATE_CAP = 4096

STRATEGY_NAMES = (
    "lowest-level-first",
    "highest-level-first",
    "maximal-set-per-lowest-level",
    "seeded-random",
)


class NotHomogeneous(KspaceError):
    pass


class QuestionConflict(KspaceError):
    pass


class InvalidCandidate(KspaceError):
    pass


class CandidateExplosion(KspaceError):
    pass


class IncompleteTree(KspaceError):
    pass


class FuelExhausted(KspaceError):
    """Raised by `run` when candidates remain after the last allowed step."""

    def __init__(self, trace: list["ReductionStep"], final: State):
        self.trace = trace
        self.final = final
        super().__init__(f"fuel exhausted after {len(trace)} steps")


class BudgetExceeded(KspaceError):
    """Base for explorer budget errors; carries a shortest root path to the
    offending state and the partial graph."""

    def __init__(self, message: str, branch: list[State],
                 partial: Optional["ReductionTree"] = None):
        self.branch = branch
        self.partial = partial
        super().__init__(message)


class DepthExceeded(BudgetExceeded):
    pass


class NodeBudgetExceeded(BudgetExceeded):
    pass


@dataclass(frozen=True)
class ReductionStep:
    source: State
    chosen: State
    target: State
    level: int


@dataclass
class ReductionTree:
    """The reduction graph reachable from `root`, with the figures of the
    tree that unfolds it into one node per path.

    `states` and `edges` list each distinct state and step once, in
    discovery order.  `node_count`, `edge_count` and `edges_checked` count
    paths: tree nodes, tree edges and edges checked as if on every path.
    """

    root: State
    states: list[State] = field(default_factory=list)
    edges: list[ReductionStep] = field(default_factory=list)
    normal_forms: set[State] = field(default_factory=set)
    node_count: int = 1
    max_depth: int = 0
    complete: bool = True
    edges_checked: int = 0
    check_failures: list[tuple[ReductionStep, str]] = field(default_factory=list)

    @property
    def edge_count(self) -> int:
        return self.node_count - 1

    @property
    def distinct_state_count(self) -> int:
        return len(self.states)


def candidates_from_proposals(universe: AtomUniverse, members: State,
                              proposals: frozenset[str],
                              cap: int = DEFAULT_CANDIDATE_CAP) -> list[State]:
    """All nonempty homogeneous sub-states of a proposal set, in a fixed
    order: level ascending, then lexicographic on sorted member ids."""
    by_level: dict[int, dict[str, list[str]]] = {}
    for atom_id in proposals:
        atom = universe.atom(atom_id)
        by_level.setdefault(atom.level, {}).setdefault(atom.question, []).append(atom_id)

    total = 0
    for groups in by_level.values():
        count = 1
        for ids in groups.values():
            count *= len(ids) + 1
        total += count - 1
        if total > cap:
            raise CandidateExplosion(f"more than {cap} candidates")

    out: list[State] = []
    for level in sorted(by_level):
        groups = [sorted(ids) for ids in by_level[level].values()]
        level_sets = []
        for choice in itertools.product(*[ids + [None] for ids in groups]):
            picked = frozenset(a for a in choice if a is not None)
            if picked:
                level_sets.append(picked)
        level_sets.sort(key=lambda s: tuple(sorted(s)))
        out.extend(level_sets)
    return out


def enumerate_candidates(members: State, r: Realizer, v: Valuation,
                         cap: int = DEFAULT_CANDIDATE_CAP) -> list[State]:
    proposals = realize(r, v, members, mode="filter")
    return candidates_from_proposals(r.universe, members, proposals, cap=cap)


def apply_step(universe: AtomUniverse, members: State, chosen: State) -> State:
    """Successor state: keep levels <= n, add `chosen`, drop levels > n."""
    n = homogeneous_level(chosen, universe)
    if n is None:
        raise NotHomogeneous(f"chosen set {sorted(chosen)} is not homogeneous")
    if members & chosen:
        raise QuestionConflict(
            f"chosen atoms {sorted(members & chosen)} already in the state")
    kept = level_restrict(members, "at_or_below", n, universe)
    questions = {universe.atom(a).question for a in kept}
    for atom_id in chosen:
        if universe.atom(atom_id).question in questions:
            raise QuestionConflict(
                f"atom {atom_id!r} answers a question the state already answers")
    return kept | chosen


def step(members: State, chosen: State, r: Realizer, v: Valuation) -> ReductionStep:
    universe = r.universe
    if chosen not in enumerate_candidates(members, r, v):
        raise InvalidCandidate(f"{sorted(chosen)} is not an enumerated candidate")
    level = homogeneous_level(chosen, universe)
    assert level is not None
    return ReductionStep(
        source=members,
        chosen=chosen,
        target=apply_step(universe, members, chosen),
        level=level,
    )


def is_prefixed(members: State, r: Realizer, v: Valuation) -> bool:
    """True iff the filtered proposal set is contained in the state, which
    for a contract-satisfying realizer means it is empty."""
    return realize(r, v, members, mode="filter") <= members


# ---------------------------------------------------------------------------
# strategies

def _key(universe: AtomUniverse, s: State):
    # documented tie-break: level ascending, cardinality descending, lex ids
    return (homogeneous_level(s, universe), -len(s), tuple(sorted(s)))


def make_strategy(name: str, seed: int = 0) -> Callable[[AtomUniverse, list[State]], State]:
    """A choice procedure over the enumerated candidate list.

    `lowest-level-first` takes the first candidate in enumeration order
    (which may be non-maximal); the `maximal-set-per-lowest-level`
    variant prefers the largest candidate at the lowest level.
    """
    if name == "lowest-level-first":
        return lambda universe, cands: cands[0]
    if name == "highest-level-first":
        return lambda universe, cands: min(
            cands,
            key=lambda s: (-homogeneous_level(s, universe), -len(s),
                           tuple(sorted(s))))
    if name == "maximal-set-per-lowest-level":
        return lambda universe, cands: min(cands, key=lambda s: _key(universe, s))
    if name == "seeded-random":
        rng = random.Random(seed)
        return lambda universe, cands: rng.choice(cands)
    raise ValueError(f"unknown strategy {name!r}")


def run(members: State, r: Realizer, v: Valuation,
        strategy: Callable[[AtomUniverse, list[State]], State],
        fuel: int) -> tuple[list[ReductionStep], State]:
    """Apply the strategy's chosen candidate until none exists.

    Raises FuelExhausted (with the partial trace) if candidates remain
    after `fuel` steps.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    universe = r.universe
    trace: list[ReductionStep] = []
    current = members
    for _ in range(fuel):
        candidates = enumerate_candidates(current, r, v)
        if not candidates:
            return trace, current
        chosen = strategy(universe, candidates)
        if chosen not in candidates:
            raise InvalidCandidate("strategy chose outside the candidate set")
        edge = ReductionStep(current, chosen,
                             apply_step(universe, current, chosen),
                             homogeneous_level(chosen, universe))
        trace.append(edge)
        current = edge.target
    if enumerate_candidates(current, r, v):
        raise FuelExhausted(trace, current)
    return trace, current


# ---------------------------------------------------------------------------
# per-edge invariant suite

def check_edge(v: Valuation, edge: ReductionStep) -> list[str]:
    """Names of the per-edge invariants the edge violates (empty if clean)."""
    universe = v.universe
    X, s, Y, n = edge.source, edge.chosen, edge.target, edge.level
    fails: list[str] = []

    def lr(members, cmp, m):
        return level_restrict(members, cmp, m, universe)

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


def check_node(members: State, r: Realizer, v: Valuation) -> list[str]:
    """Pre-fixed-point triple agreement at a single state."""
    proposals = realize(r, v, members, mode="filter")
    no_candidates = not candidates_from_proposals(r.universe, members, proposals)
    contained = proposals <= members
    empty = not proposals
    if no_candidates == contained == empty:
        return []
    return ["prefixed-triple-agreement"]


# ---------------------------------------------------------------------------
# exhaustive explorer

def explore_tree(root: State, r: Realizer, v: Valuation,
                 fuel_depth: int = 10_000, max_nodes: int = 1_000_000,
                 check_lemmas: bool = True,
                 candidate_cap: int = DEFAULT_CANDIDATE_CAP) -> ReductionTree:
    """Exhaustively explore every reduction step from `root`.

    The walk is breadth-first over distinct states, one depth at a time,
    carrying the number of root paths that reach each state at that
    depth.  Each state is expanded once; with `check_lemmas`, `check_node`
    runs once per distinct state and `check_edge` once per distinct edge,
    and each failure is reported once.  The step relation is acyclic
    (a step keeps the levels below n and strictly grows level n), so the
    walk ends.

    Raises DepthExceeded when a reducible state sits at depth
    `fuel_depth`, and NodeBudgetExceeded when the tree through the next
    depth would have more than `max_nodes` nodes.  Both carry a shortest
    root path to the offending state and the partial graph.
    """
    universe = r.universe
    tree = ReductionTree(root=root, states=[root])
    parent: dict[State, Optional[State]] = {root: None}
    successors: dict[State, list[ReductionStep]] = {}

    def expand(members: State) -> list[ReductionStep]:
        try:
            return successors[members]
        except KeyError:
            pass
        if check_lemmas:
            for name in check_node(members, r, v):
                tree.check_failures.append(
                    (ReductionStep(members, frozenset(), members, 0), name))
        edges = []
        for chosen in enumerate_candidates(members, r, v, cap=candidate_cap):
            edge = ReductionStep(
                members, chosen, apply_step(universe, members, chosen),
                homogeneous_level(chosen, universe))
            if check_lemmas:
                for name in check_edge(v, edge):
                    tree.check_failures.append((edge, name))
            edges.append(edge)
        successors[members] = edges
        tree.edges.extend(edges)
        return edges

    def branch(state: Optional[State]) -> list[State]:
        rev = []
        while state is not None:
            rev.append(state)
            state = parent[state]
        return rev[::-1]

    # state -> number of root paths reaching it at the current depth
    frontier: dict[State, int] = {root: 1}
    while True:
        reducible = []
        for state in frontier:
            if expand(state):
                reducible.append(state)
            else:
                tree.normal_forms.add(state)
        if not reducible:
            return tree
        if tree.max_depth >= fuel_depth:
            tree.complete = False
            raise DepthExceeded(
                f"branch still reducible at depth {fuel_depth}",
                branch(reducible[0]), tree)
        nodes = tree.node_count
        next_frontier: dict[State, int] = {}
        for state in reducible:
            paths = frontier[state]
            nodes += paths * len(successors[state])
            if nodes > max_nodes:
                tree.complete = False
                raise NodeBudgetExceeded(
                    f"more than {max_nodes} tree nodes", branch(state), tree)
            for edge in successors[state]:
                child = edge.target
                next_frontier[child] = next_frontier.get(child, 0) + paths
                if child not in parent:
                    parent[child] = state
                    tree.states.append(child)
        if check_lemmas:
            tree.edges_checked += nodes - tree.node_count
        tree.node_count = nodes
        tree.max_depth += 1
        frontier = next_frontier


def longest_chain(tree: ReductionTree) -> int:
    """Length of the longest reduction sequence in a complete tree."""
    if not tree.complete:
        raise IncompleteTree("tree was cut off by a budget")
    return tree.max_depth


# ---------------------------------------------------------------------------
# trace export

def step_record(v: Valuation, index: int, edge: ReductionStep) -> dict:
    """One exported trace record; field names are part of the interface."""
    universe = v.universe
    dropped = level_restrict(edge.source, "above", edge.level, universe)
    return {
        "step_index": index,
        "level": edge.level,
        "chosen": sorted(edge.chosen),
        "dropped": sorted(dropped),
        "state_after": sorted(edge.target),
        "sound_after": is_sound(v, edge.target),
    }


def trace_to_jsonl(v: Valuation, trace: list[ReductionStep]) -> str:
    lines = [json.dumps(step_record(v, i, e), sort_keys=True)
             for i, e in enumerate(trace)]
    return "\n".join(lines)
