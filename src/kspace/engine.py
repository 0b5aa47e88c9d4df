"""Single reduction steps, deterministic strategies and the exhaustive
reduction-graph explorer.

A step picks a nonempty homogeneous set ``s`` of proposals at one level
``n``, keeps everything in the state at levels <= n, adds ``s``, and
erases every atom above n.  `Candidates` holds the sets a step may pick
at a state without building them; `run` and its strategies pick one set
from it, and only the explorer lists them all.  The explorer walks every
state reachable from a root once, checking the per-state and per-edge
invariants once per distinct state and edge, and derives the figures of
the reduction tree (one node per path) from path counts instead of
building it.
"""

from __future__ import annotations

import itertools
import operator
import random
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from math import prod
from typing import Callable, Optional

from .core import (
    AtomUniverse,
    KspaceError,
    State,
    homogeneous_level,
    level_restrict,
)
from .oracle import Realizer, Valuation, is_sound, realize, truth

CANDIDATE_CAP = 4096

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


class Candidates(Sequence):
    """The nonempty homogeneous sub-states of a proposal set, read-only and
    lazy, in a fixed order: level ascending, then lexicographic on sorted
    member ids.

    `proposals` is the proposal set; it is also held grouped by level and
    question.  `size`, indexing (which unranks one set) and `in` never
    build the other candidates; iteration does, and raises
    CandidateExplosion when there are more than `CANDIDATE_CAP` of them.
    `size` is the number of candidates; `len()` gives the same number but
    fails above `sys.maxsize`, which 64 proposals on 64 questions reach.
    """

    def __init__(self, universe: AtomUniverse, proposals: frozenset[str]):
        self.proposals = proposals
        by_level: dict[int, dict[str, list[str]]] = {}
        self._where: dict[str, tuple[int, str]] = {}
        for atom_id in proposals:
            atom = universe.atom(atom_id)
            by_level.setdefault(atom.level, {}).setdefault(atom.question, []).append(atom_id)
            self._where[atom_id] = (atom.level, atom.question)
        self.levels = sorted(by_level)
        # level -> the sorted ids of each of its questions
        self._groups = {level: [sorted(ids) for ids in by_level[level].values()]
                        for level in self.levels}
        self._counts = [prod(len(ids) + 1 for ids in self._groups[level]) - 1
                        for level in self.levels]
        self.size = sum(self._counts)

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.size > 0

    def __contains__(self, s) -> bool:
        if not isinstance(s, (set, frozenset)) or not s or not s <= self._where.keys():
            return False
        # one (level, question) pair per id: at most one id per question
        places = {self._where[atom_id] for atom_id in s}
        return len(places) == len(s) and len({level for level, _ in places}) == 1

    def __getitem__(self, index: int) -> State:
        i = operator.index(index)
        if i < 0:
            i += self.size
        if not 0 <= i < self.size:
            raise IndexError("candidate index out of range")
        for level, count in zip(self.levels, self._counts):
            if i < count:
                return self._unrank(self._groups[level], i)
            i -= count
        raise AssertionError("unreachable")

    @staticmethod
    def _unrank(groups: list[list[str]], rank: int) -> State:
        """The rank-th nonempty set, in lexicographic order, that takes at
        most one id from each group."""
        ids = sorted((atom_id, q) for q, group in enumerate(groups)
                     for atom_id in group)
        # left[q]: ids of a free question q at or after the scan position;
        # free: sets (empty included) of ids at or after it on free questions
        left = [len(group) for group in groups]
        free = prod(n + 1 for n in left)
        used: set[int] = set()
        picked = []
        for atom_id, q in ids:
            if q in used:
                continue
            # sets that extend the picked prefix by atom_id first
            without_q = free // (left[q] + 1)
            left[q] -= 1
            if rank < without_q:
                picked.append(atom_id)
                if rank == 0:
                    return frozenset(picked)
                rank -= 1
                used.add(q)
                free = without_q
            else:
                rank -= without_q
                free = without_q * (left[q] + 1)
        raise AssertionError("rank out of range")

    def __iter__(self) -> Iterator[State]:
        # checked on iter(), which list() calls before it asks len()
        if self.size > CANDIDATE_CAP:
            raise CandidateExplosion(f"more than {CANDIDATE_CAP} candidates")
        return itertools.chain.from_iterable(
            self._level_sets(self._groups[level]) for level in self.levels)

    @staticmethod
    def _level_sets(groups: list[list[str]]) -> list[State]:
        level_sets = []
        for choice in itertools.product(*[ids + [None] for ids in groups]):
            picked = frozenset(a for a in choice if a is not None)
            if picked:
                level_sets.append(picked)
        level_sets.sort(key=lambda s: tuple(sorted(s)))
        return level_sets

    def smallest_per_question(self, level: int) -> State:
        """The smallest proposed id of each question at `level`."""
        return frozenset(ids[0] for ids in self._groups[level])


def candidates_from_proposals(universe: AtomUniverse,
                              proposals: frozenset[str]) -> Candidates:
    """The candidates of a proposal set, as a lazy `Candidates` sequence."""
    return Candidates(universe, proposals)


def _candidates(members: State, r: Realizer, v: Valuation) -> Candidates:
    proposals = realize(r, v, members, mode="filter")
    return candidates_from_proposals(r.universe, proposals)


def enumerate_candidates(members: State, r: Realizer, v: Valuation) -> list[State]:
    """Every candidate at a state, as a list; raises CandidateExplosion when
    there are more than `CANDIDATE_CAP`."""
    return list(_candidates(members, r, v))


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
    if chosen not in _candidates(members, r, v):
        raise InvalidCandidate(f"{sorted(chosen)} is not a candidate")
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

def make_strategy(name: str, seed: int = 0) -> Callable[[Candidates], State]:
    """A choice procedure over the candidates of a state.

    `lowest-level-first` takes the first candidate in enumeration order
    (which may be non-maximal).  `maximal-set-per-lowest-level` and
    `highest-level-first` take, at the lowest or the highest level, the
    largest candidate, lexicographically first among those: the smallest
    proposed id of each question.  `seeded-random` draws one candidate
    uniformly with `random.Random(seed)`.  None of them builds the list
    of candidates.
    """
    # A largest candidate at a level takes one id from every question.  The
    # sorted tuple of the per-question minima is pointwise <= that of any
    # other such set (its j smallest ids answer j questions, so j minima lie
    # at or below its j-th id), hence lexicographically first.
    if name == "lowest-level-first":
        return lambda cands: cands[0]
    if name == "highest-level-first":
        return lambda cands: cands.smallest_per_question(cands.levels[-1])
    if name == "maximal-set-per-lowest-level":
        return lambda cands: cands.smallest_per_question(cands.levels[0])
    if name == "seeded-random":
        rng = random.Random(seed)
        # rng.choice(seq) is seq[rng._randbelow(len(seq))] and randrange(n)
        # is rng._randbelow(n), so this draws what rng.choice(list(cands))
        # draws, without the list and without len()'s sys.maxsize limit
        return lambda cands: cands[rng.randrange(cands.size)]
    raise ValueError(f"unknown strategy {name!r}")


def run(members: State, r: Realizer, v: Valuation,
        strategy: Callable[[Candidates], State],
        fuel: int) -> tuple[list[ReductionStep], State]:
    """Apply the strategy's chosen candidate until none exists.

    The candidates are never enumerated, so no candidate cap applies.
    Raises FuelExhausted (with the partial trace) if candidates remain
    after `fuel` steps.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    universe = r.universe
    trace: list[ReductionStep] = []
    current = members
    for _ in range(fuel):
        candidates = _candidates(current, r, v)
        if not candidates:
            return trace, current
        chosen = strategy(candidates)
        if chosen not in candidates:
            raise InvalidCandidate("strategy chose outside the candidate set")
        edge = ReductionStep(current, chosen,
                             apply_step(universe, current, chosen),
                             homogeneous_level(chosen, universe))
        trace.append(edge)
        current = edge.target
    if _candidates(current, r, v):
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


def check_node(members: State, r: Realizer, v: Valuation, *,
               candidates: Optional[Candidates] = None) -> list[str]:
    """Pre-fixed-point triple agreement at a single state.

    `candidates` are the state's candidates when the caller has already
    built them; otherwise the state is realized here.
    """
    if candidates is None:
        candidates = _candidates(members, r, v)
    proposals = candidates.proposals
    no_candidates = not candidates
    contained = proposals <= members
    empty = not proposals
    if no_candidates == contained == empty:
        return []
    return ["prefixed-triple-agreement"]


# ---------------------------------------------------------------------------
# exhaustive explorer

def explore_tree(root: State, r: Realizer, v: Valuation,
                 fuel_depth: int = 10_000, max_nodes: int = 1_000_000,
                 check_lemmas: bool = True) -> ReductionTree:
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
        candidates = _candidates(members, r, v)
        if check_lemmas:
            for name in check_node(members, r, v, candidates=candidates):
                tree.check_failures.append(
                    (ReductionStep(members, frozenset(), members, 0), name))
        edges = []
        for chosen in candidates:
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
