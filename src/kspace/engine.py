"""Single reduction steps, deterministic strategies and the exhaustive
reduction-graph explorer.

A step picks a nonempty homogeneous set ``s`` of proposals at one level
``n``, keeps everything in the state at levels <= n, adds ``s``, and
erases every atom above n.  `apply_step` is the one place a chosen set is
checked to be such a step and its level computed.  `Candidates` holds the
sets a step may pick at a state without building them; `run` and its
strategies pick one set from it, and only the explorer lists them all.
A step is a `ReductionStep`, a tuple record.  The explorer expands every
state reachable from a root once, breadth-first, checking the per-state
and per-edge invariants once per distinct state and edge; one pass in
topological order then counts each state's root paths, from which it
derives the figures of the reduction tree (one node per path) instead of
building it.  So an exploration costs what its distinct states and edges
cost, not what its paths cost.  A budget error carries the explored graph
cut to the states that a walk one depth at a time reached.
"""

from __future__ import annotations

import itertools
import operator
import random
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from math import prod
from typing import Callable, NamedTuple, Optional

from .core import (
    AtomUniverse,
    KspaceError,
    State,
    _ById,
    homogeneous_level,
    level_restrict,
)
from .oracle import Realizer, TruthMemo, Valuation, is_sound, realize, truth

CANDIDATE_CAP = 4096
DEPTH_BUDGET = 10_000
NODE_BUDGET = 1_000_000

STRATEGY_NAMES = (
    "lowest-level-first",
    "highest-level-first",
    "maximal-set-per-lowest-level",
    "seeded-random",
)


class InvalidCandidate(KspaceError):
    pass


class NotHomogeneous(InvalidCandidate):
    pass


class QuestionConflict(InvalidCandidate):
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
    """Base for explorer budget errors; carries `partial`, the explored
    graph cut to the walk's states (see `explore_tree`), and `branch`, its
    shortest root path to the offending state (`partial.path(branch[-1])`)."""

    def __init__(self, message: str, branch: list[State],
                 partial: "ReductionTree"):
        self.branch = branch
        self.partial = partial
        super().__init__(message)


class DepthExceeded(BudgetExceeded):
    pass


class NodeBudgetExceeded(BudgetExceeded):
    pass


class ReductionStep(NamedTuple):
    """One step: `apply_step` adds `chosen` to `source`, whose atoms above
    `level` it drops, and gives `target`.  A tuple record, so it also
    unpacks and compares equal to the plain 4-tuple of its fields."""

    source: State
    chosen: State
    target: State
    level: int


@dataclass
class ReductionTree:
    """The reduction graph reachable from a root, with the figures of the
    tree that unfolds it into one node per path.

    `parent` maps each distinct state, in discovery order, to the state it
    was first reached from (the root maps to None); `successors` maps each
    expanded state, in expansion order, to its steps.  `node_count` and
    `edge_count` count paths: tree nodes and tree edges.  `violations` maps
    each state to its `Proposals.violation`, if any.
    """

    parent: dict[State, Optional[State]]
    successors: dict[State, list[ReductionStep]] = field(default_factory=dict)
    node_count: int = 1
    max_depth: int = 0
    check_failures: list[tuple[ReductionStep, str]] = field(default_factory=list)
    violations: dict[State, tuple[str, str]] = field(default_factory=dict)

    @property
    def edge_count(self) -> int:
        return self.node_count - 1

    @property
    def distinct_state_count(self) -> int:
        return len(self.parent)

    @property
    def normal_forms(self) -> set[State]:
        """The expanded states that have no steps."""
        return {state for state, edges in self.successors.items() if not edges}

    def path(self, state: State) -> list[State]:
        """A shortest path from the root to `state`, both included."""
        rev = []
        while state is not None:
            rev.append(state)
            state = self.parent[state]
        return rev[::-1]


class Candidates(Sequence):
    """The nonempty homogeneous sub-states of a proposal set, read-only and
    lazy, in a fixed order: level ascending, then lexicographic on sorted
    member ids.

    `proposals` is the proposal set; it is also held grouped by level and
    question.  `size` and indexing (which unranks one set) never build the
    other candidates; iteration does, and raises CandidateExplosion when
    there are more than `CANDIDATE_CAP` of them.
    `size` is the number of candidates; `len()` gives the same number but
    fails above `sys.maxsize`, which 64 proposals on 64 questions reach.
    """

    def __init__(self, universe: AtomUniverse, proposals: frozenset[str]):
        self.proposals = proposals
        question_of, level_of = universe.question_of, universe.level_of
        by_question: dict[str, list[str]] = {}
        for atom_id in proposals:
            by_question.setdefault(question_of[atom_id], []).append(atom_id)
        # level -> the sorted ids of each of its questions
        self._groups: dict[int, list[list[str]]] = {}
        for ids in by_question.values():
            self._groups.setdefault(level_of[ids[0]], []).append(sorted(ids))
        self.levels = sorted(self._groups)
        self._counts = [prod(len(ids) + 1 for ids in self._groups[level]) - 1
                        for level in self.levels]
        self.size = sum(self._counts)

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.size > 0

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
        if len(groups) == 1:
            # one question: its singletons, already in id order
            return [frozenset((atom_id,)) for atom_id in groups[0]]
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


def apply_step(universe: AtomUniverse, members: State,
               chosen: State) -> ReductionStep:
    """The step that adds `chosen` to the state: keep levels <= n, add
    `chosen`, drop levels > n, where n is the level of `chosen`.  Raises
    NotHomogeneous or QuestionConflict, both InvalidCandidate, when
    `chosen` is not a nonempty one-level set that answers only questions
    the kept state leaves open, each once."""
    n = homogeneous_level(chosen, universe)
    if n is None:
        raise NotHomogeneous(f"chosen set {sorted(chosen)} is not homogeneous")
    # a chosen atom already in the state is kept: its question is answered
    kept = level_restrict(members, n, universe)
    question_of = universe.question_of
    questions = set(map(question_of.__getitem__, chosen))
    if len(questions) < len(chosen) or (kept and not questions.isdisjoint(
            map(question_of.__getitem__, kept))):
        # name the first chosen atom, in iteration order, whose question
        # is answered already
        questions = set(map(question_of.__getitem__, kept))
        for atom_id in chosen:
            question = question_of[atom_id]
            if question in questions:
                raise QuestionConflict(
                    f"atom {atom_id!r} answers question {question!r}, which the "
                    f"kept state or another chosen atom already answers")
            questions.add(question)
    return ReductionStep(members, chosen, kept | chosen, n)


def is_prefixed(members: State, r: Realizer, v: Valuation,
                memo: Optional[TruthMemo] = None) -> bool:
    """True iff the filtered proposal set is contained in the state, which
    for a contract-satisfying realizer means it is empty."""
    return realize(r, v, members, memo) <= members


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
        strategy: Callable[[Candidates], State], fuel: int,
        memo: Optional[TruthMemo] = None) -> tuple[list[ReductionStep], State]:
    """Apply the strategy's chosen candidate until none exists.

    The candidates are never enumerated, so no candidate cap applies.  A
    chosen set must be a set of the state's proposals; `apply_step` checks
    the rest and raises InvalidCandidate when it is no candidate (the
    proposals answer only open questions, so a set of them is a candidate
    iff it is a step).  Each state is realized once, at the top of the
    loop: the run ends there when it has no candidates, and raises
    FuelExhausted (with the partial trace) when it still has some after
    `fuel` steps.  `realize` reads its verdicts from `memo`, a fresh
    `TruthMemo` unless the caller passes one to share.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    universe = r.universe
    memo = TruthMemo(universe) if memo is None else memo
    trace: list[ReductionStep] = []
    current = members
    while True:
        candidates = candidates_from_proposals(universe, realize(r, v, current, memo))
        if not candidates:
            return trace, current
        if len(trace) == fuel:
            raise FuelExhausted(trace, current)
        chosen = strategy(candidates)
        if not (isinstance(chosen, (set, frozenset))
                and chosen <= candidates.proposals):
            raise InvalidCandidate("strategy chose outside the candidate set")
        edge = apply_step(universe, current, chosen)
        trace.append(edge)
        current = edge.target


# ---------------------------------------------------------------------------
# per-edge invariant suite

class TruthRecord:
    """The truth values of atoms in one state, each evaluated at most once,
    on demand, by `truth` on the exact state (never on a masked one, so
    truth stability still tests the level mask).  `bits`, `known` and
    `true` are bit sets in the order of `ids` (see `TruthRecords`): the
    state's members, the atoms evaluated so far and those of them that
    are true."""

    __slots__ = ("v", "members", "ids", "bits", "known", "true")

    def __init__(self, v: Valuation, members: State, ids: list[str], bits: int):
        self.v = v
        self.members = members
        self.ids = ids
        self.bits = bits
        self.known = self.true = 0

    def true_of(self, wanted: int) -> int:
        """The bits of `wanted` whose atoms are true in the state."""
        missing = wanted & ~self.known
        if missing:
            v, members, ids = self.v, self.members, self.ids
            true, rest = 0, missing
            while rest:
                low = rest & -rest
                if truth(v, ids[low.bit_length() - 1], members):
                    true |= low
                rest ^= low
            self.true |= true
            self.known |= missing
        return self.true & wanted


class TruthRecords(dict):
    """State -> its `TruthRecord`, made on first lookup.

    Each atom owns one bit, its position in `ids`, the atom ids sorted by
    level and then id; `levels` holds their levels and `bit` maps an id to
    its bit (UnknownAtom for any other id).  So the atoms at level n or
    below are a prefix of the bits for any integer n (`at_or_below`).
    """

    def __init__(self, v: Valuation):
        super().__init__()
        self.v = v
        pairs = sorted((level, atom_id)
                       for atom_id, level in v.universe.level_of.items())
        self.levels = [level for level, _ in pairs]
        self.ids = [atom_id for _, atom_id in pairs]
        self.bit: dict[str, int] = _ById(
            {atom_id: 1 << i for i, atom_id in enumerate(self.ids)})

    def __missing__(self, members: State) -> TruthRecord:
        # distinct ids own distinct bits, so their sum is their union
        bits = sum(map(self.bit.__getitem__, members))
        record = self[members] = TruthRecord(self.v, members, self.ids, bits)
        return record

    def at_or_below(self, n: int) -> int:
        """The bits of the atoms at level n or below (0 for n < 0)."""
        return (1 << bisect_right(self.levels, n)) - 1


def check_edge(v: Valuation, edge: ReductionStep, *,
               records: TruthRecords) -> list[str]:
    """Names of the per-edge invariants the edge violates (empty if clean).

    The level checks run on the bit sets of X and Y, whose atoms at or
    below any level are a prefix mask (`TruthRecords.at_or_below`), at
    every integer level m from 0 to one above the top level, unless three
    mask tests show that none of them can fail.  Soundness preservation
    and truth stability read the truth bits of X and Y from `records`,
    which a caller checking many edges keeps across calls so that each
    state's bit set is built once and each (state, atom) pair is
    evaluated at most once.
    """
    X, s, Y, n = edge.source, edge.chosen, edge.target, edge.level
    fails: list[str] = []
    record_x, record_y = records[X], records[Y]
    x, y = record_x.bits, record_y.bits

    # le_n: every atom at or below n; at_n: every atom at n
    le_n = records.at_or_below(n)
    at_n = le_n & ~records.at_or_below(n - 1)
    x_n, y_n = x & at_n, y & at_n
    if x_n & ~y_n or x_n == y_n:
        fails.append("at-level-strict-growth")
    if Y == X:
        fails.append("no-self-step")
    # No level check can fail when X and Y differ at or below n (no prefix
    # above n is unchanged), X loses nothing at or below n and Y holds
    # nothing above n (no level loses an atom that a check could name).
    if not ((x ^ y) & le_n and not x & le_n & ~y and not y & ~le_n):
        # lt_*: the atoms of X and Y below m; le_*: at or below m
        lt_x = lt_y = 0
        for m in range(v.universe.max_level() + 2):
            le_m = records.at_or_below(m)
            le_x, le_y = x & le_m, y & le_m
            lost = le_x & ~le_y
            if m <= n and lost:
                fails.append(f"low-levels-preserved[m={m}]")
            if lost and le_y != lt_y:
                fails.append(f"lost-level-emptied[m={m}]")
            if lt_x == lt_y and m > n:
                fails.append(f"unchanged-prefix-bound[m={m}]")
            if lt_x == lt_y and lost:
                fails.append(f"unchanged-prefix-growth[m={m}]")
            lt_x, lt_y = le_x, le_y
    if len(Y) > len(X) + len(s):
        fails.append("finiteness-bound")
    # a state is sound when all of its members are true in it
    if not x & ~record_x.true_of(x) and y & ~record_y.true_of(y):
        fails.append("soundness-preserved")
    changed = record_x.true_of(le_n) ^ record_y.true_of(le_n)
    if changed:
        fails.extend(f"truth-stability[{atom_id}]" for atom_id in sorted(
            atom_id for i, atom_id in enumerate(records.ids) if changed >> i & 1))
    return fails


def check_node(members: State, candidates: Candidates) -> list[str]:
    """Pre-fixed-point triple agreement at a single state, whose
    candidates are `candidates`."""
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
                 fuel_depth: int = DEPTH_BUDGET, max_nodes: int = NODE_BUDGET,
                 check_lemmas: bool = True) -> ReductionTree:
    """Exhaustively explore every reduction step from `root`.

    The expansion pass is breadth-first and expands each distinct state
    once, in discovery order: it is realized once, and `apply_step` builds
    each edge from a candidate, the one place the edge's level is
    computed.  With `check_lemmas`, `check_node` runs once per distinct
    state and `check_edge` once per distinct edge, and each failure is
    reported once.  The edge checks share one `TruthRecords` for the call,
    built at the first edge, so each state's bit set is built once and each (state, atom) pair is
    evaluated at most once per exploration.  The graph is written straight
    into the returned tree: each state's first parent into `parent`, each
    state's steps into `successors`.  The counting pass then takes the
    states in topological order, one layer of Kahn's algorithm at a time,
    and adds up each state's root paths: `node_count` is their sum and
    `max_depth` the last layer's index, the longest root path.  The step
    relation is acyclic (a step keeps the levels below n and strictly
    grows level n), so every state is counted.

    Raises DepthExceeded when a reducible state sits at depth
    `fuel_depth`, and NodeBudgetExceeded when the tree through the next
    depth would have more than `max_nodes` nodes.  Either pass stops once
    such an error is certain: the expansion pass at `max_nodes` distinct
    steps or at a reducible state first reached at depth `fuel_depth`,
    the counting pass when its totals break a budget.  `_explore_by_depth`
    then finds the error.  It reaches and expands states in the expansion
    pass's order (a state first reached at depth d+1 has a step into it
    from one first reached at depth d), so the error's `partial` is the
    explored graph cut to the walk's states and its last complete depth.
    A budget below the root's own (`max_nodes=0`, `fuel_depth=-1`) raises
    at a reducible root and returns the one-node tree of a normal form.
    """
    universe = r.universe
    tree = ReductionTree(parent={root: None})
    # built at the first edge checked: a normal-form root checks none
    records: Optional[TruthRecords] = None

    def expand(members: State) -> list[ReductionStep]:
        nonlocal records
        candidates = candidates_from_proposals(universe, realize(r, v, members))
        if candidates.proposals.violation is not None:
            tree.violations[members] = candidates.proposals.violation
        edges = [apply_step(universe, members, chosen) for chosen in candidates]
        if check_lemmas:
            for name in check_node(members, candidates):
                tree.check_failures.append(
                    (ReductionStep(members, frozenset(), members, 0), name))
            if edges and records is None:
                records = TruthRecords(v)
            for edge in edges:
                for name in check_edge(v, edge, records=records):
                    tree.check_failures.append((edge, name))
        tree.successors[members] = edges
        return edges

    # state -> number of steps into it found so far
    parent, in_degree = tree.parent, {root: 0}
    # each distinct step is on a root path, so the tree has more than
    # `steps` nodes
    level, depth, steps = [root], 0, 0
    while level:
        next_level = []
        for state in level:
            edges = expand(state)
            if not edges:
                continue
            steps += len(edges)
            if depth >= fuel_depth or steps >= max_nodes:
                return _explore_by_depth(tree, expand, fuel_depth, max_nodes)
            for edge in edges:
                child = edge.target
                if child in in_degree:
                    in_degree[child] += 1
                else:
                    in_degree[child] = 1
                    parent[child] = state
                    next_level.append(child)
        level = next_level
        depth += 1

    # state -> number of root paths reaching it
    successors, paths = tree.successors, dict.fromkeys(parent, 0)
    paths[root] = 1
    layer = [root]
    while True:
        next_layer = []
        for state in layer:
            count = paths[state]
            for edge in successors[state]:
                child = edge.target
                paths[child] += count
                in_degree[child] -= 1
                if not in_degree[child]:
                    next_layer.append(child)
        if not next_layer:
            break
        tree.max_depth += 1
        layer = next_layer
    tree.node_count = sum(paths.values())
    if tree.node_count > max_nodes or tree.max_depth > fuel_depth:
        return _explore_by_depth(tree, expand, fuel_depth, max_nodes)
    return tree


def _explore_by_depth(tree: ReductionTree,
                      expand: Callable[[State], list[ReductionStep]],
                      fuel_depth: int, max_nodes: int) -> ReductionTree:
    """Walk the graph one depth at a time, carrying each state's number of
    root paths at that depth, to find the state that tips a budget.  Expand
    only states not yet expanded, and cut the tree to the walk's `parent`
    map and states before returning it or raising the budget error."""
    root = next(iter(tree.parent))
    tree.parent, tree.node_count, tree.max_depth = {root: None}, 1, 0
    successors, walked = tree.successors, set()
    # state -> number of root paths reaching it at the current depth
    frontier: dict[State, int] = {root: 1}
    try:
        while True:
            walked.update(frontier)
            reducible = [state for state in frontier
                         if (successors[state] if state in successors
                             else expand(state))]
            if not reducible:
                return tree
            if tree.max_depth >= fuel_depth:
                raise DepthExceeded(
                    f"branch still reducible at depth {fuel_depth}",
                    tree.path(reducible[0]), tree)
            nodes = tree.node_count
            next_frontier: dict[State, int] = {}
            for state in reducible:
                paths = frontier[state]
                nodes += paths * len(successors[state])
                if nodes > max_nodes:
                    raise NodeBudgetExceeded(f"more than {max_nodes} tree nodes",
                                             tree.path(state), tree)
                for edge in successors[state]:
                    child = edge.target
                    next_frontier[child] = next_frontier.get(child, 0) + paths
                    tree.parent.setdefault(child, state)
            tree.node_count = nodes
            tree.max_depth += 1
            frontier = next_frontier
    finally:
        tree.successors = {s: edges for s, edges in successors.items() if s in walked}
        tree.check_failures = [(edge, name) for edge, name in tree.check_failures
                               if edge.source in walked]
        tree.violations = {s: x for s, x in tree.violations.items() if s in walked}


# ---------------------------------------------------------------------------
# trace export

def step_record(v: Valuation, index: int, edge: ReductionStep,
                memo: Optional[TruthMemo] = None) -> dict:
    """One exported trace record; field names are part of the interface.

    `edge` is a step `apply_step` built: its target is the source's atoms
    at levels <= n plus chosen atoms at level n, so its `dropped` atoms,
    source minus target, are exactly the source's atoms above n."""
    return {
        "step_index": index,
        "level": edge.level,
        "chosen": sorted(edge.chosen),
        "dropped": sorted(edge.source - edge.target),
        "state_after": sorted(edge.target),
        "sound_after": is_sound(v, edge.target, memo),
    }
