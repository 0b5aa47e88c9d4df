"""Test-only references: the two explorers that `explore_tree` replaced,
kept to check that the state-graph walk changes nothing observable.

`explore_tree_by_paths` is the first `engine.explore_tree` verbatim,
except that its thread-pool branch (`parallel=True`, never the default)
and its candidate-cap parameter (the cap is now a constant) are left
out.  `enumerate_candidates` is the former engine function of that name.
It builds one `TreeNode` per path and re-checks every edge
on every path that reaches it, so its cost grows with the number of
paths: keep its inputs small.

`explore_tree_by_depth` is the second `engine.explore_tree` verbatim: a
walk over distinct states one depth at a time, carrying path counts, that
visits a state once per depth at which a root path reaches it.  It is the
reference for budget errors, whose type, message, branch and partial
graph `explore_tree` must reproduce exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from kspace.core import State, homogeneous_level
from kspace.engine import (
    Candidates,
    DepthExceeded,
    NodeBudgetExceeded,
    ReductionStep,
    ReductionTree,
    TruthRecords,
    apply_step,
    candidates_from_proposals,
    check_edge,
    check_node,
)
from kspace.oracle import Realizer, Valuation, realize


def enumerate_candidates(members: State, r: Realizer, v: Valuation) -> list[State]:
    return list(Candidates(r.universe, realize(r, v, members)))


@dataclass
class TreeNode:
    state: State
    depth: int
    parent: Optional[int]  # index into PathTree.nodes
    duplicate: bool


@dataclass
class PathTree:
    root: State
    nodes: list[TreeNode] = field(default_factory=list)
    edges: list[ReductionStep] = field(default_factory=list)
    normal_forms: set[State] = field(default_factory=set)
    max_depth: int = 0
    complete: bool = True
    edges_checked: int = 0
    check_failures: list[tuple[ReductionStep, str]] = field(default_factory=list)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def distinct_state_count(self) -> int:
        return len({n.state for n in self.nodes})

    def branch_to(self, index: int) -> list[State]:
        """Root-to-node list of states for the node at `index`."""
        rev = []
        cur: Optional[int] = index
        while cur is not None:
            rev.append(self.nodes[cur].state)
            cur = self.nodes[cur].parent
        return rev[::-1]


def explore_tree_by_paths(root: State, r: Realizer, v: Valuation,
                          fuel_depth: int = 10_000, max_nodes: int = 1_000_000,
                          check_lemmas: bool = True) -> PathTree:
    universe = r.universe
    tree = PathTree(root=root)
    tree.nodes.append(TreeNode(root, 0, None, duplicate=False))
    seen = {root}
    # memoized per-state expansion keeps duplicate nodes cheap
    expansions: dict[State, list[ReductionStep]] = {}

    def expand(members: State) -> list[ReductionStep]:
        try:
            return expansions[members]
        except KeyError:
            pass
        if check_lemmas:
            for name in check_node(
                    members, Candidates(universe, realize(r, v, members))):
                tree.check_failures.append(
                    (ReductionStep(members, frozenset(), members, 0), name))
        edges = []
        for chosen in enumerate_candidates(members, r, v):
            edges.append(ReductionStep(
                members, chosen, apply_step(universe, members, chosen).target,
                homogeneous_level(chosen, universe)))
        expansions[members] = edges
        return edges

    frontier = [0]
    depth = 0
    while frontier:
        states = [tree.nodes[i].state for i in frontier]
        results = [expand(s) for s in states]
        next_frontier: list[int] = []
        for node_index, out_edges in zip(frontier, results):
            node = tree.nodes[node_index]
            if not out_edges:
                tree.normal_forms.add(node.state)
                continue
            if node.depth >= fuel_depth:
                tree.complete = False
                raise DepthExceeded(
                    f"branch still reducible at depth {fuel_depth}",
                    tree.branch_to(node_index), tree)
            for edge in out_edges:
                if len(tree.nodes) >= max_nodes:
                    tree.complete = False
                    raise NodeBudgetExceeded(
                        f"more than {max_nodes} tree nodes",
                        tree.branch_to(node_index), tree)
                tree.edges.append(edge)
                if check_lemmas:
                    tree.edges_checked += 1
                    for name in check_edge(v, edge, records=TruthRecords(v)):
                        tree.check_failures.append((edge, name))
                child = TreeNode(edge.target, node.depth + 1, node_index,
                                 duplicate=edge.target in seen)
                seen.add(edge.target)
                tree.nodes.append(child)
                next_frontier.append(len(tree.nodes) - 1)
        if next_frontier:
            depth += 1
            tree.max_depth = depth
        frontier = next_frontier
    return tree


def explore_tree_by_depth(root: State, r: Realizer, v: Valuation,
                          fuel_depth: int = 10_000, max_nodes: int = 1_000_000,
                          check_lemmas: bool = True) -> ReductionTree:
    universe = r.universe
    tree = ReductionTree(parent={root: None})
    records = TruthRecords(v) if check_lemmas else None

    def expand(members: State) -> list[ReductionStep]:
        try:
            return tree.successors[members]
        except KeyError:
            pass
        candidates = candidates_from_proposals(universe, realize(r, v, members))
        if candidates.proposals.violation is not None:
            tree.violations[members] = candidates.proposals.violation
        if check_lemmas:
            for name in check_node(members, candidates):
                tree.check_failures.append(
                    (ReductionStep(members, frozenset(), members, 0), name))
        edges = [apply_step(universe, members, chosen) for chosen in candidates]
        if check_lemmas:
            for edge in edges:
                for name in check_edge(v, edge, records=records):
                    tree.check_failures.append((edge, name))
        tree.successors[members] = edges
        return edges

    # state -> number of root paths reaching it at the current depth
    frontier: dict[State, int] = {root: 1}
    while True:
        reducible = [state for state in frontier if expand(state)]
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
            nodes += paths * len(tree.successors[state])
            if nodes > max_nodes:
                raise NodeBudgetExceeded(
                    f"more than {max_nodes} tree nodes", tree.path(state), tree)
            for edge in tree.successors[state]:
                child = edge.target
                next_frontier[child] = next_frontier.get(child, 0) + paths
                tree.parent.setdefault(child, state)
        tree.node_count = nodes
        tree.max_depth += 1
        frontier = next_frontier
