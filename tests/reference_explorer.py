"""Test-only reference: the path-by-path explorer that `explore_tree`
replaced, kept to check that the state-graph walk changes nothing
observable.

`explore_tree_by_paths` is the former `engine.explore_tree` verbatim,
except that its thread-pool branch (`parallel=True`, never the default)
and its candidate-cap parameter (the cap is now a constant) are left
out.  It builds one `TreeNode` per path and re-checks every edge
on every path that reaches it, so its cost grows with the number of
paths: keep its inputs small.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from kspace.core import State, homogeneous_level
from kspace.engine import (
    DepthExceeded,
    NodeBudgetExceeded,
    ReductionStep,
    apply_step,
    check_edge,
    check_node,
    enumerate_candidates,
)
from kspace.oracle import Realizer, Valuation


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
            for name in check_node(members, r, v):
                tree.check_failures.append(
                    (ReductionStep(members, frozenset(), members, 0), name))
        edges = []
        for chosen in enumerate_candidates(members, r, v):
            edges.append(ReductionStep(
                members, chosen, apply_step(universe, members, chosen),
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
                    for name in check_edge(v, edge):
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
