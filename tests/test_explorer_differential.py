"""The state-graph explorer against the path-by-path reference explorer:
identical statistics, normal forms and budget errors; and the failures it
finds through its truth records against the reference edge checks."""

import pytest

from kspace.engine import (
    BudgetExceeded,
    DepthExceeded,
    NodeBudgetExceeded,
    explore_tree,
)
from kspace.instances import builtin_t3, gen_cascade, gen_random, load_instance
from kspace.oracle import Valuation

import reference_checks
from conftest import edges_of, fs
from reference_explorer import explore_tree_by_depth, explore_tree_by_paths
from test_acceptance import _fuzz_params
from test_check_differential import _parity_valuation
from test_lint_differential import _mutant_doc


def _stats(tree):
    return (tree.node_count, tree.edge_count, tree.max_depth,
            tree.distinct_state_count, tree.normal_forms)


def _assert_same_graph(graph, paths):
    assert _stats(graph) == _stats(paths)
    # the reference checks each edge once per path through it
    assert paths.edges_checked == graph.edge_count
    assert list(graph.parent) == list(dict.fromkeys(n.state for n in paths.nodes))
    assert edges_of(graph) == list(dict.fromkeys(paths.edges))
    assert len(set(graph.check_failures)) == len(graph.check_failures)
    assert set(graph.check_failures) == set(paths.check_failures)


def _explore_both(inst, **budget):
    outcomes = []
    for explore in (explore_tree, explore_tree_by_paths):
        try:
            outcomes.append(explore(fs(), inst.realizer, inst.valuation, **budget))
        except BudgetExceeded as exc:
            outcomes.append(exc)
    return outcomes


CASES = [("t3", builtin_t3(), {})]
CASES += [(f"cascade:{k},{w},{s}", gen_cascade(k, w, s), {})
          for k in range(1, 5) for w in (1, 2) for s in range(3)]
CASES += [(f"fuzz:{seed}", gen_random(*_fuzz_params(seed), seed),
           {"fuel_depth": 10 * (_fuzz_params(seed)[0] + 1), "max_nodes": 300_000})
          for seed in range(200)]


@pytest.mark.parametrize("doc,budget", [(doc, budget) for _, doc, budget in CASES],
                         ids=[name for name, _, _ in CASES])
def test_matches_reference(doc, budget):
    graph, paths = _explore_both(load_instance(doc), **budget)
    assert not isinstance(paths, BudgetExceeded)
    _assert_same_graph(graph, paths)


def _fields(tree):
    """Everything a tree records, in its recorded order."""
    return (list(tree.parent.items()), list(tree.successors.items()),
            tree.node_count, tree.max_depth, tree.check_failures,
            list(tree.violations.items()))


def _budgets(tree):
    """Node budgets {1, n-1, n} and depth budgets {0, d-1, d}, where n and
    d are the full tree's node count and depth."""
    n, d = tree.node_count, tree.max_depth
    return ([{"max_nodes": m} for m in (1, n - 1, n)]
            + [{"fuel_depth": m} for m in (0, d - 1, d)])


def _sweep(r, v):
    """Explore from the empty state under each budget of `_budgets` with
    `explore_tree` and with the frozen depth-by-depth walk; assert the same
    tree, or the same budget error with the same message, branch and
    partial tree.  Returns the partial trees of the budget errors."""
    partials = []
    for budget in _budgets(explore_tree(fs(), r, v)):
        outcomes = []
        for explore in (explore_tree, explore_tree_by_depth):
            try:
                outcomes.append(explore(fs(), r, v, **budget))
            except BudgetExceeded as exc:
                outcomes.append(exc)
        graph, depth = outcomes
        assert type(graph) is type(depth), budget
        if isinstance(depth, BudgetExceeded):
            assert str(graph) == str(depth), budget
            assert graph.branch == depth.branch, budget
            graph, depth = graph.partial, depth.partial
            partials.append(graph)
        assert _fields(graph) == _fields(depth), budget
    return partials


@pytest.mark.parametrize("doc", [doc for _, doc, _ in CASES],
                         ids=[name for name, _, _ in CASES])
def test_budget_sweep_matches_reference(doc):
    inst = load_instance(doc)
    _sweep(inst.realizer, inst.valuation)


@pytest.mark.parametrize("doc", [builtin_t3(), gen_cascade(3, 2, 0)],
                         ids=["t3", "cascade:3,2,0"])
def test_budget_sweep_matches_path_reference(doc):
    inst = load_instance(doc)
    full = explore_tree(fs(), inst.realizer, inst.valuation)
    for budget in _budgets(full):
        graph, paths = _explore_both(inst, **budget)
        raised = [type(x) if isinstance(x, BudgetExceeded) else None
                  for x in (graph, paths)]
        assert raised[0] == raised[1], budget
        if raised[1] is None:
            _assert_same_graph(graph, paths)
            continue
        # a shortest root path along explored edges; a depth error names
        # the same state as the reference
        assert graph.branch == graph.partial.path(graph.branch[-1])
        assert graph.branch[0] == fs()
        assert len(graph.branch) <= len(paths.branch)
        steps = {(e.source, e.target) for e in edges_of(graph.partial)}
        assert all(pair in steps for pair in zip(graph.branch, graph.branch[1:]))
        if budget.get("fuel_depth") is not None:
            assert graph.branch[-1] == paths.branch[-1]


def _unmasked_parity_valuation(universe):
    """Truth flips with the size of the whole state, read past the level
    mask, so that real steps break truth stability and soundness."""
    ids = [atom_id for atom_id, _, _ in universe.atoms()]

    def evaluate(atom_id, view):
        return (len(view._members) + ids.index(atom_id)) % 2 == 0
    return Valuation(universe, evaluate)


# the masked parity valuation keeps every real step clean; the unmasked
# one breaks the edge checks
FORGERS = {"masked": _parity_valuation, "unmasked": _unmasked_parity_valuation}
FORGED_CASES = [(f"cascade:{k},{w},{s}", gen_cascade(k, w, s), {})
                for k in range(1, 5) for w in (1, 2) for s in range(2)]
FORGED_CASES += [(f"fuzz:{seed}", gen_random(*_fuzz_params(seed), seed),
                  {"fuel_depth": 10 * (_fuzz_params(seed)[0] + 1),
                   "max_nodes": 300_000})
                 for seed in range(100)]


def _forged_tree(doc, budget, forger):
    inst = load_instance(doc)
    v = FORGERS[forger](inst.universe)
    return v, explore_tree(fs(), inst.realizer, v, **budget)


def test_unmasked_forger_fails_checks():
    # otherwise the comparison below would only see empty failure lists
    failing = {name for name, doc, budget in FORGED_CASES
               if _forged_tree(doc, budget, "unmasked")[1].check_failures}
    assert failing >= {name for name, _, _ in FORGED_CASES
                       if name.startswith("cascade")}


@pytest.mark.parametrize("forger", sorted(FORGERS))
@pytest.mark.parametrize("doc,budget", [(doc, budget) for _, doc, budget in FORGED_CASES],
                         ids=[name for name, _, _ in FORGED_CASES])
def test_forged_valuation_failures_match_reference(doc, budget, forger):
    v, tree = _forged_tree(doc, budget, forger)
    for edge in edges_of(tree):
        found = [name for e, name in tree.check_failures if e == edge]
        assert found == reference_checks.check_edge(v, edge)


def test_budget_sweep_keeps_failures_and_violations():
    # the documents of CASES break no lemma and no contract, so sweep forged
    # valuations (check failures) and mutant realizers (violations) too
    failing = violating = 0
    for _, doc, _ in FORGED_CASES:
        inst = load_instance(doc)
        partials = _sweep(inst.realizer, _unmasked_parity_valuation(inst.universe))
        failing += any(partial.check_failures for partial in partials)
    for seed in range(50):
        inst = load_instance(_mutant_doc(seed))
        partials = _sweep(inst.realizer, inst.valuation)
        violating += any(partial.violations for partial in partials)
    assert failing >= 10 and violating >= 10


def _assert_cuts_of_full_tree(r, v):
    """Under each budget of `_budgets` that raises, the partial tree's
    `parent` items, `successors` items and `check_failures` are in-order
    prefixes of the full tree's, and its `violations` a subset of the full
    tree's.  Returns the partial trees."""
    full = explore_tree(fs(), r, v)
    partials = []
    for budget in _budgets(full):
        try:
            explore_tree(fs(), r, v, **budget)
            continue
        except BudgetExceeded as exc:
            partial = exc.partial
        partials.append(partial)
        for part, whole in ((partial.parent.items(), full.parent.items()),
                            (partial.successors.items(), full.successors.items()),
                            (partial.check_failures, full.check_failures)):
            part, whole = list(part), list(whole)
            assert part == whole[:len(part)], budget
        assert partial.violations.items() <= full.violations.items(), budget
    return partials


@pytest.mark.parametrize("doc", [doc for _, doc, _ in CASES],
                         ids=[name for name, _, _ in CASES])
def test_budget_error_cuts_full_tree(doc):
    inst = load_instance(doc)
    _assert_cuts_of_full_tree(inst.realizer, inst.valuation)


def test_budget_error_cuts_failures_and_violations():
    # as in test_budget_sweep_keeps_failures_and_violations: forged
    # valuations give check failures, mutant realizers violations
    failing = violating = 0
    for _, doc, _ in FORGED_CASES:
        inst = load_instance(doc)
        partials = _assert_cuts_of_full_tree(
            inst.realizer, _unmasked_parity_valuation(inst.universe))
        failing += any(partial.check_failures for partial in partials)
    for seed in range(50):
        inst = load_instance(_mutant_doc(seed))
        partials = _assert_cuts_of_full_tree(inst.realizer, inst.valuation)
        violating += any(partial.violations for partial in partials)
    assert failing >= 10 and violating >= 10


@pytest.mark.parametrize("budget", [{"max_nodes": 0}, {"fuel_depth": -1}],
                         ids=["max_nodes=0", "fuel_depth=-1"])
@pytest.mark.parametrize("doc,reducible", [
    (gen_random(*_fuzz_params(0), 0), False),
    (builtin_t3(), True),
], ids=["fuzz:0", "t3"])
def test_budget_below_the_roots_own(doc, reducible, budget):
    # budgets that even the root breaks, which only the API takes: a root
    # in normal form (fuzz:0) is the whole one-node tree, a reducible root
    # (t3) raises at once
    inst = load_instance(doc)
    outcomes = []
    for explore in (explore_tree, explore_tree_by_depth):
        try:
            outcomes.append(explore(fs(), inst.realizer, inst.valuation, **budget))
        except BudgetExceeded as exc:
            outcomes.append(exc)
    graph, depth = outcomes
    if reducible:
        kind = NodeBudgetExceeded if "max_nodes" in budget else DepthExceeded
        assert type(graph) is type(depth) is kind
        assert str(graph) == str(depth)
        assert graph.branch == depth.branch == [fs()]
        graph, depth = graph.partial, depth.partial
    else:
        assert not isinstance(graph, BudgetExceeded)
        assert (graph.node_count, graph.normal_forms) == (1, {fs()})
    assert _fields(graph) == _fields(depth)
