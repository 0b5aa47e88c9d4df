import functools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from kspace import engine
from kspace.core import Atom, AtomUniverse, UnknownAtom, level_restrict
from kspace.engine import (
    BudgetExceeded,
    CandidateExplosion,
    Candidates,
    DepthExceeded,
    FuelExhausted,
    InvalidCandidate,
    NodeBudgetExceeded,
    NotHomogeneous,
    QuestionConflict,
    ReductionStep,
    STRATEGY_NAMES,
    TruthRecords,
    apply_step,
    check_edge,
    check_node,
    explore_tree,
    is_prefixed,
    make_strategy,
    run,
    step_record,
)
from kspace.instances import builtin_t3, gen_cascade, gen_random, load_instance
from kspace.oracle import Realizer, Valuation, realize, truth

from conftest import edges_of, fs
from reference_explorer import enumerate_candidates, explore_tree_by_paths
from test_acceptance import _fuzz_params
from test_core import universe_and_state

T3_NORMAL_FORM = fs("a0", "b1'", "c2")


class TestEnumerateCandidates:
    def test_from_empty(self, t3):
        cands = enumerate_candidates(fs(), t3.realizer, t3.valuation)
        assert cands == [fs("a0"), fs("b1")]

    def test_prefixed_point_has_none(self, t3):
        assert enumerate_candidates(T3_NORMAL_FORM, t3.realizer, t3.valuation) == []

    def test_equivalent_proposals_split(self):
        # two answers to one question can never be chosen together
        universe = AtomUniverse([Atom("p", "q", 0), Atom("p'", "q", 0)])
        r = Realizer(universe, lambda view: {"p", "p'"})
        v = Valuation(universe, lambda atom, view: True)
        assert enumerate_candidates(fs(), r, v) == [fs("p"), fs("p'")]

    def test_cross_question_subsets(self):
        universe = AtomUniverse([Atom("x", "qx", 0), Atom("y", "qy", 0)])
        r = Realizer(universe, lambda view: {"x", "y"})
        v = Valuation(universe, lambda atom, view: True)
        assert enumerate_candidates(fs(), r, v) == [fs("x"), fs("x", "y"), fs("y")]

    def test_explosion_cap(self):
        # 13 independent atoms: 8191 candidates, past the cap of 4096
        universe = AtomUniverse([Atom(f"a{i}", f"q{i}", 0) for i in range(13)])
        r = Realizer(universe, lambda view: {f"a{i}" for i in range(13)})
        v = Valuation(universe, lambda atom, view: True)
        with pytest.raises(CandidateExplosion, match="more than 4096 candidates"):
            enumerate_candidates(fs(), r, v)


@st.composite
def grouped_proposals(draw):
    """A universe of up to 6 questions over 3 levels, with ids whose
    lexicographic order interleaves the questions, and a proposal subset."""
    sizes = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3)),
                          max_size=6))
    ids = draw(st.lists(st.text("abcd", min_size=1, max_size=3),
                        min_size=sum(n for _, n in sizes),
                        max_size=sum(n for _, n in sizes), unique=True))
    it = iter(ids)
    atoms = [Atom(next(it), f"q{q}", level)
             for q, (level, n) in enumerate(sizes) for _ in range(n)]
    proposals = draw(st.sets(st.sampled_from(ids))) if ids else set()
    return AtomUniverse(atoms), frozenset(proposals)


class TestCandidates:
    @settings(max_examples=200, deadline=None)
    @given(grouped_proposals())
    def test_indexing_matches_iteration(self, pair):
        universe, proposals = pair
        cands = Candidates(universe, proposals)
        listed = list(cands)
        assert [cands[i] for i in range(len(cands))] == listed
        assert len(set(listed)) == len(listed)
        if listed:
            assert cands[-1] == listed[-1]
            assert cands[-len(cands)] == listed[0]
        for bad in (len(cands), -len(cands) - 1):
            with pytest.raises(IndexError):
                cands[bad]

    @settings(max_examples=200, deadline=None)
    @given(grouped_proposals(), st.data())
    def test_membership_matches_list(self, pair, data):
        # `run` accepts a strategy's choice iff it is a listed candidate: at
        # the empty state every proposal's question is open and true, so
        # the proposals are kept and the listed candidates are the steps
        universe, proposals = pair
        r = Realizer(universe, lambda view: proposals)
        v = Valuation(universe, lambda atom, view: True)
        listed = list(Candidates(universe, proposals))
        if not listed:  # the strategy is never asked
            assert run(fs(), r, v, lambda cands: None, 1) == ([], fs())
            return
        ids = [a.id for a in universe.atoms()]
        probes = [frozenset(), set(listed[0]), "a", None, sorted(listed[-1])]
        probes += data.draw(st.lists(st.frozensets(st.sampled_from(ids)),
                                     max_size=20))
        for s in listed + probes:
            try:
                trace, _ = run(fs(), r, v, lambda cands: s, 1)
            except FuelExhausted as err:
                trace = err.trace
            except InvalidCandidate:
                assert s not in listed, s
                continue
            assert s in listed, s
            assert trace == [apply_step(universe, fs(), s)]

    def test_size_past_cap_without_listing(self):
        n = 80
        universe = AtomUniverse([Atom(f"a{i:02d}", f"q{i}", 0) for i in range(n)])
        cands = Candidates(universe, frozenset(a.id for a in universe.atoms()))
        assert cands.size == 2 ** n - 1 and cands
        assert cands[0] == fs("a00")
        assert cands[-1] == fs(f"a{n - 1}")
        assert cands.smallest_per_question(0) == frozenset(
            f"a{i:02d}" for i in range(n))
        with pytest.raises(CandidateExplosion):
            list(cands)


class TestApplyStep:
    def test_lower_level_erases_higher(self, t3_universe):
        assert apply_step(t3_universe, fs("b1"), fs("a0")).target == fs("a0")

    def test_disjoint_questions_merge(self, t3_universe):
        assert apply_step(t3_universe, fs("a0"), fs("b1'")).target \
            == fs("a0", "b1'")

    def test_returns_the_step(self, t3_universe):
        assert apply_step(t3_universe, fs("a0", "b1"), fs("c2")) \
            == ReductionStep(fs("a0", "b1"), fs("c2"), fs("a0", "b1", "c2"), 2)
        assert apply_step(t3_universe, fs("b1", "c2"), fs("a0")) \
            == ReductionStep(fs("b1", "c2"), fs("a0"), fs("a0"), 0)

    def test_top_level_drops_nothing(self, t3_universe):
        universe = AtomUniverse(
            [Atom(a.id, a.question, a.level) for a in t3_universe.atoms()]
            + [Atom("d2", "q3", 2)])
        assert apply_step(universe, fs("a0", "b1'", "c2"), fs("d2")).target \
            == fs("a0", "b1'", "c2", "d2")

    def test_not_homogeneous(self, t3_universe):
        with pytest.raises(NotHomogeneous):
            apply_step(t3_universe, fs(), fs("a0", "b1"))

    def test_question_conflict(self, t3_universe):
        with pytest.raises(QuestionConflict):
            apply_step(t3_universe, fs("b1"), fs("b1'"))
        with pytest.raises(QuestionConflict):
            apply_step(t3_universe, fs("a0", "b1"), fs("b1"))

    def test_chosen_atoms_answering_one_question_conflict(self, t3_universe):
        # b1 and b1' both answer q1: their union is not a state
        with pytest.raises(QuestionConflict):
            apply_step(t3_universe, fs("a0"), fs("b1", "b1'"))


class TestIsPrefixed:
    def test_normal_form(self, t3):
        assert is_prefixed(T3_NORMAL_FORM, t3.realizer, t3.valuation)

    def test_empty_is_not(self, t3):
        assert not is_prefixed(fs(), t3.realizer, t3.valuation)

    def test_partial_is_not(self, t3):
        assert not is_prefixed(fs("a0"), t3.realizer, t3.valuation)


class TestRun:
    def test_lowest_level_first(self, t3):
        trace, final = run(fs(), t3.realizer, t3.valuation,
                           make_strategy("lowest-level-first"), 10)
        assert len(trace) == 3
        assert final == T3_NORMAL_FORM
        assert [sorted(e.chosen) for e in trace] == [["a0"], ["b1'"], ["c2"]]

    def test_highest_level_first_revises(self, t3):
        trace, final = run(fs(), t3.realizer, t3.valuation,
                           make_strategy("highest-level-first"), 10)
        assert len(trace) == 4
        assert trace[0].chosen == fs("b1")
        assert final == T3_NORMAL_FORM

    def test_prefixed_start_is_noop(self, t3):
        trace, final = run(T3_NORMAL_FORM, t3.realizer, t3.valuation,
                           make_strategy("lowest-level-first"), 10)
        assert trace == [] and final == T3_NORMAL_FORM

    @staticmethod
    def _one_step(t3, members, chosen):
        """The edge `run` takes from `members` when its strategy picks
        `chosen`, with fuel for one step (t3 has candidates after it)."""
        with pytest.raises(FuelExhausted) as err:
            run(members, t3.realizer, t3.valuation, lambda cands: chosen, 1)
        (edge,) = err.value.trace
        return edge

    def test_basic(self, t3):
        edge = self._one_step(t3, fs(), fs("b1"))
        assert edge.target == fs("b1")
        assert edge.level == 1

    def test_non_monotone_revision(self, t3):
        edge = self._one_step(t3, fs("b1"), fs("a0"))
        assert edge.target == fs("a0")  # b1 erased

    def test_strategy_choosing_a_non_candidate(self, t3):
        # c2 is proposed only once b1' is in
        with pytest.raises(InvalidCandidate):
            run(fs(), t3.realizer, t3.valuation, lambda cands: fs("c2"), 10)

    @pytest.mark.parametrize("doc, chosen, error", [
        (builtin_t3(), ["a0"], InvalidCandidate),  # not a set
        (builtin_t3(), fs(), NotHomogeneous),  # no level
        (builtin_t3(), fs("a0", "b1"), NotHomogeneous),  # two levels
        (gen_cascade(2, 2, 0), fs("wrong1_0", "wrong1_1"), QuestionConflict),
    ], ids=["list", "empty", "two-levels", "one-question-twice"])
    def test_strategy_choosing_a_non_step(self, doc, chosen, error):
        inst = load_instance(doc)
        proposals = realize(inst.realizer, inst.valuation, inst.initial)
        assert set(chosen) <= proposals  # each id is proposed at the root
        with pytest.raises(error) as err:
            run(inst.initial, inst.realizer, inst.valuation,
                lambda cands: chosen, 10)
        assert isinstance(err.value, InvalidCandidate)

    def test_fuel_exhausted_carries_trace(self, t3):
        with pytest.raises(FuelExhausted) as err:
            run(fs(), t3.realizer, t3.valuation,
                make_strategy("lowest-level-first"), 1)
        assert len(err.value.trace) == 1

    def test_all_strategies_reach_sound_prefixed_point(self, t3):
        from kspace.oracle import is_sound
        for name in STRATEGY_NAMES:
            _, final = run(fs(), t3.realizer, t3.valuation,
                           make_strategy(name, seed=7), 10)
            assert is_prefixed(final, t3.realizer, t3.valuation)
            assert is_sound(t3.valuation, final)


class TestExploreTree:
    def test_t3_stats(self, t3):
        tree = explore_tree(fs(), t3.realizer, t3.valuation)
        assert tree.node_count == 8
        assert tree.edge_count == 7
        assert tree.max_depth == 4
        assert tree.distinct_state_count == 5
        assert tree.normal_forms == {T3_NORMAL_FORM}
        assert tree.check_failures == []

    def test_prefixed_root_is_single_node(self, t3):
        tree = explore_tree(T3_NORMAL_FORM, t3.realizer, t3.valuation)
        assert tree.node_count == 1 and tree.edge_count == 0
        assert tree.max_depth == 0

    def test_truth_records_built_at_the_first_edge_only(self, t3, monkeypatch):
        built = []

        class Counted(TruthRecords):
            def __init__(self, v):
                built.append(v)
                super().__init__(v)
        monkeypatch.setattr(engine, "TruthRecords", Counted)
        # a normal-form root checks no edge, so it builds no records
        explore_tree(T3_NORMAL_FORM, t3.realizer, t3.valuation)
        assert built == []
        tree = explore_tree(fs(), t3.realizer, t3.valuation)
        assert built == [t3.valuation] and tree.check_failures == []

    def test_depth_budget(self, t3):
        with pytest.raises(DepthExceeded) as err:
            explore_tree(fs(), t3.realizer, t3.valuation, fuel_depth=2)
        assert err.value.branch[0] == fs()

    def test_budget_partial_is_incomplete(self, t3):
        with pytest.raises(DepthExceeded) as err:
            explore_tree(fs(), t3.realizer, t3.valuation, fuel_depth=2)
        partial = err.value.partial
        assert partial.max_depth == 2
        # steps lead out of the partial graph to states it never expanded
        assert any(edge.target not in partial.successors
                   for edge in edges_of(partial))

    def test_node_budget(self, t3):
        with pytest.raises(NodeBudgetExceeded):
            explore_tree(fs(), t3.realizer, t3.valuation, max_nodes=3)

    def test_cascade_8_3_with_lemmas(self):
        # 655,360 root paths over 34 states: checked per distinct edge
        inst = load_instance(gen_cascade(8, 3, 0))
        tree = explore_tree(fs(), inst.realizer, inst.valuation)
        assert tree.node_count == 655_360
        assert tree.edge_count == 655_359
        assert tree.distinct_state_count == 34
        assert len(tree.normal_forms) == 1
        assert tree.check_failures == []

    def test_cascade_12_3_with_lemmas(self):
        # 234,881,024 root paths over 50 states, far past the CLI's
        # default node budget
        inst = load_instance(gen_cascade(12, 3, 0))
        tree = explore_tree(fs(), inst.realizer, inst.valuation,
                            max_nodes=10**12)
        assert tree.node_count == 234_881_024
        assert tree.distinct_state_count == 50
        assert len(tree.normal_forms) == 1
        assert tree.check_failures == []

    def test_run_traces_are_tree_paths(self, t3):
        tree = explore_tree(fs(), t3.realizer, t3.valuation)
        edges = set(edges_of(tree))
        for name in STRATEGY_NAMES:
            trace, final = run(fs(), t3.realizer, t3.valuation,
                               make_strategy(name, seed=11), 10)
            for e in trace:
                assert e in edges
            assert final in tree.normal_forms


ONCE_CASES = [("t3", builtin_t3(), {})]
ONCE_CASES += [(f"cascade:{k},{w},0", gen_cascade(k, w, 0), {})
               for k in range(1, 6) for w in (1, 2)]
ONCE_CASES += [(f"fuzz:{seed}", gen_random(*_fuzz_params(seed), seed),
                {"fuel_depth": 10 * (_fuzz_params(seed)[0] + 1),
                 "max_nodes": 300_000})
               for seed in range(50)]


@pytest.mark.parametrize("doc,budget", [(doc, budget) for _, doc, budget in ONCE_CASES],
                         ids=[name for name, _, _ in ONCE_CASES])
def test_lemma_checks_evaluate_each_state_atom_once(monkeypatch, doc, budget):
    inst = load_instance(doc)
    evaluated = Counter()

    def counted(v, atom_id, members):
        evaluated[atom_id, members] += 1
        return truth(v, atom_id, members)
    monkeypatch.setattr(engine, "truth", counted)
    tree = explore_tree(inst.initial, inst.realizer, inst.valuation,
                        check_lemmas=True, **budget)
    assert bool(evaluated) == bool(edges_of(tree))
    assert [pair for pair, calls in evaluated.items() if calls > 1] == []


REALIZE_ONCE_CASES = [("t3", builtin_t3(), ())]
REALIZE_ONCE_CASES += [(f"cascade:{k},{w},{s}", gen_cascade(k, w, s), ())
                       for k in range(1, 5) for w in (1, 2) for s in range(3)]
REALIZE_ONCE_CASES += [(f"fuzz:{seed}", gen_random(*_fuzz_params(seed), seed), ())
                       for seed in range(50)]
# 86 states and 2,038 steps: the expansion pass stops at 1000 distinct
# steps, or at the first reducible state first reached at depth 3, and
# realizes no state the depth-by-depth walk does not reach
REALIZE_ONCE_CASES += [("cascade:21,3,0", gen_cascade(21, 3, 0),
                        ({"max_nodes": 1000}, {"fuel_depth": 3}))]


@pytest.mark.parametrize("doc,extra", [(doc, extra) for _, doc, extra in REALIZE_ONCE_CASES],
                         ids=[name for name, _, _ in REALIZE_ONCE_CASES])
def test_budget_error_realizes_and_checks_each_state_once(monkeypatch, doc, extra):
    # the budget error is raised by a second walk over the expansions the
    # first pass made, which must not realize or check a state again
    inst = load_instance(doc)
    full = explore_tree(inst.initial, inst.realizer, inst.valuation,
                        max_nodes=10**30)
    budgets = list(extra)
    if full.node_count > 1:
        budgets += [{"max_nodes": 1}, {"max_nodes": full.node_count - 1},
                    {"fuel_depth": 0}, {"fuel_depth": full.max_depth - 1,
                                        "max_nodes": 10**30}]
    realized, checked, edges = Counter(), Counter(), Counter()

    def counted_realize(r, v, members, memo=None):
        realized[members] += 1
        return realize(r, v, members, memo)

    def counted_check_node(members, candidates):
        checked[members] += 1
        return check_node(members, candidates)

    def counted_check_edge(v, edge, *, records):
        edges[edge] += 1
        return check_edge(v, edge, records=records)
    monkeypatch.setattr(engine, "realize", counted_realize)
    monkeypatch.setattr(engine, "check_node", counted_check_node)
    monkeypatch.setattr(engine, "check_edge", counted_check_edge)
    for budget in budgets:
        realized.clear(), checked.clear(), edges.clear()
        with pytest.raises(BudgetExceeded) as err:
            explore_tree(inst.initial, inst.realizer, inst.valuation, **budget)
        assert set(realized.values()) == {1}, budget
        assert checked == realized and set(edges.values()) <= {1}, budget
        reached = err.value.partial.successors.keys()
        assert reached <= realized.keys()
        if budget in extra:
            assert reached == realized.keys()


class TestEdgeChecks:
    def test_all_t3_edges_clean(self, t3):
        tree = explore_tree(fs(), t3.realizer, t3.valuation, check_lemmas=False)
        records = TruthRecords(t3.valuation)
        for edge in edges_of(tree):
            assert check_edge(t3.valuation, edge, records=records) == []

    def test_failure_reported_once_per_distinct_edge(self):
        # x's valuation reads past its level mask, so adding the level-1
        # atom z flips x: the one edge {x, y} -> {x, y, z} breaks soundness
        # preservation and truth stability, and three root paths reach it
        universe = AtomUniverse([Atom("x", "qx", 0), Atom("y", "qy", 0),
                                 Atom("z", "qz", 1)])

        def propose(view):
            if view.present("x") and view.present("y"):
                return {"z"}
            return {"x", "y"}

        forged = Valuation(
            universe, lambda atom, view: atom.id != "x" or "z" not in view._members)
        r = Realizer(universe, propose)
        tree = explore_tree(fs(), r, forged)
        edge = next(e for e in edges_of(tree) if e.chosen == fs("z"))
        assert tree.check_failures == [(edge, "soundness-preserved"),
                                       (edge, "truth-stability[x]")]
        assert tree.node_count == 9
        by_paths = explore_tree_by_paths(fs(), r, forged)
        assert by_paths.check_failures == tree.check_failures * 3

    def test_forged_self_step_fails(self, t3):
        forged = ReductionStep(fs("a0"), fs("a0"), fs("a0"), 0)
        assert "no-self-step" in check_edge(
            t3.valuation, forged, records=TruthRecords(t3.valuation))

    def test_unknown_atom_in_a_state_raises(self, t3):
        forged = ReductionStep(fs("a0"), fs("nope"), fs("a0", "nope"), 0)
        with pytest.raises(UnknownAtom):
            check_edge(t3.valuation, forged, records=TruthRecords(t3.valuation))


def _records(universe):
    return TruthRecords(Valuation(universe, lambda atom, view: False))


class TestTruthRecordBits:
    # level order (x, y, w) is not id order (w, x, y)
    universe = AtomUniverse([Atom("w", "qw", 3), Atom("x", "qx", 0),
                             Atom("y", "qy", 0)])

    def test_bits_one_per_atom(self):
        records = _records(self.universe)
        assert records.ids == ["x", "y", "w"]
        assert records.levels == [0, 0, 3]
        assert records[fs()].bits == 0
        assert records[fs("x", "y")].bits == 0b011
        assert records[fs("w")].bits == 0b100
        with pytest.raises(UnknownAtom):
            records[fs("x", "nope")]

    def test_level_masks_cover_every_integer_level(self):
        records = _records(self.universe)
        assert [records.at_or_below(n) for n in range(-2, 6)] \
            == [0, 0, 0b011, 0b011, 0b011, 0b111, 0b111, 0b111]
        assert _records(AtomUniverse([])).at_or_below(0) == 0


@given(universe_and_state(), st.integers(-1, 5))
def test_level_masks_match_restriction(pair, n):
    universe, X = pair
    records = _records(universe)

    def bits(members):
        return sum(map(records.bit.__getitem__, members))

    le_n = records.at_or_below(n)
    lt_n = records.at_or_below(n - 1)
    kept = bits(level_restrict(X, n, universe))
    assert bits(X) & le_n == kept
    assert bits(X) & le_n & ~lt_n == kept & ~lt_n
    assert le_n & ~lt_n == bits(a.id for a in universe.atoms() if a.level == n)


class TestTraceExport:
    def test_jsonl_fields(self, t3):
        trace, _ = run(fs(), t3.realizer, t3.valuation,
                       make_strategy("highest-level-first"), 10)
        records = [step_record(t3.valuation, i, e) for i, e in enumerate(trace)]
        assert len(records) == 4
        for i, rec in enumerate(records):
            assert set(rec) == {"step_index", "level", "chosen", "dropped",
                                "state_after", "sound_after"}
            assert rec["step_index"] == i
            assert rec["sound_after"] is True
        # the revision step drops the earlier wrong guess
        assert records[1]["dropped"] == ["b1"]


DROPPED_DOCS = {
    "t3": [builtin_t3()],
    "cascade": [gen_cascade(k, w, s)
                for k in range(1, 5) for w in (1, 2) for s in range(3)],
    "random:8,3,10": [gen_random(8, 3, 10, seed) for seed in range(200)],
}


@pytest.mark.parametrize("family", list(DROPPED_DOCS))
def test_dropped_is_the_source_above_the_step_level(family):
    # step_record reads `dropped` as source - target; on every edge
    # apply_step builds, that is the source's atoms above the step's level
    dropping = 0
    for doc in DROPPED_DOCS[family]:
        inst = load_instance(doc)
        universe = inst.universe
        tree = explore_tree(inst.initial, inst.realizer, inst.valuation,
                            max_nodes=10**30, check_lemmas=False)
        for edge in edges_of(tree):
            above = {a for a in edge.source
                     if universe.atom(a).level > edge.level}
            assert edge.source - edge.target == above
            record = step_record(inst.valuation, 0, edge)
            assert record["dropped"] == sorted(above)
            dropping += bool(above)
    assert dropping


def _bfs_depths(successors, root):
    """Each state's least number of steps from `root`, by a plain
    breadth-first search over the steps."""
    depth = {root: 0}
    queue = [root]
    for state in queue:
        for edge in successors.get(state, ()):
            if edge.target not in depth:
                depth[edge.target] = depth[state] + 1
                queue.append(edge.target)
    return depth


def _assert_root_paths(tree):
    """Checks `path` on every state of `tree` and returns the depths;
    a partial tree's steps reach states past the ones it recorded."""
    root = next(iter(tree.parent))
    depth = _bfs_depths(tree.successors, root)
    steps = {(e.source, e.target) for e in edges_of(tree)}
    assert tree.parent.keys() <= depth.keys()
    for state in tree.parent:
        path = tree.path(state)
        assert path[0] == root and path[-1] == state
        assert all(pair in steps for pair in zip(path, path[1:]))
        assert len(path) == depth[state] + 1
    return depth


@pytest.mark.parametrize("family", list(DROPPED_DOCS))
def test_path_is_a_shortest_root_path(family):
    budget_errors = 0
    for doc in DROPPED_DOCS[family]:
        inst = load_instance(doc)
        explore = functools.partial(explore_tree, inst.initial, inst.realizer,
                                    inst.valuation, check_lemmas=False)
        tree = explore(max_nodes=10**30)
        assert _assert_root_paths(tree).keys() == tree.parent.keys()
        budgets = []
        if tree.max_depth:
            budgets.append({"fuel_depth": tree.max_depth - 1,
                            "max_nodes": 10**30})
        if tree.node_count > 1:
            budgets.append({"max_nodes": tree.node_count - 1})
        for budget in budgets:
            with pytest.raises(BudgetExceeded) as err:
                explore(**budget)
            exc = err.value
            assert exc.branch == exc.partial.path(exc.branch[-1])
            _assert_root_paths(exc.partial)
            budget_errors += 1
    assert budget_errors
