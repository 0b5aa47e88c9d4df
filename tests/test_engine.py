import pytest
from hypothesis import given, settings, strategies as st

from kspace.core import Atom, AtomUniverse
from kspace.engine import (
    CandidateExplosion,
    Candidates,
    DepthExceeded,
    FuelExhausted,
    InvalidCandidate,
    NodeBudgetExceeded,
    NotHomogeneous,
    QuestionConflict,
    STRATEGY_NAMES,
    apply_step,
    check_edge,
    enumerate_candidates,
    explore_tree,
    is_prefixed,
    make_strategy,
    run,
    step,
    step_record,
)
from kspace.instances import gen_cascade, load_instance
from kspace.oracle import Realizer, Valuation

from conftest import fs
from reference_explorer import explore_tree_by_paths

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
        universe, proposals = pair
        cands = Candidates(universe, proposals)
        listed = list(cands)
        ids = [a.id for a in universe.atoms()]
        probes = [frozenset(), set(listed[0]) if listed else set(), "a", None,
                  sorted(listed[-1]) if listed else []]
        if ids:
            probes += data.draw(st.lists(st.frozensets(st.sampled_from(ids)),
                                         max_size=20))
        for s in listed + probes:
            assert (s in cands) == (s in listed), s

    def test_size_past_cap_without_listing(self):
        n = 80
        universe = AtomUniverse([Atom(f"a{i:02d}", f"q{i}", 0) for i in range(n)])
        cands = Candidates(universe, frozenset(a.id for a in universe.atoms()))
        assert cands.size == 2 ** n - 1 and cands
        assert cands[0] == fs("a00")
        assert cands[-1] == fs(f"a{n - 1}")
        assert frozenset(f"a{i:02d}" for i in range(n)) in cands
        assert cands.smallest_per_question(0) == frozenset(
            f"a{i:02d}" for i in range(n))
        with pytest.raises(CandidateExplosion):
            list(cands)


class TestApplyStep:
    def test_lower_level_erases_higher(self, t3_universe):
        assert apply_step(t3_universe, fs("b1"), fs("a0")) == fs("a0")

    def test_disjoint_questions_merge(self, t3_universe):
        assert apply_step(t3_universe, fs("a0"), fs("b1'")) == fs("a0", "b1'")

    def test_top_level_drops_nothing(self, t3_universe):
        universe = AtomUniverse(
            [Atom(a.id, a.question, a.level) for a in t3_universe.atoms()]
            + [Atom("d2", "q3", 2)])
        assert apply_step(universe, fs("a0", "b1'", "c2"), fs("d2")) \
            == fs("a0", "b1'", "c2", "d2")

    def test_not_homogeneous(self, t3_universe):
        with pytest.raises(NotHomogeneous):
            apply_step(t3_universe, fs(), fs("a0", "b1"))

    def test_question_conflict(self, t3_universe):
        with pytest.raises(QuestionConflict):
            apply_step(t3_universe, fs("b1"), fs("b1'"))


class TestStep:
    def test_basic(self, t3):
        edge = step(fs(), fs("b1"), t3.realizer, t3.valuation)
        assert edge.target == fs("b1")
        assert edge.level == 1

    def test_non_monotone_revision(self, t3):
        edge = step(fs("b1"), fs("a0"), t3.realizer, t3.valuation)
        assert edge.target == fs("a0")  # b1 erased

    def test_invalid_candidate(self, t3):
        with pytest.raises(InvalidCandidate):
            step(fs(), fs("c2"), t3.realizer, t3.valuation)


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
        assert tree.edges_checked == 7
        assert tree.check_failures == []

    def test_prefixed_root_is_single_node(self, t3):
        tree = explore_tree(T3_NORMAL_FORM, t3.realizer, t3.valuation)
        assert tree.node_count == 1 and tree.edge_count == 0
        assert tree.complete and tree.max_depth == 0

    def test_depth_budget(self, t3):
        with pytest.raises(DepthExceeded) as err:
            explore_tree(fs(), t3.realizer, t3.valuation, fuel_depth=2)
        assert err.value.branch[0] == fs()

    def test_budget_partial_is_incomplete(self, t3):
        assert explore_tree(fs(), t3.realizer, t3.valuation).complete
        with pytest.raises(DepthExceeded) as err:
            explore_tree(fs(), t3.realizer, t3.valuation, fuel_depth=2)
        assert err.value.partial.complete is False
        assert err.value.partial.max_depth == 2

    def test_node_budget(self, t3):
        with pytest.raises(NodeBudgetExceeded):
            explore_tree(fs(), t3.realizer, t3.valuation, max_nodes=3)

    def test_cascade_8_3_with_lemmas(self):
        # 655,360 root paths over 34 states: checked per distinct edge
        inst = load_instance(gen_cascade(8, 3, 0))
        tree = explore_tree(fs(), inst.realizer, inst.valuation)
        assert tree.node_count == 655_360
        assert tree.edges_checked == tree.edge_count == 655_359
        assert tree.distinct_state_count == 34
        assert len(tree.normal_forms) == 1
        assert tree.check_failures == []

    def test_run_traces_are_tree_paths(self, t3):
        tree = explore_tree(fs(), t3.realizer, t3.valuation)
        edges = set(tree.edges)
        for name in STRATEGY_NAMES:
            trace, final = run(fs(), t3.realizer, t3.valuation,
                               make_strategy(name, seed=11), 10)
            for e in trace:
                assert e in edges
            assert final in tree.normal_forms


class TestEdgeChecks:
    def test_all_t3_edges_clean(self, t3):
        tree = explore_tree(fs(), t3.realizer, t3.valuation, check_lemmas=False)
        for edge in tree.edges:
            assert check_edge(t3.valuation, edge) == []

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
        edge = next(e for e in tree.edges if e.chosen == fs("z"))
        assert tree.check_failures == [(edge, "soundness-preserved"),
                                       (edge, "truth-stability[x]")]
        assert tree.node_count == 9 and tree.edges_checked == 8
        by_paths = explore_tree_by_paths(fs(), r, forged)
        assert by_paths.check_failures == tree.check_failures * 3

    def test_forged_self_step_fails(self, t3):
        from kspace.engine import ReductionStep
        forged = ReductionStep(fs("a0"), fs("a0"), fs("a0"), 0)
        assert "no-self-step" in check_edge(t3.valuation, forged)


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
