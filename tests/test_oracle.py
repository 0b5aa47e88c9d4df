import pytest

from kspace.core import Atom, AtomUniverse
from kspace.oracle import (
    ContractViolation,
    MaskViolation,
    ProposalCapExceeded,
    Realizer,
    StateView,
    Valuation,
    check_level_mask,
    is_sound,
    realize,
    truth,
)

from conftest import fs


class TestTruth:
    def test_constant_rule(self, t3):
        assert truth(t3.valuation, "a0", fs()) is True

    def test_negative_rule(self, t3):
        assert truth(t3.valuation, "b1", fs("a0")) is False

    def test_positive_rule(self, t3):
        assert truth(t3.valuation, "c2", fs("a0", "b1'")) is True

    def test_masked_view_rejects_high_query(self, t3_universe):
        # a valuation peeking at its own level is ill-formed
        bad = Valuation(t3_universe, lambda atom, view: view.answered("q2"))
        with pytest.raises(MaskViolation):
            truth(bad, "c2", fs())

    def test_masked_view_rejects_present_at_or_above_level(self, t3_universe):
        # b1 sits at level 1: a0 lies below it, b1' at it and c2 above it
        def peek(atom_id):
            return Valuation(t3_universe, lambda atom, view: view.present(atom_id))
        assert truth(peek("a0"), "b1", fs("a0")) is True
        for atom_id in ("b1'", "c2"):
            with pytest.raises(MaskViolation, match="breaks the mask at cap 1"):
                truth(peek(atom_id), "b1", fs(atom_id))


class TestIsSound:
    def test_empty_is_sound(self, t3):
        assert is_sound(t3.valuation, fs())

    def test_conflicting_members(self, t3):
        assert not is_sound(t3.valuation, fs("a0", "b1"))

    def test_full_chain(self, t3):
        assert is_sound(t3.valuation, fs("a0", "b1'", "c2"))


class TestRealize:
    def test_empty_state_proposals(self, t3):
        assert realize(t3.realizer, t3.valuation, fs()) == fs("a0", "b1")

    def test_prefixed_point_proposes_nothing(self, t3):
        assert realize(t3.realizer, t3.valuation, fs("a0", "b1'", "c2")) == fs()

    def test_strict_flags_answered_question(self, t3_universe):
        r = Realizer(t3_universe, lambda view: {"b1"})
        v = Valuation(t3_universe, lambda atom, view: True)
        with pytest.raises(ContractViolation) as err:
            realize(r, v, fs("b1'"), mode="strict")
        assert err.value.atom_id == "b1"
        assert err.value.clause == ContractViolation.CLAUSE_ANSWERED

    def test_strict_flags_untrue_proposal(self, t3):
        with pytest.raises(ContractViolation) as err:
            # c2's truth rule fails on the empty state
            realize(Realizer(t3.universe, lambda view: {"c2"}),
                    t3.valuation, fs(), mode="strict")
        assert err.value.clause == ContractViolation.CLAUSE_UNTRUE

    def test_filter_drops_silently(self, t3):
        # b1's question is answered, c2 remains a valid proposal
        r = Realizer(t3.universe, lambda view: {"b1", "c2"})
        assert realize(r, t3.valuation, fs("b1'")) == fs("c2")

    def test_strict_clean_returns_raw(self, t3):
        assert realize(t3.realizer, t3.valuation, fs(), mode="strict") \
            == fs("a0", "b1")

    def test_proposal_cap(self):
        universe = AtomUniverse([Atom(f"a{i}", f"q{i}", 0) for i in range(65)])
        r = Realizer(universe, lambda view: {f"a{i}" for i in range(65)})
        v = Valuation(universe, lambda atom, view: True)
        with pytest.raises(ProposalCapExceeded, match="65 proposals exceed cap 64"):
            realize(r, v, fs())


class TestLevelMask:
    def test_t3_c2_full_state(self, t3):
        assert check_level_mask(t3.valuation, "c2", fs("a0", "b1'", "c2"))

    def test_level_zero_always_holds(self, t3):
        for X in (fs(), fs("b1"), fs("a0", "b1'", "c2")):
            assert check_level_mask(t3.valuation, "a0", X)

    def test_t3_b1_ignores_higher(self, t3):
        assert check_level_mask(t3.valuation, "b1", fs("a0", "c2"))

    def test_holds_on_all_t3_atoms_and_reachable_states(self, t3):
        from kspace.engine import explore_tree
        tree = explore_tree(fs(), t3.realizer, t3.valuation, check_lemmas=False)
        for state in tree.states:
            for atom in t3.universe.atoms():
                assert check_level_mask(t3.valuation, atom.id, state)


class TestStateView:
    def test_present_and_answered(self, t3_universe):
        view = StateView(t3_universe, fs("b1'"))
        assert view.present("b1'")
        assert not view.present("b1")
        assert view.answered("q1")
        assert not view.answered("q0")
