"""An independent model of the paper's definitions, as a test oracle.

Written from the definitions in PAPER.md (the "Model" section of
README.md states them for instance documents), not from kspace: it
imports nothing from the package and reads only the plain fields of an
instance document.  Conditions are interpreted directly on sets of atom
ids, and the reachable graph is found by brute force.

- An atom's truth is its truth rule read on the state restricted to the
  levels below the atom's own; an atom without a rule is false.
- The raw proposals of a state are those of every realizer rule whose
  condition holds on the whole state.  P(X) keeps those that are
  unanswered in X and true in X.
- A step at level n picks a nonempty subset s of P(X) at level n, at most
  one atom per question, and leads to X restricted to levels <= n, plus s.
- A normal form is a reachable state with no step.
"""

from __future__ import annotations

from itertools import combinations


class PaperModel:
    def __init__(self, doc):
        self.level = {atom["id"]: atom["level"] for atom in doc.atoms}
        self.question = {atom["id"]: atom["question"] for atom in doc.atoms}
        self.truth_rules = {rule["atom"]: rule["condition"]
                            for rule in doc.truth_rules}
        self.realizer_rules = [(rule["condition"], rule["propose"])
                               for rule in doc.realizer_rules]
        self.initial = frozenset(doc.initial)

    # -- conditions, truth and soundness ---------------------------------

    def answered(self, question, X) -> bool:
        return any(self.question[a] == question for a in X)

    def holds(self, condition, X) -> bool:
        (key, value), = condition.items()
        if key == "const":
            return value
        if key == "present":
            return value in X
        if key == "answered":
            return self.answered(value, X)
        if key == "not":
            return not self.holds(value, X)
        if key == "and":
            return all(self.holds(c, X) for c in value)
        assert key == "or", key
        return any(self.holds(c, X) for c in value)

    def below(self, X, n) -> frozenset:
        """X restricted to the levels below n."""
        return frozenset(a for a in X if self.level[a] < n)

    def true(self, atom_id, X) -> bool:
        condition = self.truth_rules.get(atom_id)
        return condition is not None and self.holds(
            condition, self.below(X, self.level[atom_id]))

    def sound(self, X) -> bool:
        return all(self.true(a, X) for a in X)

    # -- proposals --------------------------------------------------------

    def raw_proposals(self, X) -> set:
        return {a for condition, propose in self.realizer_rules
                if self.holds(condition, X) for a in propose}

    def clause_broken(self, atom_id, X):
        """The realizer-contract clause a proposal breaks in X, or None."""
        if self.answered(self.question[atom_id], X):
            return "question-already-answered"
        if not self.true(atom_id, X):
            return "truth-false"
        return None

    def proposals(self, X) -> frozenset:
        """P(X): the raw proposals that are unanswered and true in X."""
        return frozenset(a for a in self.raw_proposals(X)
                         if self.clause_broken(a, X) is None)

    def violation(self, X):
        """The first raw proposal, in id order, that P(X) drops, with the
        clause it breaks; None when P(X) drops none."""
        for atom_id in sorted(self.raw_proposals(X)):
            clause = self.clause_broken(atom_id, X)
            if clause is not None:
                return atom_id, clause
        return None

    # -- steps and the reachable graph -------------------------------------

    def steps(self, X) -> list:
        """Every step from X, as (source, chosen, target, level)."""
        P = self.proposals(X)
        out = []
        for n in sorted({self.level[a] for a in P}):
            at_n = sorted(a for a in P if self.level[a] == n)
            kept = frozenset(a for a in X if self.level[a] <= n)
            for k in range(1, len(at_n) + 1):
                for chosen in combinations(at_n, k):
                    if len({self.question[a] for a in chosen}) == k:
                        out.append((X, frozenset(chosen), kept | set(chosen), n))
        return out

    def graph(self):
        """The states reachable from the initial one and the steps between
        them, by brute force: (states, edges, normal forms)."""
        states, edges, todo = {self.initial}, set(), [self.initial]
        while todo:
            for edge in self.steps(todo.pop()):
                edges.add(edge)
                if edge[2] not in states:
                    states.add(edge[2])
                    todo.append(edge[2])
        normal_forms = {X for X in states if not self.proposals(X)}
        return states, edges, normal_forms

    @staticmethod
    def path_figures(root, edges):
        """(paths from `root`, counting the empty one; the longest path's
        length) in the step graph `edges`, which must be acyclic."""
        successors: dict = {}
        for source, _, target, _ in edges:
            successors.setdefault(source, []).append(target)
        memo: dict = {}

        def visit(X, on_path):
            if X not in memo:
                assert X not in on_path, f"cycle through {sorted(X)}"
                below = [visit(Y, on_path | {X}) for Y in successors.get(X, ())]
                memo[X] = (1 + sum(paths for paths, _ in below),
                           max((depth + 1 for _, depth in below), default=0))
            return memo[X]
        return visit(root, frozenset())
