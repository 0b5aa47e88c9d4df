"""Test-only reference: the strategies and the `run` loop as they were
before `engine.Candidates`, kept to check that choosing straight from the
grouped proposals changes nothing observable.

Both are the former engine code verbatim, except that each strategy first
materializes the candidate list (capped, by `enumerate_candidates`)
and scans it.  Every step therefore builds the whole candidate power set:
keep the inputs small.  `enumerate_candidates` is the former engine
function of that name.
"""

from __future__ import annotations

import random
from typing import Callable

from kspace.core import AtomUniverse, State, homogeneous_level
from kspace.engine import (
    Candidates,
    FuelExhausted,
    InvalidCandidate,
    ReductionStep,
    apply_step,
)
from kspace.oracle import Realizer, Valuation, realize


def enumerate_candidates(members: State, r: Realizer, v: Valuation) -> list[State]:
    return list(Candidates(r.universe, realize(r, v, members)))


def _key(universe: AtomUniverse, s: State):
    # documented tie-break: level ascending, cardinality descending, lex ids
    return (homogeneous_level(s, universe), -len(s), tuple(sorted(s)))


def make_strategy(name: str, seed: int = 0) -> Callable[[AtomUniverse, list[State]], State]:
    if name == "lowest-level-first":
        return lambda universe, cands: list(cands)[0]
    if name == "highest-level-first":
        return lambda universe, cands: min(
            list(cands),
            key=lambda s: (-homogeneous_level(s, universe), -len(s),
                           tuple(sorted(s))))
    if name == "maximal-set-per-lowest-level":
        return lambda universe, cands: min(list(cands), key=lambda s: _key(universe, s))
    if name == "seeded-random":
        rng = random.Random(seed)
        return lambda universe, cands: rng.choice(list(cands))
    raise ValueError(f"unknown strategy {name!r}")


def run(members: State, r: Realizer, v: Valuation,
        strategy: Callable[[AtomUniverse, list[State]], State],
        fuel: int) -> tuple[list[ReductionStep], State]:
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
                             apply_step(universe, current, chosen).target,
                             homogeneous_level(chosen, universe))
        trace.append(edge)
        current = edge.target
    if enumerate_candidates(current, r, v):
        raise FuelExhausted(trace, current)
    return trace, current
