import pytest

from kspace.instances import builtin_t3, load_instance
from kspace.oracle import truth


@pytest.fixture(scope="session")
def t3():
    return load_instance(builtin_t3())


@pytest.fixture(scope="session")
def t3_universe(t3):
    return t3.universe


def fs(*ids):
    return frozenset(ids)


def mask_equation_holds(v, atom_id, members):
    """The level-mask equation: an atom's truth in a state equals its truth
    in the state restricted to the levels below the atom's own."""
    universe = v.universe
    level = universe.level_of[atom_id]
    masked = frozenset(a for a in members if universe.level_of[a] < level)
    return truth(v, atom_id, members) == truth(v, atom_id, masked)


def edges_of(tree):
    """Each distinct step of an explored tree once, in expansion order."""
    return [edge for edges in tree.successors.values() for edge in edges]
