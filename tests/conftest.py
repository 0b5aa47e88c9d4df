import pytest

from kspace.core import level_restrict
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
    masked = level_restrict(members, "below", v.universe.level(atom_id), v.universe)
    return truth(v, atom_id, members) == truth(v, atom_id, masked)
