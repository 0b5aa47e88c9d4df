"""Every public name of the program has a caller in the program.

Each public module-level function or class under ``src/kspace`` and each
public method of such a class must be referenced somewhere under
``src/kspace``, outside its own definition and outside ``__init__.py``
(whose re-exports call nothing).  Only AST references count: a ``Name``,
or the attribute of an ``Attribute``, and for a method only the latter
(``obj.name``), since a bare name is a variable or a parameter; an import,
a comment or a docstring does not.  A name that only the tests use is
test-only API: delete it, or list it in ALLOWED with the reason it stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kspace"

# qualified name -> why it stays without a caller under src/
ALLOWED = {
    "instances.InstanceDoc.to_json":
        "the document writer, paired with the reader InstanceDoc.from_json",
    "core.AtomUniverse.max_level":
        "tests/reference_checks.py, the reference the per-edge checks are "
        "compared against, bounds its level loop with it",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_definitions(module: str, tree: ast.Module):
    """(qualified name, node, whether it is a method) of each public
    module-level function or class and of each public method of such a
    class."""
    for node in tree.body:
        if isinstance(node, _DEFS) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, _DEFS[:2])
                            and not item.name.startswith("_")):
                        yield f"{module}.{node.name}.{item.name}", item, True


def _references(node: ast.AST, enclosing: frozenset = frozenset()):
    """(referenced name, whether it is an attribute, ids of the definitions
    enclosing the reference) for each Name and Attribute under `node`."""
    if isinstance(node, ast.Name):
        yield node.id, False, enclosing
    elif isinstance(node, ast.Attribute):
        yield node.attr, True, enclosing
    if isinstance(node, _DEFS):
        enclosing = enclosing | {id(node)}
    for child in ast.iter_child_nodes(node):
        yield from _references(child, enclosing)


def _uncalled() -> list[str]:
    """The qualified names of the public definitions without a reference."""
    definitions, references = [], []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        definitions.extend(_public_definitions(path.stem, tree))
        references.extend(_references(tree))
    return [qualified for qualified, node, method in definitions
            if not any(name == node.name and id(node) not in enclosing
                       and (attribute or not method)
                       for name, attribute, enclosing in references)]


def test_every_public_name_has_a_caller_in_the_program():
    uncalled = [name for name in _uncalled() if name not in ALLOWED]
    assert uncalled == [], (
        f"public names that nothing under src/kspace references: {uncalled}")


def test_every_allowed_name_is_defined_and_uncalled():
    # an entry whose name gained a caller or went away is stale
    assert set(ALLOWED) <= set(_uncalled())
