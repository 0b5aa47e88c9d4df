"""Every public name of the program has a caller in the program.

Each public module-level function or class under ``src/kspace`` and each
public method of such a class must be referenced somewhere under
``src/kspace``, outside its own definition and outside ``__init__.py``
(whose re-exports call nothing).  Only AST references count: a ``Name``,
or the attribute of an ``Attribute``; an import, a comment or a docstring
does not.  A method counts as called only through a call ``obj.name(...)``
(a bare name is a variable or a parameter, and ``obj.name`` alone may be
a field of that name), and a ``property`` or ``cached_property`` through
``obj.name``.  A name that only the tests use is test-only API: delete
it, or list it in ALLOWED with the reason it stays.

Each field of a ``@dataclass`` or a ``NamedTuple`` class under
``src/kspace`` must likewise be read there: an ``obj.name`` in load
context.  A store such as
``tree.node_count = nodes`` does not count, so a field that is only
written is flagged.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kspace"

# qualified name -> why it stays without a caller under src/
ALLOWED = {
    "instances.InstanceDoc.to_json":
        "the document writer, paired with the reader InstanceDoc.from_json",
    "core.AtomUniverse.atoms":
        "the public listing of a universe's atoms; tests/reference_checks.py "
        "walks it",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_PROPERTIES = {"property", "cached_property"}


def _public_definitions(module: str, tree: ast.Module):
    """(qualified name, node, the ways a reference may count) of each
    public module-level function or class and of each public method of
    such a class."""
    for node in tree.body:
        if isinstance(node, _DEFS) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node, {"name", "attribute", "call"}
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, _DEFS[:2])
                            and not item.name.startswith("_")):
                        prop = any(
                            getattr(d, "id", getattr(d, "attr", None))
                            in _PROPERTIES for d in item.decorator_list)
                        yield (f"{module}.{node.name}.{item.name}", item,
                               {"attribute", "call"} if prop else {"call"})


def _references(node: ast.AST, enclosing: frozenset = frozenset()):
    """(referenced name, how it is referenced, ids of the definitions
    enclosing the reference) for each Name ("name") and Attribute
    ("attribute") under `node`, and once more as "call" for an Attribute
    that is called."""
    if isinstance(node, ast.Name):
        yield node.id, "name", enclosing
    elif isinstance(node, ast.Attribute):
        yield node.attr, "attribute", enclosing
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        yield node.func.attr, "call", enclosing
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
    return [qualified for qualified, node, counts in definitions
            if not any(name == node.name and id(node) not in enclosing
                       and how in counts
                       for name, how, enclosing in references)]


def _is_record(node: ast.ClassDef) -> bool:
    """A ``@dataclass`` (bare or called) or a ``NamedTuple`` subclass."""
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
        == "dataclass" for d in node.decorator_list) or any(
        getattr(b, "id", getattr(b, "attr", None)) == "NamedTuple"
        for b in node.bases)


def _fields_and_reads() -> tuple[list[tuple[str, str]], set[str]]:
    """(qualified name, name) of each dataclass and NamedTuple field under
    src/kspace, and the names read there as an attribute."""
    fields, reads = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and _is_record(node):
                fields.extend(
                    (f"{path.stem}.{node.name}.{item.target.id}", item.target.id)
                    for item in node.body if isinstance(item, ast.AnnAssign))
        reads.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.ctx, ast.Load))
    return fields, reads


def _unread_fields() -> list[str]:
    """The qualified names of the dataclass and NamedTuple fields that
    nothing under src/kspace reads."""
    fields, reads = _fields_and_reads()
    return [qualified for qualified, name in fields if name not in reads]


def test_every_dataclass_field_is_read_in_the_program():
    unread = _unread_fields()
    assert unread == [], (
        f"dataclass and NamedTuple fields that nothing under src/kspace "
        f"reads: {unread}")


def test_field_guard_covers_named_tuples():
    # a step is a NamedTuple; its fields stay under the guard
    fields = {qualified for qualified, _ in _fields_and_reads()[0]}
    assert {"engine.ReductionStep.source", "engine.ReductionStep.level"} <= fields
    assert "engine.ReductionTree.parent" in fields


def test_every_public_name_has_a_caller_in_the_program():
    uncalled = [name for name in _uncalled() if name not in ALLOWED]
    assert uncalled == [], (
        f"public names that nothing under src/kspace references: {uncalled}")


def test_every_allowed_name_is_defined_and_uncalled():
    # an entry whose name gained a caller or went away is stale
    assert set(ALLOWED) <= set(_uncalled())
