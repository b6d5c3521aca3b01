"""The package's public names: what ``from treelab import *`` offers."""

import ast
from pathlib import Path

import treelab


def test_every_public_name_resolves():
    missing = [name for name in treelab.__all__ if not hasattr(treelab, name)]
    assert missing == []


def test_public_names_are_unique():
    assert len(set(treelab.__all__)) == len(treelab.__all__)


def _names_imported_from_package(path, sources):
    """Names that ``path`` imports with ``from <module> import``.

    Only imports from a ``(module, level)`` pair in ``sources`` count.
    """
    tree = ast.parse(path.read_text())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module, node.level) in sources
        for alias in node.names
    }


def test_every_public_name_is_used():
    # A name belongs in __all__ only when a test or the command line imports
    # it from the package; the rest stay in their modules.
    tests = Path(__file__).parent
    used = set()
    for path in tests.glob("*.py"):
        used |= _names_imported_from_package(path, {("treelab", 0)})
    cli = Path(treelab.__file__).with_name("cli.py")
    used |= _names_imported_from_package(cli, {(None, 1), ("treelab", 0)})
    assert sorted(set(treelab.__all__) - used) == []


def _spans_targets():
    """``(module, name)`` of every function the benchmark's tracer wraps.

    Read from the ``LIGHT`` and ``TRACE`` tables of ``benchmarks/spans.py``,
    which rebind these names by module and so need them at module level.
    """
    spans = Path(__file__).parents[1] / "benchmarks" / "spans.py"
    targets = set()
    for node in ast.parse(spans.read_text()).body:
        names = {getattr(target, "id", None) for target in getattr(node, "targets", ())}
        if names & {"LIGHT", "TRACE"}:
            for entry in ast.walk(node.value):
                if isinstance(entry, ast.Tuple) and len(entry.elts) == 3:
                    module, name = (elt.value for elt in entry.elts[:2])
                    targets.add((module, name))
    return targets


def test_every_definition_is_used_by_the_package():
    # Each top-level function and class must be used by the package's own
    # code: a name read outside its own definition, imports and __all__
    # strings aside.  Only the tracer's targets may be unused.
    package = Path(treelab.__file__).parent
    defined, used = set(), set()
    for path in package.glob("*.py"):
        module = path.stem
        for statement in ast.parse(path.read_text()).body:
            own = None
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                own = statement.name
                defined.add((module, own))
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and node.id != own:
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    used.add(node.attr)
    unused = {(module, name) for module, name in defined if name not in used}
    assert sorted(unused - _spans_targets()) == []
