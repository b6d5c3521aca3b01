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
