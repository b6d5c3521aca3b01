"""The package's public names: what ``from treelab import *`` offers."""

import treelab


def test_every_public_name_resolves():
    missing = [name for name in treelab.__all__ if not hasattr(treelab, name)]
    assert missing == []


def test_public_names_are_unique():
    assert len(set(treelab.__all__)) == len(treelab.__all__)

