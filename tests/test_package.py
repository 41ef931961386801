"""The package's public surface: every exported name exists."""

import collapsim


def test_every_export_resolves():
    missing = [name for name in collapsim.__all__ if not hasattr(collapsim, name)]
    assert missing == []
    assert len(set(collapsim.__all__)) == len(collapsim.__all__)
