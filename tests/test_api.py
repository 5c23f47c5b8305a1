"""The package's public names."""

import chunksmooth


def test_every_public_name_resolves():
    """Every name in chunksmooth.__all__ is an attribute of the package,
    listed once, so `from chunksmooth import *` and the documented imports
    work."""
    names = chunksmooth.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(chunksmooth, name)]
    assert not missing, f"__all__ names that do not resolve: {missing}"
    namespace = {}
    exec("from chunksmooth import *", namespace)
    assert set(names) <= namespace.keys()
