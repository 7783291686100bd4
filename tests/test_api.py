import types

import sparsegames as sg


def test_all_lists_exactly_the_public_names():
    # A name deleted from a module but left in ``__all__`` fails the
    # import of ``from sparsegames import *``; one left imported but not
    # listed is an unadvertised export.
    public = {
        name
        for name, value in vars(sg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(sg.__all__)) == len(sg.__all__)
    assert sg.__all__ == sorted(sg.__all__)
    assert set(sg.__all__) == public
