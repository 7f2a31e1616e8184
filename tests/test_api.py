"""Package surface: ``segdict.__all__`` matches what ``__init__`` imports."""

import types

import segdict


def test_all_names_exactly_the_imported_public_attributes():
    assert len(segdict.__all__) == len(set(segdict.__all__))
    public = {name for name, value in vars(segdict).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(segdict.__all__) == public
