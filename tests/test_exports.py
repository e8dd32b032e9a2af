"""Every name a module exports must exist in it.

A name deleted from a module but left in its ``__all__`` breaks
``from anomix.<module> import *`` for every user; this check makes the
suite fail first.  Every module of the package declares ``__all__``.
"""

import importlib
import pkgutil

import pytest

import anomix

MODULES = sorted(info.name for info in pkgutil.iter_modules(anomix.__path__))


@pytest.mark.parametrize("module_name", MODULES)
def test_all_entries_resolve(module_name):
    module = importlib.import_module(f"anomix.{module_name}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
