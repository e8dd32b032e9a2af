"""Every name a module exports must exist in it.

A name deleted from a module but left in its ``__all__`` breaks
``from anomix.<module> import *`` for every user; this check makes the
suite fail first.  Every module of the package declares ``__all__``.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import anomix

MODULES = sorted(info.name for info in pkgutil.iter_modules(anomix.__path__))


@pytest.mark.parametrize("module_name", MODULES)
def test_all_entries_resolve(module_name):
    module = importlib.import_module(f"anomix.{module_name}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_does_not_import_scipy_stats():
    # scipy.stats costs most of the package's import time and about 40 MB of
    # memory; a fresh interpreter shows whether any module pulls it in.
    code = "import sys, anomix.pipeline, anomix.selection, anomix.cli; print('scipy.stats' in sys.modules)"
    path = [str(Path(anomix.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "False"
