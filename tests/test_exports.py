"""Every name a module exports must exist in it, and be used.

A name deleted from a module but left in its ``__all__`` breaks
``from anomix.<module> import *`` for every user; this check makes the
suite fail first.  Every module of the package declares ``__all__``.

An exported name that nothing calls is an API kept only for tests: each
name in an ``__all__`` must appear, as a whole word, on a line of the
package other than its definition and its ``__all__`` entry, or in the
benchmark's sources, which are read as text and not imported.
"""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import anomix

MODULES = sorted(info.name for info in pkgutil.iter_modules(anomix.__path__))
SOURCES = sorted(Path(anomix.__file__).parent.glob("*.py"))
BENCHMARK = sorted((Path(anomix.__file__).parents[2] / "perfbench").glob("*.py"))


@pytest.mark.parametrize("module_name", MODULES)
def test_all_entries_resolve(module_name):
    module = importlib.import_module(f"anomix.{module_name}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def exports_and_own_lines(path):
    """The ``__all__`` names of a module, and per name the line numbers of
    its top-level definition and of the ``__all__`` assignment."""
    tree = ast.parse(path.read_text())
    (exports,) = [
        node for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
    ]
    names = ast.literal_eval(exports.value)
    listed = set(range(exports.lineno, exports.end_lineno + 1))
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                defined.setdefault(getattr(target, "id", None), node.lineno)
    return names, {name: listed | {defined.get(name)} for name in names}


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_is_used(module_name):
    names, own = exports_and_own_lines(Path(anomix.__file__).parent / f"{module_name}.py")
    sources = {path: path.read_text().splitlines() for path in SOURCES + BENCHMARK}
    unused = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        used = any(
            word.search(line)
            for path, lines in sources.items()
            for number, line in enumerate(lines, start=1)
            if not (path.stem == module_name and path in SOURCES and number in own[name])
        )
        if not used:
            unused.append(name)
    assert unused == []


def test_package_does_not_import_scipy_stats():
    # scipy.stats costs most of the package's import time and about 40 MB of
    # memory; a fresh interpreter shows whether any module pulls it in.
    code = "import sys, anomix.pipeline, anomix.selection, anomix.cli; print('scipy.stats' in sys.modules)"
    path = [str(Path(anomix.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "False"
