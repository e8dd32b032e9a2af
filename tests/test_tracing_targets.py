"""Every function the benchmark's tracer wraps must exist in the package.

``perfbench/tracing.py`` finds each ``(module, function)`` of its ``SPANNED``
and ``COUNTED`` lists with ``getattr``, so deleting or renaming one of them
breaks a traced benchmark run.  The lists are read from the source without
importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_targets():
    tree = ast.parse(TRACING.read_text())
    lists = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPANNED", "COUNTED")
    }
    assert set(lists) == {"SPANNED", "COUNTED"}
    return lists["SPANNED"] + lists["COUNTED"]


@pytest.mark.parametrize("module, function", traced_targets())
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"anomix.{module}"), function, None))
