"""Every function the benchmark's tracer wraps must exist in the package.

``perfbench/tracing.py`` finds each ``(module, function)`` of its ``SPANNED``
and ``COUNTED`` lists with ``getattr``, so deleting or renaming one of them
breaks a traced benchmark run.  The lists are read from the source without
importing the benchmark.  Only telemetry may pass through the traced
``pipeline.read_telemetry``, since the rows it returns are what the tracer
counts.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from anomix import pipeline
from anomix.anomaly import AnomalyScoreSeries

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


def test_failure_and_score_files_bypass_the_traced_reader(tmp_path, monkeypatch):
    # The tracer wraps ``pipeline.read_telemetry`` and counts
    # ``pipeline.rows_read`` from it, so only telemetry may go through it.
    def refuse(*args, **kwargs):
        raise AssertionError("read_telemetry read a file that is not telemetry")

    monkeypatch.setattr(pipeline, "read_telemetry", refuse)
    failures = tmp_path / "failures.csv"
    failures.write_text("datetime,machineID,failure\n2015-01-05 06:00:00,1,comp4\n")
    assert len(pipeline.read_failures(failures, "datetime", "machineID", "1")) == 1
    scores = tmp_path / "scores.csv"
    stamps = np.array(["2024-01-01T00:00:00", "2024-01-01T01:00:00"], dtype="datetime64[s]")
    pipeline._write_series(scores, AnomalyScoreSeries(stamps, np.array([0.5, 0.99]), 0.975))
    np.testing.assert_array_equal(pipeline._read_series(scores).as_values, [0.5, 0.99])
