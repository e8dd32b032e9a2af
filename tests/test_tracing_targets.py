"""Every function the benchmark's tracer wraps must exist in the package.

``perfbench/tracing.py`` finds each ``(module, function)`` of its ``SPANNED``
and ``COUNTED`` lists with ``getattr``, so deleting or renaming one of them
breaks a traced benchmark run.  The lists are read from the source without
importing the benchmark.  Only telemetry may pass through the traced
``pipeline.read_telemetry``, since the rows it returns are what the tracer
counts: failure logs, score files, alarm files and the run's failure copy
are read around it.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from oracles import default_config_text

from anomix import pipeline
from anomix.anomaly import AnomalyScoreSeries
from anomix.config import parse_config

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
    stamps = np.datetime64("2024-01-01T00:00:00", "s") + np.arange(4) * np.timedelta64(3600, "s")
    scores = tmp_path / "scores_hi_a.csv"
    values = np.array([0.5, 0.99, 0.99, 0.99])
    pipeline._write_series(scores, AnomalyScoreSeries(stamps, values, 0.975, values, values))
    np.testing.assert_array_equal(pipeline._read_series(scores).as_values, [0.5, 0.99, 0.99, 0.99])
    alarms = tmp_path / "alarms_hi_a.csv"
    pipeline._write_alarms(alarms, [pipeline.AlarmWindow(stamps[2], stamps[3])])
    assert len(pipeline._read_alarms(alarms)) == 1
    # ``evaluate`` reads the run's failure copy, as ``fit`` writes it, beside those files.
    (tmp_path / pipeline._FAILURE_COPY).write_text("datetime\n2024-01-01 03:00:00\n")
    pipeline.stage_evaluate(parse_config(default_config_text(indices=["hi_a"])), tmp_path)
    recall = (tmp_path / "detection_report.csv").read_text().splitlines()[1].split(",")[3]
    assert float(recall) == 100.0
