"""Seeded telemetry the benchmark hands to the program.

The law is the README demo's: an exogenous load uniform on [-2, 2] and two
health indices that respond to it,

    hi_a = 1.0 + 0.8 load + N(0, 0.5^2)
    hi_b = -0.5 + 1.2 load + N(0, 0.7^2)

A fault shifts hi_a by 0.5 * shift_sds and hi_b by 0.7 * shift_sds (that
many noise sds each) from its onset row through its failure row; the load
is never shifted.  The streams are written here rather than with the
program's own simulator so that the inputs stay fixed when the program
changes.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

START = np.datetime64("2024-01-01T00:00:00", "s")
HOUR = np.timedelta64(3600, "s")
MACHINE_ID = "1"


@dataclass(frozen=True)
class Fault:
    onset_row: int
    failure_row: int

    @property
    def onset(self) -> np.datetime64:
        return START + self.onset_row * HOUR

    @property
    def failure(self) -> np.datetime64:
        return START + self.failure_row * HOUR


@dataclass(frozen=True)
class Stream:
    telemetry: Path
    failures: Path
    n_rows: int
    faults: tuple

    def faulty_rows(self) -> np.ndarray:
        mask = np.zeros(self.n_rows, dtype=bool)
        for f in self.faults:
            mask[f.onset_row : f.failure_row + 1] = True
        return mask


def _stamp(ts: np.datetime64) -> str:
    return np.datetime_as_string(ts, unit="s").replace("T", " ")


def _healthy_rows(n_rows: int, seed):
    rng = np.random.default_rng(seed)
    load = rng.uniform(-2.0, 2.0, size=n_rows)
    hi_a = 1.0 + 0.8 * load + rng.normal(0.0, 0.5, size=n_rows)
    hi_b = -0.5 + 1.2 * load + rng.normal(0.0, 0.7, size=n_rows)
    return load, hi_a, hi_b


def write_stream(out_dir, segments, faults, shift_sds: float) -> Stream:
    """Write telemetry.csv and failures.csv for one two-index stream.

    ``segments`` lists ``(rows, seed)`` pairs drawn one after another, so a
    stream can continue a fixed history with rows from the run's seed.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    parts = [_healthy_rows(n, seed) for n, seed in segments]
    load, hi_a, hi_b = (np.concatenate(cols) for cols in zip(*parts))
    n_rows = len(load)
    faults = tuple(faults)
    for f in faults:
        hi_a[f.onset_row : f.failure_row + 1] += 0.5 * shift_sds
        hi_b[f.onset_row : f.failure_row + 1] += 0.7 * shift_sds
    ts = START + np.arange(n_rows) * HOUR

    telemetry = out_dir / "telemetry.csv"
    with open(telemetry, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["datetime", "machineID", "load", "hi_a", "hi_b"])
        for i in range(n_rows):
            writer.writerow(
                [_stamp(ts[i]), MACHINE_ID, f"{load[i]:.6f}", f"{hi_a[i]:.6f}", f"{hi_b[i]:.6f}"]
            )
    failures = out_dir / "failures.csv"
    with open(failures, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["datetime", "machineID", "component"])
        for f in faults:
            writer.writerow([_stamp(f.failure), MACHINE_ID, "comp1"])
    return Stream(telemetry, failures, n_rows, faults)
