"""Alarms, pooled consensus scores and validity-window detection metrics.

An alarm opens only after a configurable number of consecutive
above-threshold scores (the patience) and stays active while the
threshold is exceeded.  Detection quality is judged against a failure
log: a failure counts as detected when any alarm is active among the
observations falling within the validity window of ``w`` days before it,
while false positives are tallied per recorded day outside all validity
windows.  Alarms act at sample granularity, FP/TN bookkeeping at calendar
day (UTC) granularity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anomaly import AnomalyScoreSeries

__all__ = [
    "AlarmPolicy",
    "PoolingPolicy",
    "AlarmWindow",
    "FailureLog",
    "DetectionRow",
    "DetectionReport",
    "raise_alarms",
    "pool",
    "evaluate",
    "group_constant_ranges",
    "format_report",
]

POOLED_THRESHOLD = 0.75  # separates the full-consensus level 1 from 0 and 0.5


@dataclass(frozen=True)
class AlarmPolicy:
    threshold: float = 0.975
    patience: int = 10

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")


@dataclass(frozen=True)
class PoolingPolicy:
    quorum: int = 1
    half_level_enabled: bool = False

    def __post_init__(self):
        if self.quorum < 1:
            raise ValueError("quorum must be at least 1")


@dataclass(frozen=True)
class AlarmWindow:
    """Active span of one alarm; onset is the patience-th exceeding sample."""

    onset: object
    end: object


@dataclass(frozen=True)
class FailureLog:
    """Ordered, non-overlapping failure windows (start/end timestamps)."""

    starts: np.ndarray
    ends: np.ndarray

    def __post_init__(self):
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        if starts.shape != ends.shape or starts.ndim != 1:
            raise ValueError("starts and ends must be aligned vectors")
        if np.any(ends < starts):
            raise ValueError("failure windows must end after they start")
        if len(starts) > 1 and np.any(starts[1:] <= ends[:-1]):
            raise ValueError("failure windows must be ordered and non-overlapping")
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "ends", ends)

    def __len__(self) -> int:
        return self.starts.shape[0]


@dataclass(frozen=True)
class DetectionRow:
    w_days: int
    tp: int
    fn: int
    fp: int
    tn: int
    samples_in_range: int
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class DetectionReport:
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))

    def row(self, w_days: int) -> DetectionRow:
        for r in self.rows:
            if r.w_days == w_days:
                return r
        raise KeyError(f"no row for validity window of {w_days} days")


def raise_alarms(series: AnomalyScoreSeries, policy: AlarmPolicy) -> list:
    """Alarm windows from consecutive threshold exceedances.

    The alarm opens at the patience-th consecutive sample at or above the
    threshold and closes at the first sample below it.
    """
    above = np.concatenate(([False], series.as_values >= policy.threshold, [False]))
    runs = np.flatnonzero(above[1:] != above[:-1]).reshape(-1, 2).tolist()  # [start, stop) of each run
    ts = series.timestamps
    return [AlarmWindow(ts[a + policy.patience - 1], ts[b - 1]) for a, b in runs if b - a >= policy.patience]


def pool(serieses: list, policy: PoolingPolicy) -> AnomalyScoreSeries:
    """Consensus score across indices: 1 on quorum, optional 0.5 half-level.

    Input series must share their timestamps; each index exceeds against
    its own threshold.  The returned series uses a threshold between the
    half-level and 1 so that alarm logic counts consecutive full-consensus
    samples only.
    """
    if not serieses:
        raise ValueError("at least one score series is required")
    base = serieses[0].timestamps
    for s in serieses[1:]:
        if len(s.timestamps) != len(base) or np.any(s.timestamps != base):
            raise ValueError("pooled series must share identical timestamps")
    above = np.stack([s.as_values >= s.threshold for s in serieses])
    counts = above.sum(axis=0)
    pooled = np.where(counts >= policy.quorum, 1.0, 0.0)
    if policy.half_level_enabled:
        pooled = np.where((counts == 1) & (policy.quorum > 1), 0.5, pooled)
    return AnomalyScoreSeries(base, pooled, POOLED_THRESHOLD)


def _covered(n: int, lo, hi) -> np.ndarray:
    """Mask of the n samples inside any index range [lo, hi), from one difference array."""
    edges = np.bincount(lo, minlength=n + 1) - np.bincount(np.maximum(lo, hi), minlength=n + 1)
    return np.cumsum(edges[:-1]) > 0


def evaluate(alarms: list, failures: FailureLog, w_days: list, observed) -> DetectionReport:
    """Score alarms against the failure log for each validity-window length.

    ``observed`` holds the timestamps of every scored observation; gaps in
    it shrink the effective validity windows, and a window containing no
    observation at all counts as a missed failure.  Rows follow ``w_days``.
    """
    w = np.asarray(w_days)
    if (w <= 0).any():
        raise ValueError("validity window length must be positive")
    observed = np.sort(np.asarray(observed, dtype="datetime64[s]"))
    n = len(observed)
    spans = np.array([(a.onset, a.end) for a in alarms], dtype="datetime64").reshape(-1, 2)
    active = _covered(n, np.searchsorted(observed, spans[:, 0]), np.searchsorted(observed, spans[:, 1], "right"))
    starts = np.asarray(failures.starts, dtype="datetime64[s]")
    ends = np.asarray(failures.ends, dtype="datetime64[s]")
    in_failure = _covered(n, np.searchsorted(observed, starts), np.searchsorted(observed, ends, "right"))
    active_before = np.concatenate([[0], np.cumsum(active)])

    # Failure f's validity window of w days (one row per w) holds the observations
    # in [start_f - w, start_f), its oldest day (the bucket) those before start_f - (w - 1).
    days = np.stack([w, w - 1]).astype(np.int64).astype("timedelta64[D]")
    lo = np.searchsorted(observed, starts - days[0, :, None])
    tp = np.count_nonzero(active_before[np.searchsorted(observed, starts)] > active_before[lo], axis=-1)
    fn = len(failures) - tp
    # So an observation lies in a validity window when a failure starts at
    # most w days after it, and in a bucket when one starts in (w - 1, w].
    within, within_prev = np.searchsorted(starts, observed + days[..., None], "right")
    in_validity = within > np.searchsorted(starts, observed, "right")

    # Day-level tallying outside validity windows; days touching a
    # validity window or a failure window are neither healthy nor
    # pre-failure, so they are excluded from FP/TN.  A day starts at the first
    # stamp and wherever the sorted stamps change day.
    day = observed.astype("datetime64[D]")
    first = np.flatnonzero(np.concatenate(([n > 0], day[1:] != day[:-1])))
    outside = ~(np.logical_or.reduceat(in_validity, first, axis=-1) | np.logical_or.reduceat(in_failure, first))
    fp = np.count_nonzero(outside & np.logical_or.reduceat(active, first), axis=-1)
    tn = np.count_nonzero(outside, axis=-1) - fp
    # With no true positive every rate reads 0, a 0 / 0 included.
    recall, precision = tp / np.maximum(tp + fn, 1), tp / np.maximum(tp + fp, 1)
    f1 = np.divide(2 * recall * precision, recall + precision, out=np.zeros(len(w)), where=tp > 0)
    samples = np.count_nonzero(within > within_prev, axis=-1)
    counts = np.stack([w.astype(np.int64), tp, fn, fp, tn, samples], axis=-1).tolist()
    rates = np.stack([precision, recall, f1], axis=-1).tolist()
    return DetectionReport(DetectionRow(*c, *r) for c, r in zip(counts, rates))


def group_constant_ranges(report: DetectionReport) -> list:
    """Merge consecutive window lengths whose metrics coincide.

    Returns ``(w_max, w_min, samples, precision, recall, f1)`` tuples with
    the per-length sample counts pooled, mirroring how result tables
    collapse runs of identical rows.
    """
    rows = sorted(report.rows, key=lambda r: r.w_days)
    groups = []
    for r in rows:
        if groups:
            w_max, w_min, samples, p, rec, f1 = groups[-1]
            if w_max == r.w_days - 1 and (p, rec, f1) == (r.precision, r.recall, r.f1):
                groups[-1] = (r.w_days, w_min, samples + r.samples_in_range, p, rec, f1)
                continue
        groups.append((r.w_days, r.w_days, r.samples_in_range, r.precision, r.recall, r.f1))
    return groups[::-1]


def format_report(report: DetectionReport, grouped: bool = True) -> str:
    """Detection table as comma-separated text with percentage metrics."""
    lines = [",".join(["Days to Event", "Samples in Range", "Prec. [%]", "Rec. [%]", "F1 [%]"])]
    if grouped:
        groups = group_constant_ranges(report)
    else:
        rows = sorted(report.rows, key=lambda r: -r.w_days)
        groups = [(r.w_days, r.w_days, r.samples_in_range, r.precision, r.recall, r.f1) for r in rows]
    for w_max, w_min, samples, p, rec, f1 in groups:
        label = f"{w_max}-{w_min}" if w_max != w_min else f"{w_max}"
        lines.append(",".join([label, str(samples), f"{100 * p:.2f}", f"{100 * rec:.2f}", f"{100 * f1:.2f}"]))
    return "\n".join(lines) + "\n"
