"""Output checks written apart from the program.

Nothing here imports anomix.  Alarm logic, pooling, validity-window
bookkeeping, the Pareto front and the Chebyshev walk are re-derived from
their documented definitions and compared with what the program wrote, so
that a defect shared by the program and its own tests still shows here.

Every check raises ``CheckError``; the caller counts the operation as
failed.
"""

from __future__ import annotations

import csv
import itertools
import math
from pathlib import Path

import numpy as np

# Stage files hold scores with 6 decimals, so a file value v stands for a
# true score within 5e-7 of it.  A score that close to the threshold may
# be read on either side of it, now or after a later fix to the hand-off
# precision; both readings are accepted.
FILE_ROUNDING = 5e-7 + 1e-12

# Enumerating every reading of the ambiguous samples is exact and cheap
# for the handful that ever occur; more than this is reported instead.
MAX_AMBIGUOUS = 12


class CheckError(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def parse_ts(raw: str) -> np.datetime64:
    return np.datetime64(raw.strip().replace(" ", "T"), "s")


def read_scores(path):
    """(timestamps, values, low band, high band, threshold) of a score CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) > 0, f"{Path(path).name}: no scores")
    ts = np.array([parse_ts(r["timestamp"]) for r in rows], dtype="datetime64[s]")
    vals = np.array([float(r["as_value"]) for r in rows])
    lo = np.array([float(r["theta_q05"]) for r in rows])
    hi = np.array([float(r["theta_q95"]) for r in rows])
    thresholds = {float(r["threshold"]) for r in rows}
    require(len(thresholds) == 1, f"{Path(path).name}: threshold varies across rows")
    return ts, vals, lo, hi, thresholds.pop()


def read_alarms(path) -> list:
    with open(path, newline="") as fh:
        return [(parse_ts(r["onset"]), parse_ts(r["end"])) for r in csv.DictReader(fh)]


# ---------------------------------------------------------------------------
# Alarms and pooling
# ---------------------------------------------------------------------------


def exceedance(values: np.ndarray, threshold: float, tol: float):
    """(surely at or above, ambiguous) masks against the threshold."""
    values = np.asarray(values, dtype=float)
    sure = values - tol >= threshold
    ambiguous = ~sure & (values + tol >= threshold)
    return sure, ambiguous


def alarms_from_exceedance(timestamps, above, patience: int) -> list:
    """Alarm spans: open at the patience-th consecutive exceedance, close
    at the last exceeding sample before the first one below."""
    alarms = []
    run = 0
    onset = None
    last = None
    for ts, up in zip(timestamps, above):
        if up:
            run += 1
            last = ts
            if run == patience:
                onset = ts
        else:
            if onset is not None:
                alarms.append((onset, last))
            run = 0
            onset = None
    if onset is not None:
        alarms.append((onset, last))
    return alarms


def _readings(sure: np.ndarray, ambiguous: np.ndarray, what: str):
    """Every exceedance vector consistent with the ambiguous samples."""
    idx = np.flatnonzero(ambiguous)
    require(len(idx) <= MAX_AMBIGUOUS, f"{what}: {len(idx)} scores sit on the threshold")
    for bits in itertools.product((False, True), repeat=len(idx)):
        above = sure.copy()
        above[idx] = bits
        yield above


def _same_alarms(a: list, b: list) -> bool:
    return len(a) == len(b) and all(x[0] == y[0] and x[1] == y[1] for x, y in zip(a, b))


def check_alarms(timestamps, values, threshold, patience, alarms, tol, what) -> None:
    sure, ambiguous = exceedance(values, threshold, tol)
    ok = any(
        _same_alarms(alarms_from_exceedance(timestamps, above, patience), alarms)
        for above in _readings(sure, ambiguous, what)
    )
    require(ok, f"{what}: alarms differ from those recomputed from the scores")


def check_pooled(per_index: list, pooled_values, quorum: int, tol: float, what) -> None:
    """Pooled consensus is 1 where at least ``quorum`` indices exceed."""
    sure = np.zeros(len(pooled_values), dtype=int)
    maybe = np.zeros(len(pooled_values), dtype=int)
    for values, threshold in per_index:
        require(len(values) == len(pooled_values), f"{what}: series lengths differ")
        s, a = exceedance(values, threshold, tol)
        sure += s
        maybe += a
    pooled = np.asarray(pooled_values, dtype=float)
    require(np.all((pooled == 0.0) | (pooled == 1.0)), f"{what}: pooled values are not 0/1")
    must_be_one = sure >= quorum
    must_be_zero = sure + maybe < quorum
    require(not np.any(must_be_one & (pooled != 1.0)), f"{what}: consensus missed")
    require(not np.any(must_be_zero & (pooled != 0.0)), f"{what}: consensus without quorum")


# ---------------------------------------------------------------------------
# Detection bookkeeping
# ---------------------------------------------------------------------------


def true_positives(alarms: list, failure_times, observed, w_days: int) -> int:
    """Failures with an active alarm on some observation in the w days before them."""
    observed = np.asarray(observed, dtype="datetime64[s]")
    active = np.zeros(len(observed), dtype=bool)
    for onset, end in alarms:
        active |= (observed >= onset) & (observed <= end)
    width = np.timedelta64(int(w_days) * 86400, "s")
    tp = 0
    for f in failure_times:
        f = np.datetime64(f, "s")
        if np.any(active & (observed >= f - width) & (observed < f)):
            tp += 1
    return tp


def check_fault_scores(timestamps, per_index: list, faults, floor: float, what) -> list:
    """Detection power: every injected fault is scored high by some index.

    For each fault, the mean score over the windows stamped from its onset
    through its failure must reach ``floor`` on at least one index.  A
    scorer that has lost its power (a constant 1/2, a sum-CDF that no longer
    reaches the tail) fails here even when alarms, pooling and bookkeeping
    agree with its scores.  One index is enough because a fit can settle in
    a mode where that index's expert explains a shared fault through the
    other index, and its mean then stays lower on some seeds only.
    Returns every index's mean, fault by fault, for the run's report.
    """
    timestamps = np.asarray(timestamps, dtype="datetime64[s]")
    means = []
    for f in faults:
        inside = (timestamps >= f.onset) & (timestamps <= f.failure)
        require(np.any(inside), f"{what}: no window stamped inside the fault ending {f.failure}")
        per_fault = {index: float(np.mean(np.asarray(v, dtype=float)[inside])) for index, v in per_index}
        best = max(per_fault.values())
        require(best >= floor, f"{what}: no index scores the fault ending {f.failure} {floor} or more: {per_fault}")
        means.extend(per_fault.values())
    return means


def fault_stats(alarms: list, faults) -> dict:
    """Injected faults, and those that raised no pooled alarm between onset
    and failure.

    Reported, not required: while the sampler's chains can settle in
    different modes, one index's score can hover at the threshold through a
    fault on some seeds, so the quorum is missed on those seeds only.  The
    required test of detection power is ``check_fault_scores``.
    """
    missed = sum(not any(f.onset <= onset <= f.failure for onset, _ in alarms) for f in faults)
    return {"faults": len(faults), "faults_missed": missed}


def check_unit_interval(values, what) -> None:
    values = np.asarray(values, dtype=float)
    require(np.all(np.isfinite(values)), f"{what}: non-finite score")
    require(np.all((values >= 0.0) & (values <= 1.0)), f"{what}: score outside [0, 1]")


# ---------------------------------------------------------------------------
# Explanation maps
# ---------------------------------------------------------------------------


def check_explain_map(path) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    require(len(rows) > 0, f"{Path(path).name}: empty map")
    act_cols = [c for c in rows[0] if c.startswith("activation_")]
    require(len(act_cols) >= 2, f"{Path(path).name}: fewer than two activation columns")
    act = np.array([[float(r[c]) for c in act_cols] for r in rows])
    sd = np.array([float(r["predictive_sd"]) for r in rows])
    tol = len(act_cols) * FILE_ROUNDING
    require(np.all(np.abs(act.sum(axis=1) - 1.0) <= tol), f"{Path(path).name}: activations do not sum to 1")
    require(np.all(sd > 0.0), f"{Path(path).name}: non-positive predictive sd")


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


def _cantelli(metric_a, se_a, metric_b, se_b) -> float:
    delta = metric_b - metric_a
    if delta <= 0.0:
        return 0.0
    var = se_a**2 + se_b**2
    return 1.0 if var == 0.0 else delta**2 / (delta**2 + var)


def selected_from_ledger(rows: list, nu: float) -> int:
    """Trial id the Pareto walk picks from ledger rows (id, metric, se, cost)."""
    front = [
        r
        for r in rows
        if not any(
            u[1] >= r[1] and u[3] <= r[3] and (u[1] > r[1] or u[3] < r[3]) for u in rows
        )
    ]
    front.sort(key=lambda r: (r[3], -r[1], r[0]))
    best = None
    for r in front:
        if best is None or _cantelli(best[1], best[2], r[1], r[2]) > nu:
            best = r
    return best[0]


def check_ledger(path, n_trials: int, nu: float) -> None:
    """The walk recomputed from the ledger picks the flagged row.

    Rows the ledger cannot tell apart (equal metric, se and cost to its six
    decimals) count as the same pick: the program breaks such ties on
    differences the ledger does not show.
    """
    with open(path, newline="") as fh:
        raw = list(csv.DictReader(fh))
    require(len(raw) == n_trials, f"ledger has {len(raw)} rows, expected {n_trials}")
    rows = {
        int(r["trial_id"]): (float(r["metric"]), float(r["metric_se"]), float(r["coverage_cost"]))
        for r in raw
    }
    flagged = [int(r["trial_id"]) for r in raw if r["selected"] == "1"]
    require(len(flagged) == 1, f"ledger flags {len(flagged)} trials as selected")
    pick = selected_from_ledger([(tid, *values) for tid, values in rows.items()], nu)
    require(
        rows[flagged[0]] == rows[pick],
        "the flagged trial is not the one the Pareto walk picks",
    )


def binomial_cost(counts, levels, n_points: int) -> float:
    """-sum log Binomial(count; n, level), written out with lgamma."""
    total = 0.0
    for c, p in zip(counts, levels):
        c = int(c)
        log_choose = math.lgamma(n_points + 1) - math.lgamma(c + 1) - math.lgamma(n_points - c + 1)
        total -= log_choose + c * math.log(p) + (n_points - c) * math.log1p(-p)
    return total


def check_coverage(counts, levels, n_points: int, trial_cost: float, what) -> None:
    counts = np.asarray(counts)
    require(np.all(np.diff(counts) >= 0), f"{what}: coverage counts fall as the level rises")
    cost = binomial_cost(counts, levels, n_points)
    require(
        math.isclose(cost, trial_cost, rel_tol=1e-9, abs_tol=1e-9),
        f"{what}: coverage cost {trial_cost} does not match its counts ({cost})",
    )
