"""Quick self-test: every workload runs, and a perturbed output is caught.

    python3 perfbench/selftest.py

Each workload runs one set-up and then its operations.  Operation 0 is
checked as produced and must pass; the outputs of operation 1 are altered
before the checks run and must be counted as failed.  On the workloads that
score, operation 2 runs with a scorer that has lost its detection power (a
constant score of 1/2, alarms and pooling consistent with it) and must be
counted as failed too.  Exits 0 only when exactly the unaltered operation
passes on every workload.  Takes about a minute on 2 vCPUs.
"""

from __future__ import annotations

import csv
import dataclasses
import shutil
import sys
import time

import numpy as np

import run


def _rewrite_csv(path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def flip_pooled_consensus(run_dir) -> None:
    """protocol: turn the first full-consensus sample of the pooled series to 0."""
    def edit(rows):
        col = rows[0].index("as_value")
        for row in rows[1:]:
            if float(row[col]) == 1.0:
                row[col] = "0.000000"
                break
        return rows

    _rewrite_csv(run_dir / "pooled_scores.csv", edit)


def drop_pooled_alarm(out) -> None:
    """monitor: forget the first pooled alarm of the batch."""
    series, alarms, pooled, pooled_alarms, report = out
    del pooled_alarms[0]


def flag_other_trial(out) -> None:
    """select: move the ledger's selected flag to a trial with another metric."""
    _, out_dir = out

    def edit(rows):
        col, metric = rows[0].index("selected"), rows[0].index("metric")
        chosen = next(row for row in rows[1:] if row[col] == "1")
        other = next(row for row in rows[1:] if row[metric] != chosen[metric])
        chosen[col], other[col] = "0", "1"
        return rows

    _rewrite_csv(out_dir / "trials.csv", edit)


PERTURBATIONS = {
    "protocol": flip_pooled_consensus,
    "monitor": drop_pooled_alarm,  # every batch holds a fault
    "select": flag_other_trial,
}

# Workloads whose operations score telemetry.
SCORING = ("protocol", "monitor")


class ConstantScorer:
    """Replace ``anomaly.score_series`` under every name anomix binds it to
    with one that scores every window 1/2."""

    def __enter__(self):
        from anomix import anomaly

        original = anomaly.score_series

        def half(values):
            return None if values is None else np.full_like(values, 0.5)

        def constant(*args, **kwargs):
            series = original(*args, **kwargs)
            return dataclasses.replace(
                series, as_values=half(series.as_values),
                theta_low=half(series.theta_low), theta_high=half(series.theta_high),
            )

        self.patched = []
        for name, mod in list(sys.modules.items()):
            if mod is not None and (name == "anomix" or name.startswith("anomix.")):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, constant)
                        self.patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in self.patched:
            setattr(mod, attr, original)


def main() -> int:
    t0 = time.perf_counter()
    run.import_program()
    import refspeed
    import workloads

    ok = True
    for name, perturb in PERTURBATIONS.items():
        work = run.OUT_DIR / f"selftest-{name}"
        n_ops = 3 if name in SCORING else 2
        try:
            workload = workloads.WORKLOADS[name](work, seed=0)
            workload.prepare(n_ops)
            clock = refspeed.SpeedClock()
            run.set_up(workload, clock, None, 1)
            attempted, failed, passed, _, _ = run.run_ops(workload, clock, [0, 1], perturb={1: perturb})
            if name in SCORING:
                with ConstantScorer():
                    more = run.run_ops(workload, clock, [2])
                attempted, failed, passed = attempted + more[0], failed + more[1], passed + more[2]
        finally:
            shutil.rmtree(work, ignore_errors=True)
        good = attempted == n_ops and failed == n_ops - 1 and [p[0] for p in passed] == [0]
        ok &= good
        print(f"{name}: attempted {attempted}, failed {failed}; unaltered op passed: {[p[0] for p in passed] == [0]}"
              f" -> {'ok' if good else 'WRONG'}")
    print(f"self-test {'passed' if ok else 'FAILED'} in {time.perf_counter() - t0:.1f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
