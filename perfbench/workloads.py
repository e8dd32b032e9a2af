"""The three workloads: one class each, driven only through public calls.

A workload generates its inputs (untimed), sets up (timed, repeated),
then runs operations.  Every program call inside set-up and operations
goes through ``SpeedClock.call`` and is looked up on its module at call
time, so the tracer's wrappers see it.  After each operation ``check``
re-derives what the outputs must be and raises ``CheckError`` otherwise.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from anomix import anomaly, config, detection, pipeline, posterior, selection

import checks
from checks import require
from inputs import HOUR, START, Fault, write_stream

INDICES = ("hi_a", "hi_b")

# Detection power: over the windows of an injected 8-sd fault, the mean
# score of at least one index must reach this.  Healthy windows average
# 1/2; over 180 faults the best index never averaged below 0.94.
FAULT_SCORE_FLOOR = 0.8


def dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def config_text(seed: int, **overrides) -> str:
    """The README demo configuration, with the given keys replaced."""
    values = {
        "schema_version": 1,
        "indices": "hi_a, hi_b",
        "extra_covariates": "load",
        "machine_column": "machineID",
        "machine_id": "1",
        "experts": 2,
        "chains": 2,
        "iterations": 900,
        "burn_in": 500,
        "subsample_fraction": 1.0,
        "quorum": 2,
        "patience": 3,
        "threshold": 0.975,
        "validity_days": "1, 2, 3, 4, 5, 6, 7",
        "seed": seed,
    }
    values.update(overrides)
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def _seed(seed: int, *salt: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, *salt])


class Workload:
    name = ""
    # Reference-speed seconds one operation is sized at.  Operations per run
    # are round(--seconds / NOMINAL_OP_S): a fixed count, never "as many as
    # fit", so every run attempts the same work.
    NOMINAL_OP_S = 1.0

    def __init__(self, work_dir: Path, seed: int):
        self.work = Path(work_dir)
        self.seed = seed

    def prepare(self, n_ops: int) -> None:
        """Write every input the run needs.  Not timed."""

    def setup(self, clock, rep: int) -> None:
        raise NotImplementedError

    def setup_tallies(self, rep: int) -> dict:
        return {}

    def op(self, clock, i: int, tag: str = ""):
        """Operation i; ``tag`` names its output directories apart when
        the same operation runs twice (traced and untraced)."""
        raise NotImplementedError

    def probe(self, clock, i: int) -> dict:
        """Per-layer figures a traced run measures beside operation i."""
        return {}

    def check(self, i: int, out) -> dict:
        """Raise CheckError on a wrong output; return figures to gather over
        the run (numbers are summed, lists joined)."""
        raise NotImplementedError

    def op_tallies(self, i: int, out) -> dict:
        return {}


# ---------------------------------------------------------------------------
# protocol: the README two-index demo, stage by stage
# ---------------------------------------------------------------------------


class Protocol(Workload):
    """fit -> diagnose -> score -> detect -> evaluate -> explain -> plot data.

    Each operation gets its own stream (2400 hourly rows, one fault shifted
    8 sds from row 2232 to its failure at row 2280) and its own sampler
    seed, so no result of an earlier operation can be reused.
    """

    name = "protocol"
    NOMINAL_OP_S = 5.0
    STAGES = (
        ("fit", "stage_fit"),
        ("diagnose", "stage_diagnose"),
        ("score", "stage_score"),
        ("detect", "stage_detect"),
        ("evaluate", "stage_evaluate"),
        ("explain", "stage_explain"),
        ("plot", "emit_plot_data"),
    )

    def prepare(self, n_ops: int) -> None:
        self.streams = []
        self.config_paths = []
        for i in range(n_ops):
            d = self.work / f"input{i}"
            self.streams.append(write_stream(d, [(2400, _seed(self.seed, 1, i))], [Fault(2232, 2280)], 8.0))
            path = d / "run.cfg"
            path.write_text(config_text(seed=1000 * self.seed + i))
            self.config_paths.append(path)

    def setup(self, clock, rep: int) -> None:
        self.configs = [clock.call("load_config", config.load_config, p) for p in self.config_paths]

    def op(self, clock, i: int, tag: str = ""):
        cfg, stream = self.configs[i], self.streams[i]
        run_dir = self.work / f"run{i}{tag}"
        for label, func in self.STAGES:
            fn = getattr(pipeline, func)
            if func == "stage_fit":
                clock.call(label, fn, cfg, stream.telemetry, stream.failures, run_dir)
            else:
                clock.call(label, fn, cfg, run_dir)
        return run_dir

    def op_tallies(self, i: int, run_dir) -> dict:
        return {"run_dir_bytes": dir_bytes(run_dir)}

    def check(self, i: int, run_dir) -> dict:
        cfg, stream = self.configs[i], self.streams[i]
        tol = checks.FILE_ROUNDING
        per_index = []
        for index in INDICES:
            ts, vals, lo, hi, thr = checks.read_scores(run_dir / f"scores_{index}.csv")
            for what, v in (("score", vals), ("q05 band", lo), ("q95 band", hi)):
                checks.check_unit_interval(v, f"{index} {what}")
            alarms = checks.read_alarms(run_dir / f"alarms_{index}.csv")
            checks.check_alarms(ts, vals, cfg.threshold, cfg.patience, alarms, tol, f"alarms_{index}")
            per_index.append((ts, vals, thr))
            checks.check_explain_map(run_dir / f"explain_{index}_map.csv")
            require((run_dir / f"plot_band_{index}.csv").exists(), f"no plot band for {index}")
        require(np.array_equal(per_index[0][0], per_index[1][0]), "indices scored at different times")
        means = checks.check_fault_scores(
            per_index[0][0], [(index, v) for index, (_, v, _) in zip(INDICES, per_index)],
            stream.faults, FAULT_SCORE_FLOOR, "scores",
        )

        p_ts, p_vals, _, _, p_thr = checks.read_scores(run_dir / "pooled_scores.csv")
        require(np.array_equal(p_ts, per_index[0][0]), "pooled timestamps differ from the indices'")
        checks.check_pooled([(v, t) for _, v, t in per_index], p_vals, cfg.quorum, tol, "pooled_scores")
        pooled_alarms = checks.read_alarms(run_dir / "pooled_alarms.csv")
        checks.check_alarms(p_ts, p_vals, p_thr, cfg.patience, pooled_alarms, tol, "pooled_alarms")

        # detection_report.csv prints recall, which is TP / (TP + FN).
        failures = [f.failure for f in stream.faults]
        with open(run_dir / "detection_report.csv") as fh:
            lines = fh.read().strip().splitlines()[1:]
        recalls = {int(line.split(",")[0]): float(line.split(",")[3]) for line in lines}
        require(sorted(recalls) == sorted(cfg.validity_days), "report rows differ from validity_days")
        for w, reported in recalls.items():
            tp = checks.true_positives(pooled_alarms, failures, p_ts, w)
            expected = 100.0 * tp / len(failures)
            require(abs(reported - expected) <= 0.005 + 1e-9, f"recall at {w} days: {reported} != {expected}")
        return {**checks.fault_stats(pooled_alarms, stream.faults), "fault_score_means": means}


# ---------------------------------------------------------------------------
# monitor: runtime scoring of fresh telemetry against one fitted model
# ---------------------------------------------------------------------------


class Monitor(Workload):
    """Score a fresh eight-day batch per operation, then detect and evaluate.

    The stream has 14 healthy days for the fit, then one 192-row batch per
    operation.  Faults are rare in condition monitoring, so a batch is
    mostly healthy: it carries one fault shifted 8 sds over its rows
    140-152.  That share is an assumption, not a measured traffic mix: 13
    of 192 rows (7%) are faulty and 23 of the 192 windows (12%) hold a
    faulty row, against 2% faulty rows in the README demo's stream, which
    would leave most batches without a fault to detect.  Every batch has the
    same mix, so every batch costs about the same.  A window in a fault
    costs more than a healthy one, because its query falls at the far end
    of the sum-CDF support, so the traced run also reports the two costs
    apart (``probe``).

    Each batch is scored with its 10 preceding rows as window context, so
    every batch yields 192 windows.  The fit keeps 100 draws (2 chains x
    50): per-window cost varies with the data, and a batch of many distinct
    windows steadies it.

    The 14 days of history and the sampler seed are the same in every run,
    so every run fits the same model: the model's draws set the cost of
    every score, and a model refitted per seed moved the median operation
    by several percent from seed to seed.  The batches come from --seed.
    """

    name = "monitor"
    NOMINAL_OP_S = 2.5
    K = 10
    BATCH = 192
    FAULT_ROWS = (140, 152)
    LEAD = 14 * 24
    HISTORY_SEED = 0
    # Healthy windows of a calibrated model score 1/2 on average.
    NULL_MEAN_BOUNDS = (0.2, 0.8)

    def prepare(self, n_ops: int) -> None:
        a, b = self.FAULT_ROWS
        faults = [Fault(self.LEAD + j * self.BATCH + a, self.LEAD + j * self.BATCH + b) for j in range(n_ops)]
        segments = [(self.LEAD, _seed(self.HISTORY_SEED, 2)), (n_ops * self.BATCH, _seed(self.seed, 2))]
        self.stream = write_stream(self.work / "input", segments, faults, 8.0)
        self.cfg_path = self.work / "input" / "run.cfg"
        self.cfg_path.write_text(
            config_text(
                seed=self.HISTORY_SEED,
                iterations=550,
                burn_in=500,
                window_k=self.K,
                margin_days=1.0,
            )
        )

    def setup(self, clock, rep: int) -> None:
        cfg = clock.call("load_config", config.load_config, self.cfg_path)
        fit_dir = self.work / f"fit{rep}"
        clock.call("fit", pipeline.stage_fit, cfg, self.stream.telemetry, self.stream.failures, fit_dir)
        data = {}
        for index in INDICES:
            schema = pipeline.CsvSchema(
                cfg.timestamp_column,
                index,
                [i for i in INDICES if i != index] + cfg.extra_covariates,
                cfg.machine_column,
                cfg.machine_id,
            )
            raw, _ = clock.call("ingest", pipeline.ingest_csv, self.stream.telemetry, schema)
            scaler = pipeline.Scaler.from_dict(json.loads((fit_dir / f"scaler_{index}.json").read_text()))
            data[index] = clock.call("scale", scaler.apply, raw)
        self.cfg, self.fit_dir, self.data = cfg, fit_dir, data

    def setup_tallies(self, rep: int) -> dict:
        return {"run_dir_bytes": dir_bytes(self.work / f"fit{rep}")}

    def _batch_rows(self, i: int):
        stop = self.LEAD + (i + 1) * self.BATCH
        return slice(stop - self.BATCH - self.K, stop)

    def _windows_in_fault(self, i: int) -> np.ndarray:
        """Per window of batch i: does it hold a faulty row?"""
        faulty = self.stream.faulty_rows()[self._batch_rows(i)]
        return np.lib.stride_tricks.sliding_window_view(faulty, self.K + 1).any(axis=1)

    def op(self, clock, i: int, tag: str = ""):
        cfg = self.cfg
        rows = self._batch_rows(i)
        policy = detection.AlarmPolicy(cfg.threshold, cfg.patience)
        series, alarms = [], []
        for index in INDICES:
            sample = clock.call("load_posterior", pipeline.load_posterior, self.fit_dir / f"posterior_{index}.npz")
            batch = self.data[index].select(np.arange(rows.start, rows.stop))
            s = clock.call(
                "score", anomaly.score_series, batch, sample, cfg.window_k, cfg.effective_decay(), cfg.threshold
            )
            series.append(s)
            alarms.append(clock.call("detect", detection.raise_alarms, s, policy))
        pooled = clock.call("pool", detection.pool, series, detection.PoolingPolicy(cfg.quorum, cfg.half_level))
        pooled_alarms = clock.call(
            "detect", detection.raise_alarms, pooled, detection.AlarmPolicy(pooled.threshold, cfg.patience)
        )
        failures = np.array([f.failure for f in self._batch_faults(i)], dtype="datetime64[s]")
        log = detection.FailureLog(failures, failures)
        report = clock.call("evaluate", detection.evaluate, pooled_alarms, log, cfg.validity_days, pooled.timestamps)
        return series, alarms, pooled, pooled_alarms, report

    def _batch_faults(self, i: int) -> list:
        first = START + (self.LEAD + i * self.BATCH) * HOUR
        last = first + (self.BATCH - 1) * HOUR
        return [f for f in self.stream.faults if first <= f.failure <= last]

    def check(self, i: int, out) -> dict:
        series, alarms, pooled, pooled_alarms, report = out
        cfg = self.cfg
        ts = START + np.arange(self.LEAD + i * self.BATCH, self.LEAD + (i + 1) * self.BATCH) * HOUR
        for index, s, a in zip(INDICES, series, alarms):
            require(np.array_equal(np.asarray(s.timestamps, dtype="datetime64[s]"), ts), f"{index}: windows misplaced")
            checks.check_unit_interval(s.as_values, f"{index} score")
            checks.check_alarms(ts, s.as_values, cfg.threshold, cfg.patience, [(x.onset, x.end) for x in a], 0.0, index)
        checks.check_pooled([(s.as_values, s.threshold) for s in series], pooled.as_values, cfg.quorum, 0.0, "pooled")
        pooled_spans = [(x.onset, x.end) for x in pooled_alarms]
        checks.check_alarms(ts, pooled.as_values, pooled.threshold, cfg.patience, pooled_spans, 0.0, "pooled alarms")
        faults = self._batch_faults(i)
        failures = [f.failure for f in faults]
        for w in cfg.validity_days:
            row = report.row(w)
            tp = checks.true_positives(pooled_spans, failures, ts, w)
            require((row.tp, row.fn) == (tp, len(failures) - tp), f"TP/FN at {w} days")

        means = checks.check_fault_scores(
            ts, [(index, s.as_values) for index, s in zip(INDICES, series)], faults, FAULT_SCORE_FLOOR, "scores"
        )

        # Null calibration: windows whose k + 1 rows are all healthy.
        healthy = ~self._windows_in_fault(i)
        mean = float(np.mean([s.as_values[healthy] for s in series]))
        lo, hi = self.NULL_MEAN_BOUNDS
        require(lo <= mean <= hi, f"batch {i}: healthy windows average {mean:.3f}, outside [{lo}, {hi}]")
        return {**checks.fault_stats(pooled_spans, faults), "fault_score_means": means, "healthy_means": [mean]}

    def probe(self, clock, i: int) -> dict:
        """score_series time per window and draw, healthy and in a fault.

        The batch's windows before the fault (all healthy) and the windows
        that hold a faulty row are scored apart, with the same model and
        context, so each kind's cost is measured on its own.
        """
        cfg = self.cfg
        start = self._batch_rows(i).start
        touched = np.flatnonzero(self._windows_in_fault(i))
        kinds = {"healthy": (0, touched[0]), "fault": (touched[0], touched[-1] + 1)}
        figures = {}
        for kind, (a, b) in kinds.items():
            clock.start()
            draws = 0
            for index in INDICES:
                sample = clock.call("load_posterior", pipeline.load_posterior, self.fit_dir / f"posterior_{index}.npz")
                part = self.data[index].select(np.arange(start + a, start + b + self.K))
                clock.call(kind, anomaly.score_series, part, sample, cfg.window_k, cfg.effective_decay(), cfg.threshold)
                draws += (b - a) * sample.n_draws
            seconds = sum(c[2] for c in clock.calls if c[0] == kind)
            figures[f"anomaly.{kind}_window_draw_us"] = 1e6 * seconds / draws
        return figures


# ---------------------------------------------------------------------------
# select: the candidate sweep, trial by trial
# ---------------------------------------------------------------------------


class Select(Workload):
    """Sweep experts 1-3 x gate-prior scale {0.5, 2} on one training split.

    The split is the first 200 rows of a healthy 400-row stream, for hi_a
    given hi_b and load, scaled on itself.  Each operation uses its own
    sampler seed; 2 chains x 100 kept iterations give the 200 draws that
    PSIS smoothing and the 20-level coverage grid need.
    """

    name = "select"
    NOMINAL_OP_S = 3.0
    GRID = tuple(
        {"experts": m, "gate_coeff_scale": s} for m in (1, 2, 3) for s in (0.5, 2.0)
    )
    K_LEVELS = 20
    NU = 0.5

    def prepare(self, n_ops: int) -> None:
        self.stream = write_stream(self.work / "input", [(400, _seed(self.seed, 3))], [], 8.0)

    def setup(self, clock, rep: int) -> None:
        schema = pipeline.CsvSchema("datetime", "hi_a", ["hi_b", "load"], "machineID", "1")
        data, _ = clock.call("ingest", pipeline.ingest_csv, self.stream.telemetry, schema)
        failures = clock.call("read_failures", pipeline.read_failures, self.stream.failures, "datetime", "machineID", "1")
        spec = pipeline.SplitSpec(margin_days=1.0, fraction=1.0, train_size=200, validation_size=100)
        train, _, _ = clock.call("split", pipeline.build_splits, data, failures, spec)
        self.train, _ = clock.call("scale", pipeline.standard_scale, train, train)

    def settings(self, i: int):
        return posterior.SamplerSettings(chains=2, iterations=350, burn_in=250, seed=1000 * self.seed + i)

    def op(self, clock, i: int, tag: str = ""):
        settings = self.settings(i)
        trials = [
            clock.call("trial", selection.run_trial, tid, hp, self.train, settings, self.K_LEVELS)
            for tid, hp in enumerate(self.GRID)
        ]
        best = clock.call("select", selection.select_best, trials, self.NU)
        out_dir = self.work / f"select{i}{tag}"
        out_dir.mkdir(parents=True, exist_ok=True)
        clock.call("ledger", selection.write_trials_csv, trials, best, out_dir / "trials.csv")
        return trials, out_dir

    def op_tallies(self, i: int, out) -> dict:
        return {"run_dir_bytes": dir_bytes(out[1])}

    def check(self, i: int, out) -> dict:
        trials, out_dir = out
        checks.check_ledger(out_dir / "trials.csv", len(self.GRID), self.NU)
        seed = self.settings(i).seed
        for t in trials:
            # run_trial builds its grid from the same data, levels and seed.
            grid = selection.coverage_counts(t.sample, self.train, self.K_LEVELS, rng=seed)
            checks.check_coverage(grid.counts, grid.levels, len(self.train), t.coverage_cost, f"trial {t.trial_id}")
        return {}


WORKLOADS = {w.name: w for w in (Protocol, Monitor, Select)}
