"""End-to-end orchestration: ingestion, splits, fitting, scoring, detection.

A run lives in a directory: the manifest records the config hash, seed and
library versions, and every stage persists its artifacts there so stages
can be re-run individually.  Timestamps are ISO-8601, day bucketing is
UTC, and the whole pipeline is deterministic given (config, seed, input
files).  A posterior archive holds an int64 header, the acceptance rate
and the draw stack's three arrays; a file that is not such an archive is
refused with its path.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import sys
import warnings
import zipfile
from dataclasses import astuple, dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .anomaly import AnomalyScoreSeries, score_series
from .config import PipelineConfig, SplitSpec
from .detection import (
    AlarmPolicy,
    AlarmWindow,
    FailureLog,
    PoolingPolicy,
    evaluate,
    format_report,
    pool,
    raise_alarms,
)
from .explain import _predictive_summary, default_score_grid, embed_grid, gate_geometry, reduced_geometry, render_map
from .model import Dataset
from .posterior import (
    _STACK_FIELDS,
    FitDiagnostics,
    PosteriorSample,
    _quantiles,
    fit_diagnostics,
    sample_posteriors,
    sample_predictive,
)

__all__ = [
    "CsvSchema",
    "SplitSpec",
    "Scaler",
    "StageError",
    "ingest_csv",
    "read_telemetry",
    "read_failures",
    "standard_scale",
    "build_splits",
    "save_posterior",
    "load_posterior",
    "write_two_index_stream",
    "STAGES",
    "run_stages",
    "run_experiment",
    "emit_plot_data",
]

ARCHIVE_VERSION = 3
PARSED_ARCHIVES = 4  # posterior parses kept, one per index of a run of up to four; least recently used go first


class StageError(RuntimeError):
    """A pipeline stage failed; partial artifacts remain in the run directory."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CsvSchema:
    """Column roles for telemetry ingestion."""

    timestamp_column: str
    target: str
    covariates: list
    machine_column: str = ""
    machine_id: str = ""


def _parse_timestamp(row: dict, column: str) -> np.datetime64:
    """One ISO-8601 cell in UTC seconds; a missing or malformed cell raises with the reason."""
    raw = (row.get(column) or "").strip()
    if not raw:
        raise ValueError(f"missing value in column {column!r}")
    try:
        dt = datetime.fromisoformat(raw)
    except ValueError:
        raise ValueError(f"unparseable timestamp {raw!r}") from None
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    return np.datetime64(dt, "s")


def _parse_cell(row: dict, column: str) -> float:
    """One finite reading; a missing, malformed or non-finite cell raises with the reason."""
    raw = (row.get(column) or "").strip()
    if not raw:
        raise ValueError(f"missing value in column {column!r}")
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"bad value {raw!r} in column {column!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {raw!r} in column {column!r}")
    return value


def _read_rows(path, timestamp_columns: list, columns: list, machine_column: str = "", machine_id: str = ""):
    """The rows of a telemetry, failure, score or alarm CSV in file order.

    Returns ``(stamps, values, rejected)`` where ``stamps`` holds one
    datetime vector per timestamp column, ``values`` maps each requested
    column to a float vector and ``rejected`` lists ``(line_number,
    reason)`` for rows that failed to parse or had missing or non-finite
    fields, the machine cell included.  With a machine column only the rows
    of ``machine_id`` are read.  An empty file, a missing column or a column
    requested twice is refused with the path.
    """
    path = Path(path)
    needed = [*timestamp_columns, *columns] + ([machine_column] if machine_column else [])
    repeated = sorted({c for c in needed if needed.count(c) > 1})
    if repeated:
        raise ValueError(f"{path}: columns {repeated} requested twice")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file")
        missing = [c for c in needed if c not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        stamps, values, rejected = [[] for _ in timestamp_columns], {c: [] for c in columns}, []
        for lineno, row in enumerate(reader, start=2):
            if machine_column:
                machine = row.get(machine_column)
                if machine is None:  # the row stops before its machine cell: whose it is is unknown
                    rejected.append((lineno, f"missing value in column {machine_column!r}"))
                    continue
                if machine.strip() != machine_id:
                    continue
            try:
                parsed_stamps = [_parse_timestamp(row, c) for c in timestamp_columns]
                parsed = [_parse_cell(row, c) for c in columns]
            except ValueError as exc:
                rejected.append((lineno, str(exc)))
                continue
            for column, stamp in zip(stamps, parsed_stamps):
                column.append(stamp)
            for c, value in zip(columns, parsed):
                values[c].append(value)
    return [np.array(s, dtype="datetime64[s]") for s in stamps], {c: np.array(v) for c, v in values.items()}, rejected


def _refuse_rejected(path, rejected: list) -> None:
    """Refuse a file whose every row counts at its first rejected row."""
    if rejected:
        raise ValueError(f"{path}: line {rejected[0][0]}: {rejected[0][1]}")


def read_telemetry(path, timestamp_column: str, columns: list, machine_column: str = "", machine_id: str = ""):
    """Parse a telemetry CSV into sorted arrays.

    Returns ``(timestamps, values, rejected)``, the one stamp vector and the
    rest of what ``_read_rows`` returns, with the rows sorted by timestamp,
    stably, so duplicates keep their file order.  A file without a usable
    row is refused.
    """
    (ts,), values, rejected = _read_rows(path, [timestamp_column], columns, machine_column, machine_id)
    if not len(ts):
        raise ValueError(f"{path}: no usable rows")
    order = np.argsort(ts, kind="stable")
    return ts[order], {c: v[order] for c, v in values.items()}, rejected


def _dataset(ts, values: dict, target: str, covariates: list) -> Dataset:
    """The Dataset of ``target`` on ``covariates`` from read columns."""
    x = np.column_stack([values[c] for c in covariates]) if covariates else np.empty((len(ts), 0))
    return Dataset(x, values[target], ts)


def ingest_csv(path, schema: CsvSchema):
    """Telemetry file to a Dataset for one target index.

    Returns ``(dataset, rejected)``; the rejected list carries line
    numbers so malformed rows can be traced back to the file.
    """
    ts, values, rejected = read_telemetry(
        path, schema.timestamp_column, [schema.target, *schema.covariates], schema.machine_column, schema.machine_id
    )
    return _dataset(ts, values, schema.target, schema.covariates), rejected


def read_failures(path, timestamp_column: str = "datetime", machine_column: str = "", machine_id: str = "") -> FailureLog:
    """Failure log CSV (machine id, failure timestamp, component) to windows.

    Each record becomes a point failure window; duplicate timestamps
    collapse to one window.  Any rejected row is an error, since a dropped
    failure would go unscored.
    """
    (stamps,), _, rejected = _read_rows(path, [timestamp_column], [], machine_column, machine_id)
    _refuse_rejected(path, rejected)
    stamps = np.unique(stamps)
    return FailureLog(stamps, stamps)


# ---------------------------------------------------------------------------
# Scaling and splits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scaler:
    x_mean: np.ndarray
    x_sd: np.ndarray
    y_mean: float
    y_sd: float

    def apply(self, data: Dataset) -> Dataset:
        x = (data.covariates - self.x_mean) / self.x_sd
        y = (data.responses - self.y_mean) / self.y_sd
        return Dataset(x, y, data.timestamps)

    def to_dict(self) -> dict:
        return {
            "x_mean": self.x_mean.tolist(),
            "x_sd": self.x_sd.tolist(),
            "y_mean": self.y_mean,
            "y_sd": self.y_sd,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Scaler":
        return cls(np.array(d["x_mean"]), np.array(d["x_sd"]), d["y_mean"], d["y_sd"])


def standard_scale(fit_on: Dataset, apply_to: Dataset):
    """Column-wise standardization using the fit set's moments only.

    Returns ``(scaled, scaler)``; a zero-variance column is an error since
    it cannot be standardized.
    """
    x_sd = fit_on.covariates.std(axis=0) if len(fit_on) else np.array([])
    degenerate = np.flatnonzero(x_sd == 0.0)
    if degenerate.size:
        raise ValueError(f"constant covariate column(s) at index {degenerate.tolist()}")
    y_sd = float(fit_on.responses.std())
    if y_sd == 0.0:
        raise ValueError("constant response column")
    scaler = Scaler(fit_on.covariates.mean(axis=0), x_sd, float(fit_on.responses.mean()), y_sd)
    return scaler.apply(apply_to), scaler


def _failure_spans(failures: FailureLog, margin_days: float) -> list:
    """Merged spans from ``margin_days`` before each failure through its end:
    the parts of the test split that ``stage_score`` scores one by one."""
    margin = np.timedelta64(int(round(margin_days * 86400)), "s")
    merged = []
    for fs, fe in sorted(zip(failures.starts, failures.ends)):
        start, end = np.datetime64(fs, "s") - margin, np.datetime64(fe, "s")
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def build_splits(data: Dataset, failures: FailureLog, spec: SplitSpec):
    """Train/validation/test splits around the logged failures.

    Observations within the margin of any failure are excluded from the
    fault-free pool; the pool is subsampled chronologically, its first
    ``train_size`` rows become Train and the next ``validation_size``
    Validation.  Test gathers the excluded observations dated after the
    last Validation sample, restricted to the spans running from the
    margin before each failure through its end.
    """
    ts = np.asarray(data.timestamps, dtype="datetime64[s]")
    margin = np.timedelta64(int(round(spec.margin_days * 86400)), "s")
    near_failure, in_span = np.zeros(len(data), dtype=bool), np.zeros(len(data), dtype=bool)
    for fs, fe in zip(failures.starts, failures.ends):
        fe = np.datetime64(fe, "s")
        from_margin = ts >= np.datetime64(fs, "s") - margin
        near_failure |= from_margin & (ts <= fe + margin)
        in_span |= from_margin & (ts <= fe)
    pool_idx = np.flatnonzero(~near_failure)

    stride = max(1, int(round(1.0 / spec.fraction)))
    sub_idx = pool_idx[::stride]
    needed = spec.train_size + spec.validation_size
    if len(sub_idx) < needed:
        raise ValueError(
            f"fault-free pool has {len(sub_idx)} subsampled rows, "
            f"need {needed} for train + validation"
        )
    train = data.select(sub_idx[: spec.train_size])
    validation = data.select(sub_idx[spec.train_size : needed])

    val_end = validation.timestamps[-1] if len(validation) else train.timestamps[-1]
    test_idx = np.flatnonzero(in_span & (ts > np.datetime64(val_end, "s")))
    test = data.select(test_idx)
    return train, validation, test


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


def write_two_index_stream(
    out_dir,
    n_samples: int = 2400,
    onset_index: int | None = 2232,
    failure_index: int = 2280,
    shift_sds: float = 8.0,
    seed: int = 0,
    start: str = "2024-01-01T00:00:00",
    cadence_seconds: int = 3600,
):
    """Write a synthetic two-index telemetry CSV plus its failure log.

    Both health indices respond to a shared exogenous load signal; the
    injected fault shifts the indices but not the load, so each per-index
    conditional model sees the deviation.  Returns the two file paths.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if not 0 <= failure_index < n_samples:
        raise ValueError(f"failure index {failure_index} lies outside [0, {n_samples})")
    if onset_index is not None and not 0 <= onset_index <= failure_index:
        raise ValueError(f"onset index {onset_index} lies outside [0, {failure_index}]")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    start_ts = np.datetime64(start, "s")
    ts = start_ts + np.arange(n_samples) * np.timedelta64(cadence_seconds, "s")
    load = rng.uniform(-2.0, 2.0, size=n_samples)
    hi_a = 1.0 + 0.8 * load + rng.normal(0.0, 0.5, size=n_samples)
    hi_b = -0.5 + 1.2 * load + rng.normal(0.0, 0.7, size=n_samples)
    if onset_index is not None:
        hi_a[onset_index:] += shift_sds * 0.5
        hi_b[onset_index:] += shift_sds * 0.7

    telemetry = _write_csv(
        out_dir / "telemetry.csv",
        ["datetime", "machineID", "load", "hi_a", "hi_b"],
        ([t, "1", *_fixed6(row)] for t, row in zip(_timestamp_strings(ts), np.column_stack([load, hi_a, hi_b]))),
    )
    failures = _write_csv(
        out_dir / "failures.csv",
        ["datetime", "machineID", "component"],
        [[_timestamp_strings([ts[failure_index]])[0], "1", "comp1"]],
    )
    return telemetry, failures


# ---------------------------------------------------------------------------
# Posterior archive
# ---------------------------------------------------------------------------


def save_posterior(sample: PosteriorSample, path) -> None:
    """Versioned binary archive of a posterior sample's draw stack: an int64
    ``header`` (version, chain count, seed), the ``acceptance_rate`` and the
    stack's arrays, each under its own name."""
    header = np.array([ARCHIVE_VERSION, sample.chain_count, sample.seed], dtype=np.int64)
    arrays = {name: getattr(sample, name) for name in _STACK_FIELDS}
    np.savez_compressed(path, header=header, acceptance_rate=sample.acceptance_rate, **arrays)


def load_posterior(path) -> PosteriorSample:
    """The posterior sample archived at ``path``; a missing file, or an
    archive of any other version or with a member missing or misshapen, is
    refused by path.  The file is read on every call but parsed once per
    content between fits, never per path or mtime: equal bytes give one
    sample, whose draws are read-only."""
    try:
        return _parse_posterior(Path(path).read_bytes())
    except FileNotFoundError:
        raise FileNotFoundError(f"{path}: no posterior archive; run fit first") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


@functools.lru_cache(maxsize=PARSED_ARCHIVES)
def _parse_posterior(data: bytes) -> PosteriorSample:
    with _open_npz(io.BytesIO(data)) as archive:
        if {"format_version", "draws"} & set(archive.files):  # keys of every version-1 and version-2 archive
            raise ValueError(f"written before archive version {ARCHIVE_VERSION}; refit")
        header, rate, *arrays = _members(archive, ("header", "acceptance_rate", *_STACK_FIELDS))
    if header.dtype != np.int64 or header.shape != (3,) or header[0] != ARCHIVE_VERSION:
        raise ValueError(f"header {header.tolist()} is not a posterior archive version {ARCHIVE_VERSION} header")
    if rate.shape != () or rate.dtype.kind not in "iuf":
        raise ValueError(f"an acceptance_rate of shape {rate.shape} and dtype {rate.dtype} is not a real scalar")
    _, chain_count, seed = header.tolist()
    return PosteriorSample(*arrays, float(rate), chain_count, seed)


def _open_npz(file):
    """The npz archive in ``file``, a path or a binary file; any other content is refused."""
    try:
        archive = np.load(file)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"not an npz archive ({exc})") from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ValueError("not an npz archive")
    return archive


def _members(archive, names) -> list:
    """The arrays ``names`` of an open npz archive, refusing a missing or unreadable one."""
    missing = [name for name in names if name not in archive.files]
    if missing:
        raise ValueError(f"missing member {', '.join(missing)}")
    try:
        return [archive[name] for name in names]
    except ValueError as exc:  # an object array, which is never unpickled
        raise ValueError(f"unreadable member ({exc})") from exc


# ---------------------------------------------------------------------------
# Run directory stages
# ---------------------------------------------------------------------------


def _timestamp_strings(ts) -> list:
    stamps = np.datetime_as_string(np.asarray(ts, dtype="datetime64[s]"), unit="s")
    return [t.replace("T", " ") for t in stamps.tolist()]


def _fixed6(values) -> list:
    return [f"{v:.6f}" for v in values]


def _write_csv(path, header: list, rows) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _save_split(path, data: Dataset) -> None:
    stamps = data.timestamps.astype("datetime64[s]").astype("int64")
    np.savez_compressed(path, covariates=data.covariates, responses=data.responses, timestamps=stamps)


def _load_split(path) -> Dataset:
    try:
        with _open_npz(path) as archive:
            covariates, responses, timestamps = _members(archive, ("covariates", "responses", "timestamps"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return Dataset(covariates, responses, timestamps.astype("datetime64[s]"))


def _index_datasets(config: PipelineConfig, data_path):
    """Per-index raw Dataset plus the total count of dropped rows."""
    columns = [*config.indices, *config.extra_covariates]
    ts, values, rejected = read_telemetry(
        data_path, config.timestamp_column, columns, config.machine_column, config.machine_id
    )
    datasets = {
        index: _dataset(ts, values, index, [c for c in config.indices if c != index] + list(config.extra_covariates))
        for index in config.indices
    }
    return datasets, len(rejected)


def _read_manifest(run_dir: Path) -> dict:
    manifest_path = run_dir / "manifest.json"
    return json.loads(manifest_path.read_text()) if manifest_path.exists() else {}


def _write_manifest(run_dir: Path, entries: dict) -> None:
    """Set ``entries`` in the run manifest, keeping every other recorded key."""
    manifest = {**_read_manifest(run_dir), **entries}
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# The failure stamps ``fit`` split around, for the later stages; not named ``failures.csv``, the input
# log's usual name, so that a log kept in the run directory is never overwritten or read in its place.
_FAILURE_COPY = "failure_stamps.csv"


def _read_failure_copy(run_dir: Path) -> FailureLog:
    path = run_dir / _FAILURE_COPY
    if not path.exists():
        raise FileNotFoundError(f"{path}: no failure copy; run fit first")
    return read_failures(path)


def stage_fit(config: PipelineConfig, data_path, failures_path, run_dir) -> None:
    """Ingest, split, scale and fit one posterior per target index."""
    run_dir = Path(run_dir)
    if Path(failures_path).resolve() == (run_dir / _FAILURE_COPY).resolve():
        raise ValueError(f"{failures_path}: the failure log is the run's own {_FAILURE_COPY}; name it otherwise")
    run_dir.mkdir(parents=True, exist_ok=True)
    failures = read_failures(failures_path, config.timestamp_column, config.machine_column, config.machine_id)
    datasets, dropped = _index_datasets(config, data_path)
    spec = config.split_spec()
    splits, split_info = {}, {}
    for index in config.indices:
        train, validation, test = build_splits(datasets[index], failures, spec)
        scaled_train, scaler = standard_scale(train, train)
        splits[index] = {"train": scaled_train, "validation": scaler.apply(validation), "test": scaler.apply(test)}
        split_info[index] = {name: len(split) for name, split in splits[index].items()}
        (run_dir / f"scaler_{index}.json").write_text(json.dumps(scaler.to_dict()) + "\n")
    # One lockstep run fits every index; index i draws from seed ``config.seed + i``.
    trains = [splits[index]["train"] for index in config.indices]
    _parse_posterior.cache_clear()  # parses kept from earlier fits would only add to the sampler's memory
    samples = sample_posteriors(trains, config.prior_spec(), config.experts, config.sampler_settings())
    for index, sample in zip(config.indices, samples):
        save_posterior(sample, run_dir / f"posterior_{index}.npz")
        for name, split in splits[index].items():
            _save_split(run_dir / f"{name}_{index}.npz", split)
        split_info[index]["acceptance_rate"] = sample.acceptance_rate
    # Each failure is a point window, so one column holds the log.
    _write_csv(run_dir / _FAILURE_COPY, ["datetime"], ([t] for t in _timestamp_strings(failures.starts)))
    versions = dict(anomix=__version__, numpy=np.__version__, python=sys.version.split()[0])
    provenance = {"config_hash": config.config_hash(), "seed": config.seed, "versions": versions}
    _write_manifest(run_dir, {**provenance, "dropped_rows": dropped, "splits": split_info})


def stage_diagnose(config: PipelineConfig, run_dir) -> None:
    """Fit and coverage diagnostics on the training split of each index."""
    run_dir = Path(run_dir)
    rows = []
    for index in config.indices:
        sample = load_posterior(run_dir / f"posterior_{index}.npz")
        train = _load_split(run_dir / f"train_{index}.npz")
        diag = fit_diagnostics(sample, train)
        checks = (
            (diag.pareto_k_max, 0.7, "Pareto k max", "its PSIS-LOO estimate is unreliable"),
            (diag.rhat_max, 1.01, "split R-hat max", "its chains have not mixed"),
        )
        for value, bound, name, consequence in checks:
            if value > bound:
                warnings.warn(f"index {index!r}: {name} {value:.2f} > {bound}, so {consequence}", RuntimeWarning)
        rows.append([index, *(f"{v:.4f}" for v in astuple(diag))])
    _write_csv(run_dir / "diagnostics.csv", ["index", *(f.name for f in fields(FitDiagnostics))], rows)


def _write_series(path, series: AnomalyScoreSeries) -> None:
    """Score series as CSV; values are written at full precision (``repr``)
    so that reading them back cannot move a score across the threshold."""
    lo = series.theta_low if series.theta_low is not None else series.as_values
    hi = series.theta_high if series.theta_high is not None else series.as_values
    rows = (
        [ts, *(repr(float(x)) for x in (v, a, b, series.threshold))]
        for ts, v, a, b in zip(_timestamp_strings(series.timestamps), series.as_values, lo, hi)
    )
    _write_csv(path, ["timestamp", "as_value", "theta_q05", "theta_q95", "threshold"], rows)


def _read_series(path) -> AnomalyScoreSeries:
    (ts,), values, rejected = _read_rows(path, ["timestamp"], ["as_value", "theta_q05", "theta_q95", "threshold"])
    _refuse_rejected(path, rejected)
    if not len(ts):
        raise ValueError(f"{path}: score file has no rows, so it records no threshold")
    thresholds = np.unique(values["threshold"])
    if len(thresholds) > 1:
        raise ValueError(f"{path}: rows record {len(thresholds)} thresholds {thresholds.tolist()}, not one")
    try:
        return AnomalyScoreSeries(ts, values["as_value"], float(thresholds[0]), values["theta_q05"], values["theta_q95"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def stage_score(config: PipelineConfig, run_dir) -> None:
    """Anomaly score series per index on the test split.

    Each failure span is scored on its own, so that no window reaches
    across the gap between two spans.  A span shorter than one window gives
    no scores: it raises a warning and is listed per index under
    ``skipped_spans`` in the manifest, which keeps what ``fit`` recorded
    and the spans of indices not scored here."""
    run_dir = Path(run_dir)
    skipped = {}
    for index in config.indices:
        sample = load_posterior(run_dir / f"posterior_{index}.npz")
        test = _load_split(run_dir / f"test_{index}.npz")
        spans = _failure_spans(_read_failure_copy(run_dir), config.margin_days)
        parts, skipped[index] = [], []
        for start, end in spans:
            rows = test.select((test.timestamps >= start) & (test.timestamps <= end))
            if len(rows) > config.window_k:
                parts.append(score_series(rows, sample, config.window_k, config.effective_decay(), config.threshold))
                continue
            skipped[index].append({"start": str(start), "end": str(end), "rows": len(rows)})
            message = f"failure span {start} to {end} has {len(rows)} test rows, fewer than {config.window_k + 1}"
            warnings.warn(f"index {index!r}: {message}; skipped", RuntimeWarning)
        if not parts:
            raise ValueError(f"no failure span of the {index!r} test split holds a window of {config.window_k + 1} rows")
        names = ("timestamps", "as_values", "theta_low", "theta_high")
        joined = {name: np.concatenate([getattr(p, name) for p in parts]) for name in names}
        _write_series(run_dir / f"scores_{index}.csv", AnomalyScoreSeries(threshold=config.threshold, **joined))
    _write_manifest(run_dir, {"skipped_spans": {**_read_manifest(run_dir).get("skipped_spans", {}), **skipped}})


def _write_alarms(path, alarms: list) -> None:
    onsets = _timestamp_strings([a.onset for a in alarms])
    _write_csv(path, ["onset", "end"], zip(onsets, _timestamp_strings([a.end for a in alarms])))


def _read_alarms(path) -> list:
    (onsets, ends), _, rejected = _read_rows(path, ["onset", "end"], [])
    _refuse_rejected(path, rejected)
    return [AlarmWindow(onset, end) for onset, end in zip(onsets, ends)]


def stage_detect(config: PipelineConfig, run_dir) -> None:
    """Per-index alarms plus the pooled consensus score and its alarms.

    Both use ``config.threshold``, not the threshold the score files were
    written with, so an override applies to the consensus too."""
    run_dir = Path(run_dir)
    policy = AlarmPolicy(config.threshold, config.patience)
    serieses = []
    for index in config.indices:
        series = replace(_read_series(run_dir / f"scores_{index}.csv"), threshold=config.threshold)
        serieses.append(series)
        _write_alarms(run_dir / f"alarms_{index}.csv", raise_alarms(series, policy))
    if len(serieses) > 1:
        pooled = pool(serieses, PoolingPolicy(config.quorum, config.half_level))
        _write_series(run_dir / "pooled_scores.csv", pooled)
        _write_alarms(run_dir / "pooled_alarms.csv", raise_alarms(pooled, AlarmPolicy(pooled.threshold, config.patience)))


def stage_evaluate(config: PipelineConfig, run_dir) -> None:
    """Detection report against the failure log, per validity window length."""
    run_dir = Path(run_dir)
    failures = _read_failure_copy(run_dir)
    if len(config.indices) > 1:
        alarms = _read_alarms(run_dir / "pooled_alarms.csv")
        observed = _read_series(run_dir / "pooled_scores.csv").timestamps
    else:
        alarms = _read_alarms(run_dir / f"alarms_{config.indices[0]}.csv")
        observed = _read_series(run_dir / f"scores_{config.indices[0]}.csv").timestamps
    report = evaluate(alarms, failures, config.validity_days, observed)
    (run_dir / "detection_report.csv").write_text(format_report(report, grouped=False))
    (run_dir / "detection_report_grouped.csv").write_text(format_report(report, grouped=True))


def stage_explain(config: PipelineConfig, run_dir) -> None:
    """Explanation maps per index: grid, embedded points, model outputs."""
    run_dir = Path(run_dir)
    for index in config.indices:
        sample = load_posterior(run_dir / f"posterior_{index}.npz")
        if sample.n_experts == 1:
            continue  # a single-expert gate has no directions to map
        try:
            geometry = (reduced_geometry if sample.n_experts > 3 else gate_geometry)(sample)
        except ValueError as exc:  # a rank-deficient gate has no 2D map
            warnings.warn(f"index {index!r}: no explanation map, since {exc}", RuntimeWarning)
            continue
        train = _load_split(run_dir / f"train_{index}.npz")
        grid = default_score_grid(min(geometry.n_directions, 2))
        skeleton = embed_grid(geometry, grid, train.covariates.mean(axis=0))
        rendered = render_map(skeleton, sample)
        header = (
            [f"score_{j}" for j in range(rendered.grid.shape[1])]
            + [f"x_{j}" for j in range(rendered.points.shape[1])]
            + [f"activation_{j}" for j in range(sample.n_experts)]
            + ["predictive_mean", "predictive_sd"]
        )
        table = np.column_stack(
            [rendered.grid, rendered.points, rendered.activations, rendered.predictive_mean, rendered.predictive_sd]
        )
        _write_csv(run_dir / f"explain_{index}_map.csv", header, map(_fixed6, table))
        _write_csv(
            run_dir / f"explain_{index}_arrows.csv",
            ["feature"] + [f"component_{j}" for j in range(rendered.grid.shape[1])],
            ([j, *_fixed6(arrow)] for j, arrow in enumerate(rendered.arrows)),
        )


# The protocol in order: each stage's name and the function of this module that runs it.
STAGES = {
    "fit": "stage_fit",
    "diagnose": "stage_diagnose",
    "score": "stage_score",
    "detect": "stage_detect",
    "evaluate": "stage_evaluate",
    "explain": "stage_explain",
    "plot": "emit_plot_data",
}


def run_stages(names, config: PipelineConfig, run_dir, data_path=None, failures_path=None) -> None:
    """Run the named stages in order; only ``fit`` reads the input files.

    Any stage failure aborts with ``StageError`` naming the stage; artifacts
    written by earlier stages stay in the run directory.  Each function is
    looked up when its stage starts, so a wrapper set on this module's
    attribute is the one that runs.
    """
    for name in names:
        stage = globals()[STAGES[name]]
        inputs = (data_path, failures_path) if name == "fit" else ()
        try:
            stage(config, *inputs, run_dir)
        except Exception as exc:
            raise StageError(name, exc) from exc


def run_experiment(config: PipelineConfig, data_path, failures_path, run_dir) -> dict:
    """Full protocol, fit through plot data, in one run directory.

    Runs every stage of ``STAGES`` and returns the run manifest."""
    run_stages(STAGES, config, run_dir, data_path, failures_path)
    return _read_manifest(Path(run_dir))


# ---------------------------------------------------------------------------
# Plot-ready outputs
# ---------------------------------------------------------------------------


def emit_plot_data(config: PipelineConfig, run_dir) -> None:
    """Tabular files for external plotting that no other stage writes.

    Per index: a predictive band over the test span (observed response,
    predictive mean and 5%/95% predictive quantiles) and the posterior-mean
    gate activations.  Scores, alarms and failures are plotted from the
    files of the stages that wrote them.
    """
    run_dir = Path(run_dir)
    rng = np.random.default_rng(config.seed)
    for index in config.indices:
        sample = load_posterior(run_dir / f"posterior_{index}.npz")
        test = _load_split(run_dir / f"test_{index}.npz")
        if len(test) == 0:
            continue
        # The summary first, so that its block temporaries never coexist with the predictive draws.
        act, mean, _ = _predictive_summary(sample, test.covariates)
        q05, q95 = _quantiles(sample_predictive(sample, test.covariates, rng), [0.05, 0.95])

        stamps = _timestamp_strings(test.timestamps)
        band = np.column_stack([test.responses, mean, q05, q95])
        _write_csv(
            run_dir / f"plot_band_{index}.csv",
            ["timestamp", "observed", "predictive_mean", "q05", "q95"],
            ([ts, *_fixed6(row)] for ts, row in zip(stamps, band)),
        )
        _write_csv(
            run_dir / f"plot_activations_{index}.csv",
            ["timestamp"] + [f"activation_{j}" for j in range(act.shape[1])],
            ([ts, *_fixed6(row)] for ts, row in zip(stamps, act)),
        )
