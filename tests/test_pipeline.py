"""Pipeline tests: ingestion, scaling, splits, synthetic data, config, stages."""

import os
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from oracles import (
    BehaviorGateParams,
    ExpertParams,
    MixingGateParams,
    ModelParams,
    SyntheticSpec,
    default_config_text,
    generate_synthetic,
    pit_rows,
    stack_draws,
)

from anomix import pipeline
from anomix.anomaly import AnomalyScoreSeries, score_series
from anomix.config import _PARSERS, PipelineConfig, load_config, parse_config
from anomix.detection import AlarmPolicy, AlarmWindow, FailureLog, raise_alarms
from anomix.model import Dataset
from anomix.pipeline import (
    CsvSchema,
    Scaler,
    SplitSpec,
    build_splits,
    ingest_csv,
    _load_split,
    _read_alarms,
    _read_series,
    _save_split,
    _write_alarms,
    _write_series,
    load_posterior,
    read_failures,
    read_telemetry,
    save_posterior,
    standard_scale,
)
from anomix.posterior import PosteriorSample


AZURE_HEADER = "datetime,machineID,volt,rotate,pressure,vibration"


def write_azure_csv(path, rows):
    path.write_text(AZURE_HEADER + "\n" + "\n".join(rows) + "\n")


def azure_schema(**kwargs):
    defaults = dict(
        timestamp_column="datetime",
        target="vibration",
        covariates=["volt", "rotate", "pressure"],
        machine_column="machineID",
        machine_id="1",
    )
    defaults.update(kwargs)
    return CsvSchema(**defaults)


def single_expert_model(intercept=0.0, slope=0.5, sd=1.0):
    return ModelParams(
        (ExpertParams(intercept, [slope], sd),),
        MixingGateParams(np.zeros((1, 2))),
        BehaviorGateParams(np.zeros(2)),
    )


def hourly_dataset(n, seed=0, start="2024-01-01T00:00:00"):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = rng.normal(size=n)
    ts = np.datetime64(start, "s") + np.arange(n) * np.timedelta64(3600, "s")
    return Dataset(x, y, ts)


class TestIngest:
    def test_azure_style_header_parses(self, tmp_path):
        path = tmp_path / "telemetry.csv"
        write_azure_csv(
            path,
            [
                "2015-01-01 06:00:00,1,176.2,418.5,113.1,45.1",
                "2015-01-01 07:00:00,1,162.9,402.7,95.5,43.4",
                "2015-01-01 06:00:00,2,170.0,400.0,100.0,40.0",
            ],
        )
        data, rejected = ingest_csv(path, azure_schema())
        assert len(data) == 2  # machine 2 filtered out
        assert data.n == 3
        assert rejected == []
        assert data.responses.tolist() == [45.1, 43.4]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            ingest_csv(path, azure_schema())

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text(AZURE_HEADER + "\n")
        with pytest.raises(ValueError, match="no usable rows"):
            ingest_csv(path, azure_schema())

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("datetime,machineID,volt\n2015-01-01 06:00:00,1,176.2\n")
        with pytest.raises(ValueError, match="missing columns"):
            ingest_csv(path, azure_schema())

    def test_shuffled_rows_sorted(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        write_azure_csv(
            path,
            [
                "2015-01-01 08:00:00,1,1,1,1,3.0",
                "2015-01-01 06:00:00,1,1,1,1,1.0",
                "2015-01-01 07:00:00,1,1,1,1,2.0",
            ],
        )
        data, _ = ingest_csv(path, azure_schema())
        assert data.responses.tolist() == [1.0, 2.0, 3.0]
        assert np.all(data.timestamps[1:] >= data.timestamps[:-1])

    def test_malformed_rows_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_azure_csv(
            path,
            [
                "2015-01-01 06:00:00,1,176.2,418.5,113.1,45.1",
                "not-a-date,1,162.9,402.7,95.5,43.4",
                "2015-01-01 08:00:00,1,162.9,,95.5,43.4",
                "2015-01-01 09:00:00,1,162.9,402.7,95.5,oops",
            ],
        )
        data, rejected = ingest_csv(path, azure_schema())
        assert len(data) == 1
        assert [line for line, _ in rejected] == [3, 4, 5]

    def test_non_finite_cells_rejected_with_line_numbers(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text(
            "datetime,load,hi_a\n"
            "2015-01-01 06:00:00,0.1,1.0\n"
            "2015-01-01 07:00:00,nan,1.0\n"
            "2015-01-01 08:00:00,0.3,inf\n"
        )
        ts, values, rejected = read_telemetry(path, "datetime", ["load", "hi_a"])
        assert len(ts) == 1
        assert values["load"].tolist() == [0.1] and values["hi_a"].tolist() == [1.0]
        assert [line for line, _ in rejected] == [3, 4]
        assert "non-finite" in rejected[0][1] and "'load'" in rejected[0][1]
        assert "'hi_a'" in rejected[1][1]

    def test_row_cut_short_before_the_machine_cell_is_rejected(self, tmp_path):
        path = tmp_path / "telemetry.csv"
        path.write_text(
            "datetime,volt,rotate,pressure,vibration,machineID\n"
            "2015-01-01 06:00:00,176.2,418.5,113.1,45.1,1\n"
            "2015-01-01 07:00:00,162.9,402.7,95.5,43.4\n"
        )
        data, rejected = ingest_csv(path, azure_schema())
        assert data.responses.tolist() == [45.1]
        assert rejected == [(3, "missing value in column 'machineID'")]

    def test_dataset_refuses_non_finite_values(self):
        ts = np.array(["2024-01-01T00:00:00", "2024-01-01T01:00:00"], dtype="datetime64[s]")
        with pytest.raises(ValueError, match="finite"):
            Dataset([[0.0], [np.nan]], [1.0, 2.0], ts)
        with pytest.raises(ValueError, match="finite"):
            Dataset([[0.0], [1.0]], [1.0, -np.inf], ts)

    def test_failure_log_reader(self, tmp_path):
        path = tmp_path / "failures.csv"
        path.write_text(
            "datetime,machineID,failure\n"
            "2015-01-05 06:00:00,1,comp4\n"
            "2015-03-06 06:00:00,1,comp1\n"
            "2015-02-01 06:00:00,2,comp2\n"
        )
        log = read_failures(path, "datetime", "machineID", "1")
        assert len(log) == 2
        assert str(log.starts[0]).startswith("2015-01-05")

    # Each failure log gives these stamps or this refusal, naming the path
    # and, for a row, its line.  Two refusals differ from the failure log's
    # own loop before the reader was shared: that read the empty file as
    # "missing columns ['datetime', 'machineID']" and a row cut short before
    # its stamp as "unparseable timestamp None".
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("", "empty file"),
            ("datetime,machineID,failure\n", []),
            ("datetime,machineID,failure\n2015-01-05 06:00:00,2,comp4\n2015-03-06 06:00:00,3,comp1\n", []),
            (
                "datetime,machineID,failure\n2015-03-06 06:00:00,1,comp1\n2015-01-05 06:00:00,1,comp4\n"
                "2015-03-06 06:00:00,1,comp2\n2015-02-01 06:00:00,2,comp2\n",
                ["2015-01-05T06:00:00", "2015-03-06T06:00:00"],
            ),
            ("datetime,failure\n2015-01-05 06:00:00,comp4\n", "missing columns ['machineID']"),
            ("datetime,failure,machineID\n2015-01-05 06:00:00,comp4,1\n2015-03-06 06:00:00,comp1\n",
             "line 3: missing value in column 'machineID'"),
            ("machineID,failure,datetime\n1,comp4,2015-01-05 06:00:00\n1,comp1\n",
             "line 3: missing value in column 'datetime'"),
            ("datetime,machineID,failure\n2015-01-05 06:00:00,1,comp4\nnot-a-date,1,comp1\n",
             "line 3: unparseable timestamp 'not-a-date'"),
        ],
        ids=["empty", "header-only", "other-machines", "duplicate-unsorted", "missing-column", "cut-short",
             "cut-short-before-stamp", "bad-timestamp"],
    )
    def test_failure_log_parity(self, tmp_path, text, expected):
        path = tmp_path / "failures.csv"
        path.write_text(text)
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {expected}')}$"):
                read_failures(path, "datetime", "machineID", "1")
            return
        log = read_failures(path, "datetime", "machineID", "1")
        np.testing.assert_array_equal(log.starts, np.array(expected, dtype="datetime64[s]"))
        np.testing.assert_array_equal(log.ends, log.starts)

    @pytest.mark.parametrize(
        "columns, machine_column, repeated",
        [(["load", "load"], "", ["load"]), (["datetime", "load"], "", ["datetime"]), (["load"], "load", ["load"])],
        ids=["value-twice", "timestamp-as-value", "machine-as-value"],
    )
    def test_column_requested_twice_is_refused(self, tmp_path, columns, machine_column, repeated):
        # Read under both names, each reading would land twice in one vector.
        path = tmp_path / "telemetry.csv"
        path.write_text("datetime,load,hi_a\n2015-01-01 06:00:00,0.1,1.0\n2015-01-01 07:00:00,0.2,2.0\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: columns {repeated} requested twice")):
            read_telemetry(path, "datetime", columns, machine_column, "0.1")


class TestStandardScale:
    def test_self_scaling_normalizes(self):
        data = hourly_dataset(200, seed=1)
        scaled, scaler = standard_scale(data, data)
        np.testing.assert_allclose(scaled.covariates.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(scaled.covariates.std(axis=0), 1.0, atol=1e-12)
        assert abs(scaled.responses.mean()) < 1e-12
        assert abs(scaled.responses.std() - 1.0) < 1e-12

    def test_no_leakage_from_apply_set(self):
        train = hourly_dataset(100, seed=2)
        test = hourly_dataset(50, seed=3, start="2024-06-01T00:00:00")
        _, scaler_a = standard_scale(train, test)
        shifted = Dataset(test.covariates + 100.0, test.responses - 5.0, test.timestamps)
        _, scaler_b = standard_scale(train, shifted)
        np.testing.assert_array_equal(scaler_a.x_mean, scaler_b.x_mean)
        assert scaler_a.y_mean == scaler_b.y_mean

    def test_constant_column_rejected(self):
        data = hourly_dataset(50, seed=4)
        frozen = Dataset(
            np.column_stack([data.covariates[:, 0], np.full(50, 7.0)]),
            data.responses,
            data.timestamps,
        )
        with pytest.raises(ValueError, match="index \\[1\\]"):
            standard_scale(frozen, frozen)

    def test_scaler_round_trip(self):
        data = hourly_dataset(60, seed=5)
        _, scaler = standard_scale(data, data)
        back = Scaler.from_dict(scaler.to_dict())
        np.testing.assert_array_equal(back.x_mean, scaler.x_mean)


def failure_at(ts):
    arr = np.array([np.datetime64(ts, "s")])
    return FailureLog(arr, arr)


class TestBuildSplits:
    def test_no_failures_prefix_split(self):
        data = hourly_dataset(800, seed=6)
        train, val, test = build_splits(
            data, FailureLog(np.array([], dtype="datetime64[s]"), np.array([], dtype="datetime64[s]")),
            SplitSpec(fraction=1.0, train_size=200, validation_size=100),
        )
        assert len(train) == 200 and len(val) == 100 and len(test) == 0
        np.testing.assert_array_equal(train.responses, data.responses[:200])

    def test_default_fractions_and_sizes(self):
        # 10% chronological subsample, first 200 train, next 100 validation
        data = hourly_dataset(24 * 200, seed=7)  # 200 days hourly
        failures = failure_at(data.timestamps[24 * 190])
        train, val, test = build_splits(data, failures, SplitSpec())
        assert len(train) == 200 and len(val) == 100
        # subsample keeps every 10th row of the fault-free pool
        np.testing.assert_array_equal(train.responses, data.responses[:2000:10][:200])
        # test = margin-to-failure span, after validation end
        assert len(test) == 24 * 5 + 1
        assert test.timestamps[-1] == data.timestamps[24 * 190]
        # pairwise disjoint in timestamps
        parts = [set(train.timestamps.tolist()), set(val.timestamps.tolist()), set(test.timestamps.tolist())]
        assert not (parts[0] & parts[1]) and not (parts[0] & parts[2]) and not (parts[1] & parts[2])

    def test_margin_excludes_neighborhood(self):
        data = hourly_dataset(24 * 30, seed=8)
        failures = failure_at(data.timestamps[24 * 15])
        train, val, test = build_splits(
            data, failures, SplitSpec(margin_days=5, fraction=1.0, train_size=100, validation_size=50)
        )
        margin = np.timedelta64(5 * 86400, "s")
        fs = np.datetime64(failures.starts[0], "s")
        for ts in np.concatenate([train.timestamps, val.timestamps]):
            assert ts < fs - margin or ts > fs + margin

    def test_overlapping_margins_merge(self):
        data = hourly_dataset(24 * 40, seed=9)
        f1 = data.timestamps[24 * 20]
        f2 = data.timestamps[24 * 23]  # margins overlap for margin_days=5
        failures = FailureLog(np.array([f1, f2]), np.array([f1, f2]))
        train, val, test = build_splits(
            data, failures, SplitSpec(margin_days=5, fraction=1.0, train_size=100, validation_size=50)
        )
        # interval-union oracle: test span = [f1 - margin, f2] without duplication
        margin = np.timedelta64(5 * 86400, "s")
        lo = np.datetime64(f1, "s") - margin
        hi = np.datetime64(f2, "s")
        expected = [t for t in data.timestamps if lo <= t <= hi and t > val.timestamps[-1]]
        assert len(test) == len(expected)
        assert len(np.unique(test.timestamps)) == len(test)

    def test_pool_too_small(self):
        data = hourly_dataset(100, seed=10)
        with pytest.raises(ValueError, match="pool"):
            build_splits(
                data,
                FailureLog(np.array([], dtype="datetime64[s]"), np.array([], dtype="datetime64[s]")),
                SplitSpec(fraction=0.1, train_size=200, validation_size=100),
            )


class TestTimestampStrings:
    @staticmethod
    def one_by_one(ts) -> list:
        return [np.datetime_as_string(t, unit="s").replace("T", " ") for t in np.asarray(ts, dtype="datetime64[s]")]

    def test_demo_stamps(self, tmp_path):
        telemetry, _ = pipeline.write_two_index_stream(tmp_path)
        ts, _, _ = read_telemetry(telemetry, "datetime", ["load"])
        assert pipeline._timestamp_strings(ts) == self.one_by_one(ts)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-(2**40), 2**40), max_size=40))
    def test_random_second_stamps(self, seconds):
        ts = np.array(seconds, dtype="datetime64[s]")
        assert pipeline._timestamp_strings(ts) == self.one_by_one(ts)


class TestGenerateSynthetic:
    def test_pit_uniform_without_fault(self):
        model = single_expert_model(slope=1.5, sd=0.8)
        spec = SyntheticSpec(model, [("uniform", -2.0, 2.0)], 5000)
        data, _ = generate_synthetic(spec, seed=3)
        u = pit_rows(model, data.covariates, data.responses)
        assert kstest(u, "uniform").pvalue > 0.01

    def test_large_shift_saturates_scores(self):
        model = single_expert_model(slope=1.5, sd=0.8)
        spec = SyntheticSpec(
            model, [("uniform", -2.0, 2.0)], 200, fault_onset=100, shift_sds=10.0
        )
        data, _ = generate_synthetic(spec, seed=4)
        sample = stack_draws((model,), 0.25, 1, 0)
        series = score_series(data, sample, k=5)
        after = series.as_values[series.timestamps >= data.timestamps[105]]
        assert np.all(after >= 0.99)
        before = series.as_values[series.timestamps < data.timestamps[100]]
        assert before.mean() < 0.9

    def test_single_expert_reduces_to_affine_regression(self):
        model = single_expert_model(intercept=1.0, slope=2.0, sd=0.5)
        spec = SyntheticSpec(model, [("gaussian", 0.0, 1.0)], 4000)
        data, experts = generate_synthetic(spec, seed=5)
        assert set(experts.tolist()) == {0}
        residuals = data.responses - 1.0 - 2.0 * data.covariates[:, 0]
        assert residuals.std() == pytest.approx(0.5, abs=0.02)
        assert residuals.mean() == pytest.approx(0.0, abs=0.03)

    def test_deterministic_given_seed(self):
        model = single_expert_model()
        spec = SyntheticSpec(model, [("uniform", -1.0, 1.0)], 50)
        a, _ = generate_synthetic(spec, seed=9)
        b, _ = generate_synthetic(spec, seed=9)
        np.testing.assert_array_equal(a.responses, b.responses)


class TestConfig:
    def test_default_text_round_trips(self):
        config = parse_config(default_config_text())
        assert config.indices == ["hi_a", "hi_b"]
        assert config.threshold == 0.975

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown configuration key"):
            parse_config(default_config_text() + "tau = 0.9\n")

    def test_missing_required_rejected(self):
        with pytest.raises(ValueError, match="schema_version"):
            parse_config("indices = a, b\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config(default_config_text() + "threshold = 0.9\n" + "threshold = 0.8\n")

    def test_wrong_schema_version(self):
        text = default_config_text().replace("schema_version = 1", "schema_version = 2")
        with pytest.raises(ValueError, match="schema_version"):
            parse_config(text)

    def test_comments_and_blanks_ignored(self):
        text = "# comment\n\n" + default_config_text()
        assert parse_config(text).seed == 0

    def test_hash_changes_with_any_field(self):
        base = parse_config(default_config_text())
        for line, replacement in [
            ("threshold = 0.975", "threshold = 0.95"),
            ("patience = 10", "patience = 3"),
            ("seed = 0", "seed = 1"),
            ("window_k = 5", "window_k = 6"),
        ]:
            other = parse_config(default_config_text().replace(line, replacement))
            assert other.config_hash() != base.config_hash()

    @pytest.mark.parametrize("window_k", [12, 19, 20, 25, -3])
    def test_window_k_out_of_range_rejected(self, window_k):
        with pytest.raises(ValueError, match="window_k"):
            parse_config(default_config_text(window_k=window_k))

    @pytest.mark.parametrize("window_k", [0, 11])
    def test_window_k_range_ends_accepted(self, window_k):
        assert parse_config(default_config_text(window_k=window_k)).window_k == window_k

    def test_load_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(default_config_text(seed=7))
        assert load_config(path).seed == 7

    def test_default_hash_is_pinned(self):
        # The canonical text follows the field order, so reordering, renaming
        # or re-defaulting a key changes every recorded config hash.
        assert parse_config(default_config_text()).config_hash() == (
            "d247bf8af45db74a71c3e5c75ed2fbb0e27b89ce970d993669e7b936bc80b4bf"
        )

    def test_every_field_type_has_a_parser(self):
        assert {f.type for f in fields(PipelineConfig)} <= set(_PARSERS)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("patience", 0),
            ("quorum", 0),
            ("validity_days", [0, 2]),
            ("validity_days", []),
            ("burn_in", 3000),
            ("chains", 0),
            ("experts", 0),
            ("gate_coeff_scale", 0.0),
            ("target_acceptance", 1.5),
            ("train_size", 0),
            ("validation_size", -1),
            ("threshold", 1.0),
            ("subsample_fraction", 0.0),
            ("margin_days", -1.0),
            ("decay", 0.0),
            ("decay", 200.0),
            ("seed", -1),
        ],
    )
    def test_bad_setting_rejected_at_load(self, key, value):
        # A refusal names its key and line; a check across keys names them all.
        text = default_config_text(**{key: value})
        named = {"burn_in": ("iterations", "burn_in"), "decay": ("window_k", "decay")}.get(key, (key,))
        keys = [line.split("=")[0].strip() for line in text.splitlines()]
        where = ", ".join(str(keys.index(k) + 1) for k in named)
        plural = "s" if len(named) > 1 else ""
        with pytest.raises(ValueError) as refused:
            parse_config(text)
        names = ", ".join(repr(k) for k in named)
        assert str(refused.value).startswith(f"line{plural} {where}: bad value{plural} for {names}: ")

    def test_decay_the_sum_table_cannot_serve_is_refused_at_load(self):
        # Decay 8 at window_k 6 is served once the smallest weights are shed;
        # at window_k 11, decay 1.17 the table misses its symmetry and nothing
        # may be shed, so the refusal names both keys' lines.
        assert parse_config(default_config_text(window_k=6, decay=8.0)).decay == 8.0
        text = default_config_text(window_k=11, decay=1.17)
        keys = [line.split("=")[0].strip() for line in text.splitlines()]
        where = f"lines {keys.index('window_k') + 1}, {keys.index('decay') + 1}"
        with pytest.raises(ValueError) as refused:
            parse_config(text)
        assert str(refused.value).startswith(f"{where}: bad values for 'window_k', 'decay': decay too fast")

    @pytest.mark.parametrize(
        "overrides, named, column",
        [
            ({"indices": ["hi_a", "hi_a"]}, ("indices",), "hi_a"),
            ({"extra_covariates": ["load", "load"]}, ("extra_covariates",), "load"),
            ({"machine_column": "datetime", "machine_id": "1"}, ("timestamp_column", "machine_column"), "datetime"),
            ({"indices": ["hi_a", "datetime"]}, ("timestamp_column", "indices"), "datetime"),
            ({"extra_covariates": ["datetime"]}, ("timestamp_column", "extra_covariates"), "datetime"),
            ({"machine_column": "hi_b", "machine_id": "1"}, ("machine_column", "indices"), "hi_b"),
            (
                {"machine_column": "load", "machine_id": "1", "extra_covariates": ["load"]},
                ("machine_column", "extra_covariates"),
                "load",
            ),
            ({"extra_covariates": ["load", "hi_b"]}, ("indices", "extra_covariates"), "hi_b"),
        ],
        ids=lambda v: "+".join(v) if isinstance(v, tuple) else None,
    )
    def test_column_named_twice_is_refused_at_load(self, overrides, named, column):
        # Fitted on a column read twice, a model would train on scrambled readings.
        text = default_config_text(**overrides)
        keys = [line.split("=")[0].strip() for line in text.splitlines()]
        where = ", ".join(str(keys.index(k) + 1) for k in named)
        plural = "s" if len(named) > 1 else ""
        names = ", ".join(repr(k) for k in named)
        with pytest.raises(ValueError) as refused:
            parse_config(text)
        reason = f"column {column!r} is named more than once"
        assert str(refused.value) == f"line{plural} {where}: bad value{plural} for {names}: {reason}"

    @pytest.mark.parametrize("overrides", [{"machine_id": "7"}, {"machine_column": "machineID"}])
    def test_machine_id_and_column_are_set_together(self, overrides):
        # A machine id without its column would fit every machine's rows together.
        with pytest.raises(ValueError, match=r"^lines 3, 4: bad values for 'machine_column', 'machine_id': "):
            parse_config(default_config_text(**overrides))
        text = "schema_version = 1\nindices = a\n" + "".join(f"{k} = {v}\n" for k, v in overrides.items())
        with pytest.raises(ValueError, match=r"^line 3: bad values for 'machine_column', 'machine_id': "):
            parse_config(text)

    def test_refusal_gives_lines_of_written_keys_only(self):
        # Only keys written in the text have a line; a config built in code has none.
        text = "schema_version = 1\nindices = a\nburn_in = 3000\n"
        with pytest.raises(ValueError, match=r"^line 3: bad values for 'iterations', 'burn_in': "):
            parse_config(text)
        with pytest.raises(ValueError, match=r"^bad value for 'patience': patience must be at least 1$"):
            replace(parse_config(default_config_text()), patience=0)


# Whole seconds from 1900 to 2200: the artifacts store timestamps to the second.
timestamps = st.integers(-(70 * 365 * 86400), 230 * 365 * 86400).map(lambda t: np.datetime64(t, "s"))


@st.composite
def score_serieses(draw):
    # At least one row: the threshold is stored on every row, so a file
    # with no rows cannot carry it.
    n = draw(st.integers(1, 30))
    columns = [draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)) for _ in range(3)]
    return AnomalyScoreSeries(
        np.array(draw(st.lists(timestamps, min_size=n, max_size=n)), dtype="datetime64[s]"),
        np.array(columns[0]),
        draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        np.array(columns[1]),
        np.array(columns[2]),
    )


class TestScoreHandOff:
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(series=score_serieses())
    def test_series_round_trip_is_bitwise(self, tmp_path, series):
        path = tmp_path / "scores.csv"
        _write_series(path, series)
        back = _read_series(path)
        assert back.timestamps.dtype == series.timestamps.dtype
        np.testing.assert_array_equal(back.timestamps, series.timestamps)
        for name in ("as_values", "theta_low", "theta_high"):
            assert getattr(back, name).tobytes() == getattr(series, name).tobytes()
        assert repr(back.threshold) == repr(series.threshold)

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(alarms=st.lists(st.builds(AlarmWindow, timestamps, timestamps), max_size=12))
    def test_alarms_round_trip(self, tmp_path, alarms):
        path = tmp_path / "alarms.csv"
        _write_alarms(path, alarms)
        assert _read_alarms(path) == alarms

    def test_empty_series_is_refused_on_read(self, tmp_path):
        # The threshold is stored on each row, so a file with no rows has lost it.
        path = tmp_path / "scores.csv"
        _write_series(path, AnomalyScoreSeries(np.array([], dtype="datetime64[s]"), np.array([]), 0.9))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            _read_series(path)

    @pytest.mark.parametrize("column", ["as_value", "theta_q05", "theta_q95"])
    def test_nan_cell_is_refused_on_read(self, tmp_path, column):
        # A NaN score would read back as a score that never alarms.
        ts = np.datetime64("2024-01-01T00:00:00", "s") + np.arange(3) * np.timedelta64(3600, "s")
        values = np.array([0.5, 0.99, 0.5])
        path = tmp_path / "scores.csv"
        _write_series(path, AnomalyScoreSeries(ts, values, 0.975, values, values))
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[lines[0].split(",").index(column)] = "nan"
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            _read_series(path)

    @pytest.mark.parametrize(
        "edit, expected",
        [
            (lambda cells: cells[:1] + [""] + cells[2:], "line 3: missing value in column 'as_value'"),
            (lambda cells: cells[:2] + ["0.5x"] + cells[3:], "line 3: bad value '0.5x' in column 'theta_q05'"),
            (lambda cells: cells[:3], "line 3: missing value in column 'theta_q95'"),
            (lambda cells: cells[:4], "missing columns ['threshold']"),
        ],
        ids=["blank-cell", "non-numeric-cell", "row-cut-short", "missing-column"],
    )
    def test_bad_score_file_is_refused_with_path_and_line(self, tmp_path, edit, expected):
        ts = np.datetime64("2024-01-01T00:00:00", "s") + np.arange(3) * np.timedelta64(3600, "s")
        values = np.array([0.5, 0.99, 0.5])
        path = tmp_path / "scores.csv"
        _write_series(path, AnomalyScoreSeries(ts, values, 0.975, values, values))
        lines = path.read_text().splitlines()
        # The missing column is cut from every line; the other edits touch line 3 only.
        edited = [edit(line.split(",")) if i == 2 or "missing columns" in expected else line.split(",")
                  for i, line in enumerate(lines)]
        path.write_text("\n".join(",".join(cells) for cells in edited) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {expected}')}$"):
            _read_series(path)

    def test_score_file_with_two_thresholds_is_refused(self, tmp_path):
        # A score file holds one series scored at one threshold, so rows that
        # disagree leave no threshold to read back.
        path = tmp_path / "scores.csv"
        path.write_text(
            "timestamp,as_value,theta_q05,theta_q95,threshold\n"
            "2024-01-01 00:00:00,0.5,0.5,0.5,0.9\n"
            "2024-01-01 01:00:00,0.99,0.99,0.99,0.975\n"
        )
        expected = f"{path}: rows record 2 thresholds [0.9, 0.975], not one"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            _read_series(path)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("onset\n2024-01-01 00:00:00\n", "missing columns ['end']"),
            ("onset,end\n2024-01-01 00:00:00,2024-01-01 03:00:00\n2024-01-02 00:00:00,soon\n",
             "line 3: unparseable timestamp 'soon'"),
            ("onset,end\n2024-01-01 00:00:00,2024-01-01 03:00:00\n2024-01-02 00:00:00\n",
             "line 3: missing value in column 'end'"),
            ("", "empty file"),
        ],
        ids=["missing-end-column", "bad-stamp", "row-cut-short", "empty"],
    )
    def test_bad_alarm_file_is_refused_with_path_and_line(self, tmp_path, text, expected):
        # A dropped alarm would read as a missed failure in the detection report.
        path = tmp_path / "alarms.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {expected}')}$"):
            _read_alarms(path)

    def test_csv_round_trip_keeps_alarm_decisions(self, tmp_path):
        ts = np.datetime64("2024-01-01T00:00:00", "s") + np.arange(3) * np.timedelta64(3600, "s")
        series = AnomalyScoreSeries(ts, np.array([0.5, 0.9749996, 0.5]), 0.975)
        policy = AlarmPolicy(0.975, 1)
        assert raise_alarms(series, policy) == []
        path = tmp_path / "scores.csv"
        _write_series(path, series)
        back = _read_series(path)
        np.testing.assert_array_equal(back.as_values, series.as_values)
        assert back.threshold == series.threshold
        assert raise_alarms(back, policy) == []


@st.composite
def split_datasets(draw):
    # Zero rows included: a split may be empty.
    n = draw(st.integers(0, 12))
    d = draw(st.integers(0, 3))
    values = st.floats(allow_nan=False, allow_infinity=False)
    x = np.array(draw(st.lists(values, min_size=n * d, max_size=n * d))).reshape(n, d)
    y = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    return Dataset(x, y, np.sort(np.array(draw(st.lists(timestamps, min_size=n, max_size=n)), dtype="datetime64[s]")))


class TestSplitHandOff:
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=split_datasets())
    def test_split_round_trip_is_bitwise(self, tmp_path, data):
        path = tmp_path / "split.npz"
        _save_split(path, data)
        back = _load_split(path)
        for name in ("covariates", "responses", "timestamps"):
            a, b = getattr(back, name), getattr(data, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPosteriorArchive:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        draws = []
        for _ in range(5):
            experts = tuple(
                ExpertParams(rng.normal(), rng.normal(size=2), rng.uniform(0.5, 2.0))
                for _ in range(2)
            )
            mixing = MixingGateParams(np.vstack([rng.normal(size=(1, 3)), np.zeros(3)]))
            draws.append(ModelParams(experts, mixing, BehaviorGateParams(rng.normal(size=3))))
        sample = stack_draws(draws, 0.31, 2, 99)
        path = tmp_path / "posterior.npz"
        save_posterior(sample, path)
        back = load_posterior(path)
        assert back.n_draws == 5
        assert back.acceptance_rate == pytest.approx(0.31)
        assert back.chain_count == 2 and back.seed == 99
        for name in ("experts", "mixing", "behavior"):
            np.testing.assert_array_equal(getattr(back, name), getattr(sample, name))

    @pytest.fixture
    def archived(self, tmp_path):
        """A valid version-3 archive of three draws (M = 2, n = 1), and its members."""
        mixing = np.zeros((3, 2, 2))
        mixing[:, 0] = 0.5
        sample = PosteriorSample(np.ones((3, 2, 3)), mixing, np.zeros((3, 2)), 0.3, 1, 5)
        path = tmp_path / "posterior.npz"
        save_posterior(sample, path)
        with np.load(path) as archive:
            return path, {name: archive[name] for name in archive.files}

    def test_missing_member_is_refused_by_path(self, archived):
        path, members = archived
        del members["experts"]
        np.savez(path, **members)
        with pytest.raises(ValueError, match=re.escape(f"{path}: missing member experts")):
            load_posterior(path)

    def test_split_missing_member_is_refused_by_path(self, tmp_path):
        path = tmp_path / "split.npz"
        np.savez(path, covariates=np.zeros((2, 1)), responses=np.zeros(2))
        with pytest.raises(ValueError, match=re.escape(f"{path}: missing member timestamps")):
            _load_split(path)

    def test_version_1_archive_is_refused(self, tmp_path):
        # The member layout of every archive written before version 2.
        path = tmp_path / "posterior.npz"
        np.savez_compressed(
            path, format_version=1, expert_coeffs=np.ones((3, 1, 1)), expert_sds=np.ones((3, 1)),
            mixing=np.zeros((3, 1, 1)), behavior=np.zeros((3, 1)), acceptance_rate=0.3, chain_count=1, seed=5,
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}: written before archive version 3; refit")):
            load_posterior(path)

    def test_version_2_archive_is_refused(self, tmp_path):
        # The member layout of every version-2 archive: the stack flattened into one draws matrix.
        path = tmp_path / "posterior.npz"
        header = np.array([2, 2, 2, 1, 5], dtype=np.int64)
        np.savez_compressed(path, header=header, acceptance_rate=0.3, draws=np.ones((3, 12)))
        with pytest.raises(ValueError, match=re.escape(f"{path}: written before archive version 3; refit")):
            load_posterior(path)

    @pytest.mark.parametrize(
        "header",
        [[0, 1, 5], [1, 1, 5], [4, 1, 5], [3, 1], np.array([3.0, 1, 5])],
        ids=["version 0", "version 1", "version 4", "short", "float"],
    )
    def test_other_version_is_refused_by_path(self, archived, header):
        path, members = archived
        np.savez(path, **{**members, "header": np.asarray(header)})
        with pytest.raises(ValueError, match=re.escape(f"{path}: header ") + r".* is not a posterior archive version 3 header"):
            load_posterior(path)

    @pytest.mark.parametrize(
        "experts", [np.ones((3, 1, 3)), np.ones((3, 2, 4)), np.ones((3, 0, 3))], ids=["experts", "width", "none"]
    )
    def test_misshapen_draws_are_refused_by_path(self, archived, experts):
        path, members = archived
        np.savez(path, **{**members, "experts": experts})
        with pytest.raises(ValueError, match=re.escape(f"{path}: draw stack shapes {experts.shape}, (3, 2, 2)")):
            load_posterior(path)

    def test_missing_archive_is_refused_by_path(self, tmp_path):
        path = tmp_path / "posterior.npz"
        with pytest.raises(FileNotFoundError, match=re.escape(f"{path}: no posterior archive; run fit first")):
            load_posterior(path)

    @pytest.mark.parametrize(
        "rate, message",
        [
            (np.array([0.3, 0.3]), "an acceptance_rate of shape (2,) and dtype float64 is not a real scalar"),
            (np.array([0.3]), "an acceptance_rate of shape (1,) and dtype float64 is not a real scalar"),
            (np.array("0.3"), "an acceptance_rate of shape () and dtype <U3 is not a real scalar"),
            (np.array(0.3 + 0j), "an acceptance_rate of shape () and dtype complex128 is not a real scalar"),
            (np.array(0.3, dtype=object), "unreadable member (Object arrays cannot be loaded"),
        ],
        ids=["shape (2,)", "shape (1,)", "string", "complex", "object"],
    )
    def test_misshapen_acceptance_rate_is_refused_by_path(self, archived, rate, message):
        path, members = archived
        np.savez(path, **{**members, "acceptance_rate": rate})
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_posterior(path)

    @pytest.mark.parametrize("rate", [1.7, -0.1, np.nan])
    def test_acceptance_rate_outside_the_unit_interval_is_refused_by_path(self, archived, rate):
        path, members = archived
        np.savez(path, **{**members, "acceptance_rate": np.array(rate)})
        with pytest.raises(ValueError, match=re.escape(f"{path}: acceptance rate {rate} does not lie in [0, 1]")):
            load_posterior(path)

    @pytest.mark.parametrize("reader", [load_posterior, _load_split])
    @pytest.mark.parametrize("content", ["text", "empty", "npy", "truncated zip"])
    def test_non_npz_file_is_refused_by_path(self, archived, tmp_path, reader, content):
        source, _ = archived
        path = tmp_path / "not_an_archive.npz"
        if content == "npy":
            with open(path, "wb") as fh:
                np.save(fh, np.zeros(3))
        else:
            data = {"text": b"timestamp,value\n", "empty": b"", "truncated zip": source.read_bytes()[:100]}[content]
            path.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(f"{path}: not an npz archive")):
            reader(path)


class TestParsedArchives:
    """load_posterior parses each archive's bytes once and shares the parse."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """The archives load_posterior parsed, on an empty cache of parses."""
        seen = []
        open_npz = pipeline._open_npz

        def counted(file):
            seen.append(file)
            return open_npz(file)

        monkeypatch.setattr(pipeline, "_open_npz", counted)
        pipeline._parse_posterior.cache_clear()
        yield seen
        pipeline._parse_posterior.cache_clear()

    @staticmethod
    def sample(value: float) -> PosteriorSample:
        mixing = np.zeros((3, 2, 2))
        mixing[:, 0] = value
        return PosteriorSample(np.full((3, 2, 3), value), mixing, np.zeros((3, 2)), 0.3, 1, 5)

    def test_an_unchanged_file_is_parsed_once(self, tmp_path, parses):
        path = tmp_path / "posterior.npz"
        save_posterior(self.sample(0.5), path)
        first, second = load_posterior(path), load_posterior(path)
        assert len(parses) == 1 and second is first
        np.testing.assert_array_equal(second.experts, self.sample(0.5).experts)

    def test_a_copy_at_another_path_shares_the_parse(self, tmp_path, parses):
        path, copy = tmp_path / "posterior.npz", tmp_path / "copy.npz"
        save_posterior(self.sample(0.5), path)
        copy.write_bytes(path.read_bytes())
        assert load_posterior(copy) is load_posterior(path) and len(parses) == 1

    @staticmethod
    def save_uncompressed(sample: PosteriorSample, path) -> None:
        """The archive of ``sample`` with its members stored, so its size does not depend on the draws."""
        save_posterior(sample, path)
        with np.load(path) as archive:
            members = {name: archive[name] for name in archive.files}
        np.savez(path, **members)

    def test_a_rewrite_of_the_same_size_and_mtime_is_parsed_again(self, tmp_path, parses):
        path = tmp_path / "posterior.npz"
        self.save_uncompressed(self.sample(0.5), path)
        before = path.stat()
        load_posterior(path)
        self.save_uncompressed(self.sample(0.25), path)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        np.testing.assert_array_equal(load_posterior(path).experts, np.full((3, 2, 3), 0.25))
        assert len(parses) == 2

    def test_draw_arrays_are_read_only(self, tmp_path, parses):
        path = tmp_path / "posterior.npz"
        save_posterior(self.sample(0.5), path)
        sample = load_posterior(path)
        for name in ("experts", "mixing", "behavior"):
            array = getattr(sample, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
        np.testing.assert_array_equal(load_posterior(path).experts, np.full((3, 2, 3), 0.5))

    @pytest.mark.parametrize("content", ["truncated zip", "version 1", "acceptance rate"])
    def test_a_refused_archive_is_refused_on_every_load(self, tmp_path, parses, content):
        path = tmp_path / "posterior.npz"
        save_posterior(self.sample(0.5), path)
        if content == "truncated zip":
            path.write_bytes(path.read_bytes()[:100])
        elif content == "version 1":
            np.savez_compressed(path, format_version=1, acceptance_rate=0.3)
        else:
            with np.load(path) as archive:
                members = {name: archive[name] for name in archive.files}
            np.savez(path, **{**members, "acceptance_rate": np.array(1.7)})
        for _ in range(3):
            with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
                load_posterior(path)
        assert len(parses) == 3 and pipeline._parse_posterior.cache_info().currsize == 0

    def test_the_least_recently_used_parse_is_dropped(self, tmp_path, parses):
        paths = [tmp_path / f"posterior_{i}.npz" for i in range(pipeline.PARSED_ARCHIVES + 1)]
        for i, path in enumerate(paths):
            save_posterior(self.sample(1.0 + i), path)
        for path in paths[:-1]:
            load_posterior(path)
        load_posterior(paths[0])  # now the most recently used; paths[1] is the least
        load_posterior(paths[-1])
        assert pipeline._parse_posterior.cache_info().currsize == pipeline.PARSED_ARCHIVES
        assert len(parses) == len(paths)
        load_posterior(paths[0])
        assert len(parses) == len(paths)
        load_posterior(paths[1])
        assert len(parses) == len(paths) + 1
