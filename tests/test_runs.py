"""Run-directory and CLI integration tests on a small synthetic stream."""

import csv
import json
import shutil
import warnings

import numpy as np
import pytest

from anomix import pipeline
from anomix.cli import main
from anomix.config import default_config_text, parse_config
from anomix.pipeline import (
    StageError,
    _load_split,
    emit_plot_data,
    load_posterior,
    run_experiment,
    save_posterior,
    stage_diagnose,
    stage_fit,
    stage_score,
    write_two_index_stream,
)
from anomix.posterior import FitDiagnostics, PosteriorSample

FAST = dict(
    indices=["hi_a", "hi_b"],
    extra_covariates=["load"],
    machine_column="machineID",
    machine_id="1",
    experts=1,
    chains=1,
    iterations=400,
    burn_in=200,
    subsample_fraction=1.0,
    train_size=150,
    validation_size=50,
    quorum=2,
    patience=3,
    validity_days=[1, 2, 3],
    seed=11,
)


@pytest.fixture(scope="module")
def stream(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("stream")
    telemetry, failures = write_two_index_stream(
        data_dir, n_samples=1200, onset_index=1080, failure_index=1128, shift_sds=8.0, seed=0
    )
    return telemetry, failures


@pytest.fixture(scope="module")
def finished_run(stream, tmp_path_factory):
    telemetry, failures = stream
    config = parse_config(default_config_text(**FAST))
    run_dir = tmp_path_factory.mktemp("run")
    manifest = run_experiment(config, telemetry, failures, run_dir)
    return config, run_dir, manifest


class TestRunExperiment:
    def test_manifest_contents(self, finished_run):
        config, run_dir, manifest = finished_run
        assert manifest["config_hash"] == config.config_hash()
        assert manifest["seed"] == 11
        assert set(manifest["versions"]) == {"anomix", "numpy", "scipy", "python"}
        assert manifest["dropped_rows"] == 0

    def test_expected_artifacts(self, finished_run):
        _, run_dir, _ = finished_run
        for name in (
            "posterior_hi_a.npz",
            "scores_hi_b.csv",
            "alarms_hi_a.csv",
            "pooled_scores.csv",
            "pooled_alarms.csv",
            "diagnostics.csv",
            "detection_report.csv",
            "detection_report_grouped.csv",
        ):
            assert (run_dir / name).exists(), name

    def test_detects_injected_fault(self, finished_run):
        _, run_dir, _ = finished_run
        lines = (run_dir / "detection_report.csv").read_text().strip().splitlines()[1:]
        recalls = [float(line.split(",")[3]) for line in lines]
        assert all(r == 100.0 for r in recalls)

    def test_pooled_scores_are_three_level(self, finished_run):
        _, run_dir, _ = finished_run
        values = {
            float(line.split(",")[1])
            for line in (run_dir / "pooled_scores.csv").read_text().strip().splitlines()[1:]
        }
        assert values <= {0.0, 0.5, 1.0}

    def test_single_index_run_skips_pooling(self, stream, tmp_path):
        telemetry, failures = stream
        config = parse_config(default_config_text(**{**FAST, "indices": ["hi_a"], "extra_covariates": ["load", "hi_b"]}))
        run_dir = tmp_path / "single"
        run_experiment(config, telemetry, failures, run_dir)
        assert not (run_dir / "pooled_scores.csv").exists()
        assert (run_dir / "alarms_hi_a.csv").exists()

    def test_reproducible_outputs(self, stream, finished_run, tmp_path):
        telemetry, failures = stream
        config, first_dir, first_manifest = finished_run
        second_dir = tmp_path / "again"
        second_manifest = run_experiment(config, telemetry, failures, second_dir)
        assert second_manifest["config_hash"] == first_manifest["config_hash"]
        for name in ("scores_hi_a.csv", "scores_hi_b.csv", "detection_report.csv", "diagnostics.csv"):
            assert (second_dir / name).read_text() == (first_dir / name).read_text(), name

    def test_stage_failure_names_stage(self, stream, tmp_path):
        telemetry, _ = stream
        config = parse_config(default_config_text(**FAST))
        with pytest.raises(StageError, match="fit"):
            run_experiment(config, telemetry, tmp_path / "missing.csv", tmp_path / "broken")


class TestDiagnoseWarnings:
    def test_heavy_pareto_tail_warns_with_index(self, finished_run, tmp_path):
        config, run_dir, _ = finished_run
        copy = shutil.copytree(run_dir, tmp_path / "run")
        with pytest.warns(RuntimeWarning, match="'hi_a'.*Pareto k"):
            stage_diagnose(config, copy)

    @pytest.mark.parametrize("k_max, warns", [(0.7, False), (0.76, True)])
    def test_threshold_is_strictly_above_0_7(self, finished_run, tmp_path, monkeypatch, k_max, warns):
        config, run_dir, _ = finished_run
        copy = shutil.copytree(run_dir, tmp_path / "run")
        report = FitDiagnostics(0.0, 0.0, 0.0, 0.95, 0.0, k_max)
        monkeypatch.setattr(pipeline, "fit_diagnostics", lambda sample, data: report)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            stage_diagnose(config, copy)
        assert [str(w.message)[:13] for w in caught] == (["index 'hi_a':", "index 'hi_b':"] if warns else [])


def recorded_warnings(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fn()
    return [str(w.message) for w in caught]


def iid_stack(like: PosteriorSample, n_draws: int, shift_second_half: float = 0.0) -> PosteriorSample:
    """Independent draws around the posterior mean of ``like``; with a shift,
    the second half of the single chain moves by that many draw sds."""
    rng = np.random.default_rng(12)
    shift = np.where(np.arange(n_draws) >= n_draws // 2, shift_second_half, 0.0)

    def around(mean):
        noise = rng.normal(size=(n_draws, *mean.shape))
        return mean + 0.01 * (noise + shift.reshape(-1, *[1] * mean.ndim))

    return PosteriorSample(
        around(like.expert_coeffs.mean(0)),
        np.exp(around(np.log(like.expert_sds).mean(0))),
        np.zeros((n_draws, *like.mixing.shape[1:])),  # one expert: its gate row is the frozen one
        around(like.behavior.mean(0)),
        0.25,
        1,
        0,
    )


class TestDiagnoseRhat:
    def test_column_follows_the_pareto_k_column(self, finished_run):
        _, run_dir, _ = finished_run
        with open(run_dir / "diagnostics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0])[-2:] == ["pareto_k_max", "rhat_max"]
        assert all(float(row["rhat_max"]) >= 1.0 for row in rows)

    def test_shifted_chain_warns_with_its_index(self, finished_run, tmp_path):
        config, run_dir, _ = finished_run
        copy = shutil.copytree(run_dir, tmp_path / "run")
        fitted = load_posterior(copy / "posterior_hi_a.npz")
        save_posterior(iid_stack(fitted, 2000), copy / "posterior_hi_a.npz")
        save_posterior(iid_stack(fitted, 2000, shift_second_half=1.0), copy / "posterior_hi_b.npz")
        messages = [m for m in recorded_warnings(lambda: stage_diagnose(config, copy)) if "R-hat" in m]
        assert [m[:13] for m in messages] == ["index 'hi_b':"]

    @pytest.mark.parametrize("rhat, warns", [(1.01, False), (1.02, True)])
    def test_threshold_is_strictly_above_1_01(self, finished_run, tmp_path, monkeypatch, rhat, warns):
        config, run_dir, _ = finished_run
        copy = shutil.copytree(run_dir, tmp_path / "run")
        report = FitDiagnostics(0.0, 0.0, 0.0, 0.95, 0.0, 0.5, rhat)
        monkeypatch.setattr(pipeline, "fit_diagnostics", lambda sample, data: report)
        messages = recorded_warnings(lambda: stage_diagnose(config, copy))
        assert [m[:13] for m in messages] == (["index 'hi_a':", "index 'hi_b':"] if warns else [])
        assert all("R-hat" in m for m in messages)


class TestScoreSpans:
    def test_windows_never_cross_a_gap_between_failure_spans(self, tmp_path):
        # Failures at rows 1010 and 2010: the test split holds two spans of
        # 121 hourly rows, five weeks apart.
        telemetry, failures = write_two_index_stream(
            tmp_path / "data", n_samples=2400, onset_index=None, failure_index=1010, seed=0
        )
        with open(failures, "a", newline="") as fh:
            csv.writer(fh).writerow(["2024-03-24 18:00:00", "1", "comp1"])
        config = parse_config(default_config_text(**dict(FAST, iterations=150, burn_in=50)))
        run_dir = tmp_path / "run"
        stage_fit(config, telemetry, failures, run_dir)
        stage_score(config, run_dir)
        k = config.window_k
        spans = [
            (np.datetime64("2024-02-07T02:00:00"), np.datetime64("2024-02-12T02:00:00")),
            (np.datetime64("2024-03-19T18:00:00"), np.datetime64("2024-03-24T18:00:00")),
        ]
        for index in config.indices:
            test_ts = _load_split(run_dir / f"test_{index}.npz").timestamps
            span_of = [next(j for j, (a, b) in enumerate(spans) if a <= t <= b) for t in test_ts]
            with open(run_dir / f"scores_{index}.csv", newline="") as fh:
                stamps = [np.datetime64(row["timestamp"].replace(" ", "T")) for row in csv.DictReader(fh)]
            assert len(stamps) == len(test_ts) - len(spans) * k
            for stamp in stamps:
                newest = int(np.flatnonzero(test_ts == stamp)[0])
                assert newest >= k and span_of[newest - k] == span_of[newest], (index, stamp)

    def test_short_span_is_warned_about_and_recorded(self, tmp_path):
        # The same two failures on a stream cut after row 1899: the second
        # span keeps only its first 10 rows, one short of a k = 10 window.
        telemetry, failures = write_two_index_stream(
            tmp_path / "data", n_samples=1900, onset_index=None, failure_index=1010, seed=0
        )
        with open(failures, "a", newline="") as fh:
            csv.writer(fh).writerow(["2024-03-24 18:00:00", "1", "comp1"])
        config = parse_config(default_config_text(**dict(FAST, iterations=150, burn_in=50, window_k=10)))
        run_dir = tmp_path / "run"
        stage_fit(config, telemetry, failures, run_dir)
        messages = recorded_warnings(lambda: stage_score(config, run_dir))
        span = {"start": "2024-03-19T18:00:00", "end": "2024-03-24T18:00:00", "rows": 10}
        assert messages == [
            f"index {index!r}: failure span {span['start']} to {span['end']} has 10 test rows, fewer than 11; skipped"
            for index in config.indices
        ]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["skipped_spans"] == {index: [span] for index in config.indices}
        for index in config.indices:
            scored = (run_dir / f"scores_{index}.csv").read_text().strip().splitlines()[1:]
            assert len(scored) == 121 - 10


class TestEmitPlotData:
    def test_files_and_quantile_ordering(self, finished_run):
        config, run_dir, _ = finished_run
        written = emit_plot_data(config, run_dir)
        names = {p.name for p in written}
        assert "plot_band_hi_a.csv" in names
        assert "plot_failures.csv" in names
        band = (run_dir / "plot_band_hi_a.csv").read_text().strip().splitlines()[1:]
        scored = (run_dir / "scores_hi_a.csv").read_text().strip().splitlines()[1:]
        assert len(band) >= len(scored)  # one row per test observation
        for line in band:
            _, _, mean, q05, q95 = line.split(",")
            assert float(q05) <= float(mean) + 0.05
            assert float(mean) <= float(q95) + 0.05

    def test_alarm_onsets_are_above_threshold(self, finished_run):
        config, run_dir, _ = finished_run
        emit_plot_data(config, run_dir)
        for line in (run_dir / "plot_scores_hi_a.csv").read_text().strip().splitlines()[1:]:
            _, value, threshold, onset = line.split(",")
            if onset == "1":
                assert float(value) >= float(threshold)


class TestCli:
    def test_simulate_then_run(self, tmp_path):
        data_dir = tmp_path / "data"
        assert main(["simulate", "--out", str(data_dir), "--n", "1200", "--onset", "1080",
                     "--failure", "1128", "--seed", "0"]) == 0
        config_path = tmp_path / "run.cfg"
        config_path.write_text(default_config_text(**FAST))
        run_dir = tmp_path / "run"
        code = main([
            "run",
            "--config", str(config_path),
            "--data", str(data_dir / "telemetry.csv"),
            "--failures", str(data_dir / "failures.csv"),
            "--out", str(run_dir),
        ])
        assert code == 0
        assert (run_dir / "detection_report.csv").exists()
        assert (run_dir / "plot_failures.csv").exists()

    def test_stage_verbs_rerun(self, stream, finished_run, tmp_path):
        telemetry, failures = stream
        config, run_dir, _ = finished_run
        config_path = tmp_path / "run.cfg"
        config_path.write_text(default_config_text(**FAST))
        base = ["--config", str(config_path), "--out", str(run_dir)]
        for verb in ("diagnose", "score", "detect", "evaluate", "explain"):
            assert main([verb, *base]) == 0

    def test_seed_and_threshold_overrides(self, stream, finished_run, tmp_path):
        config, run_dir, _ = finished_run
        config_path = tmp_path / "run.cfg"
        config_path.write_text(default_config_text(**FAST))
        before = (run_dir / "alarms_hi_a.csv").read_text()
        assert main(["detect", "--config", str(config_path), "--out", str(run_dir),
                     "--threshold", "0.5", "--patience", "1"]) == 0
        after = (run_dir / "alarms_hi_a.csv").read_text()
        assert after != before  # looser policy fires more alarms
        assert main(["detect", "--config", str(config_path), "--out", str(run_dir)]) == 0
        assert (run_dir / "alarms_hi_a.csv").read_text() == before

    def test_index_restriction(self, finished_run, tmp_path):
        config, run_dir, _ = finished_run
        config_path = tmp_path / "run.cfg"
        config_path.write_text(default_config_text(**FAST))
        assert main(["score", "--config", str(config_path), "--out", str(run_dir),
                     "--index", "hi_a"]) == 0
        with pytest.raises(SystemExit):
            main(["score", "--config", str(config_path), "--out", str(run_dir),
                  "--index", "nope"])

    def test_stage_error_exit_code(self, tmp_path):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(default_config_text(**FAST))
        code = main([
            "run",
            "--config", str(config_path),
            "--data", str(tmp_path / "absent.csv"),
            "--failures", str(tmp_path / "absent2.csv"),
            "--out", str(tmp_path / "run"),
        ])
        assert code == 1
