"""Run-directory and CLI integration tests on a small synthetic stream."""

import argparse
import csv
import dataclasses
import json
import re
import shutil
import warnings

import numpy as np
import pytest

from anomix import pipeline
from anomix.cli import build_parser, main
from oracles import default_config_text

from anomix.config import parse_config
from anomix.explain import default_score_grid, embed_grid, gate_geometry, render_map
from anomix.pipeline import (
    STAGES,
    StageError,
    _load_split,
    emit_plot_data,
    load_posterior,
    run_experiment,
    save_posterior,
    stage_diagnose,
    stage_evaluate,
    stage_explain,
    stage_fit,
    stage_score,
    write_two_index_stream,
)
from anomix.posterior import FitDiagnostics, PosteriorSample, fit_diagnostics, sample_posterior

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
        assert set(manifest["versions"]) == {"anomix", "numpy", "python"}
        assert manifest["dropped_rows"] == 0

    def test_expected_artifacts(self, finished_run):
        # The complete list, so that a file added beside these, or one kept
        # that repeats another, shows.  A one-expert fit has no gate
        # directions, so this run writes no explanation maps.
        config, run_dir, _ = finished_run
        per_index = (
            "posterior_{}.npz",
            "scaler_{}.json",
            "train_{}.npz",
            "validation_{}.npz",
            "test_{}.npz",
            "scores_{}.csv",
            "alarms_{}.csv",
            "plot_band_{}.csv",
            "plot_activations_{}.csv",
        )
        shared = {
            "manifest.json",
            "failure_stamps.csv",
            "diagnostics.csv",
            "pooled_scores.csv",
            "pooled_alarms.csv",
            "detection_report.csv",
            "detection_report_grouped.csv",
        }
        expected = shared | {name.format(index) for name in per_index for index in config.indices}
        assert sorted(path.name for path in run_dir.iterdir()) == sorted(expected)

    def test_failure_copy_reads_back_as_the_log(self, stream, finished_run):
        # Later stages read the failures from the run's copy, not the input log.
        config, run_dir, _ = finished_run
        log = pipeline.read_failures(stream[1], config.timestamp_column, config.machine_column, config.machine_id)
        copy = pipeline.read_failures(run_dir / "failure_stamps.csv")
        assert (run_dir / "failure_stamps.csv").read_text() == "datetime\n2024-02-17 00:00:00\n"
        np.testing.assert_array_equal(copy.starts, log.starts)
        np.testing.assert_array_equal(copy.ends, log.ends)

    def test_index_i_is_fitted_with_seed_plus_i(self, finished_run):
        # The joint fit gives each index the draws of a lone fit on its train split.
        config, run_dir, _ = finished_run
        for i, index in enumerate(config.indices):
            train = pipeline._load_split(run_dir / f"train_{index}.npz")
            settings = dataclasses.replace(config.sampler_settings(), seed=config.seed + i)
            alone = sample_posterior(train, config.prior_spec(), config.experts, settings)
            archived = pipeline.load_posterior(run_dir / f"posterior_{index}.npz")
            for name in ("experts", "mixing", "behavior"):
                assert np.array_equal(getattr(archived, name), getattr(alone, name)), (index, name)
            assert (archived.seed, archived.acceptance_rate) == (alone.seed, alone.acceptance_rate)

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

    def test_a_fit_drops_the_kept_posterior_parses(self, stream, finished_run, tmp_path):
        telemetry, failures = stream
        config, run_dir, _ = finished_run
        pipeline.load_posterior(run_dir / "posterior_hi_a.npz")
        assert pipeline._parse_posterior.cache_info().currsize > 0
        stage_fit(dataclasses.replace(config, iterations=150, burn_in=50), telemetry, failures, tmp_path / "refit")
        assert pipeline._parse_posterior.cache_info().currsize == 0

    def test_stage_failure_names_stage(self, stream, tmp_path):
        telemetry, _ = stream
        config = parse_config(default_config_text(**FAST))
        with pytest.raises(StageError, match="fit"):
            run_experiment(config, telemetry, tmp_path / "missing.csv", tmp_path / "broken")

    @pytest.mark.parametrize("stage", ["diagnose", "score", "explain", "plot"])
    def test_stage_without_fit_artifacts_asks_for_a_fit(self, tmp_path, stage):
        config = parse_config(default_config_text(**FAST))
        path = tmp_path / f"posterior_{config.indices[0]}.npz"
        message = f"stage '{stage}' failed: {path}: no posterior archive; run fit first"
        with pytest.raises(StageError, match=re.escape(message)) as caught:
            pipeline.run_stages([stage], config, tmp_path)
        assert isinstance(caught.value.__cause__, FileNotFoundError)

    def test_fit_keeps_an_input_log_inside_the_run_directory(self, stream, tmp_path):
        # The log may sit in the folder given as --out: fit copies this
        # machine's stamps beside it and leaves the log, other machines'
        # rows included, as it was, so the same command runs again.
        telemetry, failures = stream
        log = tmp_path / "failures.csv"
        log.write_text(failures.read_text() + "2024-01-20 00:00:00,2,comp2\n")
        text = log.read_text()
        config = dataclasses.replace(parse_config(default_config_text(**FAST)), iterations=150, burn_in=50)
        for _ in range(2):
            stage_fit(config, telemetry, log, tmp_path)
            assert log.read_text() == text
            assert (tmp_path / "failure_stamps.csv").read_text() == "datetime\n2024-02-17 00:00:00\n"

    def test_fit_refuses_the_run_copy_as_its_log(self, stream, tmp_path):
        telemetry, failures = stream
        log = tmp_path / "failure_stamps.csv"
        shutil.copy(failures, log)
        text = log.read_text()
        config = parse_config(default_config_text(**FAST))
        message = f"{log}: the failure log is the run's own failure_stamps.csv; name it otherwise"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            stage_fit(config, telemetry, log, tmp_path)
        assert log.read_text() == text

    @pytest.mark.parametrize("stage", ["score", "evaluate"])
    def test_run_fitted_before_the_failure_copy_asks_for_a_fit(self, finished_run, stream, tmp_path, stage):
        # A run directory from before ``failure_stamps.csv`` kept the stamps in
        # ``failures.json``, and may hold the input log as ``failures.csv``;
        # neither is read in place of the copy.
        config, run_dir, _ = finished_run
        old = shutil.copytree(run_dir, tmp_path / "run")
        (old / "failure_stamps.csv").unlink()
        (old / "failures.json").write_text('[{"start": "2024-02-17T00:00:00", "end": "2024-02-17T00:00:00"}]\n')
        shutil.copy(stream[1], old / "failures.csv")
        message = f"stage '{stage}' failed: {old / 'failure_stamps.csv'}: no failure copy; run fit first"
        with pytest.raises(StageError, match=re.escape(message)) as caught:
            pipeline.run_stages([stage], config, old)
        assert isinstance(caught.value.__cause__, FileNotFoundError)

    def test_runner_looks_each_stage_up_when_it_starts(self, monkeypatch, tmp_path):
        called = []
        for name, function in STAGES.items():
            monkeypatch.setattr(pipeline, function, lambda config, *args, name=name: called.append((name, args)))

        def no_room(config, run_dir):
            raise OSError("no room")

        monkeypatch.setattr(pipeline, "emit_plot_data", no_room)
        with pytest.raises(StageError, match="stage 'plot' failed: no room") as caught:
            pipeline.run_stages(STAGES, None, tmp_path, "data.csv", "failures.csv")
        assert caught.value.stage == "plot"
        assert called == [("fit", ("data.csv", "failures.csv", tmp_path))] + [
            (name, (tmp_path,)) for name in list(STAGES)[1:-1]
        ]


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
        around(like.experts.mean(0)),
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


def read_csv(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


class TestArtifactRoundTrip:
    def test_diagnostics_csv(self, finished_run, tmp_path):
        config, run_dir, _ = finished_run
        copy = shutil.copytree(run_dir, tmp_path / "run")
        # 60 draws are too few for PSIS smoothing, so hi_b's Pareto k is NaN.
        fitted = load_posterior(copy / "posterior_hi_b.npz")
        arrays = (fitted.experts, fitted.mixing, fitted.behavior)
        save_posterior(PosteriorSample(*(a[:60] for a in arrays), 0.25, 1, 0), copy / "posterior_hi_b.npz")
        names = [f.name for f in dataclasses.fields(FitDiagnostics)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            stage_diagnose(config, copy)
            header, rows = read_csv(copy / "diagnostics.csv")
            assert header == ["index", *names]
            assert [row[0] for row in rows] == config.indices
            for index, *values in rows:
                sample = load_posterior(copy / f"posterior_{index}.npz")
                want = fit_diagnostics(sample, _load_split(copy / f"train_{index}.npz"))
                np.testing.assert_allclose(np.array(values, dtype=float), dataclasses.astuple(want), rtol=0, atol=5e-5)
        assert np.isnan(float(rows[1][names.index("pareto_k_max") + 1]))

    def test_explanation_map_csvs(self, finished_run, tmp_path):
        config, run_dir, _ = finished_run
        copy = shutil.copytree(run_dir, tmp_path / "run")
        # Three experts on hi_a's two covariates (hi_b, load) make a 2-D map;
        # hi_b keeps its single expert, which has none.
        rng = np.random.default_rng(3)
        mixing = rng.normal(size=(20, 3, 3))
        mixing[:, -1] = 0.0
        log_sds = 0.3 * rng.normal(size=(20, 3, 1))
        experts = np.concatenate([rng.normal(size=(20, 3, 3)), log_sds], axis=-1)
        stack = PosteriorSample(experts, mixing, rng.normal(size=(20, 3)), 0.25, 1, 0)
        save_posterior(stack, copy / "posterior_hi_a.npz")
        stage_explain(config, copy)
        assert not (copy / "explain_hi_b_map.csv").exists()

        sample = load_posterior(copy / "posterior_hi_a.npz")
        means = _load_split(copy / "train_hi_a.npz").covariates.mean(axis=0)
        rendered = render_map(embed_grid(gate_geometry(sample), default_score_grid(2), means), sample)
        header, rows = read_csv(copy / "explain_hi_a_map.csv")
        assert header == [
            "score_0", "score_1", "x_0", "x_1", "activation_0", "activation_1", "activation_2",
            "predictive_mean", "predictive_sd",
        ]
        want = np.column_stack(
            [rendered.grid, rendered.points, rendered.activations, rendered.predictive_mean, rendered.predictive_sd]
        )
        np.testing.assert_allclose(np.array(rows, dtype=float), want, rtol=0, atol=5e-7)
        header, rows = read_csv(copy / "explain_hi_a_arrows.csv")
        assert header == ["feature", "component_0", "component_1"]
        arrows = np.array(rows, dtype=float)
        assert np.array_equal(arrows[:, 0], [0, 1])
        np.testing.assert_allclose(arrows[:, 1:], rendered.arrows, rtol=0, atol=5e-7)


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
    def test_files_and_quantile_ordering(self, finished_run, tmp_path):
        # The stage stands on the fit's files alone: scores, alarms and
        # failures are plotted from the files of the stages that wrote them.
        config, run_dir, _ = finished_run
        copy = shutil.copytree(run_dir, tmp_path / "run")
        for pattern in ("plot_*.csv", "scores_*.csv", "alarms_*.csv", "failure_stamps.csv"):
            for path in copy.glob(pattern):
                path.unlink()
        assert emit_plot_data(config, copy) is None
        assert sorted(path.name for path in copy.glob("plot_*.csv")) == [
            f"plot_{kind}_{index}.csv" for kind in ("activations", "band") for index in config.indices
        ]
        band = (copy / "plot_band_hi_a.csv").read_text().strip().splitlines()[1:]
        scored = (run_dir / "scores_hi_a.csv").read_text().strip().splitlines()[1:]
        assert len(band) >= len(scored)  # one row per test observation
        for line in band:
            _, _, mean, q05, q95 = line.split(",")
            assert float(q05) <= float(mean) + 0.05
            assert float(mean) <= float(q95) + 0.05

    def test_alarm_onsets_are_above_threshold(self, finished_run):
        # A plot marks the onsets of alarms_<index>.csv on scores_<index>.csv.
        _, run_dir, _ = finished_run
        scores = {}
        for line in (run_dir / "scores_hi_a.csv").read_text().strip().splitlines()[1:]:
            stamp, value, _, _, threshold = line.split(",")
            scores[stamp] = float(value), float(threshold)
        onsets = [line.split(",")[0] for line in (run_dir / "alarms_hi_a.csv").read_text().strip().splitlines()[1:]]
        assert onsets
        for onset in onsets:
            value, threshold = scores[onset]
            assert value >= threshold


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
        assert (run_dir / "plot_band_hi_a.csv").exists()

    @pytest.mark.parametrize("experts, reason", [
        (3, "expected gate matrix has rank 1 < 2"),
        (4, "fewer than two significant singular values"),
    ])
    def test_gate_without_a_2d_map_is_skipped_with_a_warning(self, stream, tmp_path, experts, reason):
        # On one covariate every gate row points the same way, so neither the
        # exact geometry (2-3 experts) nor the SVD reduction (4 or more) exists.
        telemetry, failures = stream
        config_path = tmp_path / "run.cfg"
        config_path.write_text(default_config_text(**{**FAST, "indices": ["hi_a"], "experts": experts}))
        run_dir = tmp_path / "run"
        argv = ["run", "--config", str(config_path), "--data", str(telemetry), "--failures", str(failures),
                "--out", str(run_dir)]
        with pytest.warns(RuntimeWarning, match=f"index 'hi_a': no explanation map, since {reason}") as record:
            assert main(argv) == 0
        # Neither gate can take the SVD reduction (three experts have only
        # two gate rows), so no warning may advise it.
        assert not any("SVD" in str(w.message) for w in record)
        assert not (run_dir / "explain_hi_a_map.csv").exists()
        assert (run_dir / "plot_band_hi_a.csv").exists()

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

    def test_index_restriction(self, finished_run, tmp_path, capsys):
        config, run_dir, _ = finished_run
        config_path = tmp_path / "run.cfg"
        config_path.write_text(default_config_text(**FAST))
        assert main(["score", "--config", str(config_path), "--out", str(run_dir),
                     "--index", "hi_a"]) == 0
        capsys.readouterr()
        # An unknown index is a bad override: reported with the config path, status 2.
        assert main(["score", "--config", str(config_path), "--out", str(run_dir),
                     "--index", "nope"]) == 2
        assert capsys.readouterr().err.startswith(f"{config_path}: unknown index 'nope'")

    def test_score_keeps_what_fit_recorded(self, finished_run, tmp_path):
        # Scoring one index under another seed rewrites that index's skipped
        # spans and nothing else: seed and config hash stay as fit wrote them.
        _, run_dir, _ = finished_run
        copy = shutil.copytree(run_dir, tmp_path / "run")
        recorded = json.loads((copy / "manifest.json").read_text())
        assert set(recorded["skipped_spans"]) == {"hi_a", "hi_b"}
        config_path = tmp_path / "run.cfg"
        config_path.write_text(default_config_text(**FAST))
        assert main(["score", "--config", str(config_path), "--out", str(copy),
                     "--index", "hi_a", "--seed", "99"]) == 0
        assert json.loads((copy / "manifest.json").read_text()) == recorded

    def test_threshold_override_applies_to_the_consensus(self, finished_run, tmp_path):
        _, run_dir, _ = finished_run
        copy = shutil.copytree(run_dir, tmp_path / "run")
        config_path = tmp_path / "run.cfg"
        config_path.write_text(default_config_text(**FAST))
        before = (copy / "pooled_scores.csv").read_text()
        assert main(["detect", "--config", str(config_path), "--out", str(copy),
                     "--threshold", "0.3", "--patience", "1"]) == 0
        assert (copy / "pooled_scores.csv").read_text() != before
        scores = [pipeline._read_series(copy / f"scores_{index}.csv").as_values for index in FAST["indices"]]
        pooled = pipeline._read_series(copy / "pooled_scores.csv").as_values
        np.testing.assert_array_equal(pooled == 1.0, (scores[0] >= 0.3) & (scores[1] >= 0.3))

    def test_single_index_evaluate_ignores_pooled_alarms(self, finished_run, tmp_path):
        config, run_dir, _ = finished_run
        copy = shutil.copytree(run_dir, tmp_path / "run")
        config_path = tmp_path / "run.cfg"
        config_path.write_text(default_config_text(**FAST))
        # hi_a's own report, from a directory that holds no pooled files.
        alone = shutil.copytree(run_dir, tmp_path / "alone")
        for name in ("pooled_scores.csv", "pooled_alarms.csv"):
            (alone / name).unlink()
        stage_evaluate(dataclasses.replace(config, indices=["hi_a"]), alone)
        expected = (alone / "detection_report.csv").read_text()
        # A stale pooled file with no alarms must not stand in for hi_a's.
        (copy / "pooled_alarms.csv").write_text("onset,end\n")
        assert main(["evaluate", "--config", str(config_path), "--out", str(copy), "--index", "hi_a"]) == 0
        assert (copy / "detection_report.csv").read_text() == expected

    @pytest.mark.parametrize("flag", ["--threshold", "--patience", "--quorum"])
    def test_evaluate_refuses_detection_overrides(self, tmp_path, capsys, flag):
        # evaluate only reads the alarms detect wrote, so a policy flag would do nothing.
        with pytest.raises(SystemExit) as exit_info:
            main(["evaluate", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "run"), flag, "1"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["fit", "run"])
    def test_fitting_verbs_refuse_index(self, stream, tmp_path, capsys, verb):
        # Fitting one index alone would drop the others as covariates and shift
        # its seed, under the same posterior archive name.
        telemetry, failures = stream
        argv = [verb, "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "run"),
                "--data", str(telemetry), "--failures", str(failures), "--index", "hi_b"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --index hi_b" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("verb", ["fit", "diagnose", "score", "detect", "evaluate", "explain", "run"])
    def test_stage_failure_exit_code(self, stream, tmp_path, capsys, verb):
        # An empty run directory, and an absent telemetry file for the verbs that read one.
        _, failures = stream
        config_path = tmp_path / "run.cfg"
        config_path.write_text(default_config_text(**FAST))
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        inputs = ["--data", str(tmp_path / "absent.csv"), "--failures", str(failures)]
        argv = [verb, "--config", str(config_path), "--out", str(run_dir)]
        assert main(argv + inputs if verb in ("fit", "run") else argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"stage {'fit' if verb == 'run' else verb!r} failed: ") and "Traceback" not in err

    def test_stage_verbs_are_the_protocol_stages(self):
        (verbs,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(verbs) == ["simulate", *(name for name in STAGES if name != "plot"), "run"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--n", "100"], "failure index 2280 lies outside [0, 100)"),
            (["--n", "0", "--failure", "0", "--onset", "0"], "n_samples must be at least 1, got 0"),
            (["--failure", "-1"], "failure index -1 lies outside [0, 2400)"),
            (["--onset", "2281"], "onset index 2281 lies outside [0, 2280]"),
            (["--onset", "-1"], "onset index -1 lies outside [0, 2280]"),
        ],
    )
    def test_simulate_refuses_impossible_indices(self, tmp_path, capsys, argv, message):
        out = tmp_path / "data"
        assert main(["simulate", "--out", str(out), *argv]) == 2
        assert capsys.readouterr().err == f"simulate: {message}\n"
        assert not out.exists()

    def test_simulate_accepts_the_boundary_indices(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path / "a"), "--n", "10", "--onset", "9", "--failure", "9"]) == 0
        write_two_index_stream(tmp_path / "b", n_samples=1, onset_index=None, failure_index=0)

    @pytest.mark.parametrize(
        "text, argv",
        [
            (default_config_text(**dict(FAST, quorum=0)), []),
            (default_config_text(**FAST) + "tau = 0.9\n", []),
            (default_config_text(**FAST), ["--patience", "0"]),
        ],
    )
    def test_config_error_exit_code(self, tmp_path, capsys, text, argv):
        # A bad file or override is reported before any stage runs.
        config_path = tmp_path / "run.cfg"
        config_path.write_text(text)
        run_dir = tmp_path / "run"
        assert main(["detect", "--config", str(config_path), "--out", str(run_dir), *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{config_path}: ") and "Traceback" not in err
        assert not run_dir.exists()

    @pytest.mark.parametrize(
        "overrides, argv, key",
        [({"window_k": 12}, [], "window_k"), ({"seed": -1}, [], "seed"), ({}, ["--seed", "-5"], "seed")],
        ids=["window_k-12", "seed--1", "seed-override--5"],
    )
    def test_fit_refuses_a_bad_key_before_fitting(self, tmp_path, capsys, overrides, argv, key):
        config_path = tmp_path / "run.cfg"
        config_path.write_text(default_config_text(**dict(FAST, **overrides)))
        run_dir = tmp_path / "run"
        paths = ["--config", str(config_path), "--out", str(run_dir), "--data", "t.csv", "--failures", "f.csv"]
        assert main(["fit", *paths, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{config_path}: ") and f"bad value for {key!r}: " in err
        assert not run_dir.exists()

    @pytest.mark.parametrize("name, reason", [("absent.cfg", "No such file or directory"), ("", "Is a directory")])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, name, reason):
        config_path = tmp_path / name
        run_dir = tmp_path / "run"
        assert main(["detect", "--config", str(config_path), "--out", str(run_dir)]) == 2
        assert capsys.readouterr().err == f"{config_path}: {reason}\n"
        assert not run_dir.exists()
