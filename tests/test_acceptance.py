"""Acceptance suite.

One test per release criterion, each printing a PASS/FAIL line (run with
``pytest -s`` to see them as they complete).  Expected values come from
independent oracles computed inside the tests: closed-form CDFs, full
power-set enumeration, Monte Carlo simulation, quadrature, brute-force
refits and hand-traced selection runs.
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import binom, kstest

from oracles import (
    BehaviorGateParams,
    ExpertParams,
    MixingGateParams,
    ModelParams,
    SyntheticSpec,
    cic,
    conditional_pdf,
    default_config_text,
    fuse_experts,
    generate_synthetic,
    lppd,
    pit_rows,
    posterior_predictive_cdf,
    stack_draws,
)

from anomix.anomaly import (
    WeightVector,
    build_sum_dist,
    default_decay,
    exp_weights,
    sum_cdf,
)
from anomix.cli import main
from anomix.detection import AlarmWindow, FailureLog, evaluate
from anomix.explain import default_score_grid, embed_grid, gate_geometry, reduce_svd
from anomix.model import Dataset, PriorSpec, fused_moments
from anomix.pipeline import write_two_index_stream
from anomix.posterior import SamplerSettings, psis_loo, sample_posterior
from anomix.selection import Trial, pareto_front, select_best


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.1f}s (budget {budget_seconds}s)"
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.1f}s]")


# ---------------------------------------------------------------------------
# Shared oracles
# ---------------------------------------------------------------------------


def power_set_cdf(weights, q):
    """Un-cached direct evaluation over the full power set, in exact arithmetic.

    Every double is an integer multiple of a power of two, so on the finest
    grid among the weights and ``q`` each subset sum, each power and the
    alternating series are exact integers; the only rounding is of the
    final ratio to the nearest double.
    """
    n = len(weights)
    if q <= 0:
        return 0.0
    if q >= 1:
        return 1.0
    fractions = [Fraction(w) for w in weights] + [Fraction(q)]
    scale = max(f.denominator for f in fractions)  # powers of two: a multiple of every other
    *ws, big_q = [int(f * scale) for f in fractions]
    total = 0
    for subset in itertools.chain.from_iterable(
        itertools.combinations(range(n), r) for r in range(n + 1)
    ):
        s = sum(ws[i] for i in subset)
        if s < big_q:
            total += (-1) ** len(subset) * (big_q - s) ** n
    val = Fraction(total, math.factorial(n) * math.prod(ws))
    return float(min(Fraction(1), max(Fraction(0), val)))


def irwin_hall_cdf(x, n):
    total = 0.0
    for j in range(int(math.floor(x)) + 1):
        total += (-1.0) ** j * math.comb(n, j) * (x - j) ** n
    return total / math.factorial(n)


def single_expert_model(intercept=2.0, slope=3.0, sd=0.5):
    return ModelParams(
        (ExpertParams(intercept, [slope], sd),),
        MixingGateParams(np.zeros((1, 2))),
        BehaviorGateParams(np.zeros(2)),
    )


def two_expert_model():
    return ModelParams(
        (
            ExpertParams(0.5, [1.2], 0.6),
            ExpertParams(-1.0, [0.2], 1.1),
        ),
        MixingGateParams([[0.8, 1.5], [0.0, 0.0]]),
        BehaviorGateParams([0.3, -0.7]),
    )


def make_dataset(x, y):
    ts = np.datetime64("2024-01-01", "s") + np.arange(len(x)) * np.timedelta64(3600, "s")
    return Dataset(np.asarray(x, dtype=float), np.asarray(y, dtype=float), ts)


# ---------------------------------------------------------------------------
# 1. Exact weighted-uniform-sum CDF
# ---------------------------------------------------------------------------


def test_criterion_1_weighted_sum_cdf_exactness():
    with criterion(1, "weighted-sum CDF exactness", 30.0):
        grid = np.linspace(0.0, 1.0, 101)
        for n in range(1, 6):
            dist = build_sum_dist(WeightVector(np.full(n, 1.0 / n)))
            err = max(abs(sum_cdf(dist, q) - irwin_hall_cdf(n * q, n)) for q in grid)
            assert err < 1e-9, f"equal weights n={n}: err {err:.2e}"

        rng = np.random.default_rng(2024)
        for seed in range(50):
            local = np.random.default_rng(seed)
            n = int(local.integers(1, 11))
            w = local.random(n) + 0.05
            w /= w.sum()
            dist = build_sum_dist(WeightVector(w))
            for q in local.random(21):
                ref = power_set_cdf(w.tolist(), float(q))
                assert abs(sum_cdf(dist, q) - ref) < 1e-12, f"seed {seed}"
            samples = np.sort(local.random((10**6, n)) @ w)
            probe = np.linspace(0.02, 0.98, 49)
            empirical = np.searchsorted(samples, probe) / len(samples)
            exact = np.array([sum_cdf(dist, q) for q in probe])
            assert np.abs(empirical - exact).max() < 0.004, f"seed {seed} Monte Carlo"


# ---------------------------------------------------------------------------
# 2. Null calibration of the anomaly score
# ---------------------------------------------------------------------------


def test_criterion_2_null_calibration():
    with criterion(2, "null calibration of the anomaly score", 120.0):
        k = 5
        length = k + 1
        n_windows = 10**4
        model = two_expert_model()
        spec = SyntheticSpec(model, [("uniform", -2.0, 2.0)], n_windows * length)
        data, _ = generate_synthetic(spec, seed=606)
        w = exp_weights(length, default_decay(k))
        dist = build_sum_dist(w)
        u = pit_rows(model, data.covariates, data.responses).reshape(n_windows, length)
        qs = u @ w.weights
        f = np.array([sum_cdf(dist, q) for q in qs])
        scores = 1.0 - 2.0 * np.minimum(f, 1.0 - f)

        assert kstest(scores, "uniform").pvalue > 0.01
        tau = 0.975
        exceed = int((scores >= tau).sum())
        lo, hi = binom.interval(0.99, n_windows, 1.0 - tau)
        assert lo <= exceed <= hi, f"exceedances {exceed} outside [{lo}, {hi}]"


# ---------------------------------------------------------------------------
# 3. Hand-transcribed alarm/failure sequence
# ---------------------------------------------------------------------------


def test_criterion_3_detection_fixture():
    with criterion(3, "hand-transcribed detection fixture", 5.0):
        days = np.datetime64("2024-03-01T12:00:00", "s") + np.arange(30) * np.timedelta64(86400, "s")
        failures = FailureLog(np.array([days[10], days[25]]), np.array([days[10], days[25]]))
        alarms = [AlarmWindow(days[1], days[5]), AlarmWindow(days[8], days[9])]
        row = evaluate(alarms, failures, [3], days).row(3)
        assert row.recall == 0.5
        assert row.precision == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert row.f1 == pytest.approx(0.25, abs=1e-15)


# ---------------------------------------------------------------------------
# 4 & 5. Posterior recovery and coverage diagnostics
# ---------------------------------------------------------------------------

TRUTH = dict(intercept=2.0, slope=3.0, sd=0.5)

_RECOVERY_CACHE = {}


def recovery_fit():
    """S = 4000 fit on 500 synthetic points, built once and reused."""
    if not _RECOVERY_CACHE:
        rng = np.random.default_rng(404)
        x = rng.uniform(-2, 2, size=(500, 1))
        y = TRUTH["intercept"] + TRUTH["slope"] * x[:, 0] + rng.normal(0, TRUTH["sd"], 500)
        data = make_dataset(x, y)
        settings = SamplerSettings(chains=4, iterations=2000, burn_in=1000, seed=17)
        sample = sample_posterior(data, PriorSpec(), 1, settings)
        x_new = rng.uniform(-2, 2, size=(2000, 1))
        y_new = TRUTH["intercept"] + TRUTH["slope"] * x_new[:, 0] + rng.normal(0, TRUTH["sd"], 2000)
        _RECOVERY_CACHE["fit"] = (data, sample, x_new, y_new)
    return _RECOVERY_CACHE["fit"]


def test_criterion_4_posterior_recovery():
    with criterion(4, "posterior recovery", 300.0):
        data, sample, x_new, y_new = recovery_fit()
        assert sample.n_draws == 4000
        ints = sample.experts[:, 0, 0]
        slopes = sample.experts[:, 0, 1]
        sds = np.exp(sample.experts[:, 0, -1])
        assert abs(ints.mean() - TRUTH["intercept"]) < 3 * ints.std()
        assert abs(slopes.mean() - TRUTH["slope"]) < 3 * slopes.std()
        assert abs(sds.mean() - TRUTH["sd"]) < 3 * sds.std()

        u = posterior_predictive_cdf(sample, x_new, y_new)
        assert kstest(u, "uniform").pvalue > 0.01


def test_criterion_5_coverage_diagnostics():
    with criterion(5, "coverage diagnostics", 300.0):
        data, sample, _, _ = recovery_fit()
        coverage, _ = cic(sample, data, 0.95)
        assert 0.92 <= coverage <= 0.98

        loo, loo_se, _ = psis_loo(sample, data)
        assert loo <= lppd(sample, data)

        # Exact LOO by brute force on a 20-point sub-problem: refit with
        # each point held out and score it under the refitted posterior.
        sub = data.select(np.arange(20))
        small = SamplerSettings(chains=2, iterations=1500, burn_in=500, seed=23)
        sub_sample = sample_posterior(sub, PriorSpec(), 1, small)
        psis_est, psis_se, _ = psis_loo(sub_sample, sub)
        exact = np.empty(20)
        for i in range(20):
            keep = np.delete(np.arange(20), i)
            refit = sample_posterior(
                sub.select(keep),
                PriorSpec(),
                1,
                SamplerSettings(chains=2, iterations=1500, burn_in=500, seed=100 + i),
            )
            held = lppd(refit, sub.select(np.array([i])))
            exact[i] = held
        exact_total = float(exact.sum())
        exact_se = float(math.sqrt(20 * exact.var(ddof=1)))
        combined = math.sqrt(psis_se**2 + exact_se**2)
        assert abs(psis_est - exact_total) < 2 * combined, (
            f"psis {psis_est:.2f} vs exact {exact_total:.2f} (2 se = {2 * combined:.2f})"
        )


# ---------------------------------------------------------------------------
# 6. Fusion identities
# ---------------------------------------------------------------------------


def test_criterion_6_fusion_identities():
    with criterion(6, "fusion identities", 120.0):
        rng = np.random.default_rng(660)
        for _ in range(50):
            m = int(rng.integers(1, 5))
            experts = [
                ExpertParams(rng.normal(), rng.normal(size=2), rng.uniform(0.3, 2.0))
                for _ in range(m)
            ]
            alpha = rng.dirichlet(np.ones(m))
            fused_one = fuse_experts(experts, alpha, 1.0)
            for orig, new in zip(experts, fused_one):
                assert new.intercept == orig.intercept
                assert np.array_equal(new.slopes, orig.slopes)
                assert new.noise_sd == orig.noise_sd
            fused_zero = fuse_experts(experts, alpha, 0.0)
            first = fused_zero[0]
            for other in fused_zero[1:]:
                assert abs(other.intercept - first.intercept) <= 1e-14
                assert np.all(np.abs(other.slopes - first.slopes) <= 1e-14)
                assert abs(other.noise_sd - first.noise_sd) <= 1e-14

        for _ in range(100):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 3))
            experts = [
                ExpertParams(rng.normal(), rng.normal(size=n), rng.uniform(0.3, 2.0))
                for _ in range(m)
            ]
            rows = np.vstack([rng.normal(size=(m - 1, n + 1)), np.zeros(n + 1)])
            model = ModelParams(
                tuple(experts), MixingGateParams(rows), BehaviorGateParams(rng.normal(size=n + 1))
            )
            x = rng.normal(size=n)
            _, means, variances = fused_moments(model, x[None, :])
            lo = float(means.min() - 12 * np.sqrt(variances.max()))
            hi = float(means.max() + 12 * np.sqrt(variances.max()))
            total, _ = quad(lambda y: conditional_pdf(model, x, y), lo, hi, limit=300)
            assert abs(total - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# 7. Explainability geometry
# ---------------------------------------------------------------------------


def test_criterion_7_explainability_geometry():
    with criterion(7, "explainability geometry", 60.0):
        rng = np.random.default_rng(770)
        for trial in range(100):
            rows = int(rng.integers(1, 4))
            n = int(rng.integers(rows + 1, rows + 6))
            slopes = rng.normal(size=(rows, n))
            intercepts = rng.normal(size=rows)
            gate = np.vstack([np.column_stack([intercepts, slopes]), np.zeros(n + 1)])
            experts = tuple(ExpertParams(0.0, np.zeros(n), 1.0) for _ in range(rows + 1))
            draw = ModelParams(experts, MixingGateParams(gate), BehaviorGateParams(np.zeros(n + 1)))
            sample = stack_draws((draw,), 0.25, 1, 0)
            geo = gate_geometry(sample)
            scale = np.linalg.norm(slopes)
            for i, star in enumerate(geo.a_star):
                for j in range(rows):
                    if j != i:
                        assert abs(star @ slopes[j]) < 1e-10 * scale, f"trial {trial}"
            grid = default_score_grid(rows, points_per_axis=3 if rows > 1 else 11)
            skeleton = embed_grid(geo, grid)
            recovered = skeleton.points @ slopes.T + intercepts
            assert np.abs(recovered - skeleton.grid).max() < 1e-8, f"trial {trial}"

        for _ in range(20):
            slopes = rng.normal(size=(4, 10))
            reduced = reduce_svd(slopes)
            lift = slopes @ np.linalg.pinv(reduced) @ reduced
            err = np.linalg.norm(slopes - lift)
            sv = np.linalg.svd(slopes, compute_uv=False)
            optimum = float(np.sqrt((sv[2:] ** 2).sum()))
            assert abs(err - optimum) < 1e-9


# ---------------------------------------------------------------------------
# 8. Selection walk trace
# ---------------------------------------------------------------------------


def test_criterion_8_selection_trace():
    with criterion(8, "selection walk trace", 5.0):
        trials = [
            Trial(1, {"experts": 1}, -120.0, 2.0, 10.0),
            Trial(2, {"experts": 2}, -100.0, 2.0, 20.0),
            Trial(3, {"experts": 3}, -99.0, 10.0, 30.0),
            Trial(4, {"experts": 4}, -130.0, 2.0, 15.0),
            Trial(5, {"experts": 5}, -105.0, 3.0, 25.0),
            Trial(6, {"experts": 6}, -150.0, 1.0, 50.0),
        ]
        # Hand trace with nu = 0.5, walking the Pareto set by coverage cost:
        #   start: best = trial 1 (cost 10)
        #   trial 2: gap 20, bound 400/(400+8) = 0.980 > 0.5 -> best = trial 2
        #   trial 3: gap 1, bound 1/(1+104) = 0.0095 < 0.5 -> keep trial 2
        assert {t.trial_id for t in pareto_front(trials)} == {1, 2, 3}
        assert select_best(trials, nu=0.5).trial_id == 2

        rng = np.random.default_rng(880)
        for _ in range(20):
            shuffled = list(trials)
            rng.shuffle(shuffled)
            assert select_best(shuffled, nu=0.5).trial_id == 2


# ---------------------------------------------------------------------------
# 9. End-to-end synthetic fault run
# ---------------------------------------------------------------------------


def test_criterion_9_end_to_end_fault_run(tmp_path):
    with criterion(9, "end-to-end synthetic fault run", 600.0):
        data_dir = tmp_path / "data"
        onset_index, failure_index = 2232, 2280  # days 93 and 95 of an hourly stream
        write_two_index_stream(
            data_dir,
            n_samples=2400,
            onset_index=onset_index,
            failure_index=failure_index,
            shift_sds=8.0,
            seed=909,
        )
        config_text = default_config_text(
            indices=["hi_a", "hi_b"],
            extra_covariates=["load"],
            machine_column="machineID",
            machine_id="1",
            experts=2,
            chains=2,
            iterations=900,
            burn_in=500,
            subsample_fraction=1.0,
            quorum=2,
            patience=3,
            threshold=0.975,
            validity_days=[1, 2, 3, 4, 5, 6, 7],
            seed=31,
        )
        config_path = tmp_path / "run.cfg"
        config_path.write_text(config_text)
        run_dir = tmp_path / "run"
        code = main(
            [
                "run",
                "--config", str(config_path),
                "--data", str(data_dir / "telemetry.csv"),
                "--failures", str(data_dir / "failures.csv"),
                "--out", str(run_dir),
            ]
        )
        assert code == 0

        report_lines = (run_dir / "detection_report.csv").read_text().strip().splitlines()[1:]
        recalls = {int(line.split(",")[0]): float(line.split(",")[3]) for line in report_lines}
        assert set(recalls) == {1, 2, 3, 4, 5, 6, 7}
        assert all(r == 100.0 for r in recalls.values()), recalls

        # Precision over the pre-onset span: no alarm may touch a day that
        # ends before the injected fault begins.
        onset_ts = np.datetime64("2024-01-01T00:00:00", "s") + onset_index * np.timedelta64(3600, "s")
        alarm_lines = (run_dir / "pooled_alarms.csv").read_text().strip().splitlines()[1:]
        assert alarm_lines, "the injected fault must raise at least one pooled alarm"
        pre_onset_alarm_days = set()
        for line in alarm_lines:
            onset_str, end_str = line.split(",")
            a = np.datetime64(onset_str.replace(" ", "T"), "s")
            b = np.datetime64(end_str.replace(" ", "T"), "s")
            day = a.astype("datetime64[D]")
            while day <= b.astype("datetime64[D]"):
                if np.datetime64(day + 1, "s") <= onset_ts:
                    pre_onset_alarm_days.add(str(day))
                day += 1
        tp = 1  # single injected failure, detected per the recall check
        precision_pre_onset = tp / (tp + len(pre_onset_alarm_days))
        assert precision_pre_onset >= 0.9, f"pre-onset alarm days: {sorted(pre_onset_alarm_days)}"
