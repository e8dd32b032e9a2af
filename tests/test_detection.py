"""Detection tests: alarm logic, pooling, validity-window metrics, grouping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import evaluate_loop, evaluate_per_window, raise_alarms_loop

from anomix.anomaly import AnomalyScoreSeries
from anomix.detection import (
    AlarmPolicy,
    AlarmWindow,
    FailureLog,
    PoolingPolicy,
    evaluate,
    format_report,
    group_constant_ranges,
    pool,
    raise_alarms,
)


def hourly(start, n):
    return np.datetime64(start, "s") + np.arange(n) * np.timedelta64(3600, "s")


def daily(start, n):
    return np.datetime64(start, "s") + np.arange(n) * np.timedelta64(86400, "s")


def series(values, timestamps=None, threshold=0.975):
    values = np.asarray(values, dtype=float)
    if timestamps is None:
        timestamps = hourly("2024-01-01T00:00:00", len(values))
    return AnomalyScoreSeries(timestamps, values, threshold)


class TestRaiseAlarms:
    def test_never_above_threshold(self):
        s = series([0.1, 0.5, 0.9, 0.2])
        assert raise_alarms(s, AlarmPolicy(0.975, 3)) == []

    def test_patience_one_matches_runs(self):
        vals = [0.2, 0.99, 0.99, 0.1, 0.98, 0.2]
        s = series(vals)
        alarms = raise_alarms(s, AlarmPolicy(0.975, 1))
        assert len(alarms) == 2
        assert alarms[0].onset == s.timestamps[1]
        assert alarms[0].end == s.timestamps[2]
        assert alarms[1].onset == alarms[1].end == s.timestamps[4]

    def test_run_of_nine_with_patience_ten(self):
        vals = [0.99] * 9 + [0.1]
        assert raise_alarms(series(vals), AlarmPolicy(0.975, 10)) == []

    def test_onset_is_patience_th_sample(self):
        vals = [0.1] + [0.99] * 6 + [0.1]
        s = series(vals)
        alarms = raise_alarms(s, AlarmPolicy(0.975, 3))
        assert len(alarms) == 1
        assert alarms[0].onset == s.timestamps[3]  # third consecutive exceedance
        assert alarms[0].end == s.timestamps[6]

    def test_alarm_stays_active_until_drop(self):
        vals = [0.99] * 4
        s = series(vals)
        alarms = raise_alarms(s, AlarmPolicy(0.975, 2))
        assert alarms[0].end == s.timestamps[-1]

    def test_alarms_disjoint_and_patience_respected(self):
        rng = np.random.default_rng(3)
        vals = rng.random(500)
        s = series(vals, threshold=0.6)
        policy = AlarmPolicy(0.6, 4)
        alarms = raise_alarms(s, policy)
        above = vals >= 0.6
        for a, b in zip(alarms, alarms[1:]):
            assert a.end < b.onset
        for a in alarms:
            i = int(np.flatnonzero(s.timestamps == a.onset)[0])
            assert all(above[i - 3 : i + 1])


class TestPool:
    def test_quorum_one_any_index(self):
        a = series([0.99, 0.1, 0.99])
        b = series([0.1, 0.1, 0.99])
        pooled = pool([a, b], PoolingPolicy(quorum=1))
        assert pooled.as_values.tolist() == [1.0, 0.0, 1.0]

    def test_quorum_two_half_level(self):
        a = series([0.99, 0.1, 0.99])
        b = series([0.1, 0.1, 0.99])
        pooled = pool([a, b], PoolingPolicy(quorum=2, half_level_enabled=True))
        assert pooled.as_values.tolist() == [0.5, 0.0, 1.0]

    def test_quorum_two_without_half_level(self):
        a = series([0.99, 0.1])
        b = series([0.1, 0.1])
        pooled = pool([a, b], PoolingPolicy(quorum=2))
        assert pooled.as_values.tolist() == [0.0, 0.0]

    def test_per_index_thresholds(self):
        a = series([0.8], threshold=0.7)   # exceeds its own threshold
        b = series([0.8], threshold=0.9)   # does not
        pooled = pool([a, b], PoolingPolicy(quorum=2, half_level_enabled=True))
        assert pooled.as_values.tolist() == [0.5]

    def test_pooled_alarm_logic_counts_full_consensus_only(self):
        a = series([0.99, 0.99, 0.99, 0.1])
        b = series([0.99, 0.99, 0.1, 0.1])
        pooled = pool([a, b], PoolingPolicy(quorum=2, half_level_enabled=True))
        alarms = raise_alarms(pooled, AlarmPolicy(pooled.threshold, 2))
        assert len(alarms) == 1
        assert alarms[0].end == pooled.timestamps[1]  # the 0.5 sample closes it

    def test_misaligned_timestamps_rejected(self):
        a = series([0.5, 0.5])
        b = series([0.5, 0.5], timestamps=hourly("2024-02-01T00:00:00", 2))
        with pytest.raises(ValueError):
            pool([a, b], PoolingPolicy())


def two_failure_fixture():
    """Thirty observed days, failures on days 10 and 25, alarms chosen so
    that w = 3 gives exactly R = 1/2, P = 1/6, F1 = 1/4.

    Validity windows (3 days before each failure): days 7-9 and 22-24.
    One alarm covers days 8-9 (detects the first failure) and another
    covers days 1-5 (five false-positive days); nothing fires before the
    second failure.
    """
    days = daily("2024-03-01T12:00:00", 30)
    failures = FailureLog(np.array([days[10], days[25]]), np.array([days[10], days[25]]))
    alarms = [AlarmWindow(days[1], days[5]), AlarmWindow(days[8], days[9])]
    return alarms, failures, days


class TestEvaluate:
    def test_illustrative_sequence(self):
        alarms, failures, days = two_failure_fixture()
        report = evaluate(alarms, failures, [3], days)
        row = report.row(3)
        assert (row.tp, row.fn, row.fp) == (1, 1, 5)
        assert row.recall == pytest.approx(0.5)
        assert row.precision == pytest.approx(1.0 / 6.0)
        assert row.f1 == pytest.approx(0.25)

    def test_no_alarms_conventions(self):
        _, failures, days = two_failure_fixture()
        row = evaluate([], failures, [3], days).row(3)
        assert row.recall == 0.0
        assert row.precision == 0.0
        assert row.f1 == 0.0

    def test_alarms_everywhere(self):
        _, failures, days = two_failure_fixture()
        alarms = [AlarmWindow(days[0], days[-1])]
        row = evaluate(alarms, failures, [3], days).row(3)
        assert row.recall == 1.0
        assert row.fp + row.tn == row.fp  # every outside day is alarmed
        assert row.precision == pytest.approx(2 / (2 + row.fp))

    def test_count_identities_and_monotone_tp(self):
        rng = np.random.default_rng(8)
        ts = hourly("2024-05-01T00:00:00", 24 * 40)
        fail_days = np.array([ts[24 * 14], ts[24 * 30]])
        failures = FailureLog(fail_days, fail_days)
        alarms = []
        for _ in range(4):
            i = int(rng.integers(0, len(ts) - 30))
            alarms.append(AlarmWindow(ts[i], ts[i + int(rng.integers(1, 30))]))
        alarms.sort(key=lambda a: a.onset)
        report = evaluate([alarms[0], alarms[-1]], failures, list(range(1, 9)), ts)
        all_days = set(ts.astype("datetime64[D]").tolist())
        prev_tp = 0
        for w in range(1, 9):
            row = report.row(w)
            assert row.tp + row.fn == len(failures)
            assert row.tp >= prev_tp
            # FP + TN covers exactly the observed days outside all validity
            # windows (failure days excluded from the healthy tally)
            width = np.timedelta64(w, "D").astype("timedelta64[s]")
            inside = {
                d
                for d, t in zip(ts.astype("datetime64[D]").tolist(), ts)
                if any(fs - width <= t < fs for fs in fail_days) or any(t == fs for fs in fail_days)
            }
            assert row.fp + row.tn == len(all_days - inside)
            assert 0.0 <= row.precision <= 1.0
            assert 0.0 <= row.recall <= 1.0
            assert 0.0 <= row.f1 <= 1.0
            if row.precision + row.recall > 0:
                expected = 2 * row.precision * row.recall / (row.precision + row.recall)
                assert row.f1 == pytest.approx(expected)
            prev_tp = row.tp

    def test_gap_only_window_is_missed(self):
        # no observations in the 2 days before the failure: nothing to alarm on
        days = daily("2024-03-01T12:00:00", 30).tolist()
        observed = np.array(days[:8] + days[11:], dtype="datetime64[s]")
        failures = FailureLog(np.array([days[10]]), np.array([days[10]]))
        alarms = [AlarmWindow(days[5], days[7])]
        row = evaluate(alarms, failures, [2], observed).row(2)
        assert (row.tp, row.fn) == (0, 1)

    def test_failure_days_excluded_from_fp(self):
        days = daily("2024-03-01T12:00:00", 10)
        failures = FailureLog(np.array([days[5]]), np.array([days[6]]))
        alarms = [AlarmWindow(days[5], days[6])]  # alarm only during the failure
        row = evaluate(alarms, failures, [1], days).row(1)
        assert row.fp == 0

    def test_alarm_crossing_two_windows_credits_both(self):
        days = daily("2024-03-01T12:00:00", 20)
        failures = FailureLog(np.array([days[6], days[9]]), np.array([days[6], days[9]]))
        alarms = [AlarmWindow(days[4], days[8])]
        row = evaluate(alarms, failures, [3], days).row(3)
        assert row.tp == 2

    def test_samples_in_range_buckets(self):
        ts = hourly("2024-04-01T00:00:00", 24 * 10)
        failures = FailureLog(np.array([ts[24 * 8]]), np.array([ts[24 * 8]]))
        report = evaluate([], failures, [1, 2, 3], ts)
        for w in (1, 2, 3):
            assert report.row(w).samples_in_range == 24

    def test_rejects_bad_window(self):
        _, failures, days = two_failure_fixture()
        with pytest.raises(ValueError):
            evaluate([], failures, [0], days)

    @pytest.mark.parametrize("w_days", [[-1], [2, 0, 3]], ids=["negative", "among positives"])
    def test_rejects_any_non_positive_window(self, w_days):
        _, failures, days = two_failure_fixture()
        with pytest.raises(ValueError, match="validity window length must be positive"):
            evaluate([], failures, w_days, days)


class TestEvaluateOrder:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_observed=st.integers(1, 240),
        n_alarms=st.integers(0, 6),
        n_failures=st.integers(1, 3),
    )
    def test_report_ignores_input_order(self, seed, n_observed, n_alarms, n_failures):
        rng = np.random.default_rng(seed)
        stream = hourly("2024-01-01T00:00:00", 24 * 20)
        observed = np.sort(rng.choice(stream, size=n_observed, replace=False))
        cuts = np.sort(rng.choice(len(stream), size=2 * n_failures, replace=False))
        failures = FailureLog(stream[cuts[0::2]], stream[cuts[1::2]])
        alarms = [AlarmWindow(*np.sort(rng.choice(observed, size=2))) for _ in range(n_alarms)]
        report = evaluate(alarms, failures, [1, 2, 3], observed)
        shuffled_alarms = [alarms[i] for i in rng.permutation(n_alarms)]
        assert evaluate(shuffled_alarms, failures, [1, 2, 3], rng.permutation(observed)) == report


THRESHOLD = 0.9
EPOCH = np.datetime64("2024-01-01T00:00:00", "s")


def at_hours(hours):
    return EPOCH + np.asarray(hours, dtype=np.int64) * np.timedelta64(3600, "s")


@st.composite
def scored_streams(draw):
    """Scores on a sorted hourly clock with repeated stamps and gaps of up to
    two days; a third of the values sit exactly on the threshold."""
    n = draw(st.integers(0, 60))
    steps = draw(st.lists(st.sampled_from([0, 1, 1, 1, 7, 48]), min_size=n, max_size=n))
    values = draw(st.lists(st.sampled_from([0.1, THRESHOLD, 0.95]), min_size=n, max_size=n))
    return AnomalyScoreSeries(at_hours(np.cumsum(steps, dtype=np.int64)), np.array(values), THRESHOLD)


@st.composite
def detection_cases(draw):
    """Observations, alarms and failures on one hourly grid of 20 days, so
    that validity windows of whole days start and end on observations."""
    hours = st.integers(0, 480)
    observed = at_hours(draw(st.lists(hours, min_size=0, max_size=120)))
    spans = draw(st.lists(st.tuples(hours, st.integers(0, 30)), max_size=6))
    alarms = [AlarmWindow(*at_hours([a, a + length])) for a, length in spans]
    starts = sorted(draw(st.sets(hours, min_size=1, max_size=4)))
    lengths = draw(st.lists(st.integers(0, 30), min_size=len(starts), max_size=len(starts)))
    ends = [min(a + length, b - 1) for a, length, b in zip(starts, lengths, [*starts[1:], 10**6])]
    failures = FailureLog(at_hours(starts), at_hours(ends))
    w_days = draw(st.lists(st.integers(1, 8), min_size=1, max_size=8, unique=True))
    return alarms, failures, w_days, observed


@st.composite
def window_cases(draw):
    """Detection cases whose failure log may be empty, whose observations
    skip a run of whole days, and whose window lengths come unsorted and
    repeated (or not at all)."""
    alarms, failures, _, observed = draw(detection_cases())
    if draw(st.booleans()):
        failures = FailureLog(at_hours([]), at_hours([]))
    first_day, skipped = draw(st.integers(0, 20)), draw(st.integers(0, 5))
    day = (observed - EPOCH) // np.timedelta64(1, "D")
    observed = observed[(day < first_day) | (day >= first_day + skipped)]
    w_days = draw(st.lists(st.integers(1, 8), max_size=10))
    return alarms, failures, w_days, observed


class TestAgainstLoopOracles:
    @settings(max_examples=200, deadline=None)
    @given(series=scored_streams(), patience=st.integers(1, 5))
    def test_alarms_match_the_state_machine(self, series, patience):
        policy = AlarmPolicy(THRESHOLD, patience)
        assert raise_alarms(series, policy) == raise_alarms_loop(series, policy)

    @settings(max_examples=200, deadline=None)
    @given(case=detection_cases())
    def test_report_matches_the_per_failure_loops(self, case):
        assert evaluate(*case) == evaluate_loop(*case)

    @settings(max_examples=200, deadline=None)
    @given(case=window_cases())
    def test_one_pass_matches_the_per_window_loop(self, case):
        assert evaluate(*case) == evaluate_per_window(*case)

    @settings(max_examples=100, deadline=None)
    @given(series=scored_streams(), patience=st.integers(1, 4), case=detection_cases())
    def test_report_on_raised_alarms_matches(self, series, patience, case):
        alarms = raise_alarms(series, AlarmPolicy(THRESHOLD, patience))
        _, failures, w_days, _ = case
        assert evaluate(alarms, failures, w_days, series.timestamps) == evaluate_loop(
            alarms, failures, w_days, series.timestamps
        )


class TestGrouping:
    def test_constant_metrics_merge(self):
        days = daily("2024-03-01T12:00:00", 30)
        # Alarm only on the day before the failure: inside every validity
        # window of w >= 1, so the metrics are constant across w.
        alarms = [AlarmWindow(days[9], days[9])]
        failures = FailureLog(np.array([days[10]]), np.array([days[10]]))
        report = evaluate(alarms, failures, [1, 2, 3, 4], days)
        groups = group_constant_ranges(report)
        assert len(groups) == 1
        assert groups[0][:2] == (4, 1)
        assert groups[0][2] == sum(report.row(w).samples_in_range for w in (1, 2, 3, 4))

    def test_changing_metrics_not_merged(self):
        alarms, failures, days = two_failure_fixture()
        report = evaluate(alarms, failures, [1, 2, 3], days)
        groups = group_constant_ranges(report)
        assert len(groups) > 1

    def test_single_row(self):
        alarms, failures, days = two_failure_fixture()
        report = evaluate(alarms, failures, [3], days)
        assert group_constant_ranges(report) == [
            (3, 3, report.row(3).samples_in_range, report.row(3).precision, report.row(3).recall, report.row(3).f1)
        ]

    def test_format_layout(self):
        alarms, failures, days = two_failure_fixture()
        report = evaluate(alarms, failures, [3], days)
        text = format_report(report)
        lines = text.strip().splitlines()
        assert lines[0] == "Days to Event,Samples in Range,Prec. [%],Rec. [%],F1 [%]"
        assert lines[1].endswith("16.67,50.00,25.00")


class TestFailureLogValidation:
    def test_overlap_rejected(self):
        days = daily("2024-03-01", 10)
        with pytest.raises(ValueError):
            FailureLog(np.array([days[0], days[2]]), np.array([days[3], days[5]]))

    def test_order_required(self):
        days = daily("2024-03-01", 10)
        with pytest.raises(ValueError):
            FailureLog(np.array([days[5], days[1]]), np.array([days[5], days[1]]))
