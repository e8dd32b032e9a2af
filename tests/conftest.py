"""Fixtures shared by every test module."""

import pytest

from anomix import selection


@pytest.fixture(autouse=True)
def fresh_trial_fit():
    """Start each test without the fit an earlier test left in ``selection``: a test that
    monkeypatches a scoring step on data another test fitted must not read that test's trial.
    ``anomaly._window_dist`` keeps its tables, which are pure and costly to rebuild."""
    selection._last_fit = (None, None)
