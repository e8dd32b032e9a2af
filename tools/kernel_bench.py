"""Time the two kernels that replaced scipy calls, against scipy's where it is installed, and
``anomaly.score_series`` at monitor's shape.

    python tools/kernel_bench.py [--rounds 15] [--number 200]

* ``pit``: ``model._cdf_from_moments`` at monitor's draw block, 40 draws x 2
  experts x 202 rows, on moments and responses drawn like monitor's (most
  standardised residuals within 1 of 0, a few past 8, in one pattern along
  the rows that every draw repeats).  scipy's ``ndtr`` branches on the
  residual and costs less near 0; the package's does not.
* ``gate``: ``model._logistic_gate`` at the sampler's shape, 4 chains x 200
  rows with 2 covariates, and at monitor's draw block, 40 draws x 202 rows.
* ``score``: ``anomaly.score_series`` on one monitor batch, 100 draws x 2
  experts, 202 rows with 2 covariates and ``k = 10``, so 192 windows.  It
  has no scipy side; its line also gives the ``sum_cdf`` calls and queries
  one call makes, against the 100 x 192 = 19 200 queries of one per draw
  and window.

Each figure is the median over ``--rounds`` rounds of the mean time of
``--number`` calls, in microseconds; rounds alternate between the package
and scipy, so that both see the same load.  The scipy side is the same
arithmetic with ``scipy.special.ndtr`` or ``expit`` in the place of the
package's.  BLAS runs one thread unless the environment sets its own count.  The
last line of output is JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import timeit
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from anomix import __version__, anomaly, model  # noqa: E402
from anomix.posterior import PosteriorSample  # noqa: E402

try:
    from scipy import __version__ as scipy_version
    from scipy.special import expit, ndtr
except ImportError:
    scipy_version = None


def pit_case(rng):
    """Moments and a batch whose rows 140-152 are shifted 8 sds, as in monitor.  As there, the
    draws of a posterior agree closely at each row, so every draw repeats one pattern of large
    and small residuals along the rows, which scipy's branches learn.  39% of the standardised
    residuals lie within 0.5 of 0, 67% within 1 and 94% within 4; in monitor's seed-1 run, 33%,
    60% and 94%."""
    alpha = rng.dirichlet([1.0, 1.0], size=(40, 202)).swapaxes(-1, -2).copy()
    means = rng.normal(scale=0.3, size=(1, 2, 202)) + rng.normal(scale=0.05, size=(40, 2, 202))
    sds = np.exp(rng.normal(0.0, 0.3, size=(1, 2, 1)) + rng.normal(scale=0.05, size=(40, 2, 202)))
    y = rng.normal(scale=1.2, size=202)
    y[140:153] += 8.0
    return alpha, means, sds, y


def scipy_pit(alpha, means, sds, y):
    return (alpha * ndtr((y[..., None, :] - means) / sds)).sum(axis=-2)


def gate_case(rng, slots: int, rows: int):
    return rng.normal(size=(slots, 3)), np.column_stack([np.ones(rows), rng.normal(size=(rows, 2))])


def scipy_gate(behavior_coeffs, phi):
    logits = behavior_coeffs[..., None, :] @ phi.swapaxes(-1, -2)
    return expit(logits, out=logits)


def score_case(rng):
    """A 100-draw, two-expert sample whose draws scatter about one point, and a 202-row batch
    with rows 140-152 shifted 8 predictive sds, as in monitor."""
    experts = np.concatenate(
        [rng.normal(size=(1, 2, 3)) + rng.normal(scale=0.05, size=(100, 2, 3)), np.full((100, 2, 1), -1.0)], axis=-1
    )
    mixing = np.concatenate([rng.normal(size=(100, 1, 3)), np.zeros((100, 1, 3))], axis=1)
    sample = PosteriorSample(experts, mixing, rng.normal(size=(100, 3)), 0.25, 1, 0)
    x = rng.normal(size=(202, 2))
    y = rng.normal(scale=0.5, size=202)
    y[140:153] += 8.0
    ts = np.datetime64("2024-01-01T00:00:00", "s") + np.arange(202) * np.timedelta64(3600, "s")
    return model.Dataset(x, y, ts), sample


def sum_cdf_queries(data, sample) -> tuple[int, int]:
    """``(calls, queries)`` that ``sum_cdf`` answers in one ``score_series`` call."""
    calls, original = [], anomaly.sum_cdf
    anomaly.sum_cdf = lambda dist, q: calls.append(np.size(q)) or original(dist, q)
    try:
        anomaly.score_series(data, sample, 10)
    finally:
        anomaly.sum_cdf = original
    return len(calls), sum(calls)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--number", type=int, default=200)
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    pit = pit_case(rng)
    cases = {
        "pit_40x2x202": (lambda: model._cdf_from_moments(*pit), lambda: scipy_pit(*pit)),
    }
    for name, shape in (("gate_4x200", (4, 200)), ("gate_40x202", (40, 202))):
        gate = gate_case(rng, *shape)
        cases[name] = (lambda gate=gate: model._logistic_gate(*gate), lambda gate=gate: scipy_gate(*gate))
    data, sample = score_case(rng)
    cases["score_100x202_k10"] = (lambda: anomaly.score_series(data, sample, 10), None)
    anomaly.score_series(data, sample, 10)  # builds the k = 10 table outside the timing
    times = {name: {"anomix": [], "scipy": []} for name in cases}
    for _ in range(args.rounds):
        for name, (ours, theirs) in cases.items():
            sides = [("anomix", ours)] + ([("scipy", theirs)] if scipy_version and theirs else [])
            for side, call in sides:
                times[name][side].append(timeit.timeit(call, number=args.number) / args.number * 1e6)
    result = {}
    for name, sides in times.items():
        medians = {side: statistics.median(t) for side, t in sides.items() if t}
        if "scipy" in medians:
            medians["ratio"] = medians["anomix"] / medians["scipy"]
        result[name] = {key: round(value, 3) for key, value in medians.items()}
        print(name, "  ".join(f"{key} {value:.3f}" for key, value in result[name].items()))
    calls, queries = sum_cdf_queries(data, sample)
    result["score_100x202_k10"].update(sum_cdf_calls=calls, sum_cdf_queries=queries)
    print(f"score_100x202_k10 sum_cdf: {calls} call(s), {queries} queries (19200 at one per draw and window)")
    versions = {
        "anomix": __version__, "numpy": np.__version__, "scipy": scipy_version, "python": platform.python_version()
    }
    print(json.dumps({"unit": "us", "cores": os.cpu_count(), "versions": versions, "kernels": result}))


if __name__ == "__main__":
    main()
