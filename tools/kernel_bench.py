"""Time the two kernels that replaced scipy calls, against scipy's where it is installed.

    python tools/kernel_bench.py [--rounds 15] [--number 200]

* ``pit``: ``model._cdf_from_moments`` at monitor's draw block, 40 draws x 2
  experts x 202 rows, on moments and responses drawn like monitor's (most
  standardised residuals within 1 of 0, a few past 8, in one pattern along
  the rows that every draw repeats).  scipy's ``ndtr`` branches on the
  residual and costs less near 0; the package's does not.
* ``gate``: ``model._logistic_gate`` at the sampler's shape, 4 chains x 200
  rows with 2 covariates, and at monitor's draw block, 40 draws x 202 rows.

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

from anomix import __version__, model  # noqa: E402

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
    times = {name: {"anomix": [], "scipy": []} for name in cases}
    for _ in range(args.rounds):
        for name, (ours, theirs) in cases.items():
            sides = [("anomix", ours)] + ([("scipy", theirs)] if scipy_version else [])
            for side, call in sides:
                times[name][side].append(timeit.timeit(call, number=args.number) / args.number * 1e6)
    result = {}
    for name, sides in times.items():
        medians = {side: statistics.median(t) for side, t in sides.items() if t}
        if "scipy" in medians:
            medians["ratio"] = medians["anomix"] / medians["scipy"]
        result[name] = {key: round(value, 3) for key, value in medians.items()}
        print(name, "  ".join(f"{key} {value:.3f}" for key, value in result[name].items()))
    versions = {
        "anomix": __version__, "numpy": np.__version__, "scipy": scipy_version, "python": platform.python_version()
    }
    print(json.dumps({"unit": "us", "cores": os.cpu_count(), "versions": versions, "kernels": result}))


if __name__ == "__main__":
    main()
