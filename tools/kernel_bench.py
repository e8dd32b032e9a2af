"""Time the three kernels that replaced scipy calls, against scipy's where it is installed,
``anomaly.score_series`` at monitor's shape, the sum-CDF table's build and one sum-CDF call,
and the layers the README demo's stages spend their time in.

    python tools/kernel_bench.py [--rounds 15] [--number 200] [--case NAME ...]

``--case NAME``, repeatable, runs only the named cases (the names are
those of the output lines, e.g. ``render_map_800x41``); an unknown name is
refused with the list of names.

* ``pit``: ``model._cdf_from_moments`` at monitor's draw block, 40 draws x 2
  experts x 202 rows, on moments and responses drawn like monitor's (most
  standardised residuals within 1 of 0, a few past 8, in one pattern along
  the rows that every draw repeats).  The kernel takes the sds in place on
  the fused variances it is handed, so each call gets a fresh copy of them,
  and scipy's side takes their square root into a new array.  scipy's
  ``ndtr`` branches on the residual and costs less near 0; the package's
  does not.
* ``gate``: ``model._logistic_gate`` at the sampler's shape, 4 chains x 200
  rows with 2 covariates, and at monitor's draw block, 40 draws x 202 rows.
* ``logsumexp``: ``model._logsumexp`` at the sampler's shapes, 4 chains x 2
  or 3 experts x 200 rows reduced over the experts (axis -2), and at the
  shape LPPD and PSIS-LOO reduce, 800 draws x 20 points over the draws
  (axis 0), on log densities drawn like theirs.
* ``score``: ``anomaly.score_series`` on one monitor batch, 100 draws x 2
  experts, 202 rows with 2 covariates and ``k = 10``, so 192 windows.  It
  has no scipy side; its line also gives the ``sum_cdf`` calls and queries
  one call makes, against the 100 x 192 = 19 200 queries of one per draw
  and window.  Its draws are all distinct, so skipping repeated draws
  cannot help it: it is the control for
* ``score_repeats``: the same call with each draw after the first replaced,
  with probability 1/2, by a copy of its predecessor, as rejected
  Metropolis steps leave them (45-52% of ``monitor``'s draws are
  distinct).  Its line gives the count of distinct draws.
* ``table``: a fresh ``anomaly.build_sum_dist(w).taylor_table`` for the default
  weights of ``k`` = 5, 10 and 11, the sum-CDF's per-window-shape cost.  It
  has no scipy side and is timed once per round: ``--number`` does not apply.
* ``lookup``: one ``anomaly.sum_cdf`` call on 960 seeded uniform queries over
  the support, the queries one ``score_series`` call makes at monitor's shape,
  for the default weights of ``k`` = 5, 10 and 11 and for
  ``exp_weights(12, 3.0)``, where knots crowd.  The table is built outside
  the timing.  It has no scipy side.
* ``lockstep``: one ``posterior._LockstepTarget.evaluate`` of each proposal
  block (experts, mixing and behavior) at the demo fit's shape, 4 slots x 200
  rows with M = 2 experts and n = 2 covariates, and at ``select``'s largest,
  2 slots x 3 experts x 200 rows (``_2x3x200``).
* ``sampler``: a 40-iteration ``posterior.sample_posteriors`` run at each of
  those shapes, one dataset of 4 or 2 chains; its figure is per iteration.
* ``psis``: ``posterior._psis_loo`` on the 800 x 200 log densities of an
  800-draw sample, the demo's draw count; its figure is per point.
* ``pointwise``: ``posterior._pointwise`` of that sample at the same 200 rows,
  the log-density pass alone: the fused moments of each block of draws and
  the mixture log-density kernel over them.
* ``diagnostics``: ``posterior.fit_diagnostics`` of that sample at the same
  200 rows, the diagnose stage per index: R-hat, the coverage pass, the
  log-density pass and one PSIS-LOO walk, which also gives the LPPD.
  ``psis`` and ``diagnostics`` also report ``peak_blocks``, the peak that one
  call's allocations reach under ``tracemalloc`` beyond the 800 x 200 log
  densities (which ``psis`` is handed and ``diagnostics`` allocates), in
  blocks of ``posterior.BLOCK_ELEMENTS`` float64.
* ``render_map``: one ``explain.render_map`` of that sample on the demo's
  grid, 41 points along its one gate direction.
* ``rhat``: ``posterior._rhat_max`` on another 800-draw demo sample of two
  chains, on its own generator, whose 14 moved parameters it splits and
  rank-normalises: the demo's R-hat per index.
* ``predictive``: ``posterior.sample_predictive`` of a 200-draw, three-expert
  demo sample, all draws distinct, at 200 demo rows, on its own generator:
  ``select``'s coverage draw.
* ``moments``: ``model._moments_arrays`` of a 40-draw, two-expert demo sample
  at 202 demo rows, on its own generator: monitor's draw block, whose gate
  weights and fused moments every scoring pass computes.
* ``config_load``: ``config.parse_config`` of a config with ``window_k = 11,
  decay = 0.6``, with the window cache cleared first, as in a fresh process.
  Timed once per round, as ``table`` is.

None of these has a scipy side.  Each figure is the median over
``--rounds`` rounds of the mean time of ``--number`` calls, in
microseconds; rounds alternate between the package and scipy, so that
both see the same load.  The scipy side is the same
arithmetic with ``scipy.special.ndtr`` or ``expit`` in the place of the
package's, and ``scipy.special.logsumexp`` itself for ``logsumexp``.  BLAS
runs one thread unless the environment sets its own count.  The last line
of output is JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import timeit
import tracemalloc
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from anomix import __version__, anomaly, config, explain, model, posterior  # noqa: E402
from anomix.posterior import PosteriorSample  # noqa: E402

try:
    from scipy import __version__ as scipy_version
    from scipy.special import expit, logsumexp, ndtr
except ImportError:
    scipy_version = None


def pit_case(rng):
    """Mixing weights, fused means and fused variances, and a batch whose rows 140-152 are shifted
    8 sds, as in monitor.  As there, the draws of a posterior agree closely at each row, so every
    draw repeats one pattern of large and small residuals along the rows, which scipy's branches
    learn.  39% of the standardised
    residuals lie within 0.5 of 0, 67% within 1 and 94% within 4; in monitor's seed-1 run, 33%,
    60% and 94%."""
    alpha = rng.dirichlet([1.0, 1.0], size=(40, 202)).swapaxes(-1, -2).copy()
    means = rng.normal(scale=0.3, size=(1, 2, 202)) + rng.normal(scale=0.05, size=(40, 2, 202))
    variances = np.exp(2.0 * (rng.normal(0.0, 0.3, size=(1, 2, 1)) + rng.normal(scale=0.05, size=(40, 2, 202))))
    y = rng.normal(scale=1.2, size=202)
    y[140:153] += 8.0
    return alpha, means, variances, y


def scipy_pit(alpha, means, variances, y):
    return (alpha * ndtr((y[..., None, :] - means) / np.sqrt(variances))).sum(axis=-2)


def gate_case(rng, slots: int, rows: int):
    return rng.normal(size=(slots, 3)), np.column_stack([np.ones(rows), rng.normal(size=(rows, 2))])


def scipy_gate(behavior_coeffs, phi):
    logits = behavior_coeffs[..., None, :] @ phi.swapaxes(-1, -2)
    return expit(logits, out=logits)


def logsumexp_case(rng, shape: tuple) -> np.ndarray:
    """Log densities of spread -1 +- 2 nats; over experts (a 3-D ``shape``) each slice adds the
    log of a mixing weight from a flat Dirichlet, as the sampler's components do."""
    a = rng.normal(-1.0, 2.0, size=shape)
    if len(shape) == 3:
        a += np.log(rng.dirichlet(np.ones(shape[1]), size=(shape[0], shape[2]))).swapaxes(-1, -2)
    return a


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


def with_repeats(sample, rng, share: float = 0.5) -> PosteriorSample:
    """``sample`` with each draw after the first kept with probability ``share``, and otherwise
    replaced by a copy of its predecessor, as a rejected Metropolis step leaves it."""
    kept = rng.random(sample.n_draws) < share
    kept[0] = True
    source = np.maximum.accumulate(np.where(kept, np.arange(sample.n_draws), 0))
    return PosteriorSample(sample.experts[source], sample.mixing[source], sample.behavior[source], 0.25, 1, 0)


def demo_sample(rng, n_draws: int, n_experts: int = 2) -> PosteriorSample:
    """A sample over 2 covariates whose draws scatter about one point, as the demo's two-expert fit."""
    experts = rng.normal(size=(1, n_experts, 4)) + rng.normal(scale=0.05, size=(n_draws, n_experts, 4))
    mixing = rng.normal(size=(1, n_experts, 3)) + rng.normal(scale=0.05, size=(n_draws, n_experts, 3))
    mixing[:, -1] = 0.0
    return PosteriorSample(experts, mixing, rng.normal(size=(n_draws, 3)), 0.25, 2, 0)


def demo_rows(rng, n_rows: int = 200) -> model.Dataset:
    x = rng.normal(size=(n_rows, 2))
    y = 1.0 + x @ [0.8, -0.3] + rng.normal(scale=0.5, size=n_rows)
    ts = np.datetime64("2024-01-01T00:00:00", "s") + np.arange(n_rows) * np.timedelta64(3600, "s")
    return model.Dataset(x, y, ts)


def sampler_cases(rng, number: int, slots: int, n_experts: int, shape: str) -> tuple[dict, int, tuple]:
    """One ``_LockstepTarget.evaluate`` of each block and a 40-iteration sampler run of ``slots``
    chains and ``n_experts`` experts on 200 demo rows: (cases, iterations per run, (data, prior))."""
    data, prior = demo_rows(rng), model.PriorSpec()
    start = demo_sample(rng, slots, n_experts)
    state = {name: np.array(getattr(start, name)) for name in ("experts", "mixing", "behavior")}
    phi = np.repeat(model._embed_rows(data.covariates)[None], slots, axis=0)
    target = posterior._LockstepTarget(state, phi, np.repeat(data.responses[None], slots, axis=0), prior)
    cases = {}
    for name, arr in state.items():
        moved = arr + rng.normal(scale=0.01, size=arr.shape)
        cases[f"lockstep_{name}_{shape}"] = (lambda name=name, moved=moved: target.evaluate(name, moved), None, number)
    settings = posterior.SamplerSettings(chains=slots, iterations=40, burn_in=20)
    cases[f"sampler_{shape}"] = (lambda: posterior.sample_posteriors([data], prior, n_experts, settings), None, 1)
    return cases, settings.iterations, (data, prior)


def layer_cases(rng, number: int) -> tuple[dict, dict]:
    """The demo's layer yardsticks and the sampler's at ``select``'s shape: (case name -> (call, None,
    calls per timing), case name -> units per call)."""
    cases, iterations, (data, prior) = sampler_cases(rng, number, 4, 2, "4x200")
    # select's shape, on its own generator: the other cases keep their inputs.
    select, _, _ = sampler_cases(np.random.default_rng(3), number, 2, 3, "2x3x200")
    cases.update(select)
    sample = demo_sample(rng, 800)
    ll = posterior._pointwise(sample, data)
    cases["pointwise_800x200"] = (lambda: posterior._pointwise(sample, data), None, max(1, number // 20))
    cases["psis_800x200"] = (lambda: posterior._psis_loo(ll), None, max(1, number // 20))
    cases["diagnostics_800x200"] = (lambda: posterior.fit_diagnostics(sample, data), None, max(1, number // 20))
    skeleton = explain.embed_grid(explain.gate_geometry(sample), explain.default_score_grid(1))
    cases["render_map_800x41"] = (lambda: explain.render_map(skeleton, sample), None, max(1, number // 20))
    rhat_sample = demo_sample(np.random.default_rng(4), 800)  # its own generator: the other cases keep their inputs
    cases["rhat_800x14"] = (lambda: posterior._rhat_max(rhat_sample), None, max(1, number // 20))
    draw_rng = np.random.default_rng(5)  # its own generator, as rhat's
    stack, rows = demo_sample(draw_rng, 200, 3), demo_rows(draw_rng).covariates
    cases["predictive_200x3x200"] = (
        lambda: posterior.sample_predictive(stack, rows, draw_rng), None, max(1, number // 20)
    )
    moments_rng = np.random.default_rng(6)  # its own generator, as rhat's
    block = demo_sample(moments_rng, 40)
    phi = model._embed_rows(demo_rows(moments_rng, 202).covariates)
    cases["moments_40x2x202"] = (
        lambda: model._moments_arrays(block.experts, block.mixing, block.behavior, phi), None, number
    )
    text = "schema_version = 1\nindices = hi_a, hi_b\nwindow_k = 11\ndecay = 0.6\n"

    def fresh_load():
        anomaly._window_dist.cache_clear()
        return config.parse_config(text)

    cases["config_load_k11_decay0.6"] = (fresh_load, None, 1)
    return cases, {"sampler_4x200": iterations, "sampler_2x3x200": iterations, "psis_800x200": ll.shape[1]}


def peak_blocks(call, resident: int) -> float:
    """The peak of one ``call()``'s traced allocations, less ``resident`` bytes, in blocks of
    ``BLOCK_ELEMENTS`` float64; an untraced call first fills any cache it keeps."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - base - resident) / (posterior.BLOCK_ELEMENTS * 8)
    finally:
        tracemalloc.stop()


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
    parser.add_argument("--case", action="append", metavar="NAME", help="run only this case (repeatable)")
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    alpha, means, variances, y = pit_case(rng)
    # Case name -> (the package's call, scipy's or None, calls per timing).
    cases = {
        "pit_40x2x202": (
            lambda: model._cdf_from_moments(alpha, means, variances.copy(), y),
            lambda: scipy_pit(alpha, means, variances, y),
            args.number,
        ),
    }
    for name, shape in (("gate_4x200", (4, 200)), ("gate_40x202", (40, 202))):
        gate = gate_case(rng, *shape)
        cases[name] = (lambda gate=gate: model._logistic_gate(*gate), lambda gate=gate: scipy_gate(*gate), args.number)
    lse_rng = np.random.default_rng(2)  # its own generator: later cases keep their inputs
    for name, shape, axis in (("lse_4x2x200", (4, 2, 200), -2), ("lse_4x3x200", (4, 3, 200), -2),
                              ("lse_800x20", (800, 20), 0)):
        a = logsumexp_case(lse_rng, shape)
        ours, theirs = (lambda a=a, axis=axis: model._logsumexp(a, axis)), (lambda a=a, axis=axis: logsumexp(a, axis))
        cases[name] = (ours, theirs, args.number)
    data, sample = score_case(rng)
    cases["score_100x202_k10"] = (lambda: anomaly.score_series(data, sample, 10), None, args.number)
    repeating = with_repeats(sample, np.random.default_rng(1))  # its own generator: later cases keep their inputs
    cases["score_repeats_100x202_k10"] = (lambda: anomaly.score_series(data, repeating, 10), None, args.number)
    anomaly.score_series(data, sample, 10)  # builds the k = 10 table outside the timing
    for k in (5, 10, 11):
        w = anomaly.exp_weights(k + 1, anomaly.default_decay(k))
        cases[f"table_k{k}"] = (lambda w=w: anomaly.build_sum_dist(w).taylor_table, None, 1)
    lookups = {f"k{k}": anomaly.exp_weights(k + 1, anomaly.default_decay(k)) for k in (5, 10, 11)}
    lookups["12_decay3"] = anomaly.exp_weights(12, 3.0)
    for name, w in lookups.items():
        dist = anomaly.build_sum_dist(w)
        q = rng.uniform(0.0, dist.support_end, 960)
        anomaly.sum_cdf(dist, q)  # builds the table outside the timing
        cases[f"lookup_{name}"] = (lambda dist=dist, q=q: anomaly.sum_cdf(dist, q), None, args.number)
    layers, per_unit = layer_cases(rng, args.number)
    cases.update(layers)
    unknown = sorted(set(args.case or ()) - set(cases))
    if unknown:
        parser.error(f"unknown case {', '.join(unknown)}; the cases are: {', '.join(cases)}")
    if args.case:
        cases = {name: call for name, call in cases.items() if name in args.case}
    times = {name: {"anomix": [], "scipy": []} for name in cases}
    for _ in range(args.rounds):
        for name, (ours, theirs, number) in cases.items():
            sides = [("anomix", ours)] + ([("scipy", theirs)] if scipy_version and theirs else [])
            for side, call in sides:
                times[name][side].append(timeit.timeit(call, number=number) / number * 1e6)
    # The 800 x 200 log densities: handed to psis, allocated by diagnostics.
    residents = {"psis_800x200": 0, "diagnostics_800x200": 800 * 200 * 8}
    result = {}
    for name, sides in times.items():
        medians = {side: statistics.median(t) / per_unit.get(name, 1) for side, t in sides.items() if t}
        if "scipy" in medians:
            medians["ratio"] = medians["anomix"] / medians["scipy"]
        if name in residents:
            medians["peak_blocks"] = peak_blocks(cases[name][0], residents[name])
        result[name] = {key: round(value, 3) for key, value in medians.items()}
        print(name, "  ".join(f"{key} {value:.3f}" for key, value in result[name].items()))
    if "score_100x202_k10" in result:
        calls, queries = sum_cdf_queries(data, sample)
        result["score_100x202_k10"].update(sum_cdf_calls=calls, sum_cdf_queries=queries)
        print(f"score_100x202_k10 sum_cdf: {calls} call(s), {queries} queries (19200 at one per draw and window)")
    if "score_repeats_100x202_k10" in result:
        distinct = int((~repeating.repeats).sum())
        result["score_repeats_100x202_k10"].update(distinct_draws=distinct, draws=repeating.n_draws)
        print(f"score_repeats_100x202_k10: {distinct} of {repeating.n_draws} draws distinct")
    versions = {
        "anomix": __version__, "numpy": np.__version__, "scipy": scipy_version, "python": platform.python_version()
    }
    print(json.dumps({"unit": "us", "cores": os.cpu_count(), "versions": versions, "kernels": result}))


if __name__ == "__main__":
    main()
