"""Per-layer spans and counts, recorded from outside the program.

Each traced function is wrapped under every name an anomix module looks it
up by (``anomix.pipeline.sample_posterior`` and
``anomix.selection.sample_posterior`` are one function bound in two
places), so calls between layers pass through the wrapper without any
change to the program.  Wrappers are installed only around a traced unit
of work and removed after it, so untraced work runs the program's own
functions.

A span records name, start, end, parent span and unit (an operation or a
set-up).  Hot per-draw and per-query functions are counted, not spanned.
Spans stay in memory and are written once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

# (module, function) pairs timed as spans; metric "<module>.<function>_s".
SPANNED = [
    ("posterior", "sample_posterior"),
    ("posterior", "fit_diagnostics"),
    ("posterior", "psis_loo"),
    ("posterior", "sample_predictive"),
    ("anomaly", "score_series"),
    ("anomaly", "build_sum_dist"),
    ("detection", "raise_alarms"),
    ("detection", "pool"),
    ("detection", "evaluate"),
    ("explain", "gate_geometry"),
    ("explain", "render_map"),
    ("selection", "run_trial"),
    ("selection", "coverage_counts"),
    ("selection", "select_best"),
    ("pipeline", "stage_fit"),
    ("pipeline", "stage_diagnose"),
    ("pipeline", "stage_score"),
    ("pipeline", "stage_detect"),
    ("pipeline", "stage_evaluate"),
    ("pipeline", "stage_explain"),
    ("pipeline", "emit_plot_data"),
    ("pipeline", "read_telemetry"),
    ("pipeline", "load_posterior"),
    ("pipeline", "save_posterior"),
]

# (module, function) pairs only counted; metric "<module>.<function>_calls".
COUNTED = [
    ("model", "fused_moments"),
    ("model", "conditional_cdf_rows"),
    ("model", "conditional_logpdf_rows"),
    ("model", "sample_conditional"),
    ("anomaly", "sum_cdf"),
    ("pipeline", "load_posterior"),
]

# Derived quantities: metric -> (numerator tally, seconds span).
RATES = {
    "posterior.proposals_per_s": ("proposals", "posterior.sample_posterior"),
    "anomaly.window_draws_per_s": ("window_draws", "anomaly.score_series"),
}

TALLIES = {
    "pipeline.rows_read": "rows_read",
    "pipeline.rows_rejected": "rows_rejected",
    "pipeline.run_dir_bytes": "run_dir_bytes",
}


def metric_units() -> dict:
    """Every per-layer metric this module reports, with its unit."""
    units = {f"{m}.{f}_s": "s" for m, f in SPANNED}
    units.update({f"{m}.{f}_calls": "count" for m, f in COUNTED})
    units.update({name: "1/s" for name in RATES})
    units.update({"pipeline.rows_read": "count", "pipeline.rows_rejected": "count"})
    units["pipeline.run_dir_bytes"] = "B"
    units["trace.overhead_s"] = "s"
    return units


def _proposals(args, kwargs, result) -> dict:
    # sample_posterior(data, prior, n_experts, settings): one proposal per
    # block per iteration per chain; one expert has no mixing block.
    n_experts = args[2] if len(args) > 2 else kwargs["n_experts"]
    settings = args[3] if len(args) > 3 else kwargs["settings"]
    blocks = 3 if n_experts > 1 else 2
    return {"proposals": settings.chains * settings.iterations * blocks}


def _window_draws(args, kwargs, result) -> dict:
    sample = args[1] if len(args) > 1 else kwargs["sample"]
    return {"window_draws": len(result) * sample.n_draws}


def _rows(args, kwargs, result) -> dict:
    timestamps, _, rejected = result
    return {"rows_read": len(timestamps), "rows_rejected": len(rejected)}


EXTRAS = {
    "posterior.sample_posterior": _proposals,
    "anomaly.score_series": _window_draws,
    "pipeline.read_telemetry": _rows,
}


class Tracer:
    """Spans and counts of traced units; ``now`` is the clock spans read."""

    def __init__(self, now=time.perf_counter):
        self.now = now
        self.t0 = now()
        self.spans = []  # [name, start, end, parent, unit]
        self.counts = defaultdict(int)  # (unit, name) -> calls
        self.tallies = defaultdict(float)  # (unit, key) -> amount
        self.factors = {}  # unit -> speed factor
        self.kinds = {}  # unit -> "op" or "setup"
        self._stack = []
        self._open = defaultdict(int)
        self._unit = None
        self._patched = []

    # -- wrapping ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        extra = EXTRAS.get(name)

        def traced(*args, **kwargs):
            if self._open[name]:  # recursion: the outer span covers it
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append([name, self.now() - self.t0, None, parent, self._unit])
            self._stack.append(index)
            self._open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = self.now() - self.t0
                self._stack.pop()
                self._open[name] -= 1
            if extra is not None:
                for key, amount in extra(args, kwargs, result).items():
                    self.tallies[(self._unit, key)] += amount
            return result

        return traced

    def _count_wrapper(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[(self._unit, name)] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, module_name, func_name, make):
        original = getattr(importlib.import_module(f"anomix.{module_name}"), func_name)
        wrapper = make(f"{module_name}.{func_name}", original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "anomix" or mod_name.startswith("anomix.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))
        return wrapper

    def begin(self, unit: str, kind: str) -> None:
        """Install every wrapper; calls from here on belong to ``unit``."""
        self._unit = unit
        self.kinds[unit] = kind
        # A function both spanned and counted gets the span inside the count.
        for module_name, func_name in SPANNED:
            self._patch(module_name, func_name, self._span_wrapper)
        for module_name, func_name in COUNTED:
            self._patch(module_name, func_name, self._count_wrapper)

    def end(self, factor: float, **tallies) -> None:
        """Remove the wrappers and close the unit with its speed factor."""
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []
        unit = self._unit
        for key, amount in tallies.items():
            self.tallies[(unit, key)] += amount
        self.factors[unit] = factor
        self._unit = None

    # -- results -----------------------------------------------------------

    def _self_times(self) -> list:
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, unit in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [(s[2] - s[1]) - c for s, c in zip(self.spans, child_time)]

    def per_unit(self) -> dict:
        """unit -> {metric: value}, times scaled by the unit's speed factor."""
        out = {unit: defaultdict(float) for unit in self.factors}
        for name, start, end, parent, unit in self.spans:
            out[unit][f"{name}_s"] += (end - start) * self.factors[unit]
        for (unit, name), n in self.counts.items():
            out[unit][f"{name}_calls"] += n
        for (unit, key), amount in self.tallies.items():
            out[unit][key] += amount
        for unit, values in out.items():
            for metric, (tally, span) in RATES.items():
                seconds = values.get(f"{span}_s", 0.0)
                values[metric] = values.get(tally, 0.0) / seconds if seconds > 0 else 0.0
            for metric, key in TALLIES.items():
                values[metric] = values.get(key, 0.0)
        return out

    def metrics(self) -> dict:
        """Median over traced operations of each metric's per-operation value.

        A layer that never runs inside an operation but does run in set-up
        (the fit on ``monitor``) is reported per set-up instead.
        """
        per_unit = self.per_unit()
        ops = [v for u, v in per_unit.items() if self.kinds[u] == "op"]
        setups = [v for u, v in per_unit.items() if self.kinds[u] == "setup"]
        result = {}
        for metric, unit in metric_units().items():
            if metric == "trace.overhead_s":
                continue
            pool = ops if any(v.get(metric, 0.0) for v in ops) else setups
            values = [v.get(metric, 0.0) for v in pool]
            result[metric] = (statistics.median(values) if values else 0.0, unit)
        return result

    def dump(self, path) -> None:
        selfs = self._self_times()
        spans = [
            {
                "name": name,
                "start_s": start,
                "end_s": end,
                "self_s": self_s,
                "parent": parent,
                "unit": unit,
                "speed_factor": self.factors[unit],
            }
            for (name, start, end, parent, unit), self_s in zip(self.spans, selfs)
        ]
        self_by_name = defaultdict(float)
        for span in spans:
            self_by_name[span["name"]] += span["self_s"] * span["speed_factor"]
        payload = {
            "units": self.kinds,
            "self_s_total": dict(sorted(self_by_name.items())),
            "counts": {f"{u}:{n}": c for (u, n), c in sorted(self.counts.items())},
            "spans": spans,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
