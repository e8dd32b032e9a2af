"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``
next to this directory; nothing is installed.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds raw wall-clock figures and the
reference-kernel times, for reference only.  See perfbench/README.md.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One thread for BLAS and OpenMP: the timings must not depend on how many
# cores happen to be idle.  Set before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
# The import is timed in this process and in IMPORT_REPEATS - 1 fresh ones:
# a single import per run was the noisiest part of set-up, 10-20% between
# runs, and it is nearly all of set-up on protocol and select.
IMPORT_REPEATS = 3

# Figures the workloads' probes measure beside traced operations (monitor
# only; 0 elsewhere), with their units.
PROBE_METRICS = {
    "anomaly.healthy_window_draw_us": "us",
    "anomaly.fault_window_draw_us": "us",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("protocol", "monitor", "select"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, required=True,
        help="reference-speed seconds of operations the run is sized at",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def find_program() -> Path:
    src = ROOT / "src"
    if not (src / "anomix" / "__init__.py").is_file():
        raise SystemExit(f"error: no program at {src / 'anomix'}; run from a checkout of the repository")
    return src


def import_program() -> None:
    """Import anomix from this checkout's src/."""
    src = find_program()
    sys.path.insert(0, str(src))
    import anomix
    import anomix.pipeline  # noqa: F401
    import anomix.selection  # noqa: F401

    if Path(anomix.__file__).resolve().parent != (src / "anomix").resolve():
        raise SystemExit(f"error: imported anomix from {anomix.__file__}, not from {src}")


def timed_import():
    """Import NumPy, the kernel and the program; (raw_s, normalised_s).

    The kernel needs NumPy, so the NumPy import is scaled by the speed
    measured during and after the rest of the import.
    """
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (the program's first dependency: its import counts)
    import refspeed

    clock = refspeed.SpeedClock()
    clock.start(bracket=False)
    before = time.perf_counter() - t0
    clock.call("import", import_program)
    raw = before + clock.raw_s()
    return raw, raw * clock.speed_factor()


def import_times(repeats: int) -> list:
    """(raw_s, normalised_s) of this process's import, then of the same
    import in ``repeats - 1`` fresh processes, run one at a time."""
    times = [timed_import()]
    for _ in range(repeats - 1):
        child = subprocess.run(
            [sys.executable, "-c", "import run; print(*run.timed_import())"],
            cwd=BENCH_DIR, capture_output=True, text=True, check=True,
        )
        raw, norm = child.stdout.split()[-2:]
        times.append((float(raw), float(norm)))
    return times


def set_up(workload, clock, tracer, repeats: int) -> list:
    """Run the workload's set-up ``repeats`` times; (normalised, raw, calls) each."""
    setups = []
    for rep in range(repeats):
        if tracer:
            tracer.begin(f"setup{rep}", "setup")
        clock.start()
        try:
            workload.setup(clock, rep)
        finally:
            if tracer:
                tracer.end(clock.speed_factor() if clock.calls else 1.0, **workload.setup_tallies(rep))
        setups.append((clock.normalised_s(), clock.raw_s(), clock.calls))
    return setups


def _attempt(workload, clock, i: int, tracer, perturb):
    """Run and check operation i once, traced when ``tracer`` is given.

    Returns ``(passed, normalised_s, raw_s, calls, figures)``; ``figures``
    are what the checks report without failing on.
    """
    from checks import CheckError

    if tracer:
        tracer.begin(f"op{i}", "op")
    clock.start()
    out = None
    try:
        out = workload.op(clock, i, "-traced" if tracer else "")
    except Exception:
        traceback.print_exc(file=sys.stderr)
    finally:
        if tracer:
            tallies = workload.op_tallies(i, out) if out is not None else {}
            tracer.end(clock.speed_factor() if clock.calls else 1.0, **tallies)
    timing = (clock.normalised_s(), clock.raw_s(), list(clock.calls))
    try:
        if out is None:
            raise CheckError("the operation raised")
        if perturb and i in perturb:
            perturb[i](out)
        return (True, *timing, workload.check(i, out))
    except CheckError as exc:
        print(f"op {i} failed: {exc}", file=sys.stderr)
    except Exception:
        print(f"op {i} failed while checking:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
    return (False, *timing, {})


def run_ops(workload, clock, indices, tracer=None, perturb=None):
    """Attempt and check each operation in ``indices``.

    With a tracer, every operation runs twice, untraced and traced, in an
    order that alternates from one operation to the next, and the
    workload's probe runs after both.  ``perturb`` maps an operation index
    to a function that alters that operation's outputs before they are
    checked (used by the self-test).  Returns ``(attempted, failed,
    passed, stats, probes)``: ``passed`` holds ``(index, traced,
    normalised_s, raw_s, calls)`` per passing attempt, ``stats`` gathers
    the figures the checks report without failing on (numbers summed,
    lists joined), ``probes`` the probe figures of each operation.
    """
    attempted = failed = 0
    passed, stats, probes = [], {}, []
    for i in indices:
        if tracer is None:
            modes = (False,)
        else:
            modes = (False, True) if i % 2 == 0 else (True, False)
        for traced in modes:
            ok, norm, raw, calls, figures = _attempt(workload, clock, i, tracer if traced else None, perturb)
            attempted += 1
            if not ok:
                failed += 1
                continue
            passed.append((i, traced, norm, raw, calls))
            if traced:
                continue  # each operation's figures are gathered once
            for key, value in figures.items():
                stats[key] = stats.get(key, [] if isinstance(value, list) else 0) + value
        if tracer:
            probes.append(workload.probe(clock, i))
    return attempted, failed, passed, stats, probes


def per_label_medians(ops: list):
    """Median over operations of each call label's normalised and raw seconds."""
    norm, raw = {}, {}
    for *_, calls in ops:
        op_norm, op_raw = {}, {}
        for label, r, n, _ in calls:
            op_norm[label] = op_norm.get(label, 0.0) + n
            op_raw[label] = op_raw.get(label, 0.0) + r
        for label in op_norm:
            norm.setdefault(label, []).append(op_norm[label])
            raw.setdefault(label, []).append(op_raw[label])
    median = statistics.median
    return {k: median(v) for k, v in norm.items()}, {k: median(v) for k, v in raw.items()}


def run(args) -> int:
    find_program()
    imports = import_times(IMPORT_REPEATS)
    import refspeed
    import workloads
    from tracing import Tracer

    workload_cls = workloads.WORKLOADS[args.workload]
    n_ops = max(1, round(args.seconds / workload_cls.NOMINAL_OP_S))
    work = OUT_DIR / f"{args.workload}-{os.getpid()}"
    clock = refspeed.SpeedClock()
    tracer = Tracer(clock.program_time) if args.trace else None
    try:
        workload = workload_cls(work, args.seed)
        workload.prepare(n_ops)
        setups = set_up(workload, clock, tracer, SETUP_REPEATS)
        first_op_raw = time.perf_counter() - PROCESS_START
        attempted, failed, passed, stats, probes = run_ops(workload, clock, range(n_ops), tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [o for o in passed if not o[1]]
    if not untraced:
        print("error: no operation passed its checks", file=sys.stderr)
        return 1
    median = statistics.median
    op_norm = median(o[2] for o in untraced)
    stage_norm, stage_raw = per_label_medians(untraced)
    kernels = [c[3] for s in setups for c in s[2]] + [c[3] for o in passed for c in o[4]]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": n_ops,
        "op_s_raw": median(o[3] for o in untraced),
        "op_s_each": [round(o[2], 4) for o in untraced],
        "setup_s_raw": median(i[0] for i in imports) + median(s[1] for s in setups),
        "import_s": {"raw": [i[0] for i in imports], "normalised": [i[1] for i in imports]},
        "first_op_after_s_raw": first_op_raw,
        "kernel_ms": {
            "nominal": refspeed.NOMINAL_KERNEL_S * 1e3,
            "median": median(kernels) * 1e3,
            "min": min(kernels) * 1e3,
            "max": max(kernels) * 1e3,
        },
        "checks": stats,
        "stage_s": stage_norm,
        "stage_s_raw": stage_raw,
    }

    if tracer:
        # Tracing cost: each operation traced minus the same one untraced.
        untraced_s = {o[0]: o[2] for o in untraced}
        paired = [o[2] - untraced_s[o[0]] for o in passed if o[1] and o[0] in untraced_s]
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in tracer.metrics().items()}
        metrics["trace.overhead_s"] = {"value": median(paired) if paired else 0.0, "unit": "s"}
        for name, unit in PROBE_METRICS.items():
            values = [p[name] for p in probes if name in p]
            metrics[name] = {"value": median(values) if values else 0.0, "unit": unit}
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": {"value": median(i[1] for i in imports) + median(s[0] for s in setups), "unit": "s"},
            "op_s": {"value": op_norm, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }

    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args()))
