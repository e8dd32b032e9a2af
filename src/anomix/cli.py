"""Command-line front end.

One verb per pipeline stage plus ``simulate`` for synthetic inputs and
``run`` for the whole protocol.  Every verb reads and writes a run
directory; stage verbs expect the artifacts of the stages before them.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import load_config
from .pipeline import (
    StageError,
    emit_plot_data,
    run_experiment,
    stage_detect,
    stage_diagnose,
    stage_evaluate,
    stage_explain,
    stage_fit,
    stage_score,
    write_two_index_stream,
)

__all__ = ["main"]

# verb -> (help, reads the telemetry and failure files, takes detection overrides)
_VERBS = {
    "fit": ("ingest, split, scale and sample the posterior", True, False),
    "diagnose": ("LPPD, PSIS-LOO, coverage and split R-hat on the training split", False, False),
    "score": ("anomaly score series on the test split", False, True),
    "detect": ("alarms per index plus the pooled consensus", False, True),
    "evaluate": ("validity-window detection report", False, True),
    "explain": ("gate-geometry explanation maps", False, False),
    "run": ("full protocol and plot data emission", True, True),
}

# Stage verbs that read and write only the run directory.
_RUN_DIR_STAGES = {
    "diagnose": stage_diagnose,
    "score": stage_score,
    "detect": stage_detect,
    "evaluate": stage_evaluate,
    "explain": stage_explain,
}


def _add_common(parser: argparse.ArgumentParser, inputs: bool) -> None:
    parser.add_argument("--config", required=True, help="experiment configuration file")
    parser.add_argument("--out", required=True, help="run directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--index", default=None, help="restrict to one target index")
    if inputs:
        parser.add_argument("--data", required=True, help="telemetry CSV")
        parser.add_argument("--failures", required=True, help="failure log CSV")


def _add_detection_overrides(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threshold", type=float, default=None, help="override the score threshold")
    parser.add_argument("--patience", type=int, default=None, help="override the alarm patience")
    parser.add_argument("--quorum", type=int, default=None, help="override the pooling quorum")


def _load(args) -> object:
    config = load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "index", None):
        if args.index not in config.indices:
            raise ValueError(f"unknown index {args.index!r}; config declares {config.indices}")
        overrides["indices"] = [args.index]
    for name in ("threshold", "patience", "quorum"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="anomix", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("simulate", help="write a synthetic two-index telemetry stream")
    p.add_argument("--out", required=True, help="directory for telemetry.csv and failures.csv")
    p.add_argument("--n", type=int, default=2400, help="number of samples")
    p.add_argument("--onset", type=int, default=2232, help="fault onset sample index")
    p.add_argument("--failure", type=int, default=2280, help="failure sample index")
    p.add_argument("--shift-sds", type=float, default=8.0, help="post-onset mean shift in sd units")
    p.add_argument("--seed", type=int, default=0)

    for verb, (text, inputs, overrides) in _VERBS.items():
        p = sub.add_parser(verb, help=text)
        _add_common(p, inputs)
        if overrides:
            _add_detection_overrides(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.verb == "simulate":
        telemetry, failures = write_two_index_stream(
            args.out,
            n_samples=args.n,
            onset_index=args.onset,
            failure_index=args.failure,
            shift_sds=args.shift_sds,
            seed=args.seed,
        )
        print(f"wrote {telemetry} and {failures}")
        return 0

    try:
        config = _load(args)
    except OSError as exc:
        print(f"{args.config}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"{args.config}: {exc}", file=sys.stderr)
        return 2
    run_dir = Path(args.out)
    try:
        if args.verb == "fit":
            stage_fit(config, args.data, args.failures, run_dir)
        elif args.verb == "run":
            run_experiment(config, args.data, args.failures, run_dir)
            emit_plot_data(config, run_dir)
        else:
            _RUN_DIR_STAGES[args.verb](config, run_dir)
    except StageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(f"{args.verb}: artifacts in {run_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
