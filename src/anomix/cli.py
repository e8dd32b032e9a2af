"""Command-line front end.

One verb per pipeline stage plus ``simulate`` for synthetic inputs and
``run`` for the whole protocol.  Every verb reads and writes a run
directory; stage verbs expect the artifacts of the stages before them.
Exit status: 0 done, 1 a stage failed, 2 bad config, override or
``simulate`` arguments.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import sys

from . import pipeline
from .config import load_config
from .pipeline import STAGES, StageError, run_stages, write_two_index_stream

__all__ = ["main"]

# The stage verbs, in protocol order; plot data is written by ``run`` alone.
_VERBS = [name for name in STAGES if name != "plot"] + ["run"]
_READS_INPUTS = {"fit", "run"}
_TAKES_DETECTION_OVERRIDES = {"score", "detect", "run"}


def _add_common(parser: argparse.ArgumentParser, inputs: bool) -> None:
    parser.add_argument("--config", required=True, help="experiment configuration file")
    parser.add_argument("--out", required=True, help="run directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    if inputs:
        parser.add_argument("--data", required=True, help="telemetry CSV")
        parser.add_argument("--failures", required=True, help="failure log CSV")
    else:
        # Fitting a subset of the indices would change covariates and seeds.
        parser.add_argument("--index", default=None, help="restrict to one target index")


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

    p = sub.add_parser("simulate", help="Write a synthetic two-index telemetry stream.")
    p.add_argument("--out", required=True, help="directory for telemetry.csv and failures.csv")
    p.add_argument("--n", type=int, default=2400, help="number of samples")
    p.add_argument("--onset", type=int, default=2232, help="fault onset sample index")
    p.add_argument("--failure", type=int, default=2280, help="failure sample index")
    p.add_argument("--shift-sds", type=float, default=8.0, help="post-onset mean shift in sd units")
    p.add_argument("--seed", type=int, default=0)

    for verb in _VERBS:
        function = pipeline.run_experiment if verb == "run" else getattr(pipeline, STAGES[verb])
        p = sub.add_parser(verb, help=inspect.getdoc(function).split("\n\n")[0])
        _add_common(p, verb in _READS_INPUTS)
        if verb in _TAKES_DETECTION_OVERRIDES:
            _add_detection_overrides(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.verb == "simulate":
        try:
            telemetry, failures = write_two_index_stream(
                args.out,
                n_samples=args.n,
                onset_index=args.onset,
                failure_index=args.failure,
                shift_sds=args.shift_sds,
                seed=args.seed,
            )
        except ValueError as exc:
            print(f"simulate: {exc}", file=sys.stderr)
            return 2
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
    stages = STAGES if args.verb == "run" else [args.verb]
    try:
        run_stages(stages, config, args.out, getattr(args, "data", None), getattr(args, "failures", None))
    except StageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(f"{args.verb}: artifacts in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
