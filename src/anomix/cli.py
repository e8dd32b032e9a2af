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
# Each config override: its type, its help and the verbs whose stages read it.
_OVERRIDES = {
    "seed": (int, "override the config seed", {"fit", "run"}),
    "threshold": (float, "override the score threshold", {"score", "detect", "run"}),
    "patience": (int, "override the alarm patience", {"detect", "run"}),
    "quorum": (int, "override the pooling quorum", {"detect", "run"}),
}


def _load(args) -> object:
    config = load_config(args.config)
    overrides = {name: getattr(args, name) for name in _OVERRIDES if getattr(args, name, None) is not None}
    if getattr(args, "index", None):
        if args.index not in config.indices:
            raise ValueError(f"unknown index {args.index!r}; config declares {config.indices}")
        overrides["indices"] = [args.index]
    return dataclasses.replace(config, **overrides) if overrides else config


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
        if verb == "run":
            summary = "Full protocol, fit through plot data, in one run directory."
        else:
            summary = inspect.getdoc(getattr(pipeline, STAGES[verb])).split("\n\n")[0]
        p = sub.add_parser(verb, help=summary)
        p.add_argument("--config", required=True, help="experiment configuration file")
        p.add_argument("--out", required=True, help="run directory")
        if verb in _READS_INPUTS:
            p.add_argument("--data", required=True, help="telemetry CSV")
            p.add_argument("--failures", required=True, help="failure log CSV")
        else:
            # Fitting a subset of the indices would change covariates and seeds.
            p.add_argument("--index", default=None, help="restrict to one target index")
        for name, (kind, text, verbs) in _OVERRIDES.items():
            if verb in verbs:
                p.add_argument(f"--{name}", type=kind, default=None, help=text)
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
