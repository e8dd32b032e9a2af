"""Run the README demo in a checkout and print the SHA-256 of every run file.

    python tools/run_digest.py CHECKOUT [--work DIR] [--against DIR]

The demo is the README's: ``anomix simulate`` with seed 0, then ``anomix
run`` with the README config (seed 31), both importing the package from
``CHECKOUT/src``.  Each output line is ``<sha256>  <file>`` for one file of
the run directory, sorted by name, so two checkouts compare with

    diff <(python tools/run_digest.py PARENT) <(python tools/run_digest.py .)

The digest of ``manifest.json`` is taken of its JSON without the
``seconds`` of each entry under ``stages``, which differ on every run;
``file_digest`` gives both the printed digests and those ``--against``
compares, so two runs of one checkout print the same lines.

The demo runs in ``--work`` if given (kept), else in a temporary directory
(removed).  ``--against DIR`` names the run directory of another demo, such
as ``WORK/run`` of an earlier ``--work`` run, and says how far the files
whose digests differ from DIR's moved:

    python tools/run_digest.py PARENT --work /tmp/parent-demo
    python tools/run_digest.py . --against /tmp/parent-demo/run

Each such file gets one more line, ``differs  <file>`` followed by the
largest absolute and relative difference over the numbers at the same
place in both copies (CSV cells, npz members), relative to the larger of
the two magnitudes, the count of numbers that differ, and the count of
other places that differ: cells that are not numbers, rows or members of
another shape, members on one side only.  A file of another kind is
marked ``not compared``, and a file on one side only is named.  Nothing
in the package or its tests imports this script.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

CONFIG = """\
schema_version = 1
indices = hi_a, hi_b
extra_covariates = load
machine_column = machineID
machine_id = 1
experts = 2
chains = 2
iterations = 900
burn_in = 500
subsample_fraction = 1.0
quorum = 2
patience = 3
threshold = 0.975
validity_days = 1, 2, 3, 4, 5, 6, 7
seed = 31
"""

SIMULATE = "simulate --out data --n 2400 --onset 2232 --failure 2280 --shift-sds 8 --seed 0".split()
RUN = "run --config run.cfg --data data/telemetry.csv --failures data/failures.csv --out run".split()


def anomix(checkout: Path, work: Path, args: list) -> None:
    """One CLI verb of the package in ``checkout``, run in ``work``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    code = "import sys; from anomix.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", code, *args], cwd=work, env=env, check=True)


def digests(checkout: Path, work: Path) -> list:
    """``(sha256, name)`` of every file the demo writes to its run directory."""
    (work / "run.cfg").write_text(CONFIG)
    anomix(checkout, work, SIMULATE)
    anomix(checkout, work, RUN)
    files = sorted(p for p in (work / "run").rglob("*") if p.is_file())
    return [(file_digest(p), str(p.relative_to(work / "run"))) for p in files]


def file_digest(path: Path) -> str:
    """SHA-256 of a run file; of ``manifest.json`` without the stage seconds, as the module docstring says."""
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        for record in manifest.get("stages", {}).values():
            record.pop("seconds", None)
        data = json.dumps(manifest, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _csv_pairs(ours: Path, theirs: Path):
    """The numbers at the same place in two CSV files, as two lists, and the count of other places
    that differ: cells that are not both numbers, and rows of other lengths or counts."""
    with open(ours, newline="") as f, open(theirs, newline="") as g:
        rows, their_rows = list(csv.reader(f)), list(csv.reader(g))
    a, b, other = [], [], abs(len(rows) - len(their_rows))
    for row, their_row in zip(rows, their_rows):
        other += len(row) != len(their_row)
        for x, y in zip(row, their_row):
            try:
                pair = float(x), float(y)
            except ValueError:
                other += x != y
            else:
                a.append(pair[0])
                b.append(pair[1])
    return a, b, other


def _npz_pairs(ours: Path, theirs: Path):
    """Every number of the numeric members two npz archives share with one shape, as two arrays, and
    the count of other members that differ: of another shape or kind, or on one side only."""
    a, b = [np.empty(0)], [np.empty(0)]
    with np.load(ours) as mine, np.load(theirs) as them:
        other = len(set(mine.files) ^ set(them.files))
        for name in sorted(set(mine.files) & set(them.files)):
            x, y = mine[name], them[name]
            if x.shape == y.shape and all(np.issubdtype(v.dtype, np.number) for v in (x, y)):
                a.append(x.astype(float).ravel())
                b.append(y.astype(float).ravel())
            else:
                other += x.shape != y.shape or not np.array_equal(x, y)
    return np.concatenate(a), np.concatenate(b), other


def compare(ours: Path, theirs: Path) -> str:
    """How far file ``ours`` moved from ``theirs``, in the words of the module docstring."""
    pairs = {".csv": _csv_pairs, ".npz": _npz_pairs}.get(ours.suffix)
    if pairs is None:
        return "not compared"
    a, b, other = pairs(ours, theirs)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    moved = (a != b) & ~(np.isnan(a) & np.isnan(b))
    a, b = a[moved], b[moved]
    with np.errstate(invalid="ignore"):  # inf - inf and inf / inf: a NaN, read as an infinite distance
        gap = np.abs(a - b)
        rel = gap / np.maximum(np.abs(a), np.abs(b))
    gap, rel = (np.where(np.isnan(v), np.inf, v) for v in (gap, rel))
    largest = (f"{v.max():.3g}" if v.size else "0" for v in (gap, rel))
    return "max abs {}  max rel {}".format(*largest) + f"  numbers {a.size} of {moved.size}  other {other}"


def against_lines(rows: list, run_dir: Path, against: Path) -> list:
    """One line per file whose digest differs from its copy under ``against``, or that is on one side only."""
    theirs = {str(p.relative_to(against)): p for p in against.rglob("*") if p.is_file()}
    lines = []
    for digest, name in rows:
        if name not in theirs:
            lines.append(f"only here  {name}")
        elif file_digest(theirs[name]) != digest:
            lines.append(f"differs  {name}  {compare(run_dir / name, theirs[name])}")
    ours = {name for _, name in rows}
    lines += [f"only in {against}  {name}" for name in sorted(theirs) if name not in ours]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="root of the checkout whose src/ is run")
    parser.add_argument("--work", type=Path, default=None, help="directory to run the demo in (kept)")
    parser.add_argument("--against", type=Path, default=None, help="run directory of another demo to compare with")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    if not (checkout / "src" / "anomix" / "__init__.py").is_file():
        parser.error(f"no package at {checkout / 'src' / 'anomix'}")
    if args.against is not None and not args.against.is_dir():
        parser.error(f"no run directory at {args.against}")

    def report(work: Path) -> None:
        rows = digests(checkout, work)
        for digest, name in rows:
            print(f"{digest}  {name}")
        for line in against_lines(rows, work / "run", args.against.resolve()) if args.against else []:
            print(line)

    if args.work is not None:
        args.work.mkdir(parents=True, exist_ok=True)
        report(args.work.resolve())
    else:
        with tempfile.TemporaryDirectory() as work:
            report(Path(work))
    return 0


if __name__ == "__main__":
    sys.exit(main())
