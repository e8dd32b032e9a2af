"""Run the README demo in a checkout and print the SHA-256 of every run file.

    python tools/run_digest.py CHECKOUT [--work DIR]

The demo is the README's: ``anomix simulate`` with seed 0, then ``anomix
run`` with the README config (seed 31), both importing the package from
``CHECKOUT/src``.  Each output line is ``<sha256>  <file>`` for one file of
the run directory, sorted by name, so two checkouts compare with

    diff <(python tools/run_digest.py PARENT) <(python tools/run_digest.py .)

The demo runs in ``--work`` if given (kept), else in a temporary directory
(removed).  Nothing in the package or its tests imports this script.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

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
    return [(hashlib.sha256(p.read_bytes()).hexdigest(), str(p.relative_to(work / "run"))) for p in files]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="root of the checkout whose src/ is run")
    parser.add_argument("--work", type=Path, default=None, help="directory to run the demo in (kept)")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    if not (checkout / "src" / "anomix" / "__init__.py").is_file():
        parser.error(f"no package at {checkout / 'src' / 'anomix'}")
    if args.work is not None:
        args.work.mkdir(parents=True, exist_ok=True)
        rows = digests(checkout, args.work.resolve())
    else:
        with tempfile.TemporaryDirectory() as work:
            rows = digests(checkout, Path(work))
    for digest, name in rows:
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
