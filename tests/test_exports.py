"""Every name a module exports must exist in it, and be used.

A name deleted from a module but left in its ``__all__`` breaks
``from anomix.<module> import *`` for every user; this check makes the
suite fail first.  Every module of the package declares ``__all__``.

An exported name that nothing calls is an API kept only for tests: each
name in an ``__all__`` must appear, as a whole word, on a line of the
package other than its definition and its ``__all__`` entry, or in the
benchmark's sources, which are read as text and not imported.  A keyword
argument (``name=``, but not ``name ==``) or an annotated field (``name:``
opening a line) only shares the spelling, so it is no use.
"""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import anomix

MODULES = sorted(info.name for info in pkgutil.iter_modules(anomix.__path__))
SOURCES = sorted(Path(anomix.__file__).parent.glob("*.py"))
BENCHMARK = sorted((Path(anomix.__file__).parents[2] / "perfbench").glob("*.py"))


@pytest.mark.parametrize("module_name", MODULES)
def test_all_entries_resolve(module_name):
    module = importlib.import_module(f"anomix.{module_name}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def exports_and_own_lines(path):
    """The ``__all__`` names of a module, and per name the line numbers of
    its top-level definition and of the ``__all__`` assignment."""
    tree = ast.parse(path.read_text())
    (exports,) = [
        node for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
    ]
    names = ast.literal_eval(exports.value)
    listed = set(range(exports.lineno, exports.end_lineno + 1))
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                defined.setdefault(getattr(target, "id", None), node.lineno)
    return names, {name: listed | {defined.get(name)} for name in names}


@pytest.mark.parametrize("module_name", MODULES)
def test_every_export_is_used(module_name):
    names, own = exports_and_own_lines(Path(anomix.__file__).parent / f"{module_name}.py")
    sources = {path: path.read_text().splitlines() for path in SOURCES + BENCHMARK}
    unused = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b(?!\s*=(?!=))")
        field = re.compile(rf"^\s*{re.escape(name)}\s*:")
        used = any(
            word.search(line) and not field.match(line)
            for path, lines in sources.items()
            for number, line in enumerate(lines, start=1)
            if not (path.stem == module_name and path in SOURCES and number in own[name])
        )
        if not used:
            unused.append(name)
    assert unused == []


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that imports this checkout's package."""
    path = [str(Path(anomix.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout


def test_package_does_not_import_scipy():
    # scipy is a test dependency only: scipy.special alone costs about 25 MB and
    # 0.2-0.3 s per process.  OpenSSL's _hashlib (about 3.5 MB) is loaded by
    # the config hash alone, on use, and numpy.ma (1.2-1.4 MB) by none of the
    # package's calls.  A fresh interpreter shows whether any module pulls them in.
    code = (
        "import sys, anomix.pipeline, anomix.selection, anomix.cli; "
        "print([m for m in ('scipy', '_hashlib', 'numpy.ma') if m in sys.modules])"
    )
    assert run_fresh(code).strip() == "[]"


FULL_RUN = r"""
import sys, tempfile, warnings
from pathlib import Path
from anomix import pipeline, selection
from anomix.config import parse_config
from anomix.posterior import SamplerSettings

warnings.simplefilter("ignore")  # a sampler this short has not mixed, and says so
config = parse_config(
    "schema_version = 1\nindices = hi_a, hi_b\nextra_covariates = load\nmachine_column = machineID\n"
    "machine_id = 1\nexperts = 2\nchains = 2\niterations = 60\nburn_in = 30\nsubsample_fraction = 1.0\n"
    "train_size = 60\nvalidation_size = 20\nquorum = 2\npatience = 3\nvalidity_days = 1, 2\nseed = 3\n"
)
with tempfile.TemporaryDirectory() as work:
    work = Path(work)
    telemetry, failures = pipeline.write_two_index_stream(work, n_samples=400, onset_index=330, failure_index=350)
    pipeline.run_stages(pipeline.STAGES, config, work / "run", telemetry, failures)
    # A failure log with a header only, as a healthy machine's is, gives a failure-free split.
    (work / "none.csv").write_text("datetime,machineID,component\n")
    none = pipeline.read_failures(work / "none.csv", "datetime", "machineID", "1")
    schema = pipeline.CsvSchema("datetime", "hi_a", ["load"], "machineID", "1")
    train, _, _ = pipeline.build_splits(pipeline.ingest_csv(telemetry, schema)[0], none, pipeline.SplitSpec(1.0, 1.0, 60, 20))
    selection.run_trial(0, {"experts": 2}, train, SamplerSettings(chains=2, iterations=80, burn_in=30, seed=1))
print(len(none), "numpy.ma" in sys.modules)
"""


def test_stages_and_a_trial_do_not_import_numpy_ma():
    # np.unique, np.median, np.quantile and np.percentile import numpy.ma on first
    # use; every stage of the protocol and a selection trial must do without them.
    assert run_fresh(FULL_RUN).split() == ["0", "False"]
