"""The kernel benchmark runs the cases it is named, and refuses a name it does not have."""

import json
import subprocess
import sys
from pathlib import Path

KERNEL_BENCH = Path(__file__).resolve().parents[1] / "tools" / "kernel_bench.py"


def kernel_bench(*argv):
    return subprocess.run([sys.executable, str(KERNEL_BENCH), "--rounds", "1", "--number", "1", *argv],
                          capture_output=True, text=True, timeout=120)


def test_named_cases_run_alone():
    done = kernel_bench("--case", "config_load_k11_decay0.6", "--case", "render_map_800x41")
    assert done.returncode == 0, done.stderr
    assert set(json.loads(done.stdout.splitlines()[-1])["kernels"]) == {"config_load_k11_decay0.6", "render_map_800x41"}


def test_an_unknown_case_is_refused_with_the_names():
    done = kernel_bench("--case", "render_map_800x41", "--case", "no_such_case")
    assert done.returncode == 2 and done.stdout == ""
    assert "unknown case no_such_case; the cases are: pit_40x2x202, " in done.stderr
    assert "render_map_800x41" in done.stderr.rsplit("the cases are: ", 1)[1]
