"""The suite's pytest configuration must let a failing property report itself.

``pyproject.toml`` turns every DeprecationWarning into an error.  When a
hypothesis test fails, hypothesis imports libcst to suggest a patch, and
libcst's use of ``mypy_extensions.TypedDict`` warns.  Unless that one
warning is ignored, pytest stops with INTERNALERROR and the falsifying
example is never shown.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_failing_property_shows_its_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    command = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    command += ["-p", "no:cacheprovider", "-q", "test_failing.py"]
    result = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True)
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
