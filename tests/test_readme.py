"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The Python block under the README's "Library example" heading."""
    section = README.read_text().split("\n## Library example\n", 1)[1]
    return re.match(r"\s*```python\n(.*?)\n```\n", section, re.DOTALL).group(1)


def test_library_example_runs(capsys):
    namespace = {}
    exec(compile(library_example(), f"{README}:Library example", "exec"), namespace)
    assert capsys.readouterr().out.startswith("FitDiagnostics(")
    assert len(namespace["series"]) == 100 - 5
    assert isinstance(namespace["alarms"], list)
