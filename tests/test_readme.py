"""The README's library example runs as written, and its command lines parse."""

import re
import shlex
from pathlib import Path

from anomix.cli import build_parser

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


def command_lines() -> list:
    """Each ``anomix ...`` command of the README's shell blocks, its ``\\`` continuations joined."""
    blocks = re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.DOTALL | re.MULTILINE)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.strip().startswith("anomix ")]


def test_command_lines_parse():
    commands = command_lines()
    assert {"simulate", "run"} <= {argv[0] for argv in commands}
    for argv in commands:
        build_parser().parse_args(argv)
