"""The README's library code and CLI lines run as printed."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from entireops import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_lines() -> list[str]:
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", README.read_text(), re.S).group(1)
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    # my_scenario.json stands for the reader's own file
    return [line for line in lines if line and "my_scenario.json" not in line]


def test_library_quick_tour_runs():
    tour = README.read_text().split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, "README.md: Library quick tour", "exec"), {})


@pytest.mark.parametrize("line", _cli_lines())
def test_cli_line_exits_0(line, capsys):
    program, *argv = shlex.split(line)
    assert program == "entireops"
    assert cli.main(argv) == cli.EXIT_OK, capsys.readouterr().err
