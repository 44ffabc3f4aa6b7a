"""tools/code_lines.py counts code lines without docstrings or comments, and every byte."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

MODULE = '''"""A module docstring,
over two lines."""

# a comment, naïve in UTF-8


class Box:
    """A class docstring."""

    def size(self, x):
        """A method docstring."""
        return (x +  # a trailing comment
                1)
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_docstrings_comments_and_blank_lines_are_bytes_but_not_code_lines(tmp_path, capsys):
    tool = load_tool()
    # class, def, and the two lines of the return expression
    assert tool.code_lines(MODULE) == 4
    module = tmp_path / "module.py"
    module.write_bytes(MODULE.encode())
    size = len(MODULE.encode())
    assert size == len(MODULE) + 1  # the ï is two bytes
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     4  {size:7d}  {module}",
        f"     4  {size:7d}  total",
    ]
