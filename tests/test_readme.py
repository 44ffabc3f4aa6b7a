"""The README's library code runs as printed."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_runs():
    tour = README.read_text().split("## Library quick tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(code, "README.md: Library quick tour", "exec"), {})
