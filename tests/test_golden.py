"""Bundled scenario reports are frozen: byte-for-byte equal to the references.

The references are the reports recorded for the benchmark in
``perfbench/ref/bundled/``; any change to the emitted bytes of a shipped
scenario shows up here first.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from entireops import cli
from support import bundled_object

REF = Path(__file__).resolve().parents[1] / "perfbench" / "ref" / "bundled"


@pytest.mark.parametrize("name", cli.BUNDLED)
def test_bundled_report_bytes_frozen(name):
    buf = io.StringIO()
    cli.run_scenario(name, stream=buf)
    assert buf.getvalue() == (REF / f"{name}.txt").read_text()


@pytest.mark.parametrize(
    "name", [n for n in cli.BUNDLED if "kernel" in bundled_object(n)["generator"]]
)
@pytest.mark.parametrize("degree", [None, 0], ids=["removed", "zero"])
def test_kernel_problem_degree_is_a_no_op(tmp_path, name, degree):
    # every task solves the generator to its own degree
    obj = bundled_object(name)
    for problem in obj["generator"]["kernel"]:
        if degree is None:
            del problem["degree"]
        else:
            problem["degree"] = degree
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj))
    buf = io.StringIO()
    cli.run_scenario(str(path), stream=buf)
    assert buf.getvalue() == (REF / f"{name}.txt").read_text()
