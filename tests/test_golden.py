"""Bundled scenario reports are frozen: byte-for-byte equal to the references.

The JSON references are the reports recorded for the benchmark in
``perfbench/ref/bundled/``.  The CSV references in ``tests/ref/csv/`` are
the ``--format csv`` reports of every bundled task with a CSV profile, run
together per scenario (their seeds count from the scenario's ``rng_seed``
in that order) and named ``<scenario>_<position>_<kind>.csv``.  Any change
to the emitted bytes of a shipped scenario shows up here first.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from entireops import cli
from support import bundled_object

REF = Path(__file__).resolve().parents[1] / "perfbench" / "ref" / "bundled"
CSV_REF = Path(__file__).resolve().parent / "ref" / "csv"


@pytest.mark.parametrize("name", cli.BUNDLED)
def test_bundled_report_bytes_frozen(name):
    buf = io.StringIO()
    cli.run_scenario(name, stream=buf)
    assert buf.getvalue() == (REF / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", cli.BUNDLED)
def test_bundled_csv_report_bytes_frozen(name):
    scn = cli.load_scenario(name)
    tasks = [task for task in scn.tasks if task["task"] in cli.CSV_PROFILES]
    code, outputs = cli.execute_tasks(scn, tasks, fmt="csv")
    assert code == cli.EXIT_OK
    refs = sorted(CSV_REF.glob(f"{name}_*.csv"))
    assert [ref.name for ref in refs] == [
        f"{name}_{i:02d}_{kind}.csv" for i, (kind, _) in enumerate(outputs)
    ]
    for ref, (_, text) in zip(refs, outputs):
        assert text == ref.read_text()


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
