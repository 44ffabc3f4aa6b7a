"""Scenario loading, task dispatch, emission formats, determinism."""

from __future__ import annotations

import copy
import csv
import enum
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import entireops as eo
from entireops import cli, completeness, serialize
from support import (
    airy_problem,
    bundled_object,
    gaussian_family,
    reference_csv_text,
    reference_json_text,
)


def run_to_text(source: str, **kwargs) -> tuple[int, str]:
    buf = io.StringIO()
    code = cli.run_scenario(source, stream=buf, **kwargs)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# scenario loading
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", cli.BUNDLED)
def test_bundled_scenarios_parse(name):
    scn = cli.load_scenario(name)
    assert scn.dimension >= 1
    assert scn.tasks


def test_scenario_path_fallback_to_bundle():
    scn = cli.load_scenario("scenarios/gaussian2d.json")
    assert scn.dimension == 2


def test_unknown_scenario_rejected():
    with pytest.raises(cli.ScenarioError, match="not found"):
        cli.load_scenario("no-such-scenario")


def test_scenario_schema_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 2}')
    with pytest.raises(cli.ScenarioError, match="missing key"):
        cli.load_scenario(str(bad))
    bad.write_text("{not json")
    with pytest.raises(cli.ScenarioError, match="not valid JSON"):
        cli.load_scenario(str(bad))


def test_kernel_generator_needs_operator_per_axis(tmp_path):
    obj = json.loads(
        (cli.resources.files("entireops") / "scenarios/gaussian2d.json").read_text()
    )
    obj["operators"] = obj["operators"][:1]
    with pytest.raises(cli.ScenarioError, match="one operator per axis"):
        cli.parse_scenario(obj)


@pytest.mark.parametrize(
    "name, path, value, message",
    [
        # the ladder constant of a family the scenario does not state
        ("gaussian1d", ("generator", "kernel", 0, "a"), [4.0, 0.0],
         "kernel problem on axis 1 has a = (4+0j), not (1+0j)"),
        ("mixed", ("generator", "kernel", 1, "charpoly"), [[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]],
         "kernel problem on axis 2 has charpoly[2] = (2+0j), not (1+0j)"),
        ("gaussian2d", ("operators", 0, "symbol"),
         [{"idx": [1, 0], "re": 1.0}, {"idx": [0, 1], "re": 1.0}],
         "operator on axis 1 has symbol term [0, 1] off its axis"),
    ],
)
def test_a_kernel_problem_must_state_its_axis_operator(
    capsys, monkeypatch, tmp_path, name, path, value, message
):
    obj = _with(name, path, value)
    with pytest.raises(cli.ScenarioError) as exc:
        cli.parse_scenario(obj)
    assert str(exc.value) == message
    scenario = tmp_path / "mismatch.json"
    scenario.write_text(json.dumps(obj))
    _fail_if_a_task_runs(monkeypatch)
    assert cli.main(["run", str(scenario)]) == cli.EXIT_PARSE
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_kernel_problem_may_differ_from_its_operator_by_rounding():
    obj = _with("airy2d", ("operators", 0, "a"), [1.0 + 2e-16, 0.0])
    obj["operators"][1]["symbol"][0]["re"] = 2.0 * (1 - 1e-15)
    assert cli.parse_scenario(obj).kernel_problems is not None


# ---------------------------------------------------------------------------
# running scenarios
# ---------------------------------------------------------------------------


def test_all_bundled_scenarios_pass():
    for name in cli.BUNDLED:
        code, text = run_to_text(name)
        assert code == cli.EXIT_OK, f"{name} failed:\n{text[-2000:]}"
        assert '"passed": false' not in text


def test_failing_expectation_gives_exit_one(tmp_path):
    obj = json.loads(
        (cli.resources.files("entireops") / "scenarios/remark3.json").read_text()
    )
    obj["tasks"] = [
        {"task": "complete", "truncation": 4, "max_order": 4, "expect_complete": True}
    ]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(obj))
    code, text = run_to_text(str(path))
    assert code == cli.EXIT_TASK_FAILED
    assert '"passed": false' in text


def test_task_error_is_reported_not_raised(tmp_path):
    obj = json.loads(
        (cli.resources.files("entireops") / "scenarios/gaussian1d.json").read_text()
    )
    obj["tasks"] = [{"task": "orbit", "steps": 99, "degree": 10}]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(obj))
    code, text = run_to_text(str(path))
    assert code == cli.EXIT_TASK_FAILED
    assert "exactness budget" in text


def test_a_sample_count_past_the_budget_fails_only_its_task(tmp_path):
    obj = bundled_object("gaussian2d")
    translate = next(t for t in obj["tasks"] if t.get("mode") == "translate")
    translate["samples"] = 1000000000
    path = tmp_path / "s.json"
    path.write_text(json.dumps(obj))
    code, outputs = cli.execute_tasks(cli.load_scenario(str(path)))
    assert code == cli.EXIT_TASK_FAILED
    reports = [json.loads(text) for _, text in outputs]
    assert [r["passed"] for r in reports] == [t is not translate for t in obj["tasks"]]
    failed = reports[obj["tasks"].index(translate)]
    assert "1000000000 samples in dim 2" in failed["error"]
    assert "past the budget" in failed["error"]


@pytest.mark.parametrize(
    "task",
    [
        {"task": "complete", "truncation": 250, "max_order": 250},
        {"task": "complete", "truncation": 2, "max_order": 2, "trajectory": [250]},
        {"task": "approximate", "truncation": 250, "target": {
            "dim": 2, "cutoff": 1, "polynomial": True, "coeffs": [{"idx": [1, 0], "re": 1.0}]}},
    ],
    ids=["complete", "complete_trajectory", "approximate"],
)
def test_a_derivative_span_past_the_budget_fails_its_task_before_the_solve(
    tmp_path, monkeypatch, task
):
    # the d = 2, degree-500 solve would take 1.5 s and about 150 MB
    solve, degrees = cli.joint_kernel, []
    monkeypatch.setattr(
        cli, "joint_kernel", lambda problems, degree: degrees.append(degree) or solve(problems, degree)
    )
    tasks = [{"task": "complete", "truncation": 2}, task]
    scenario = _scenario_file(tmp_path, "gaussian2d", tasks)
    tracemalloc.start()
    try:
        code, outputs = cli.execute_tasks(cli.load_scenario(scenario))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_TASK_FAILED
    reports = [json.loads(text) for _, text in outputs]
    assert [r["passed"] for r in reports] == [True, False]
    assert re.fullmatch(
        r"31626 rows of degree <= 250 in dim 2 would take about 8.05e\+10 bytes, "
        r"past the budget of \d+", reports[1]["error"]
    )
    assert peak < 2**26
    assert max(degrees) == 4


def test_a_translate_span_past_the_budget_fails_its_task_before_the_solve(tmp_path, monkeypatch):
    # the d = 2, degree-250 solve would take about 3 s before the refusal
    degrees = []
    monkeypatch.setattr(cli, "joint_kernel", lambda problems, degree: degrees.append(degree))
    tasks = [{"task": "complete", "truncation": 250, "mode": "translate"}]
    scenario = _scenario_file(tmp_path, "gaussian2d", tasks)
    tracemalloc.start()
    try:
        code, outputs = cli.execute_tasks(cli.load_scenario(scenario))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_TASK_FAILED
    (_, text), = outputs
    assert re.fullmatch(
        r"94878 translates of degree <= 250 would take about 1.93e\+11 bytes, "
        r"past the budget of \d+", json.loads(text)["error"]
    )
    assert peak < 2**26
    assert degrees == []


def test_an_explicit_polynomial_generator_is_translated_whole():
    # z^3 cut to degree 1 is 0, but its translates span {1, z} at degree 1
    obj = {
        "dimension": 1,
        "truncation": 3,
        "operators": [{"dim": 1, "axis": 1, "a": [1.0, 0.0], "symbol": [{"idx": [1], "re": 1.0}]}],
        "generator": {"explicit": {
            "dim": 1, "cutoff": 3, "polynomial": True, "coeffs": [{"idx": [3], "re": 1.0}]}},
        "tasks": [{"task": "complete", "truncation": 1, "mode": "translate", "samples": 6}],
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, outputs = cli.execute_tasks(cli.parse_scenario(obj))
    assert code == cli.EXIT_OK
    (_, text), = outputs
    report = json.loads(text)
    assert (report["rank"], report["ambient"], report["complete_at_truncation"]) == (2, 2, True)


def test_generator_short_of_a_task_fails_that_task_and_keeps_earlier_reports(
    tmp_path, capsys
):
    # remark3's explicit generator is exact to degree 8; complete N=6 M=6
    # needs 12, which is known only once the task runs
    obj = bundled_object("remark3")
    obj["generator"]["explicit"]["polynomial"] = False
    obj["tasks"] = [
        {"task": "verify-cr", "probe_degree": 2},
        {"task": "complete", "truncation": 6, "max_order": 6},
    ]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["run", str(path)]) == cli.EXIT_TASK_FAILED
    captured = capsys.readouterr()
    error = "explicit generator is exact to degree 8 but the task needs 12"
    failed = serialize.to_json_text({"task": "complete", "passed": False, "error": error})
    assert captured.out.startswith('{\n  "task": "verify-cr",\n  "passed": true,')
    assert captured.out.endswith(failed)
    assert captured.err == ""


def test_out_directory_writes_one_report_per_task(tmp_path, capsysbinary):
    out = tmp_path / "reports"
    code = cli.run_scenario("remark3", out=str(out), stream=io.StringIO())
    assert code == cli.EXIT_OK
    files = sorted(out.iterdir())
    assert [p.name for p in files] == ["00_verify-cr.json", "01_complete.json"]
    # read in name order, the files are the bytes the same run prints
    assert cli.main(["run", "remark3"]) == cli.EXIT_OK
    assert b"".join(p.read_bytes() for p in files) == capsysbinary.readouterr().out


@pytest.mark.parametrize("under", [(), ("sub",)], ids=["file", "under-file"])
def test_an_out_that_is_or_lies_under_a_file_exits_2_before_any_task_runs(
    tmp_path, capsys, under
):
    blocker = tmp_path / "reports"
    blocker.write_text("kept")
    out = blocker.joinpath(*under)
    runners = {kind: mock.Mock(wraps=fn) for kind, fn in cli._RUNNERS.items()}
    with mock.patch.dict(cli._RUNNERS, runners):
        assert cli.main(["run", "gaussian1d", "--out", str(out)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out {out}: {blocker} is not a directory\n"
    assert not any(runner.called for runner in runners.values())
    assert [p.name for p in tmp_path.iterdir()] == ["reports"]
    assert blocker.read_text() == "kept"


def test_run_scenario_refuses_an_out_that_is_a_file(tmp_path):
    out = tmp_path / "reports"
    out.write_text("")
    with pytest.raises(cli.ScenarioError, match="is not a directory"):
        cli.run_scenario("remark3", out=str(out), stream=io.StringIO())


def test_main_exit_codes(tmp_path):
    assert cli.main(["run", "remark3", "--out", str(tmp_path / "r")]) == 0
    assert cli.main(["run", "missing-scenario"]) == cli.EXIT_PARSE
    # csv is unsupported for the orbit report kind
    assert (
        cli.main(["orbit", "gaussian1d", "--steps", "2", "--format", "csv"])
        == cli.EXIT_PARSE
    )


def test_single_task_subcommands(capsys):
    assert cli.main(["verify-cr", "gaussian2d", "--probe-degree", "6"]) == 0
    out = capsys.readouterr().out
    assert '"task": "verify-cr"' in out and '"passed": true' in out
    assert cli.main(["complete", "remark3", "--truncation", "4"]) == 0
    out = capsys.readouterr().out
    assert '"rank": 5' in out and '"ambient": 15' in out
    assert (
        cli.main(
            [
                "approximate",
                "gaussian1d",
                "--target-monomial",
                "1",
                "--truncation",
                "3",
                "--max-residual",
                "1e-12",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert '"residual"' in out


def _scenario_file(tmp_path, name: str, tasks: list[dict]) -> str:
    obj = json.loads(
        (cli.resources.files("entireops") / f"scenarios/{name}.json").read_text()
    )
    obj["tasks"] = tasks
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize(
    "task, key",
    [
        ({"task": "fhc", "kmx": 40}, "kmx"),
        ({"task": "approximate", "target": {"dim": 1, "cutoff": 1, "polynomial": True}},
         "target"),
        ({"task": "fhc", "terms": [{"re": 1.0}]}, "terms"),
        ({"task": "orbit", "initial": {"dim": 1}}, "initial"),
        ({"task": "complete", "truncation": 2, "mode": "translate", "box": 5}, "box"),
        ({"task": "orbit", "steps": "x"}, "steps"),
        ({"task": "complete", "truncation": 2, "mode": "sideways"}, "mode"),
    ],
)
def test_malformed_task_is_a_scenario_error_before_any_task_runs(
    tmp_path, capsys, task, key
):
    path = _scenario_file(tmp_path, "gaussian1d", [{"task": "verify-cr"}, task])
    assert cli.main(["run", path]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert repr(key) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "task, key",
    [
        ({"task": "fhc", "m": 0}, "m"),
        ({"task": "fhc", "kmax": 0}, "kmax"),
        ({"task": "orbit", "steps": -1}, "steps"),
        ({"task": "kernel", "degree": -3}, "degree"),
        ({"task": "complete", "truncation": -1}, "truncation"),
    ],
)
def test_out_of_range_value_is_a_scenario_error_before_any_task_runs(
    tmp_path, capsys, task, key
):
    path = _scenario_file(tmp_path, "gaussian1d", [{"task": "verify-cr"}, task])
    assert cli.main(["run", path]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert repr(key) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("part", ["re", "im"])
def test_non_finite_coefficient_is_a_scenario_error_before_any_task_runs(
    tmp_path, capsys, part
):
    # JSON reads 1e400 as inf; a symbol holding it must not reach verify-cr
    path = Path(_scenario_file(tmp_path, "gaussian1d", [{"task": "verify-cr"}]))
    obj = json.loads(path.read_text())
    obj["operators"][0]["symbol"][0][part] = "@"
    path.write_text(json.dumps(obj).replace('"@"', "1e400"))
    assert cli.main(["run", str(path)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert "non-finite coefficient" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "path, key",
    [
        (("operators", 1, "a"), '"a"'),
        (("generator", "kernel", 1, "a"), '"a"'),
        (("generator", "kernel", 0, "charpoly", 1), '"charpoly"'),
        (("generator", "kernel", 1, "seeds", 0), '"seeds"'),
    ],
)
def test_non_finite_pair_is_a_scenario_error_naming_its_key(tmp_path, capsys, path, key):
    scenario = Path(_scenario_file(tmp_path, "gaussian2d", [{"task": "kernel"}]))
    obj = json.loads(scenario.read_text())
    *parents, last = path
    node = obj
    for step in parents:
        node = node[step]
    node[last] = ["@", 0.0]
    # JSON reads 1e400 as inf
    scenario.write_text(json.dumps(obj).replace('"@"', "1e400"))
    assert cli.main(["run", str(scenario)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert f"non-finite {key}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "path, value, key",
    [
        (("operators", 1, "a"), [1.0], '"a"'),
        (("generator", "kernel", 1, "a"), [1.0], '"a"'),
        (("generator", "kernel", 0, "charpoly", 1), [1.0], '"charpoly"'),
        (("generator", "kernel", 1, "seeds"), [[1.0]], '"seeds"'),
        (("operators", 0, "a"), [1.0, 0.0, 9.0], '"a"'),
        (("operators", 0, "a"), [True, 0.0], '"a"'),
        (("generator", "kernel", 0, "seeds", 0), 1.0, '"seeds"'),
    ],
)
def test_malformed_pair_is_a_scenario_error_naming_its_key(
    tmp_path, capsys, monkeypatch, path, value, key
):
    scenario = Path(_scenario_file(tmp_path, "gaussian2d", [{"task": "kernel"}]))
    obj = json.loads(scenario.read_text())
    *parents, last = path
    node = obj
    for step in parents:
        node = node[step]
    node[last] = value
    scenario.write_text(json.dumps(obj))
    _fail_if_a_task_runs(monkeypatch)
    assert cli.main(["run", str(scenario)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert f"{key} must be a pair of two numbers" in captured.err
    assert captured.out == ""


def _fail_if_a_task_runs(monkeypatch) -> None:
    """Swap in runners that raise, so a task that starts ends the run with exit 3."""

    def run(*args):
        raise AssertionError("a task ran")

    monkeypatch.setattr(cli, "_RUNNERS", dict.fromkeys(cli._RUNNERS, run))


#: a float of a task (None: the header's tolerance) set to "@", and its key
FLOAT_SITES = [
    ({"task": "orbit", "delta": "@"}, "'delta'"),
    ({"task": "fhc", "epsilon": "@"}, "'epsilon'"),
    ({"task": "fhc", "max_kth_root": "@"}, "'max_kth_root'"),
    ({"task": "orbit", "min_density": "@"}, "'min_density'"),
    ({"task": "verify-cr", "max_residual": "@"}, "'max_residual'"),
    ({"task": "complete", "truncation": 2, "mode": "translate", "box": [-1, "@"]},
     "'box'"),
    (None, "'tolerance'"),
]


def _float_site_scenario(tmp_path, task, literal: str) -> str:
    """gaussian1d with one float site holding the JSON literal."""
    scenario = Path(_scenario_file(
        tmp_path, "gaussian1d", [{"task": "verify-cr"}] + ([task] if task else [])
    ))
    obj = json.loads(scenario.read_text())
    if task is None:
        obj["tolerance"] = "@"
    scenario.write_text(json.dumps(obj).replace('"@"', literal))
    return str(scenario)


@pytest.mark.parametrize("task, key", FLOAT_SITES)
def test_non_finite_float_is_a_scenario_error_before_any_task_runs(
    tmp_path, capsys, monkeypatch, task, key
):
    # JSON reads 1e400 as inf
    scenario = _float_site_scenario(tmp_path, task, "1e400")
    _fail_if_a_task_runs(monkeypatch)
    assert cli.main(["run", scenario]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert f"bad {key}" in captured.err and "must be finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("task, key", FLOAT_SITES)
def test_bool_float_is_a_scenario_error_before_any_task_runs(
    tmp_path, capsys, monkeypatch, task, key
):
    # float(true) would run as 1.0
    scenario = _float_site_scenario(tmp_path, task, "true")
    _fail_if_a_task_runs(monkeypatch)
    assert cli.main(["run", scenario]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert f"bad {key}" in captured.err and "must be a number, got True" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "box", [[1, -1], [-1e308, 1e308], [0.0, -0.0]], ids=["reversed", "overflowing", "signed_zero"]
)
def test_a_box_that_sample_box_refuses_is_a_scenario_error_before_any_task_runs(
    tmp_path, capsys, monkeypatch, box
):
    # sample_box refuses each of these; the file is refused before any task runs
    task = {"task": "complete", "truncation": 2, "mode": "translate", "box": box}
    path = _scenario_file(tmp_path, "gaussian1d", [{"task": "verify-cr"}, task])
    _fail_if_a_task_runs(monkeypatch)
    assert cli.main(["run", path]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert "error: bad 'box'" in captured.err and "needs low <= high" in captured.err
    assert captured.out == ""


_TARGET = {"dim": 2, "cutoff": 1, "polynomial": True, "coeffs": [{"idx": [1, 0], "re": 1.0}]}


@pytest.mark.parametrize(
    "path, key, message",
    [
        ((), "rng_sed", "unknown key 'rng_sed' in scenario;"),
        (("operators", 0, "symbol", 0), "imag", "unknown key 'imag' in coefficient entry"),
        (("operators", 1), "extra", "unknown key 'extra' in operator"),
        (("generator", "kernel", 0), "extra", "unknown key 'extra' in kernel problem"),
        (("tasks", 1, "target"), "extra", "unknown key 'extra' in series literal"),
        (("tasks", 1, "target", "coeffs", 0), "imag", "unknown key 'imag' in coefficient"),
        (("generator",), "explicit", 'generator must contain one of "kernel" and "explicit"'),
    ],
    ids=["header", "symbol_entry", "operator", "kernel_problem", "series_literal",
         "literal_entry", "both_sources"],
)
def test_unknown_key_in_any_scenario_object_exits_2_before_any_task_runs(
    tmp_path, capsys, monkeypatch, path, key, message
):
    tasks = [{"task": "kernel"}, {"task": "approximate", "target": copy.deepcopy(_TARGET)}]
    scenario = Path(_scenario_file(tmp_path, "gaussian2d", tasks))
    obj = json.loads(scenario.read_text())
    node = obj
    for step in path:
        node = node[step]
    # the second source is a valid literal: only the one-source rule refuses it
    node[key] = copy.deepcopy(_TARGET) if key == "explicit" else 3.0
    scenario.write_text(json.dumps(obj))
    _fail_if_a_task_runs(monkeypatch)
    assert cli.main(["run", str(scenario)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "path, key, message",
    [
        ((), "dimension", "missing key 'dimension' in scenario"),
        # the generator needs exactly one of its two keys, not a given one
        (("generator",), "kernel", 'generator must contain one of "kernel" and "explicit"'),
        (("tasks", 2), "truncation", "missing key 'truncation' in complete task"),
        (("operators", 1), "symbol", "missing key 'symbol' in operator"),
        (("generator", "kernel", 0), "seeds", "missing key 'seeds' in kernel problem"),
        (("tasks", 1, "target"), "coeffs", "missing key 'coeffs' in series literal"),
        (("operators", 0, "symbol", 0), "idx", "missing key 'idx' in coefficient entry"),
    ],
    ids=["header", "generator", "task", "operator", "kernel_problem", "series_literal",
         "coefficient_entry"],
)
def test_missing_key_in_any_scenario_object_exits_2_before_any_task_runs(
    tmp_path, capsys, monkeypatch, path, key, message
):
    tasks = [
        {"task": "kernel"},
        {"task": "approximate", "target": copy.deepcopy(_TARGET)},
        {"task": "complete", "truncation": 2},
    ]
    scenario = Path(_scenario_file(tmp_path, "gaussian2d", tasks))
    obj = json.loads(scenario.read_text())
    node = obj
    for step in path:
        node = node[step]
    del node[key]
    scenario.write_text(json.dumps(obj))
    _fail_if_a_task_runs(monkeypatch)
    assert cli.main(["run", str(scenario)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_repeated_symbol_index_exits_2_before_any_task_runs(tmp_path, capsys, monkeypatch):
    # read last-entry-wins, the operator would run with b = 5
    scenario = Path(_scenario_file(tmp_path, "gaussian1d", [{"task": "verify-cr"}]))
    obj = json.loads(scenario.read_text())
    obj["operators"][0]["symbol"].append({"idx": [1], "re": 5.0})
    scenario.write_text(json.dumps(obj))
    _fail_if_a_task_runs(monkeypatch)
    assert cli.main(["run", str(scenario)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert "bad 'operators'" in captured.err and "duplicate index (1,)" in captured.err
    assert captured.out == ""


def test_repeated_fhc_term_exits_2_before_any_task_runs(tmp_path, capsys, monkeypatch):
    # read last-entry-wins, the vector would run with coefficient 2
    terms = [{"idx": [0], "re": 1.0}, {"idx": [0], "re": 2.0}]
    scenario = _scenario_file(tmp_path, "gaussian1d", [{"task": "fhc", "terms": terms}])
    _fail_if_a_task_runs(monkeypatch)
    assert cli.main(["run", scenario]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert "bad 'terms'" in captured.err and "duplicate index (0,)" in captured.err
    assert captured.out == ""


def test_non_object_generator_exits_2_before_any_task_runs(tmp_path, capsys, monkeypatch):
    # dict() of the [key, value] pairs would read as the kernel generator
    scenario = Path(_scenario_file(tmp_path, "gaussian1d", [{"task": "verify-cr"}]))
    obj = json.loads(scenario.read_text())
    obj["generator"] = [["kernel", obj["generator"]["kernel"]]]
    scenario.write_text(json.dumps(obj))
    _fail_if_a_task_runs(monkeypatch)
    assert cli.main(["run", str(scenario)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert "generator must be an object" in captured.err
    assert captured.out == ""


#: a series literal of dimension 1
_LINE = {"dim": 1, "cutoff": 1, "polynomial": True, "coeffs": [{"idx": [1], "re": 1.0}]}


@pytest.mark.parametrize(
    "name, task, message",
    [
        ("gaussian1d", {"task": "fhc", "terms": [{"idx": [0, 0], "re": 1.0}]},
         "bad 'terms' in fhc task: index (0, 0) does not match dim 1"),
        ("remark3", {"task": "kernel"}, "kernel task needs a kernel generator"),
        ("remark3", {"task": "fhc"}, "fhc task needs a kernel generator"),
        ("gaussian2d", {"task": "orbit", "initial": _LINE},
         "bad 'initial' in orbit task: series of dim 1 does not match dim 2"),
        ("gaussian2d", {"task": "orbit", "target": _LINE},
         "bad 'target' in orbit task: series of dim 1 does not match dim 2"),
        ("gaussian2d", {"task": "approximate", "target": _LINE},
         "bad 'target' in approximate task: series of dim 1 does not match dim 2"),
    ],
    ids=["fhc_terms_of_another_dim", "kernel_on_explicit", "fhc_on_explicit",
         "orbit_initial_of_another_dim", "orbit_target_of_another_dim",
         "approximate_target_of_another_dim"],
)
def test_task_that_does_not_fit_the_generator_exits_2_before_any_task_runs(
    tmp_path, capsys, monkeypatch, name, task, message
):
    scenario = _scenario_file(tmp_path, name, [{"task": "verify-cr"}, task])
    _fail_if_a_task_runs(monkeypatch)
    assert cli.main(["run", scenario]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


_DIM3_OPERATOR = {"dim": 3, "axis": 1, "a": [1.0, 0.0], "symbol": [{"idx": [1, 0, 0], "re": 1.0}]}


@pytest.mark.parametrize(
    "name, path, value, message",
    [
        ("gaussian1d", ("tasks", 1), 5, "task must be an object, got 5"),
        ("gaussian1d", ("tasks", 1), {"task": "prove"},
         f"unknown task kind 'prove'; expected one of {cli.TASK_KINDS}"),
        ("gaussian2d", ("operators", 0), _DIM3_OPERATOR,
         "operator on axis 1 has dim 3, scenario declares 2"),
        ("remark3", ("generator", "explicit"), _LINE,
         "explicit generator has dim 1, scenario declares 2"),
    ],
    ids=["task_not_an_object", "unknown_task_kind", "operator_of_another_dim",
         "explicit_generator_of_another_dim"],
)
def test_scenario_part_that_does_not_fit_exits_2_before_any_task_runs(
    tmp_path, capsys, monkeypatch, name, path, value, message
):
    obj = _with(name, ("tasks",), [{"task": "verify-cr"}, {"task": "verify-cr"}])
    node = obj
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    scenario = tmp_path / "misfit.json"
    scenario.write_text(json.dumps(obj))
    _fail_if_a_task_runs(monkeypatch)
    assert cli.main(["run", str(scenario)]) == cli.EXIT_PARSE
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_unsupported_format_is_refused_before_any_task_runs(monkeypatch):
    scn = cli.load_scenario("remark3")
    _fail_if_a_task_runs(monkeypatch)
    with pytest.raises(cli.ScenarioError) as exc:
        cli.execute_tasks(scn, fmt="xml")
    assert str(exc.value) == "unsupported format 'xml'"


@pytest.mark.parametrize("max_density, code", [(1.0, cli.EXIT_OK), (0.5, cli.EXIT_TASK_FAILED)])
def test_orbit_max_density_fails_a_denser_orbit(tmp_path, max_density, code):
    orbit = {**bundled_object("gaussian1d")["tasks"][-1], "max_density": max_density}
    assert orbit["task"] == "orbit"
    exit_code, text = run_to_text(_scenario_file(tmp_path, "gaussian1d", [orbit]))
    report = json.loads(text)
    assert (exit_code, report["passed"], report["density_proxy"]) == (code, code == 0, 1.0)


def test_an_orbit_target_past_the_orbit_cutoff_fails_its_task(tmp_path):
    orbit = {
        "task": "orbit", "axis": 1, "steps": 3, "delta": 0.5, "m": 1, "epsilon": 2.0,
        "initial": {"dim": 1, "cutoff": 6, "polynomial": True, "coeffs": []},
        "target": {"dim": 1, "cutoff": 12, "polynomial": True,
                   "coeffs": [{"idx": [12], "re": 1000.0}]},
    }
    exit_code, text = run_to_text(_scenario_file(tmp_path, "gaussian1d", [orbit]))
    assert exit_code == cli.EXIT_TASK_FAILED
    assert json.loads(text) == {
        "task": "orbit",
        "passed": False,
        "error": "target of cutoff 12 has a nonzero coefficient past the orbit's cutoff 6",
    }


def test_a_trajectory_entry_below_truncation_minus_max_order_exits_2_before_any_task_runs(
    tmp_path, capsys, monkeypatch
):
    complete = {"task": "complete", "truncation": 4, "max_order": 2, "trajectory": [2, 1, 3]}
    path = _scenario_file(tmp_path, "gaussian1d", [{"task": "verify-cr"}, complete])
    _fail_if_a_task_runs(monkeypatch)
    assert cli.main(["run", path]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.err == (
        "error: bad 'trajectory' in complete task: entry 1 is below "
        "truncation - max_order = 2\n"
    )
    assert captured.out == ""


def test_a_trajectory_entry_at_derivative_order_zero_runs(tmp_path):
    complete = {"task": "complete", "truncation": 4, "max_order": 2, "trajectory": [2, 3]}
    exit_code, text = run_to_text(_scenario_file(tmp_path, "gaussian1d", [complete]))
    report = json.loads(text)
    assert exit_code == cli.EXIT_OK
    assert [(r["N"], r["rank"]) for r in report["trajectory"]] == [(2, 1), (3, 2)]


def test_default_axis_without_an_operator_exits_2_before_any_task_runs(
    tmp_path, capsys, monkeypatch
):
    # remark3 with its one operator moved to axis 2: the orbit axis defaults to 1
    obj = bundled_object("remark3")
    obj["operators"][0].update(axis=2, symbol=[{"idx": [0, 1], "re": 1.0}])
    obj["tasks"] = [{"task": "verify-cr"}, {"task": "orbit"}]
    scenario = tmp_path / "axis2.json"
    scenario.write_text(json.dumps(obj))
    _fail_if_a_task_runs(monkeypatch)
    assert cli.main(["run", str(scenario)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.err == "error: bad 'axis' in orbit task: no operator on axis 1\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["orbit", "gaussian1d", "--steps", "-1"],
         "bad 'steps' in orbit task: must be >= 0, got -1"),
        (["fhc", "gaussian1d", "--kmax", "2.5"],
         "bad 'kmax' in fhc task: must be an integer, got '2.5'"),
        (["verify-cr", "gaussian1d", "--max-residual", "nan"],
         "bad 'max_residual' in verify-cr task: must be finite, got nan"),
        (["complete", "gaussian1d"], "missing key 'truncation' in complete task"),
        (["approximate", "gaussian1d", "--target-monomial", "1,0"],
         "bad 'target' in approximate task: series of dim 2 does not match dim 1"),
        (["approximate", "gaussian1d", "--target-monomial", "x"],
         "bad --target-monomial entry: must be an integer, got 'x'"),
        (["approximate", "gaussian1d", "--target-monomial", "1.0"],
         "bad --target-monomial entry: must be an integer, got '1.0'"),
        (["approximate", "gaussian1d", "--target-monomial", "-1"],
         "bad --target-monomial entry: must be >= 0, got -1"),
        (["approximate", "gaussian2d", "--target-monomial", "1,-1"],
         "bad --target-monomial entry: must be >= 0, got -1"),
    ],
)
def test_bad_flag_value_is_read_by_the_task_reader_before_the_task_runs(
    capsys, monkeypatch, argv, message
):
    _fail_if_a_task_runs(monkeypatch)
    assert cli.main(argv) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "name, task", [("gaussian1d", {"task": "fhc", "axis": 3}), ("remark3", {"task": "orbit", "axis": 2})]
)
def test_axis_without_an_operator_exits_2_before_any_task_runs(
    tmp_path, capsys, monkeypatch, name, task
):
    scenario = _scenario_file(tmp_path, name, [{"task": "verify-cr"}, task])
    _fail_if_a_task_runs(monkeypatch)
    assert cli.main(["run", scenario]) == cli.EXIT_PARSE
    assert cli.main([task["task"], name, "--axis", str(task["axis"])]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    message = f"error: bad 'axis' in {task['task']} task: no operator on axis {task['axis']}\n"
    assert captured.err == 2 * message
    assert captured.out == ""


@pytest.mark.parametrize("kind", ["kernel", "fhc"])
def test_kernel_subcommand_on_an_explicit_generator_exits_2_before_it_runs(
    capsys, monkeypatch, kind
):
    _fail_if_a_task_runs(monkeypatch)
    assert cli.main([kind, "remark3"]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.err == f"error: {kind} task needs a kernel generator\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "value, message",
    [pytest.param(-1, "bad 'degree' in kernel problem: must be >= 0, got -1", id="negative"),
     (2.5, "must be an integer, got 2.5")],
)
def test_bad_kernel_problem_degree_exits_2_before_any_task_runs(
    tmp_path, capsys, monkeypatch, value, message
):
    scenario = Path(_scenario_file(tmp_path, "gaussian2d", [{"task": "kernel"}]))
    obj = json.loads(scenario.read_text())
    obj["generator"]["kernel"][1]["degree"] = value
    scenario.write_text(json.dumps(obj))
    _fail_if_a_task_runs(monkeypatch)
    assert cli.main(["run", str(scenario)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert "bad 'kernel' in generator" in captured.err and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "task, key, message",
    [
        ({"task": "fhc", "kmax": 20.9}, "'kmax'", "must be an integer"),
        ({"task": "verify-cr", "probe_degree": True}, "'probe_degree'", "must be an integer"),
        ({"task": "fhc", "axis": 1.5}, "'axis'", "must be an integer"),
        ({"task": "orbit", "axis": 0}, "'axis'", "must be >= 1"),
        ({"task": "orbit", "steps": 1e300}, "'steps'", "must be an integer"),
        ({"task": "complete", "truncation": 2, "expect_rank": 5.5}, "'expect_rank'",
         "must be an integer"),
        ({"task": "complete", "truncation": 2, "expect_complete": "false"},
         "'expect_complete'", "must be true or false"),
        ({"task": "complete", "truncation": 2, "trajectory": [1, 2.5]}, "'trajectory'",
         "must be an integer"),
        ({"task": "approximate", "target": {"dim": 1, "cutoff": 1, "polynomial": 0,
          "coeffs": []}}, "'target'", "must be true or false"),
    ],
)
def test_non_integer_or_non_bool_task_value_exits_2_before_any_task_runs(
    tmp_path, capsys, monkeypatch, task, key, message
):
    scenario = _scenario_file(tmp_path, "gaussian2d", [{"task": "verify-cr"}, task])
    _fail_if_a_task_runs(monkeypatch)
    assert cli.main(["run", scenario]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert f"bad {key}" in captured.err and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("dimension", 0, "must be >= 1"),
        ("dimension", 2.5, "must be an integer"),
        ("truncation", -3, "must be >= 0"),
        ("truncation", True, "must be an integer"),
        ("rng_seed", -5, "must be >= 0"),
        ("rng_seed", "@", "must be an integer"),
    ],
)
def test_bad_header_value_exits_2_before_any_task_runs(
    tmp_path, capsys, monkeypatch, key, value, message
):
    scenario = Path(_scenario_file(tmp_path, "gaussian2d", [{"task": "verify-cr"}]))
    obj = json.loads(scenario.read_text())
    obj[key] = value
    # JSON reads 1e400 as inf
    scenario.write_text(json.dumps(obj).replace('"@"', "1e400"))
    _fail_if_a_task_runs(monkeypatch)
    assert cli.main(["run", str(scenario)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert f"bad {key!r} in scenario" in captured.err and message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("key, value", [("truncation", 1000000000), ("dimension", 1000000000)])
def test_a_header_too_large_to_lay_out_exits_2_before_any_table_exists(
    tmp_path, capsys, monkeypatch, key, value
):
    obj = bundled_object("gaussian1d")
    obj[key] = value
    scenario = tmp_path / "huge.json"
    scenario.write_text(json.dumps(obj))
    _fail_if_a_task_runs(monkeypatch)
    layout = mock.Mock(side_effect=AssertionError("a layout was built"))
    monkeypatch.setattr(eo.series, "_layout", layout)
    assert cli.main(["run", str(scenario)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: scenario too large: the tables of degree <= ")
    assert "past the budget" in captured.err and captured.out == ""


def test_integer_flags_take_digit_strings_and_refuse_a_negative_seed(capsys, monkeypatch):
    assert cli.main(["orbit", "gaussian1d", "--steps", "2", "--axis", "1"]) == cli.EXIT_OK
    assert '"steps": 2' in capsys.readouterr().out
    _fail_if_a_task_runs(monkeypatch)
    assert cli.main(["run", "gaussian1d", "--seed", "-5"]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.err == "error: bad 'seed' in run options: must be >= 0, got -5\n"
    assert captured.out == ""


@pytest.mark.parametrize("value", ["1e400", "nan"])
def test_non_finite_tolerance_flag_exits_2_before_any_task_runs(capsys, monkeypatch, value):
    _fail_if_a_task_runs(monkeypatch)
    assert cli.main(["run", "gaussian1d", "--tolerance", value]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    shown = float(value)
    assert captured.err == f"error: bad 'tolerance' in run options: must be finite, got {shown}\n"
    assert captured.out == ""


@pytest.mark.parametrize("value", [0, -1])
def test_non_positive_tolerance_exits_2_before_any_task_runs(
    tmp_path, capsys, monkeypatch, value
):
    scenario = Path(_scenario_file(tmp_path, "remark3", bundled_object("remark3")["tasks"]))
    obj = json.loads(scenario.read_text())
    obj["tolerance"] = value
    scenario.write_text(json.dumps(obj))
    _fail_if_a_task_runs(monkeypatch)
    assert cli.main(["run", str(scenario)]) == cli.EXIT_PARSE
    assert cli.main(["run", "remark3", "--tolerance", str(value)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: bad 'tolerance' in scenario: must be positive, got {float(value)}",
        f"error: bad 'tolerance' in run options: must be positive, got {float(value)}",
    ]
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, task",
    [
        (["verify-cr", "gaussian2d"], {"task": "verify-cr"}),
        (["kernel", "gaussian1d"], {"task": "kernel"}),
        (["complete", "gaussian2d", "--truncation", "3"],
         {"task": "complete", "truncation": 3}),
        (["approximate", "gaussian1d", "--target-monomial", "1"],
         {"task": "approximate", "target": {
             "dim": 1, "cutoff": 1, "polynomial": True,
             "coeffs": [{"idx": [1], "re": 1.0, "im": 0.0}]}}),
        (["fhc", "gaussian1d"], {"task": "fhc"}),
        (["orbit", "gaussian1d"], {"task": "orbit"}),
    ],
)
def test_subcommand_defaults_match_scenario_defaults(tmp_path, capsys, argv, task):
    """A subcommand with only its required flags runs the bare scenario task."""
    code = cli.main(argv)
    out = capsys.readouterr().out
    expected_code, expected = run_to_text(_scenario_file(tmp_path, argv[1], [task]))
    assert (code, out) == (expected_code, expected)


def _sites(node, path=()):
    """``(kind, path)`` of every mutable site of a JSON tree: objects, lists, numbers."""
    if isinstance(node, dict):
        yield "object", path
        for key, value in node.items():
            yield from _sites(value, path + (key,))
    elif isinstance(node, list):
        yield "list", path
        for i, value in enumerate(node):
            yield from _sites(value, path + (i,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield "number", path


def _short_pair() -> dict:
    obj = bundled_object("gaussian2d")
    obj["operators"][0]["a"].pop()
    return obj


def _with(name: str, path: tuple, value) -> dict:
    """A bundled scenario with the value set at the path."""
    obj = bundled_object(name)
    node = obj
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return obj


def _without(name: str, path: tuple, key: str) -> tuple:
    """A bundled scenario with the key of the object at the path dropped, as a mutation."""
    obj = bundled_object(name)
    node = obj
    for step in path:
        node = node[step]
    del node[key]
    return obj, False, (path, key)


@st.composite
def mutated_scenario(draw):
    """A bundled scenario with one number replaced, one list resized or one key dropped or added.

    Returns the object, whether the mutation must be refused (a key added
    to any object, or a number replaced by a non-finite value, a bool or a
    string) and the key of the object at ``path`` that was dropped, if any,
    as ``(path, key)``.  ``"@"`` stands for the JSON literal 1e400, which
    reads as inf.
    """
    obj = bundled_object(draw(st.sampled_from(cli.BUNDLED)))
    kind, path = draw(st.sampled_from(list(_sites(obj))))
    parent = obj
    for step in path[:-1]:
        parent = parent[step]
    node = parent[path[-1]] if path else obj
    refused, dropped = False, None
    if kind == "number":
        bad = [math.inf, math.nan, "@", True, False, "x"]
        value = draw(st.sampled_from(bad + [1e300, -abs(node) - 1, node + 0.5]))
        parent[path[-1]] = value
        refused = any(value is v for v in bad)
    elif kind == "list":
        if node and draw(st.booleans()):
            node.pop()
        else:
            node.append(copy.deepcopy(node[-1]) if node else 0)
    elif node and draw(st.booleans()):
        dropped = path, draw(st.sampled_from(sorted(node)))
        del node[dropped[1]]
    else:
        node["extra"] = 1
        refused = True
    return obj, refused, dropped


def _required(obj: dict, path: tuple, key: str) -> bool:
    """Whether the scenario object at the path must give the key."""
    parent = path[-2] if len(path) > 1 else None
    if not path:
        schema = cli.SCENARIO_KEYS
    elif path[-1] == "generator":
        schema = cli.GENERATOR_KEYS
    elif parent == "operators":
        schema = serialize.OPERATOR_KEYS
    elif parent == "kernel":
        schema = serialize.PROBLEM_KEYS
    elif parent in ("symbol", "coeffs", "terms"):
        schema = serialize.COEFFICIENT_KEYS
    elif parent == "tasks":
        task = obj["tasks"][path[-1]]
        # the kind picks the task's key table, so it is always required
        schema = cli.TASK_PARAMS[task["task"]] if "task" in task else {}
    else:
        assert path[-1] in ("explicit", "target", "initial"), path
        schema = serialize.SERIES_KEYS
    return schema.get(key, (None, serialize.REQUIRED))[1] is serialize.REQUIRED


@settings(max_examples=80, deadline=None, derandomize=True)
@given(mutated_scenario())
@example((_short_pair(), True, None))
@example((_with("gaussian1d", ("tasks", 0, "max_residual"), True), True, None))
@example((_with("remark3", ("generator", "explicit", "extra"), 1), True, None))
@example(_without("gaussian2d", ("operators", 1), "symbol"))
@example(_without("gaussian1d", ("tasks", 0), "task"))
def test_mutated_bundled_scenario_reports_every_task_or_exits_2_before_any_runs(
    tmp_path_factory, mutation
):
    obj, refused, dropped = mutation
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(obj).replace('"@"', "1e400"))
    calls = []

    def counted(run):
        def wrapper(*args):
            calls.append(run)
            return run(*args)
        return wrapper

    runners = {kind: counted(run) for kind, run in cli._RUNNERS.items()}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(cli._RUNNERS, runners), redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["run", str(path)])
    assert code in (cli.EXIT_OK, cli.EXIT_TASK_FAILED, cli.EXIT_PARSE), err.getvalue()
    assert code == cli.EXIT_PARSE or not refused, json.dumps(obj)
    if dropped is not None:
        path, key = dropped
        if _required(obj, path, key):
            assert code == cli.EXIT_PARSE, json.dumps(obj)
            assert f"missing key {key!r}" in err.getvalue()
    if code == cli.EXIT_PARSE:
        assert (out.getvalue(), calls) == ("", []), err.getvalue()
    else:
        assert out.getvalue().splitlines().count("}") == len(obj["tasks"]) == len(calls)


def test_module_entry_point(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}

    def entireops(*args):
        return subprocess.run(
            [sys.executable, "-m", "entireops", *args],
            capture_output=True, text=True, env=env, timeout=120,
        )

    assert entireops("run", "remark3").returncode == cli.EXIT_OK
    typo_task = {"task": "fhc", "kmx": 40}
    typo = entireops("run", _scenario_file(tmp_path, "gaussian1d", [typo_task]))
    assert typo.returncode == cli.EXIT_PARSE
    assert "error:" in typo.stderr and "'kmx'" in typo.stderr
    helped = entireops("fhc", "gaussian1d", "--help")
    assert helped.returncode == 0
    assert "default: 12" in helped.stdout and "default: 6" in helped.stdout


def test_a_json_run_loads_neither_numpy_random_argparse_dataclasses_nor_csv():
    # a fresh interpreter: the translate samples are drawn in pure Python,
    # argparse belongs to the command line only, the records are built
    # without dataclasses, and csv is loaded by the CSV writer alone
    unused = {"numpy.random", "secrets", "argparse", "dataclasses", "csv", "_csv"}
    code = (
        "import io, sys\n"
        "from entireops import cli\n"
        "cli.run_scenario('gaussian2d', stream=io.StringIO())\n"
        f"print(sorted({unused!r} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# ---------------------------------------------------------------------------
# determinism and emission
# ---------------------------------------------------------------------------


def test_a_span_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the SVD of a 286 x 286 span, which OpenBLAS threads when it may
    if completeness._openblas_thread_calls() is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread-count setter")
    obj = bundled_object("gaussian2d")
    axis_op, problem = obj["operators"][0], dict(obj["generator"]["kernel"][0], degree=20)
    obj.update(
        dimension=3,
        truncation=20,
        operators=[
            dict(axis_op, dim=3, axis=j,
                 symbol=[dict(axis_op["symbol"][0], idx=[int(i == j) for i in (1, 2, 3)])])
            for j in (1, 2, 3)
        ],
        generator={"kernel": [problem] * 3},
        tasks=[{"task": "complete", "truncation": 10, "max_order": 10, "expect_complete": True}],
    )
    path = tmp_path / "span_d3.json"
    path.write_text(json.dumps(obj))
    src = str(Path(cli.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run(
            [sys.executable, "-m", "entireops", "run", str(path)],
            capture_output=True, env=env, timeout=120,
        )
        assert done.returncode == cli.EXIT_OK, done.stderr
        outs.append(done.stdout)
    assert b'"rank": 286' in outs[0]
    assert outs[0] == outs[1]


def test_repeat_runs_are_bytewise_identical():
    code1, text1 = run_to_text("gaussian2d", seed=7041)
    code2, text2 = run_to_text("gaussian2d", seed=7041)
    assert code1 == code2 == cli.EXIT_OK
    assert text1 == text2


@pytest.mark.parametrize(
    "seed, message", [(2.5, "must be an integer, got 2.5"), (-5, "must be >= 0, got -5")]
)
def test_a_bad_seed_override_is_refused_before_any_task_runs(monkeypatch, seed, message):
    _fail_if_a_task_runs(monkeypatch)
    with pytest.raises(cli.ScenarioError) as exc:
        run_to_text("gaussian2d", seed=seed)
    assert str(exc.value) == f"bad 'seed' in run options: {message}"


def test_seed_changes_translate_sampling():
    _, text1 = run_to_text("gaussian2d", seed=1)
    _, text2 = run_to_text("gaussian2d", seed=2)
    assert text1 != text2


def test_float_formatting_17_digits():
    text = serialize.to_json_text({"x": 1 / 3, "n": 7, "flag": True})
    assert "0.33333333333333331" in text
    assert '"n": 7' in text
    assert '"flag": true' in text


class _Level(enum.IntEnum):
    """An int subclass: written as the number it holds, not as its repr."""

    LOW = 1
    HIGH = 2


@pytest.mark.parametrize(
    "value, text",
    [
        ({}, "{}"),
        ([], "[]"),
        ({"a": {}}, '{\n  "a": {}\n}'),
        ([[]], "[\n  []\n]"),
        ([[1, 2], [3]], "[\n  [1, 2],\n  [3]\n]"),
        ([{"x": 1}, 2], '[\n  {\n    "x": 1\n  },\n  2\n]'),
        ((1, "a"), '[1, "a"]'),
        ([None, True, False, "q\"", 0.5, -3], '[null, true, false, "q\\"", 0.5, -3]'),
        ({"a": _Level.HIGH, "b": [_Level.LOW]}, '{\n  "a": 2,\n  "b": [1]\n}'),
    ],
    ids=["empty-object", "empty-list", "nested-empty-object", "nested-empty-list",
         "lists-of-scalars", "object-in-list", "tuple", "mixed-scalars", "int-enum"],
)
def test_json_text_layout(value, text):
    assert serialize.to_json_text(value) == text + "\n"


@pytest.mark.parametrize(
    "value, error, message",
    [
        ({1: 2}, TypeError, "JSON object keys must be strings, got 1"),
        ({"a": [object()]}, TypeError, "cannot serialize object"),
        ({"a": [1.0, math.nan]}, ValueError, "non-finite float nan cannot be serialized"),
    ],
    ids=["non-str-key", "unknown-type", "nan"],
)
def test_json_text_refusals(value, error, message):
    with pytest.raises(error) as exc:
        serialize.to_json_text(value)
    assert str(exc.value) == message


def test_csv_text_quotes_what_its_cells_hold():
    message = 'bad "x", then\na new line'
    text = serialize.to_csv_text(("task", "passed", "error"), [("fhc", False, message)])
    assert list(csv.reader(io.StringIO(text))) == [
        ["task", "passed", "error"], ["fhc", "false", message]
    ]
    text = serialize.to_csv_text(("k", "u", "ratio"), [(0, 1 / 3, None)])
    assert text == "k,u,ratio\n0,0.33333333333333331,\n"
    assert serialize.to_csv_text(("k",), [(_Level.HIGH,)]) == "k\n2\n"


class _Text(str):
    """A str subclass: written as the string it holds."""


def _sometimes(strategy, rare, one_in: int = 12):
    """``strategy``, or once in about ``one_in`` draws ``rare``."""
    return st.integers(1, one_in).flatmap(lambda n: rare if n == 1 else strategy)


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e308, -1e308]
)
_TEXT = st.text(max_size=6) | st.sampled_from(['"', "\\", "\x00\x1f\n\t\x7f", "é€𝄞", "\ud800"])
#: every scalar the writers take, and once in a while one they refuse
_CELLS = _sometimes(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**64 - 2, 2**70) | st.integers(-(2**70), -(2**64))
    | _FINITE
    | _FINITE.map(np.float64)
    | _TEXT
    | _TEXT.map(_Text)
    | st.sampled_from(_Level),
    st.sampled_from(
        [math.nan, math.inf, -math.inf, np.float64(math.nan), np.int64(7), np.bool_(True), object()]
    ),
)
_KEYS = _sometimes(_TEXT | _TEXT.map(_Text), st.sampled_from([1, None, True]), one_in=30)
_VALUES = st.recursive(
    _CELLS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=16,
)


def _written(write, *args):
    """The text a writer returns, or the type and message of its refusal."""
    try:
        return write(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_VALUES)
# a non-finite float before, and after, an unknown scalar in one list
@example([1, math.nan, object()])
@example([1, np.int64(2), math.inf])
@example({"a": [np.bool_(False), 0.5, -math.inf]})
@example({"a": math.nan, 1: 2})
@example({None: math.nan})
@example({"a": [0.5, {"b": None}, "c", [_Text("d"), 2**64]], "": ()})
def test_json_text_matches_the_reference_walk(value):
    assert _written(serialize.to_json_text, value) == _written(reference_json_text, value)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_TEXT, max_size=4), st.lists(st.lists(_CELLS, max_size=5), max_size=4))
@example(["k"], [[1, math.nan, object()], [2.5]])
@example(["k"], [[np.int64(3), -math.inf]])
def test_csv_text_matches_the_reference_writer(header, rows):
    assert _written(serialize.to_csv_text, header, rows) == _written(
        reference_csv_text, header, rows
    )


def test_overflowing_orbit_fails_its_task_naming_the_step_and_prints_no_warning(
    tmp_path, capsys
):
    obj = bundled_object("gaussian1d")
    obj["operators"][0]["a"] = [1e300, 0.0]
    obj["generator"]["kernel"][0]["a"] = [1e300, 0.0]
    initial = {"dim": 1, "cutoff": 4, "polynomial": True,
               "coeffs": [{"idx": [1], "re": 1e300, "im": 1e300}]}
    obj["tasks"] = [{"task": "orbit", "steps": 2, "degree": 4, "initial": initial}]
    scenario = tmp_path / "overflow.json"
    scenario.write_text(json.dumps(obj))
    assert cli.main(["run", str(scenario)]) == cli.EXIT_TASK_FAILED
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["passed"] is False
    assert report["error"].startswith("orbit overflows at step 1")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_report_fails_only_its_task_in_either_format(tmp_path, capsys, fmt):
    # a huge seed makes the fhc majorants overflow; complete still runs, and
    # the failed task's report is in the requested format
    tasks = [
        {"task": "fhc", "epsilon": 1e25, "kmax": 3, "realization_degree": 8},
        {"task": "complete", "truncation": 2},
    ]
    scenario = Path(_scenario_file(tmp_path, "gaussian1d", tasks))
    obj = json.loads(scenario.read_text())
    obj["generator"]["kernel"][0]["seeds"] = [[1e140, 0.0]]
    scenario.write_text(json.dumps(obj))
    error = "the semi-norm majorant sum |a_n| r^||n|| of a finite row is past the float range"
    if fmt == "json":
        failed = serialize.to_json_text({"task": "fhc", "passed": False, "error": error})
        complete = '"task": "complete"'
    else:
        failed = f"task,passed,error\nfhc,false,{error}\n"
        complete = "index,singular_value\n"
    assert cli.main(["run", str(scenario), "--format", fmt]) == cli.EXIT_TASK_FAILED
    out = capsys.readouterr().out
    assert out.startswith(failed)
    assert out.count(complete) == 1
    out_dir = tmp_path / "reports"
    code = cli.main(["run", str(scenario), "--format", fmt, "--out", str(out_dir)])
    assert code == cli.EXIT_TASK_FAILED
    assert sorted(p.name for p in out_dir.iterdir()) == [f"00_fhc.{fmt}", f"01_complete.{fmt}"]
    assert (out_dir / f"00_fhc.{fmt}").read_text() == failed


@pytest.mark.parametrize("overflowing", [False, True])
def test_csv_for_a_kind_without_profile_exits_2_before_any_task_runs(
    tmp_path, overflowing
):
    # complete has a csv profile and kernel has none; with an overflowing
    # kernel the kernel task would fail, and the refusal must not depend on it
    tasks = [{"task": "complete", "truncation": 2}, {"task": "kernel", "degree": 6}]
    scenario = Path(_scenario_file(tmp_path, "gaussian1d", tasks))
    if overflowing:
        obj = json.loads(scenario.read_text())
        obj["operators"][0]["a"] = [1e100, 0.0]
        obj["generator"]["kernel"][0]["a"] = [1e100, 0.0]
        obj["generator"]["kernel"][0]["seeds"] = [[1e149, 0.0]]
        scenario.write_text(json.dumps(obj))
        code = cli.main(["run", str(scenario), "--out", str(tmp_path / "json")])
        assert code == cli.EXIT_TASK_FAILED
    calls = []

    def counted(run):
        return lambda *args: calls.append(run) or run(*args)

    runners = {kind: counted(run) for kind, run in cli._RUNNERS.items()}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(cli._RUNNERS, runners), redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["run", str(scenario), "--format", "csv"])
    assert code == cli.EXIT_PARSE
    assert (out.getvalue(), calls) == ("", [])
    assert "csv unsupported for the kernel task" in err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-cr", "gaussian1d"],
        ["kernel", "gaussian1d"],
        ["approximate", "gaussian1d", "--target-monomial", "1"],
        ["orbit", "gaussian1d"],
    ],
    ids=lambda argv: argv[0],
)
def test_csv_for_each_kind_without_profile_exits_2_before_its_runner(
    capsys, monkeypatch, argv
):
    _fail_if_a_task_runs(monkeypatch)
    assert cli.main([*argv, "--format", "csv"]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"csv unsupported for the {argv[0]} task; csv covers complete, fhc" in captured.err


# ---------------------------------------------------------------------------
# scenario schema: series round trips and readers
# ---------------------------------------------------------------------------


def test_series_roundtrip():
    f = eo.make_series(
        2, 4, {(0, 0): 1.0, (2, 1): complex(0.5, -0.25)}, is_polynomial=True
    )
    back = serialize.series_from_json(serialize.series_to_json(f))
    assert back == f


def test_series_json_indices_graded_lex_sorted():
    f = eo.make_series(2, 3, {(2, 0): 1.0, (0, 1): 2.0, (1, 1): 3.0})
    obj = serialize.series_to_json(f)
    assert [tuple(e["idx"]) for e in obj["coeffs"]] == [(0, 1), (1, 1), (2, 0)]


def test_operator_reader():
    obj = {"dim": 2, "axis": 2, "a": [1.0, 0.0], "symbol": [{"idx": [0, 1], "re": 1.0}]}
    assert serialize.cr_operator_from_json(obj) == gaussian_family(2)[1]


def test_problem_reader():
    obj = {"charpoly": [[0, 0], [0, 0], [1, 0]], "a": [0.5, 1.0], "seeds": [[1, 0], [0, 0]]}
    assert serialize.problem_from_json(obj) == airy_problem(a=complex(0.5, 1.0))


def test_scenario_reports_reparse_as_json():
    _, text = run_to_text("gaussian1d")
    decoder = json.JSONDecoder()
    pos = 0
    count = 0
    while pos < len(text):
        obj, pos = decoder.raw_decode(text, pos)
        while pos < len(text) and text[pos] in "\r\n ":
            pos += 1
        assert "task" in obj and "passed" in obj
        count += 1
    assert count == 6
