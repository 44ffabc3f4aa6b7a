"""The tier-1 workflow file parses, with the jobs and steps CI runs."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

yaml = pytest.importorskip(
    "yaml", reason="PyYAML reads the workflow file; the tier-1 workflow installs it"
)

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def test_the_tier1_workflow_parses_into_its_jobs_with_string_run_steps():
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    assert {"tests", "benchmark-smoke"} <= set(jobs)
    for name in ("tests", "benchmark-smoke"):
        steps = jobs[name]["steps"]
        runs = [step["run"] for step in steps if "run" in step]
        assert runs, name
        assert all(isinstance(run, str) for run in runs), name


def test_every_install_step_asks_for_the_numpy_that_pyproject_declares():
    # read as text: Python 3.10, which CI runs, has no tomllib
    (declared,) = re.findall(r'"(numpy[^"]*)"', (ROOT / "pyproject.toml").read_text())
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    installs = [step["run"] for job in jobs.values() for step in job["steps"]
                if "pip install" in step.get("run", "")]
    assert installs
    for run in installs:
        assert re.findall(r'"(numpy[^"]*)"', run) == [declared], run


def test_every_cli_run_in_the_workflow_turns_all_warnings_into_errors():
    # the library issues no warning, so none may escape any step's run
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    runs = [line for job in jobs.values() for step in job["steps"]
            for line in step.get("run", "").splitlines() if "-m entireops run" in line]
    assert runs
    for line in runs:
        assert "python -W error -m entireops run" in line, line
