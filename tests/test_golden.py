"""Bundled scenario reports are frozen: byte-for-byte equal to the references.

The references are the reports recorded for the benchmark in
``perfbench/ref/bundled/``; any change to the emitted bytes of a shipped
scenario shows up here first.
"""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from entireops import cli

REF = Path(__file__).resolve().parents[1] / "perfbench" / "ref" / "bundled"


@pytest.mark.parametrize("name", cli.BUNDLED)
def test_bundled_report_bytes_frozen(name):
    buf = io.StringIO()
    cli.run_scenario(name, stream=buf)
    assert buf.getvalue() == (REF / f"{name}.txt").read_text()
