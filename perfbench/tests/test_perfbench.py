"""Tests of the benchmark itself: rounds, certified expectations, the output check.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import entireops.cli as cli  # noqa: E402

import certify  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

TASKS_PER_ROUND = {"bundled": 22, "span": 5, "ladder": 7}


def one_round(workload, seed, tmp_path):
    sources = workloads.write_inputs(workload, seed, tmp_path)
    _, outputs = workloads.run_round(cli, sources)
    return outputs


@pytest.fixture(scope="module")
def span_outputs(tmp_path_factory):
    return one_round("span", workloads.DEFAULT_SEED, tmp_path_factory.mktemp("span"))


@pytest.mark.parametrize(
    "workload, seed",
    [("bundled", 0), ("ladder", workloads.DEFAULT_SEED), ("ladder", 5)],
)
def test_one_round_passes_the_check(workload, seed, tmp_path):
    tally = workloads.check_round(workload, seed, one_round(workload, seed, tmp_path))
    assert tally.attempted == TASKS_PER_ROUND[workload]
    assert tally.failed == 0 and not tally.unexpected


def test_span_round_fails_only_known_defects(span_outputs):
    tally = workloads.check_round("span", workloads.DEFAULT_SEED, span_outputs)
    assert tally.attempted == TASKS_PER_ROUND["span"]
    assert not tally.unexpected
    known = [k for k in workloads.KNOWN_DEFECTS if k[0] == "span"]
    assert tally.failed <= len(known)


def test_span_ranks_are_certified_over_gf_p():
    for label, spec in workloads.generated_scenarios("span", 0).items():
        for i, task in enumerate(spec["tasks"]):
            if task.get("mode") == "translate":
                assert (label, i) not in workloads.SPAN_EXPECTED
                continue
            m = certify.kernel_span_mod_p(
                spec["generator"]["kernel"], task["truncation"], task["max_order"]
            )
            assert (certify.rank_mod_p(m), m.shape[1]) == workloads.SPAN_EXPECTED[(label, i)]


def test_remark3_rank_is_five_of_fifteen():
    spec = json.loads((ROOT / "src/entireops/scenarios/remark3.json").read_text())
    table = {tuple(c["idx"]): Fraction(c["re"]) for c in spec["generator"]["explicit"]["coeffs"]}
    m = certify.derivative_span_mod_p(lambda idx: table.get(idx, Fraction(0)), 2, 4, 4)
    # rank mod p bounds the rational rank from below, the column support from above
    assert certify.rank_mod_p(m) == 5
    assert int((m != 0).any(axis=0).sum()) == 5
    assert m.shape[1] == 15


def test_rank_mod_p_detects_dependence():
    m = certify.kernel_span_mod_p([{"charpoly": [[0, 0], [1, 0]], "a": [1, 0],
                                    "seeds": [[1, 0]]}], 4, 4)
    m[3] = (2 * m[1] + m[2]) % certify.P
    assert certify.rank_mod_p(m) == 4


def _bump_digit(text: str, at: int) -> str:
    return text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]


def test_bundled_check_catches_one_changed_digit():
    text = (workloads.REF / "bundled" / "gaussian1d.txt").read_text()
    last = max(i for i, ch in enumerate(text) if ch.isdigit())
    outputs = [("gaussian1d", "gaussian1d", _bump_digit(text, last))]
    tally = workloads.check_round("bundled", 0, outputs)
    assert tally.failed == 1 and len(tally.unexpected) == 1


def test_ladder_check_catches_a_changed_majorant(tmp_path):
    outputs = one_round("ladder", workloads.DEFAULT_SEED, tmp_path)
    label, source, text = outputs[0]
    at = text.index('"u": [') + len('"u": [')
    outputs[0] = (label, source, _bump_digit(text, at))
    tally = workloads.check_round("ladder", workloads.DEFAULT_SEED, outputs)
    assert tally.failed == 1
    assert "majorants" in tally.unexpected[0]


def test_span_check_catches_a_wrong_rank(span_outputs):
    label, source, text = span_outputs[1]
    assert label == "span_d2" and '"rank": 91,' in text
    wrong = [(label, source, text.replace('"rank": 91,', '"rank": 90,', 1))]
    tally = workloads.check_round("span", workloads.DEFAULT_SEED, wrong)
    assert any(p.startswith("span_d2 task 0: rank 90/91") for p in tally.unexpected)


def test_traced_rounds_repeat_counts_and_restore_the_program(tmp_path):
    sources = workloads.write_inputs("bundled", 0, tmp_path)
    original = cli.run_scenario
    tracer = layertrace.Tracer()
    for r in (0, 1):
        tracer.round_id = r
        tracer.install()
        try:
            _, outputs = workloads.run_round(cli, sources)
        finally:
            tracer.uninstall()
        assert workloads.check_round("bundled", 0, outputs).failed == 0
    assert cli.run_scenario is original
    rows = tracer.per_round()
    counts = [k for k in rows[0] if not k.endswith("_s")]
    assert {k: rows[0][k] for k in counts} == {k: rows[1][k] for k in counts}
    assert rows[0]["series.TruncatedSeries.new"] > 0
    for name in tracer.names:
        assert rows[0][f"{name}.self_s"] <= rows[0][f"{name}.total_s"] + 1e-9
    metrics = tracer.metrics({0: 1.0, 1: 1.0})
    assert [m[0] for m in layertrace.METRICS] == list(metrics)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == [m[0] for m in layertrace.METRICS] + ["trace.overhead"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bundled", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
