"""Workloads of the entireops benchmark: their inputs and the output check.

A workload is a list of scenarios; a round runs each of them once through
``entireops.cli.run_scenario``, the path behind ``entireops run``.

* ``bundled``: the five scenarios shipped with the package, at their own
  ``rng_seed``.  Their reports are the output contract and are compared
  byte for byte with ``ref/bundled/<name>.txt``, recorded at the seed commit.
* ``span``: completeness at scale.  Gaussian product kernels with
  derivative spans whose ranks were certified over GF(2^31 - 1) (see
  ``certify.py``), plus one translate span whose sample points come from
  the benchmark seed.  Translate rows are approximate by design, so that
  task asserts no rank.
* ``ladder``: operator algebra and ladder calculus at scale on a 2-D mixed
  Gaussian/Airy family and a 3-D Gaussian family, including a 12-step orbit
  from a seeded polynomial.  Residuals are checked against thresholds;
  majorants, k-th roots, kernel coefficients and orbit distances against
  the seed commit's reports (``ref/ladder/``) within ``REL_TOL``, and the
  orbit distances at every seed against an exact rational recomputation.
  Singular values are never compared.

Generated scenarios are plain scenario JSON files loaded through the public
``load_scenario``, so the program receives nothing but generated inputs.
"""

from __future__ import annotations

import io
import json
import math
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REF = HERE / "ref"

WORKLOADS = ("bundled", "span", "ladder")
BUNDLED = ("gaussian1d", "gaussian2d", "airy2d", "remark3", "mixed")

#: seed at which the seed-dependent ladder reports were recorded
DEFAULT_SEED = 0
#: relative tolerance for well-conditioned numbers compared with references
REL_TOL = 1e-9

#: certified ranks (rank, ambient) of the derivative-span tasks, by (label, task)
SPAN_EXPECTED = {
    ("span_d3", 0): (165, 165),
    ("span_d3", 1): (286, 286),
    ("span_d2", 0): (91, 91),
    ("span_d2", 1): (153, 153),
}

#: tasks that fail at the seed commit.  They still count as failed tasks;
#: only a failure outside this table makes a run incorrect.
KNOWN_DEFECTS = {
    ("span", "span_d2", 1): "float SVD rank at d=2 N=16 is 137/153; the "
    "certified rank is 153/153",
}

_GAUSS = {"charpoly": [[0.0, 0.0], [1.0, 0.0]], "a": [1.0, 0.0], "seeds": [[1.0, 0.0]]}
_AIRY = {
    "charpoly": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
    "a": [1.0, 0.0],
    "seeds": [[1.0, 0.0], [0.0, 0.0]],
}


def _operator(dim: int, axis: int, order: int) -> dict:
    """``T = D_axis^order - z_axis``; T applies ``b_n D^n / n!``, so ``b_n = n!``."""
    idx = [0] * dim
    idx[axis - 1] = order
    b = float(math.factorial(order))
    return {"dim": dim, "axis": axis, "a": [1.0, 0.0],
            "symbol": [{"idx": idx, "re": b, "im": 0.0}]}


def _scenario(dim, truncation, rng_seed, orders, problems, tasks) -> dict:
    return {
        "dimension": dim,
        "truncation": truncation,
        "tolerance": 1e-8,
        "rng_seed": rng_seed,
        "operators": [_operator(dim, j + 1, o) for j, o in enumerate(orders)],
        "generator": {"kernel": [dict(p, degree=truncation) for p in problems]},
        "tasks": tasks,
    }


def _initial_polynomial(rng: np.random.Generator, dim: int, degree: int, cutoff: int) -> dict:
    """Seeded polynomial with quarter-integer coefficients (exact in binary)."""
    coeffs = []
    for idx in product(range(degree + 1), repeat=dim):
        if sum(idx) <= degree:
            v = int(rng.integers(-4, 5))
            if v:
                coeffs.append({"idx": list(idx), "re": v / 4, "im": 0.0})
    return {"dim": dim, "cutoff": cutoff, "polynomial": True, "coeffs": coeffs}


def generated_scenarios(workload: str, seed: int) -> dict[str, dict]:
    """Scenario objects of a generated workload, by label.  Same seed, same objects."""
    rng = np.random.default_rng(seed)
    if workload == "span":
        complete = [
            {"task": "complete", "truncation": n, "max_order": n, "expect_complete": True}
            for n in (8, 10)
        ]
        d2 = [
            {"task": "complete", "truncation": n, "max_order": n, "expect_complete": True}
            for n in (12, 16)
        ]
        d2.append({"task": "complete", "truncation": 10, "mode": "translate", "samples": 198})
        return {
            "span_d3": _scenario(3, 20, 0, (1, 1, 1), [_GAUSS] * 3, complete),
            "span_d2": _scenario(2, 32, int(rng.integers(2**31)), (1, 1), [_GAUSS] * 2, d2),
        }
    if workload == "ladder":
        fhc = [
            {"task": "fhc", "axis": axis, "m": 1, "epsilon": 2.0, "kmax": 40,
             "realization_degree": 12, "max_kth_root": 0.55}
            for axis in (1, 2)
        ]
        d2 = [
            {"task": "verify-cr", "probe_degree": 12, "max_residual": 1e-12},
            {"task": "kernel", "degree": 24, "max_residual": 1e-12},
            *fhc,
            {"task": "orbit", "axis": 1, "steps": 12, "delta": 0.1, "m": 1, "epsilon": 2.0,
             "initial": _initial_polynomial(rng, 2, 6, 24)},
        ]
        d3 = [
            {"task": "verify-cr", "probe_degree": 8, "max_residual": 1e-12},
            {"task": "kernel", "degree": 14, "max_residual": 1e-12},
        ]
        return {
            "ladder_2d": _scenario(2, 24, 0, (1, 2), [_GAUSS, _AIRY], d2),
            "ladder_3d": _scenario(3, 14, 0, (1, 1, 1), [_GAUSS] * 3, d3),
        }
    raise ValueError(f"{workload!r} is not a generated workload")


def write_inputs(workload: str, seed: int, workdir: Path) -> list[tuple[str, str]]:
    """Write the workload's scenario files; returns ``(label, source)`` pairs.

    ``source`` is what ``run_scenario`` receives: a bundled name, or the path
    of a generated scenario file.
    """
    if workload == "bundled":
        return [(name, name) for name in BUNDLED]
    workdir.mkdir(parents=True, exist_ok=True)
    out = []
    for label, obj in generated_scenarios(workload, seed).items():
        path = workdir / f"{workload}_{seed}_{label}.json"
        path.write_text(json.dumps(obj, indent=1) + "\n")
        out.append((label, str(path)))
    return out


# ---------------------------------------------------------------------------
# running a round
# ---------------------------------------------------------------------------


def run_round(cli, sources) -> tuple[float, list]:
    """Run every scenario once through ``cli.run_scenario``.

    Returns (wall seconds, [(label, source, text | exception)]).  The
    function is looked up on the module at each call, so installed trace
    wrappers are used.
    """
    outputs = []
    t0 = time.perf_counter()
    for label, source in sources:
        buf = io.StringIO()
        try:
            cli.run_scenario(source, stream=buf)
        except Exception as exc:  # noqa: BLE001 - a raising scenario is a failed task
            outputs.append((label, source, exc))
            continue
        outputs.append((label, source, buf.getvalue()))
    return time.perf_counter() - t0, outputs


def split_reports(text: str) -> list[str]:
    """Split emitted text into one string per report (each ends with ``}`` at column 0)."""
    reports, current = [], []
    for line in text.splitlines(keepends=True):
        current.append(line)
        if line == "}\n":
            reports.append("".join(current))
            current = []
    if current:
        reports.append("".join(current))
    return reports


class Tally:
    """Tasks attempted and failed, and the failures no known defect explains."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.known: set[str] = set()

    def add(self, workload: str, label: str, problems: list) -> None:
        for i, problem in enumerate(problems):
            self.attempted += 1
            if problem is None:
                continue
            self.failed += 1
            key = (workload, label, i)
            if key in KNOWN_DEFECTS:
                self.known.add(f"{label} task {i}: {KNOWN_DEFECTS[key]}")
            else:
                self.unexpected.append(f"{label} task {i}: {problem}")

    def merge(self, other: Tally) -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.unexpected.extend(other.unexpected)
        self.known |= other.known


def check_round(workload: str, seed: int, outputs) -> Tally:
    tally = Tally()
    for label, source, result in outputs:
        tally.add(workload, label, check_scenario(workload, seed, label, source, result))
    return tally


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------


def check_scenario(workload: str, seed: int, label: str, source: str, result) -> list:
    """One entry per task of the scenario: None if its report is correct, else why not."""
    if workload == "bundled":
        expected = split_reports((REF / "bundled" / f"{label}.txt").read_text())
        if isinstance(result, BaseException):
            return [f"raised {result!r}"] * len(expected)
        got = split_reports(result)
        problems = [
            None if i < len(got) and got[i] == want else "report differs from the recorded bytes"
            for i, want in enumerate(expected)
        ]
        if len(got) > len(expected):
            problems[-1] = problems[-1] or "output continues after the last report"
        return problems

    spec = json.loads(Path(source).read_text())
    tasks = spec["tasks"]
    if isinstance(result, BaseException):
        return [f"raised {result!r}"] * len(tasks)
    texts = split_reports(result)
    if len(texts) != len(tasks):
        return [f"{len(texts)} reports for {len(tasks)} tasks"] * len(tasks)
    ref = None
    if workload == "ladder":
        ref = split_reports((REF / "ladder" / f"{label}.txt").read_text())
    problems = []
    for i, (task, text) in enumerate(zip(tasks, texts)):
        try:
            report = json.loads(text)
            want = json.loads(ref[i]) if ref is not None else None
            problems.append(_check_task(workload, seed, label, i, task, spec, report, want))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"malformed report: {exc!r}")
    return problems


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _all_close(got, want) -> bool:
    return len(got) == len(want) and all(_close(a, b) for a, b in zip(got, want))


def _check_task(workload, seed, label, i, task, spec, report, want) -> str | None:
    kind = task["task"]
    if report.get("task") != kind:
        return f"report is for task {report.get('task')!r}, expected {kind!r}"
    if "error" in report:
        return f"task error: {report['error']}"
    if not report["passed"]:
        return "report says passed: false"
    if kind == "complete":
        n = task["truncation"]
        ambient = math.comb(n + spec["dimension"], spec["dimension"])
        if report["N"] != n or report["ambient"] != ambient:
            return f"N/ambient {report['N']}/{report['ambient']}, expected {n}/{ambient}"
        if task.get("mode") == "translate":
            # approximate rows: no rank is asserted, only its range
            if not 1 <= report["rank"] <= ambient:
                return f"rank {report['rank']} outside [1, {ambient}]"
            if len(report["diagnostics"]) != min(task["samples"], ambient):
                return "singular value count does not match the matrix shape"
            return None
        rank, amb = SPAN_EXPECTED[(label, i)]
        if (report["rank"], report["ambient"]) != (rank, amb):
            return f"rank {report['rank']}/{report['ambient']}, certified {rank}/{amb}"
        if report["complete_at_truncation"] is not (rank == amb):
            return "complete_at_truncation disagrees with the certified rank"
        return None
    if kind in ("verify-cr", "kernel"):
        limit = task["max_residual"]
        residuals = report["residuals"]
        if kind == "verify-cr":
            if report["probe_degree"] != task["probe_degree"]:
                return "probe_degree differs from the task"
            d = spec["dimension"]
            if len(residuals) != len(spec["operators"]) * d:
                return "residual table does not cover every (operator, partial) pair"
            residuals = [r["residual"] for r in residuals]
        if not all(0 <= r <= limit for r in residuals) or not report["max_residual"] <= limit:
            return f"residual above {limit:g}"
        if kind == "kernel":
            got = {tuple(c["idx"]): (c["re"], c["im"]) for c in report["series"]["coeffs"]}
            exp = {tuple(c["idx"]): (c["re"], c["im"]) for c in want["series"]["coeffs"]}
            if got.keys() != exp.keys() or not all(
                _all_close(got[k], exp[k]) for k in exp
            ):
                return "kernel coefficients differ from the recorded report"
        return None
    if kind == "fhc":
        if not report["stable"]:
            return "majorants not stable across realization degrees"
        if not report["kth_roots"][-1] <= report["bound"]:
            return "final k-th root above the predicted decay bound"
        if not (_all_close(report["u"], want["u"])
                and _all_close(report["kth_roots"], want["kth_roots"])):
            return "majorants or k-th roots differ from the recorded report"
        return None
    if kind == "orbit":
        exact = orbit_distances(spec, task)
        dist = report["distances"]
        if report["steps"] != task["steps"] or not _all_close(dist, exact):
            return "orbit distances differ from the exact recomputation"
        if not all(v > 0 for v in dist[1:]):
            return "orbit was annihilated: the initial vector lies in the kernel"
        if report["hits"] != [k for k, v in enumerate(exact) if v < task["delta"]]:
            return "hit times disagree with the distances"
        if not 0 <= report["density_proxy"] <= 1:
            return "density proxy outside [0, 1]"
        if seed == DEFAULT_SEED and not _all_close(dist, want["distances"]):
            return "orbit distances differ from the recorded report"
        return None
    return f"no check for task kind {kind!r}"


def orbit_distances(spec: dict, task: dict) -> list[float]:
    """Distances ``sum |c_n| r^|n|`` of the orbit iterates to 0, in exact rationals.

    Recomputes ``T = sum_n b_n / n! D^n - a z_axis`` on the polynomial
    ``initial`` independently of the library; only real data is supported.
    """
    if task.get("target", "zero") != "zero":
        raise ValueError("exact orbit reference supports the zero target only")
    axis = task["axis"]
    op = next(o for o in spec["operators"] if o["axis"] == axis)
    init = task["initial"]
    if op["a"][1] or any(e["im"] for e in op["symbol"] + init["coeffs"]):
        raise ValueError("exact orbit reference supports real data only")
    a = Fraction(op["a"][0])
    symbol = [(tuple(e["idx"]), Fraction(e["re"]) / math.prod(
        math.factorial(k) for k in e["idx"])) for e in op["symbol"]]
    cutoff = init["cutoff"]
    x = {tuple(e["idx"]): Fraction(e["re"]) for e in init["coeffs"]}
    r = task["m"] * task["epsilon"]
    out = []
    for step in range(task["steps"] + 1):
        if step:
            y: dict[tuple, Fraction] = {}
            for idx, c in x.items():
                for order, w in symbol:
                    if all(i >= o for i, o in zip(idx, order)):
                        m = tuple(i - o for i, o in zip(idx, order))
                        y[m] = y.get(m, 0) + w * c * math.prod(
                            math.perm(i, o) for i, o in zip(idx, order))
                up = list(idx)
                up[axis - 1] += 1
                if sum(up) <= cutoff:
                    y[tuple(up)] = y.get(tuple(up), 0) - a * c
            x = {k: v for k, v in y.items() if v}
        out.append(sum(abs(float(c)) * r ** sum(idx) for idx, c in x.items()))
    return out
