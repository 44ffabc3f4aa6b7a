"""Scenario benchmark of entireops, end to end and layer by layer.

    python3 perfbench/run.py --workload {bundled,span,ladder} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.  The
seed makes the generated inputs (see ``workloads.py``).  Every round runs
each scenario of the workload once through ``entireops.cli.run_scenario``
in this process, and every report of every round is checked.

``--trace 0`` measures the end-to-end metrics:

* ``setup_s``: import ``entireops`` (numpy already loaded, see
  ``cold.py``) and load every scenario, in a fresh process; median over
  ``COLD_PROCESSES`` processes.
* ``first_round_s``: the first round in each of those processes, caches
  cold; median.  Read it as a median only: a fresh process sometimes pays
  about a second extra in its first SVD.
* ``round_s``: median time of a warm round, rounds repeated for
  ``--seconds`` after one warm-up round.
* ``task_pass_ratio``: tasks whose report passed the check over tasks
  attempted, both printed; ``1 - task_pass_ratio`` is the task fail ratio.
* ``peak_rss_mb``: peak resident memory of this process.

Every time is speed-normalized by a calibration kernel run next to it
(``speed.py``); the ``detail`` line also gives the raw wall times.

``--trace 1`` alternates traced and untraced warm rounds for ``--seconds``
and reports the per-layer metrics of ``layertrace.METRICS`` (medians over
traced rounds) plus ``trace.overhead``, traced over untraced median round
time.  Spans are written to ``.perfbench_out/``.

Output: an ``env`` line (commit, versions, BLAS and its threads, nproc), a
``detail`` line (samples, quartiles, failures), and as the last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``failed`` counts every task whose report failed the check;
``correct`` is false when a task failed that ``workloads.KNOWN_DEFECTS``
does not list.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: fresh processes per run for setup_s and first_round_s
COLD_PROCESSES = 21
#: timed warm rounds per run, at least (more while --seconds lasts)
MIN_ROUNDS = 3
#: limit on one fresh-process probe
CHILD_TIMEOUT_S = 60


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "entireops" / "__init__.py").is_file():
        print(f"error: no entireops sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import entireops.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "entireops":
        print(f"error: imported entireops from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    sources = workloads.write_inputs(args.workload, args.seed, OUT / "inputs")
    print("env " + json.dumps(environment()), flush=True)
    tally = workloads.Tally()
    if args.trace:
        metrics, detail = traced_run(cli, args, sources, tally)
    else:
        metrics, detail = untraced_run(cli, args, sources, tally)
    detail.update(
        attempted=tally.attempted,
        failed=tally.failed,
        task_fail_ratio=f"{tally.failed}/{tally.attempted}",
        known_defects=sorted(tally.known),
        unexpected_failures=tally.unexpected[:20],
    )
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def warm_rounds(cli, args, sources, tally, before=None, after=None):
    """One checked warm-up round, then rounds until --seconds have passed.

    Returns ``(round, wall seconds, calibration)`` per timed round, where the
    calibration is the mean of those run just before and just after it.
    ``before(n)`` and ``after(n)`` run around round n, outside its clock.
    """
    _, outputs = workloads.run_round(cli, sources)
    tally.merge(workloads.check_round(args.workload, args.seed, outputs))
    timed = []
    calibration = speed.calibrate()
    start = time.perf_counter()
    n = 0
    while n < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        if before is not None:
            before(n)
        try:
            seconds, outputs = workloads.run_round(cli, sources)
        finally:
            if after is not None:
                after(n)
        following = speed.calibrate()
        timed.append((n, seconds, (calibration + following) / 2))
        calibration = following
        tally.merge(workloads.check_round(args.workload, args.seed, outputs))
        n += 1
    return timed


def untraced_run(cli, args, sources, tally):
    probes = [cold_probe(args, sources) for _ in range(COLD_PROCESSES)]
    for probe in probes:
        tally.attempted += probe["attempted"]
        tally.failed += probe["failed"]
        tally.unexpected.extend(probe["unexpected"])
        tally.known.update(probe["known"])
    timed = warm_rounds(cli, args, sources, tally)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def normalized(key):
        return [speed.normalize(p[key], p["calibration_s"]) for p in probes]

    setup, first = normalized("setup_s"), normalized("first_round_s")
    rounds = [speed.normalize(s, c) for _, s, c in timed]
    ratio = (tally.attempted - tally.failed) / tally.attempted
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "first_round_s": {"value": statistics.median(first), "unit": "s"},
        "round_s": {"value": statistics.median(rounds), "unit": "s"},
        "task_pass_ratio": {"value": ratio, "unit": "ratio"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    detail = {
        "round_s": summary(rounds),
        "setup_s": summary(setup),
        "first_round_s": summary(first),
        "raw_round_s": summary([s for _, s, _ in timed]),
        "raw_setup_s": summary([p["setup_s"] for p in probes]),
        "raw_first_round_s": summary([p["first_round_s"] for p in probes]),
        "calibration_s": summary([c for _, _, c in timed]),
    }
    return metrics, detail


def cold_probe(args, sources) -> dict:
    cmd = [sys.executable, str(HERE / "cold.py"), args.workload, str(args.seed)]
    cmd += [f"{label}={source}" for label, source in sources]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"fresh-process probe exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_run(cli, args, sources, tally):
    from layertrace import Tracer

    tracer = Tracer()

    def before(n):
        if n % 2:
            tracer.round_id = n
            tracer.install()

    def after(n):
        if n % 2:
            tracer.uninstall()
            tracer.round_id = -1

    timed = warm_rounds(cli, args, sources, tally, before, after)
    traced = {n: speed.REFERENCE_S / c for n, _, c in timed if n % 2}
    traced_s = [speed.normalize(s, c) for n, s, c in timed if n % 2]
    plain_s = [speed.normalize(s, c) for n, s, c in timed if not n % 2]
    metrics = tracer.metrics(traced)
    overhead = statistics.median(traced_s) / statistics.median(plain_s)
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    path = OUT / f"trace_{args.workload}_seed{args.seed}.npz"
    tracer.write(path)
    detail = {
        "traced_round_s": summary(traced_s),
        "untraced_round_s": summary(plain_s),
        "spans": len(tracer.span_name),
        "trace_file": str(path.relative_to(ROOT)),
    }
    return metrics, detail


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values),
            "min": min(values), "max": max(values)}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": openblas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "cold_processes": COLD_PROCESSES,
        "note": "setup_s and first_round_s are medians over fresh processes: one "
                "fresh process in three has paid about 1 s extra in its first SVD",
        "speed_reference_s": speed.REFERENCE_S,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "entireops").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def openblas_threads(np) -> int | None:
    """Thread count of the OpenBLAS numpy loaded, or None if it cannot be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


if __name__ == "__main__":
    sys.exit(main())
