"""Record the reference reports the output check compares against.

    python3 perfbench/record.py

Writes ``ref/bundled/<name>.txt`` (the five bundled scenarios) and
``ref/ladder/<label>.txt`` (the ladder workload at ``DEFAULT_SEED``).  Run it
only at a commit whose reports are the contract; the files in the tree were
recorded at the seed commit of the benchmark.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import entireops.cli as cli  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    for workload in ("bundled", "ladder"):
        sources = workloads.write_inputs(
            workload, workloads.DEFAULT_SEED, HERE.parent / ".perfbench_out" / "inputs")
        _, outputs = workloads.run_round(cli, sources)
        out_dir = workloads.REF / workload
        out_dir.mkdir(parents=True, exist_ok=True)
        for label, _, text in outputs:
            if isinstance(text, BaseException):
                raise text
            (out_dir / f"{label}.txt").write_text(text)
            print(f"recorded {workload}/{label}: {len(text)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
