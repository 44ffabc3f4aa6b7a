"""Fresh-process probe: set-up time and the first round with cold caches.

    python3 perfbench/cold.py <workload> <seed> <label>=<source> ...

Set-up is importing ``entireops`` and loading every scenario of the
workload; the first round follows it.  Before the set-up clock starts only
``sys``, ``time``, the calibration kernel and numpy are loaded.  numpy is
preloaded because its import time, which the program does not control,
switched between about 70 and 130 ms for minutes at a time on a shared
2-vCPU Xeon host and swamped the program's own 50 ms.  Prints one JSON line
with the raw ``setup_s`` and ``first_round_s``, the mean of the
calibrations run before set-up and after the round, and the output check
of that round.
"""

import sys
import time


def main(argv: list[str]) -> int:
    here = sys.path[0]
    sys.path.insert(0, here + "/../src")
    import numpy  # noqa: F401 - a dependency whose import time the program does not set
    import speed

    calibration = speed.calibrate()
    t0 = time.perf_counter()
    import entireops.cli as cli

    sources = [tuple(arg.split("=", 1)) for arg in argv[2:]]
    for _, source in sources:
        cli.load_scenario(source)
    setup_s = time.perf_counter() - t0

    import json

    import workloads

    workload, seed = argv[0], int(argv[1])
    first_round_s, outputs = workloads.run_round(cli, sources)
    calibration = (calibration + speed.calibrate()) / 2
    tally = workloads.check_round(workload, seed, outputs)
    print(json.dumps({
        "setup_s": setup_s,
        "first_round_s": first_round_s,
        "calibration_s": calibration,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "unexpected": tally.unexpected,
        "known": sorted(tally.known),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
