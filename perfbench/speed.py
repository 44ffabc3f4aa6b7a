"""Machine-speed calibration for the benchmark's timings.

The speed of a shared machine drifts: on a shared 2-vCPU Xeon host the
same warm round took 0.42 s in one 15-second window and 0.71 s a minute
later, and a fixed pure-Python loop slowed by the same factor.  Every
timing is therefore paired with :func:`calibrate`, run next to it, and
reported rescaled to the speed at which the calibration kernel takes
``REFERENCE_S``:

    normalized = measured * REFERENCE_S / calibration

The kernel does the kind of work the program does (tuple keys, dict
updates, float arithmetic, a sort) and never calls the program, so a change
to the program cannot move it.  Raw wall times are printed beside the
normalized ones.
"""

import time

#: calibration time that defines the reference speed
REFERENCE_S = 0.004
#: repetitions per calibration; the fastest is the calibration time, which
#: discards a repetition that an interrupt or a page fault slowed down
REPEATS = 5


def _kernel() -> None:
    table: dict = {}
    for i in range(6000):
        key = (i % 17, i % 13, i % 11)
        table[key] = table.get(key, 0.0) + i * 0.5
    sorted(table.items())


def calibrate() -> float:
    """Fastest wall time of ``REPEATS`` runs of the calibration kernel."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return min(times)


def normalize(seconds: float, calibration: float) -> float:
    return seconds * REFERENCE_S / calibration
