"""Layer tracing from outside the program.

The layers are the modules of ``entireops``.  :class:`Tracer` wraps each
layer's public functions and installs every wrapper in every ``entireops``
module namespace that holds the original, because the modules import each
other by name (``from .series import differentiate``).  The task runners are
wrapped in the CLI's dispatch table as ``cli.task.<kind>``.

Each call records a span (name, start, end, parent span, round id) in
memory; :meth:`Tracer.write` saves them when the benchmark ends.  Self time
is a span's duration minus the time its child spans cover.  Counters sit at
the same boundaries: ``TruncatedSeries`` constructions, span-matrix cells,
report bytes, and exceptions leaving a layer.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("series", "operators", "kernel", "completeness", "fhc", "orbit", "serialize", "cli")

#: scalar helpers called once per coefficient or as sort keys.  Wrapping them
#: would mostly time the wrapper; their cost stays in their callers' self time.
UNWRAPPED = {
    "series": {"index_order", "index_factorial", "index_binomial",
               "falling_factorial", "graded_key"},
}

#: per-layer metrics reported by a traced run: (name, unit, kind, span or counter)
#: kind "calls", "self_s" and "total_s" read the spans; "count" reads a counter.
METRICS = [
    ("series.differentiate.calls", "count", "calls", "series.differentiate"),
    ("series.differentiate.self_s", "s", "self_s", "series.differentiate"),
    ("series.coefficient_vector.self_s", "s", "self_s", "series.coefficient_vector"),
    ("series.monomial_basis.calls", "count", "calls", "series.monomial_basis"),
    ("series.translate.self_s", "s", "self_s", "series.translate"),
    ("series.linear_combine.self_s", "s", "self_s", "series.linear_combine"),
    ("series.multiply_coordinate.self_s", "s", "self_s", "series.multiply_coordinate"),
    ("series.TruncatedSeries.new", "count", "count", "series.TruncatedSeries.new"),
    ("series.seminorm_bound.self_s", "s", "self_s", "series.seminorm_bound"),
    ("operators.verify_commutation.total_s", "s", "total_s", "operators.verify_commutation"),
    ("operators.apply_cr_operator.calls", "count", "calls", "operators.apply_cr_operator"),
    ("kernel.joint_kernel.calls", "count", "calls", "kernel.joint_kernel"),
    ("kernel.joint_kernel.self_s", "s", "self_s", "kernel.joint_kernel"),
    ("completeness.derivative_span.total_s", "s", "total_s", "completeness.derivative_span"),
    ("completeness.rank_report.self_s", "s", "self_s", "completeness.rank_report"),
    ("completeness.span_cells", "count", "count", "completeness.span_cells"),
    ("fhc.convergence_report.total_s", "s", "total_s", "fhc.convergence_report"),
    ("fhc.apply_raising.calls", "count", "calls", "fhc.apply_raising"),
    ("orbit.iterate_orbit.total_s", "s", "total_s", "orbit.iterate_orbit"),
    ("orbit.measure_visits.total_s", "s", "total_s", "orbit.measure_visits"),
    ("serialize.report_to_dict.self_s", "s", "self_s", "serialize.report_to_dict"),
    ("serialize.to_json_text.self_s", "s", "self_s", "serialize.to_json_text"),
    ("serialize.report_bytes", "count", "count", "serialize.report_bytes"),
    ("cli.load_scenario.total_s", "s", "total_s", "cli.load_scenario"),
]
#: written out rather than read from the program, so metric names stay fixed
TASK_KINDS = ("verify-cr", "kernel", "complete", "approximate", "fhc", "orbit")
METRICS += [(f"cli.task.{k}.total_s", "s", "total_s", f"cli.task.{k}") for k in TASK_KINDS]
METRICS += [(f"{layer}.errors", "count", "count", f"{layer}.errors") for layer in LAYERS]


class Tracer:
    """Spans and counters for one benchmark process.

    Wrappers are built once; :meth:`install` and :meth:`uninstall` swap them
    in and out, so traced and untraced rounds can alternate in one process.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._layer_of: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_round = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.round_id = -1
        self.counters: dict[int, dict[str, int]] = {}
        self._swaps: list[tuple[object, str, object, object]] = []
        self._build()

    # -- wrappers ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
            self._layer_of.append(name.split(".", 1)[0])
        return self._name_id[name]

    def count(self, name: str, n: int = 1) -> None:
        bucket = self.counters.setdefault(self.round_id, {})
        bucket[name] = bucket.get(name, 0) + n

    def _wrap(self, name: str, fn, after=None):
        nid = self._nid(name)
        layer = self._layer_of[nid]
        names, parents, rounds = self.span_name, self.span_parent, self.span_round
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            parent = stack[-1]
            names.append(nid)
            parents.append(parent)
            rounds.append(self.round_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if parent < 0 or self._layer_of[names[parent]] != layer:
                    self.count(f"{layer}.errors")
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _build(self) -> None:
        import entireops.cli as cli
        from entireops import series

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "entireops"]
        for layer in LAYERS:
            mod = sys.modules[f"entireops.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not callable(fn) or isinstance(fn, type)
                        or getattr(fn, "__module__", None) != mod.__name__
                        or attr in UNWRAPPED.get(layer, ())):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn, self._after(layer, attr))
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is fn:
                            self._swaps.append((m, name, fn, wrapper))
        for kind, fn in list(cli._RUNNERS.items()):
            self._swaps.append((cli._RUNNERS, kind, fn, self._wrap(f"cli.task.{kind}", fn)))

        post_init = series.TruncatedSeries.__post_init__

        def counted_post_init(obj):
            self.count("series.TruncatedSeries.new")
            post_init(obj)

        self._swaps.append((series.TruncatedSeries, "__post_init__", post_init, counted_post_init))

    def _after(self, layer: str, attr: str):
        if layer == "completeness" and attr in ("derivative_span", "translate_span"):
            return lambda span: self.count("completeness.span_cells", span.matrix.size)
        if layer == "serialize" and attr == "to_json_text":
            return lambda text: self.count("serialize.report_bytes", len(text.encode()))
        return None

    def install(self) -> None:
        for target, name, _, wrapper in self._swaps:
            _set(target, name, wrapper)

    def uninstall(self) -> None:
        for target, name, original, _ in self._swaps:
            _set(target, name, original)

    # -- results ----------------------------------------------------------

    def per_round(self) -> dict[int, dict[str, float]]:
        """Per round: ``<span>.calls``, ``<span>.self_s``, ``<span>.total_s`` and counters."""
        name, parent, rnd = self._ints()
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - covered
        out: dict[int, dict[str, float]] = {}
        for r in sorted(set(rnd.tolist()) | set(self.counters)):
            sel = rnd == r
            n = len(self.names)
            calls = np.bincount(name[sel], minlength=n)
            total = np.bincount(name[sel], weights=dur[sel], minlength=n)
            self_s = np.bincount(name[sel], weights=own[sel], minlength=n)
            row: dict[str, float] = dict(self.counters.get(r, {}))
            for i, nm in enumerate(self.names):
                row[f"{nm}.calls"] = int(calls[i])
                row[f"{nm}.total_s"] = float(total[i])
                row[f"{nm}.self_s"] = float(self_s[i])
            out[r] = row
        return out

    def metrics(self, scale: dict[int, float]) -> dict[str, dict]:
        """Median over rounds of every per-layer metric in ``METRICS``.

        ``scale`` maps each round to count to the factor its times are
        multiplied by (the speed normalization of that round).
        """
        table = self.per_round()
        out = {}
        for metric, unit, kind, source in METRICS:
            key = source if kind == "count" else f"{source}.{kind}"
            if unit == "s":
                value = statistics.median(
                    table.get(r, {}).get(key, 0) * f for r, f in scale.items())
            else:
                value = statistics.median_low(table.get(r, {}).get(key, 0) for r in scale)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path: Path) -> None:
        """Save every span (name, start, end, parent, round) and the counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        name, parent, rnd = self._ints()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            start=np.asarray(self.span_start),
            end=np.asarray(self.span_end),
            parent=parent,
            round=rnd,
            counters=np.array(json.dumps(self.counters)),
        )

    def _ints(self):
        return (np.asarray(self.span_name, dtype=np.int32),
                np.asarray(self.span_parent, dtype=np.int32),
                np.asarray(self.span_round, dtype=np.int32))


def _set(target, name, value) -> None:
    if isinstance(target, dict):
        target[name] = value
    else:
        setattr(target, name, value)
