"""JSON wire formats and deterministic report emission.

Emission rules: stable field ordering (keys are written in insertion
order, and every builder here inserts them in a fixed order), floats
printed with 17 significant digits, index lists graded-lex sorted.  The
emitted text is therefore bytewise reproducible for equal inputs.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable, Mapping

from .completeness import ApproximationResult, CompletenessReport
from .fhc import ConvergenceReport
from .kernel import AxisKernelProblem, KernelReport
from .operators import CommutationReport, ConvolutionSymbol, CROperator
from .orbit import OrbitRecord
from .series import Index, TruncatedSeries, make_series


class ScenarioError(ValueError):
    """Scenario or run request refused: bad schema or value, or a format its report lacks."""


# ---------------------------------------------------------------------------
# value forms
# ---------------------------------------------------------------------------


def _pair(c: complex) -> list[float]:
    c = complex(c)
    return [c.real, c.imag]


def _coeff_entries(pairs: Iterable[tuple[Index, complex]]) -> list[dict]:
    """Entries for (index, coefficient) pairs already in graded-lex order."""
    return [{"idx": list(idx), "re": c.real, "im": c.imag} for idx, c in pairs]


def series_to_json(f: TruncatedSeries) -> dict:
    return {
        "dim": f.dim,
        "cutoff": f.cutoff,
        "polynomial": f.is_polynomial,
        "coeffs": _coeff_entries(f.terms()),
    }


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def scenario_int(value: Any) -> int:
    """An integer given by a scenario or a flag; anything else is a ValueError.

    A JSON integer, a flag's digit string, or an integral float below 2^53
    in magnitude (past it a float is not one exact integer); not a bool.
    """
    exact = isinstance(value, float) and value.is_integer() and abs(value) < 2.0**53
    if isinstance(value, bool) or not (exact or isinstance(value, (int, str))):
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def scenario_bool(value: Any) -> bool:
    """A JSON ``true`` or ``false``; anything else is a ValueError."""
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def check_keys(obj: Any, keys: tuple[str, ...], where: str) -> None:
    """The one check that a scenario object is an object with only the given keys."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be an object, got {obj!r}")
    for key in obj:
        if key not in keys:
            raise ScenarioError(f"unknown key {key!r} in {where}; expected one of {keys}")


def _finite_complex(pair: Any, key: str) -> complex:
    """The complex number of one ``[re, im]`` pair read from a scenario.

    Every pair a scenario holds is read here.  Anything but two numbers, or
    a non-finite part (JSON reads ``1e400`` as inf), is a ScenarioError that
    names the key.
    """
    shaped = isinstance(pair, (list, tuple)) and len(pair) == 2
    if not (shaped and all(map(_is_number, pair))):
        raise ScenarioError(f"{key} must be a pair of two numbers, got {pair!r}")
    c = complex(*pair)
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise ScenarioError(f"non-finite {key}: {c}")
    return c


def coeffs_from_json(entries: Iterable[Mapping]) -> list[tuple[Index, complex]]:
    """(index, coefficient) pairs of ``{"idx", "re", "im"}`` entries, in order."""
    pairs = []
    for e in entries:
        check_keys(e, ("idx", "re", "im"), "coefficient entry")
        idx = tuple(map(scenario_int, e["idx"]))
        key = f"coefficient at index {list(idx)}"
        pairs.append((idx, _finite_complex((e["re"], e.get("im", 0.0)), key)))
    return pairs


def series_from_json(obj: Mapping) -> TruncatedSeries:
    check_keys(obj, ("dim", "cutoff", "polynomial", "coeffs"), "series literal")
    entries = coeffs_from_json(obj["coeffs"])
    return make_series(
        scenario_int(obj["dim"]),
        scenario_int(obj["cutoff"]),
        entries,
        scenario_bool(obj["polynomial"]),
    )


def symbol_to_json(sym: ConvolutionSymbol) -> list[dict]:
    return _coeff_entries(sym.bcoeffs.items())


def cr_operator_to_json(op: CROperator) -> dict:
    return {
        "dim": op.dim,
        "axis": op.axis,
        "a": _pair(op.a),
        "symbol": symbol_to_json(op.conv),
    }


def cr_operator_from_json(obj: Mapping) -> CROperator:
    check_keys(obj, ("dim", "axis", "a", "symbol"), "operator")
    dim = scenario_int(obj["dim"])
    return CROperator(
        dim=dim,
        axis=scenario_int(obj["axis"]),
        a=_finite_complex(obj["a"], '"a"'),
        conv=ConvolutionSymbol(dim, coeffs_from_json(obj["symbol"])),
    )


def problem_to_json(p: AxisKernelProblem) -> dict:
    return {
        "charpoly": [_pair(c) for c in p.charpoly],
        "a": _pair(p.a),
        "seeds": [_pair(s) for s in p.seeds],
    }


def problem_from_json(obj: Mapping) -> AxisKernelProblem:
    """An axis problem; a given ``degree`` must be an integer >= 0 and is not stored."""
    check_keys(obj, ("charpoly", "a", "seeds", "degree"), "kernel problem")
    degree = scenario_int(obj.get("degree", 0))
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    return AxisKernelProblem(
        charpoly=tuple(_finite_complex(c, '"charpoly"') for c in obj["charpoly"]),
        a=_finite_complex(obj["a"], '"a"'),
        seeds=tuple(_finite_complex(s, '"seeds"') for s in obj["seeds"]),
    )


# ---------------------------------------------------------------------------
# report payloads
# ---------------------------------------------------------------------------


def report_to_dict(report: Any) -> dict:
    """Fixed-key-order payload for each report type."""
    if isinstance(report, CommutationReport):
        pairs = [
            {"op_axis": j, "partial_axis": k, "residual": r}
            for (j, k), r in sorted(report.residuals.items())
        ]
        return {
            "probe_degree": report.probe_degree,
            "residuals": pairs,
            "max_residual": report.max_residual,
            "tolerance": report.tolerance,
            "passed": report.passed,
        }
    if isinstance(report, KernelReport):
        return {
            "axes": list(report.axes),
            "residuals": list(report.residuals),
            "max_residual": report.max_residual,
            "tolerance": report.tolerance,
            "passed": report.passed,
        }
    if isinstance(report, CompletenessReport):
        return {
            "rank": report.rank,
            "ambient": report.ambient_dim,
            "complete_at_truncation": report.complete_at_truncation,
            "N": report.truncation,
            "max_order": report.max_order,
            "tolerance": report.tolerance,
            "diagnostics": list(report.singular_values),
        }
    if isinstance(report, ApproximationResult):
        return {
            "orders": [list(n) for n in report.orders],
            "coefficients": [_pair(c) for c in report.coefficients],
            "residual": report.residual,
        }
    if isinstance(report, ConvergenceReport):
        return {
            "axis": report.axis,
            "m": report.m,
            "epsilon": report.epsilon,
            "bound": report.bound,
            "u": list(report.u),
            "ratios": list(report.ratios),
            "kth_roots": list(report.kth_roots),
            "partial_sums": list(report.partial_sums),
            "stable": report.stable,
        }
    if isinstance(report, OrbitRecord):
        return {
            "steps": report.steps,
            "hits": list(report.hits) if report.hits is not None else [],
            "density_proxy": report.density_proxy,
            "distances": list(report.distances) if report.distances is not None else [],
        }
    raise TypeError(f"no JSON payload defined for {type(report).__name__}")


def report_to_csv(report: Any) -> str:
    """CSV body for the report kinds that have a tabular profile.

    Any other kind raises ScenarioError: the request does not fit the task.
    A non-finite number raises ValueError, as in JSON text.
    """
    if isinstance(report, CompletenessReport):
        lines = ["index,singular_value"]
        for i, s in enumerate(report.singular_values):
            lines.append(f"{i},{_fmt_float(s)}")
        return "\n".join(lines) + "\n"
    if isinstance(report, ConvergenceReport):
        lines = ["k,u,ratio"]
        for k, u in enumerate(report.u):
            ratio = "" if k == 0 or report.ratios[k - 1] is None else _fmt_float(
                report.ratios[k - 1]
            )
            lines.append(f"{k},{_fmt_float(u)},{ratio}")
        return "\n".join(lines) + "\n"
    if isinstance(report, OrbitRecord):
        raise ScenarioError("csv unsupported for complex series")
    raise ScenarioError(f"csv unsupported for {type(report).__name__}")


# ---------------------------------------------------------------------------
# deterministic JSON text
# ---------------------------------------------------------------------------


def _fmt_float(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite float {v} cannot be serialized")
    return format(v, ".17g")


#: spaces per nesting level of the emitted JSON
INDENT = 2


def to_json_text(value: Any) -> str:
    """Serialize with insertion-order keys and 17-significant-digit floats."""
    out: list[str] = []
    _write_json(value, out, 0)
    out.append("\n")
    return "".join(out)


def _write_json(value: Any, out: list[str], level: int) -> None:
    pad = " " * (INDENT * (level + 1))
    close_pad = " " * (INDENT * level)
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, int):
        out.append(repr(value))
    elif isinstance(value, float):
        out.append(_fmt_float(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(value.items()):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            out.append(f"{pad}{json.dumps(k)}: ")
            _write_json(v, out, level + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(f"{close_pad}}}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        flat = all(
            isinstance(v, (int, float, str, bool, type(None))) for v in value
        )
        if flat:
            parts = []
            for v in value:
                sub: list[str] = []
                _write_json(v, sub, 0)
                parts.append("".join(sub))
            out.append("[" + ", ".join(parts) + "]")
            return
        out.append("[\n")
        for i, v in enumerate(value):
            out.append(pad)
            _write_json(v, out, level + 1)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(f"{close_pad}]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")
