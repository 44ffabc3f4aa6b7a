"""Scenario reading and deterministic report text.

The readers turn scenario JSON into library objects (series literals, CR
operators, kernel problems) and refuse what does not fit.  The task runners
in ``cli`` build each report as an ordered dict; the two writers here emit
it: ``to_json_text`` writes keys in insertion order, and ``to_csv_text``
writes a header and rows.  Both write a scalar by one rule, ``_scalar_text``
(floats with 17 significant digits, non-finite ones refused), so the emitted
text is bytewise reproducible for equal inputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Any, Iterable, Mapping

from .kernel import AxisKernelProblem
from .operators import ConvolutionSymbol, CROperator
from .series import Index, TruncatedSeries, make_series


class ScenarioError(ValueError):
    """Scenario or run request refused: bad schema or value, or a format its report lacks."""


# ---------------------------------------------------------------------------
# value forms
# ---------------------------------------------------------------------------


def series_to_json(f: TruncatedSeries) -> dict:
    return {
        "dim": f.dim,
        "cutoff": f.cutoff,
        "polynomial": f.is_polynomial,
        "coeffs": [{"idx": list(n), "re": c.real, "im": c.imag} for n, c in f.terms()],
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


def cr_operator_from_json(obj: Mapping) -> CROperator:
    check_keys(obj, ("dim", "axis", "a", "symbol"), "operator")
    dim = scenario_int(obj["dim"])
    return CROperator(
        dim=dim,
        axis=scenario_int(obj["axis"]),
        a=_finite_complex(obj["a"], '"a"'),
        conv=ConvolutionSymbol(dim, coeffs_from_json(obj["symbol"])),
    )


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
# deterministic report text
# ---------------------------------------------------------------------------


def _fmt_float(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite float {v} cannot be serialized")
    return format(v, ".17g")


#: the values a one-line list may hold
_SCALARS = (type(None), bool, int, float, str)


def _scalar_text(value: Any) -> str:
    """JSON text of a scalar: null, a bool, an int, a 17-digit float or a string."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, float):
        return _fmt_float(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def to_csv_text(header: Iterable[str], rows: Iterable[Iterable[Any]]) -> str:
    """CSV text of rows by the ``csv`` module: None is an empty cell, other non-strings JSON text."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        ["" if v is None else v if isinstance(v, str) else _scalar_text(v) for v in row]
        for row in rows
    )
    return buf.getvalue()


def to_json_text(value: Any) -> str:
    """JSON text with insertion-order keys, two spaces of indent per level and
    a list of scalars only (the empty list too) on one line."""
    out: list[str] = []

    def walk(value: Any, pad: str) -> None:
        inner = pad + "  "
        if isinstance(value, dict):
            if not value:
                out.append("{}")
                return
            sep = "{\n"
            for k, v in value.items():
                if not isinstance(k, str):
                    raise TypeError(f"JSON object keys must be strings, got {k!r}")
                out.append(f"{sep}{inner}{json.dumps(k)}: ")
                walk(v, inner)
                sep = ",\n"
            out.append(f"\n{pad}}}")
        elif isinstance(value, (list, tuple)):
            if all(isinstance(v, _SCALARS) for v in value):
                out.append("[" + ", ".join(map(_scalar_text, value)) + "]")
                return
            sep = "[\n"
            for v in value:
                out.append(sep + inner)
                walk(v, inner)
                sep = ",\n"
            out.append(f"\n{pad}]")
        else:
            out.append(_scalar_text(value))

    walk(value, "")
    out.append("\n")
    return "".join(out)
