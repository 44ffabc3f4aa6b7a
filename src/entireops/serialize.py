"""Scenario reading and deterministic report text.

Every scenario object is read by one reader, ``read_object``, from its key
table (key -> parser and default); the errors name the key and the object.
The value parsers here (integers, finite floats, ``[re, im]`` pairs) serve
the scenario keys and the subcommand flags alike, and the readers turn
series literals, CR operators and kernel problems into library objects.
The task runners
in ``cli`` build each report as a dict; the two writers here emit
it: ``to_json_text`` writes keys in insertion order, and ``to_csv_text``
writes a header and rows.  Both write a scalar by one rule, ``_scalar_text``
(floats with 17 significant digits, non-finite ones refused; strings quoted
by ``json.encoder.encode_basestring_ascii``, the function ``json.dumps``
calls), so the emitted text is bytewise reproducible for equal inputs.
``to_json_text`` checks a value's exact type first: an exact builtin int,
or finite float, it writes in place in that rule's format; a dict, list or
tuple it walks; anything else goes to ``_scalar_text``.  Keys are quoted
by the same function as strings.
"""

from __future__ import annotations

import io
import math
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterable, Mapping

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
    digits = isinstance(value, str) and value.strip().removeprefix("-").isdecimal()
    if isinstance(value, bool) or not (exact or digits or isinstance(value, int)):
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def scenario_bool(value: Any) -> bool:
    """A JSON ``true`` or ``false``; anything else is a ValueError."""
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _finite(value: Any) -> float:
    """Parser of every float a scenario or a flag gives: bools, inf and NaN are refused."""
    if isinstance(value, bool):
        raise ValueError(f"must be a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {x}")
    return x


def _positive(value: Any) -> float:
    x = _finite(value)
    if not x > 0:
        raise ValueError(f"must be positive, got {x}")
    return x


def _int_from(low: int):
    """Parser of an integer that must be at least ``low``."""

    def parse(value: Any) -> int:
        n = scenario_int(value)
        if n < low:
            raise ValueError(f"must be >= {low}, got {n}")
        return n

    return parse


_natural = _int_from(0)
_count = _int_from(1)


def _list_of(parse: Any) -> Any:
    return lambda value: [parse(v) for v in value]


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


def _pair(key: str) -> Any:
    return lambda value: _finite_complex(value, key)


# ---------------------------------------------------------------------------
# scenario objects
# ---------------------------------------------------------------------------

#: marks a key that every object of its kind must give
REQUIRED = object()

#: key -> (parser, default) of one kind of scenario object.  A tuple parser
#: lists the allowed values, and a None parser keeps the value as given; a
#: REQUIRED default marks a mandatory key.
Schema = Mapping[str, tuple[Any, Any]]


def read_object(
    obj: Any, schema: Schema, where: str, fit: Callable[[str, Any], Any] | None = None
) -> dict[str, Any]:
    """Every key of a scenario object, parsed, with absent keys defaulted.

    The one reader of a scenario object: the header, the generator, a task,
    an operator, a kernel problem, a series literal and a coefficient entry.
    A value that is not an object, an unknown or missing key, or a value its
    parser refuses is a ScenarioError naming the key and ``where``.  ``fit``,
    if given, sees every key's value, given or default, and returns the
    value to keep; it checks the value against the object's context.
    """
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be an object, got {obj!r}")
    for key in obj:
        if key not in schema:
            raise ScenarioError(f"unknown key {key!r} in {where}; expected one of {tuple(schema)}")
    values = {}
    for key, (parse, default) in schema.items():
        if key not in obj and default is REQUIRED:
            raise ScenarioError(f"missing key {key!r} in {where}")
        value = obj.get(key, default)
        try:
            if isinstance(parse, tuple) and value not in parse:
                raise ValueError(f"expected one of {parse}")
            if key in obj and callable(parse):
                value = parse(value)
            if fit is not None:
                value = fit(key, value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"bad {key!r} in {where}: {exc}") from exc
        values[key] = value
    return values


COEFFICIENT_KEYS: Schema = {
    "idx": (lambda idx: tuple(map(scenario_int, idx)), REQUIRED),
    "re": (None, REQUIRED),  # both parts are read as one pair, by _finite_complex
    "im": (None, 0.0),
}


def _coefficient(entry: Any) -> tuple[Index, complex]:
    e = read_object(entry, COEFFICIENT_KEYS, "coefficient entry")
    return e["idx"], _finite_complex((e["re"], e["im"]), f"coefficient at index {list(e['idx'])}")


def coeffs_from_json(entries: Iterable[Mapping]) -> list[tuple[Index, complex]]:
    """(index, coefficient) pairs of ``{"idx", "re", "im"}`` entries, in order."""
    return [_coefficient(e) for e in entries]


SERIES_KEYS: Schema = {
    "dim": (scenario_int, REQUIRED),
    "cutoff": (scenario_int, REQUIRED),
    "polynomial": (scenario_bool, REQUIRED),
    "coeffs": (coeffs_from_json, REQUIRED),
}


def series_from_json(obj: Any) -> TruncatedSeries:
    s = read_object(obj, SERIES_KEYS, "series literal")
    return make_series(s["dim"], s["cutoff"], s["coeffs"], s["polynomial"])


OPERATOR_KEYS: Schema = {
    "dim": (scenario_int, REQUIRED),
    "axis": (scenario_int, REQUIRED),
    "a": (_pair('"a"'), REQUIRED),
    "symbol": (coeffs_from_json, REQUIRED),
}


def cr_operator_from_json(obj: Any) -> CROperator:
    op = read_object(obj, OPERATOR_KEYS, "operator")
    return CROperator(op["dim"], op["axis"], op["a"], ConvolutionSymbol(op["dim"], op["symbol"]))


#: a given ``degree`` must be an integer >= 0 and is not stored
PROBLEM_KEYS: Schema = {
    "charpoly": (_list_of(_pair('"charpoly"')), REQUIRED),
    "a": (_pair('"a"'), REQUIRED),
    "seeds": (_list_of(_pair('"seeds"')), REQUIRED),
    "degree": (_natural, 0),
}


def problem_from_json(obj: Any) -> AxisKernelProblem:
    p = read_object(obj, PROBLEM_KEYS, "kernel problem")
    return AxisKernelProblem(charpoly=p["charpoly"], a=p["a"], seeds=p["seeds"])


# ---------------------------------------------------------------------------
# deterministic report text
# ---------------------------------------------------------------------------


#: every float the writers emit has 17 significant digits
_FLOAT_FORMAT = ".17g"

#: the values ``to_json_text`` walks into; every other value is a scalar
_CONTAINERS = (dict, list, tuple)


def _scalar_text(value: Any) -> str:
    """JSON text of a scalar: null, a bool, an int, a 17-digit float or a string.

    The one statement of the scalar rule.  A string is quoted by
    ``encode_basestring_ascii``, the function ``json.dumps`` calls; a
    non-finite float, or a value of any other type, is refused.
    """
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):  # an int subclass (an IntEnum member) as its number
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite float {value} cannot be serialized")
        return format(value, _FLOAT_FORMAT)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def to_csv_text(header: Iterable[str], rows: Iterable[Iterable[Any]]) -> str:
    """CSV text of rows by the ``csv`` module: None is an empty cell, other non-strings JSON text."""
    import csv  # here, not at module level: a JSON run never loads it

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
    a list of scalars only (the empty list too) on one line.

    A scalar that is an exact builtin int, or a finite exact builtin float,
    is written in place in ``_scalar_text``'s format; every other scalar
    goes through ``_scalar_text``.  A key is quoted by
    ``encode_basestring_ascii``, as ``json.dumps`` quotes it.  A list's item
    texts are built in the pass that decides whether it fits on one line.
    """
    out: list[str] = []

    def walk(value: Any, pad: str) -> None:
        inner = pad + "  "
        if isinstance(value, dict):
            sep = "{\n"
            for k, v in value.items():
                if not isinstance(k, str):
                    raise TypeError(f"JSON object keys must be strings, got {k!r}")
                key = f"{sep}{inner}{encode_basestring_ascii(k)}: "
                sep = ",\n"
                t = type(v)
                if t is float and math.isfinite(v):
                    out.append(key + format(v, _FLOAT_FORMAT))
                elif t is int:
                    out.append(key + repr(v))
                elif isinstance(v, _CONTAINERS):
                    out.append(key)
                    walk(v, inner)
                else:
                    out.append(key + _scalar_text(v))
            out.append(f"\n{pad}}}" if value else "{}")
        elif isinstance(value, (list, tuple)):
            texts = []
            for v in value:
                t = type(v)
                if t is float and math.isfinite(v):
                    texts.append(format(v, _FLOAT_FORMAT))
                elif t is int:
                    texts.append(repr(v))
                elif isinstance(v, _CONTAINERS):
                    break
                else:
                    texts.append(_scalar_text(v))
            else:
                out.append(f"[{', '.join(texts)}]")
                return
            # an item is a container: every item on its own line
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
