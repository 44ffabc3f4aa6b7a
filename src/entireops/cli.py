"""Command-line front door: scenario files, task dispatch, report emission.

A scenario JSON file declares a dimension, an operator family, a generator
(either per-axis kernel problems or an explicit series literal) and a list
of tasks.  The header, the generator and each task are read by
``serialize.read_object`` from their key tables here (``SCENARIO_KEYS``,
``GENERATOR_KEYS``, ``TASK_PARAMS``).  A task subcommand's flags carry raw
strings into the same task reader, ``task_params``, so a flag and a file key
are parsed once, by one parser; ``--tolerance`` and ``--seed`` likewise reach
``RUN_OPTIONS`` as raw strings.  Tasks run in order, on one run path,
``_run``.  Each kind's runner builds its whole report as a dict, from its
record's ``_asdict()`` where the record's fields are the report's keys, and
``_run`` writes it to stdout or to ``--out`` as JSON by default or, for the
kinds in ``CSV_PROFILES``, as CSV rows read from that dict.

``execute_tasks`` runs a scenario's tasks one after another on the calling
thread: the library starts no thread, and no runner sets process-wide state
such as a warning filter.  Most of a large span task's time is its SVD,
which ``completeness`` makes in real arithmetic for a span of real data and
short side at least 64 (``completeness._singular_values``).

Exit codes: 0 all pass-type tasks passed, 1 a task failed or raised,
2 scenario/format errors (found before any task runs), 3 internal errors.
Output is bytewise reproducible for equal scenario + seed.
"""

from __future__ import annotations

import sys
import json
import math
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Any, NamedTuple, Sequence, TextIO

from .completeness import (
    derivative_span,
    approximate_target,
    rank_report,
    sample_box,
    translate_span,
)
from .fhc import LadderVector, _radius_floor, convergence_report
from .kernel import AxisKernelProblem, joint_kernel, verify_kernel
from .operators import CROperator, verify_commutation
from .orbit import iterate_orbit, measure_visits
from .serialize import (
    REQUIRED,
    Schema,
    ScenarioError,
    _count,
    _finite,
    _items,
    _list_of,
    _natural,
    _positive,
    coeffs_from_json,
    cr_operator_from_json,
    problem_from_json,
    read_object,
    scenario_bool,
    series_from_json,
    series_to_json,
    to_csv_text,
    to_json_text,
)
from .series import (
    SemiNormSpec,
    TruncatedSeries,
    _checked_layout,
    _checked_rows,
    _checked_translates,
    _size,
    term_table,
    with_cutoff,
    zero_series,
)

if TYPE_CHECKING:  # the command line imports argparse in build_parser
    import argparse

EXIT_OK = 0
EXIT_TASK_FAILED = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3

BUNDLED = ("gaussian1d", "gaussian2d", "airy2d", "remark3", "mixed")

DENSITY_DISCLAIMER = (
    "density_proxy is a finite-horizon PROXY: no finite run can certify a "
    "positive lower density of hitting times"
)


def _box(value: Any) -> tuple[float, float]:
    """A sample box ``[low, high]``: finite ends, ``low <= high`` and a finite width.

    The width's sign bit is read as ``sample_box`` reads it, so the box
    ``[0.0, -0.0]`` is refused here too.
    """
    low, high = map(_finite, _items(value))
    width = high - low
    if not (math.isfinite(width) and math.copysign(1.0, width) > 0):
        raise ValueError(f"high - low is {width}: the box needs low <= high and a finite width")
    return low, high


def _series_or_name(value: Any) -> TruncatedSeries | str:
    return value if value in ("generator", "zero") else series_from_json(value)


#: kind -> the key table of its task objects (besides "task").  The parsers
#: also hold the sign and range bounds that the library enforces.  A None
#: default is derived by the runner (from the scenario or the task's other
#: keys) or leaves an optional table or pass check unset.
TASK_PARAMS: dict[str, Schema] = {
    "verify-cr": {"probe_degree": (_natural, 8), "max_residual": (_finite, 1e-12)},
    "kernel": {"degree": (_natural, None), "max_residual": (_finite, 1e-12)},
    "complete": {
        "truncation": (_natural, REQUIRED),
        "max_order": (_natural, None),
        "mode": (("derivative", "translate"), "derivative"),
        "samples": (_count, None),
        "tolerance": (_positive, None),
        "box": (_box, (-1.0, 1.0)),
        "trajectory": (_list_of(_natural), None),
        "expect_complete": (scenario_bool, None),
        "expect_rank": (_natural, None),
    },
    "approximate": {
        "target": (series_from_json, REQUIRED),
        "truncation": (_natural, None),
        "max_order": (_natural, None),
        "max_residual": (_finite, 1e-10),
    },
    "fhc": {
        "terms": (coeffs_from_json, None),
        "axis": (_count, 1),
        "m": (_count, 1),
        "epsilon": (_positive, None),
        "kmax": (_count, 12),
        "realization_degree": (_natural, 6),
        "max_kth_root": (_finite, None),
    },
    "orbit": {
        "axis": (_count, 1),
        "steps": (_natural, 5),
        "delta": (_positive, 0.1),
        "m": (_count, 1),
        "epsilon": (_positive, 2.0),
        "degree": (_natural, None),
        "initial": (_series_or_name, "generator"),
        "target": (_series_or_name, "zero"),
        "min_density": (_finite, None),
        "max_density": (_finite, None),
    },
}

#: keys that only a scenario file sets; every other key has a subcommand flag
SCENARIO_ONLY = frozenset(
    {"tolerance", "box", "trajectory", "expect_complete", "expect_rank",
     "target", "terms", "initial", "min_density", "max_density"}
)

#: the complete task's keys that each mode refuses: the other mode alone reads them
_REFUSED = {"derivative": ("samples", "box"), "translate": ("max_order", "trajectory")}

TASK_KINDS = tuple(TASK_PARAMS)


def task_params(task: Any, scn: Scenario) -> dict[str, Any]:
    """Every parameter of a task object, parsed, with absent keys defaulted.

    The one resolver of a task, from a file or a subcommand, against the
    scenario it runs in: its dimension, whether its generator is a kernel
    one, and the axes of its operators.  Raises ScenarioError for an unknown
    kind, an unknown or missing key, a key its mode does not read
    (``_REFUSED``), a value its parser rejects, or a task that does not fit
    the scenario.
    """
    if not isinstance(task, dict):
        raise ScenarioError(f"task must be an object, got {task!r}")
    if "task" not in task:
        raise ScenarioError("missing key 'task' in task")
    kind = task["task"]
    if kind not in TASK_KINDS:
        raise ScenarioError(f"unknown task kind {kind!r}; expected one of {TASK_KINDS}")
    if kind in ("kernel", "fhc") and scn.kernel_problems is None:
        raise ScenarioError(f"{kind} task needs a kernel generator")

    def fit(key: str, value: Any) -> Any:
        if key == "terms" and value is not None:  # fhc labels, tabled in the dimension
            return term_table(scn.dimension, value)
        if key == "axis" and value not in [op.axis for op in scn.operators]:
            raise ValueError(f"no operator on axis {value}")
        if isinstance(value, TruncatedSeries) and value.dim != scn.dimension:
            raise ValueError(f"series of dim {value.dim} does not match dim {scn.dimension}")
        return value

    p = read_object(task, {"task": (None, REQUIRED), **TASK_PARAMS[kind]}, f"{kind} task", fit)
    if kind == "complete":
        for key in _REFUSED[p["mode"]]:
            if key in task:
                raise ScenarioError(f"bad {key!r} in complete task: not read in {p['mode']} mode")
    if kind == "complete" and p["trajectory"]:
        low = p["truncation"] - _given(p["max_order"], p["truncation"])
        if min(p["trajectory"]) < low:  # entry n runs derivative order n - low
            raise ScenarioError(f"bad 'trajectory' in complete task: entry "
                                f"{min(p['trajectory'])} is below truncation - max_order = {low}")
    return p


class Scenario(NamedTuple):
    dimension: int
    truncation: int
    tolerance: float
    rng_seed: int
    operators: list[CROperator]
    kernel_problems: list[AxisKernelProblem] | None
    explicit_generator: TruncatedSeries | None
    #: the task_params of each task, resolved against this scenario
    tasks: list[dict]


GENERATOR_KEYS: Schema = {
    "kernel": (_list_of(problem_from_json), None),
    "explicit": (series_from_json, None),
}

SCENARIO_KEYS: Schema = {
    "dimension": (_count, REQUIRED),
    "truncation": (_natural, REQUIRED),
    "tolerance": (_positive, 1e-8),
    "rng_seed": (_natural, 0),
    "operators": (_list_of(cr_operator_from_json), REQUIRED),
    "generator": (lambda value: read_object(value, GENERATOR_KEYS, "generator"), REQUIRED),
    "tasks": (_items, REQUIRED),  # each read by task_params
}


def _check_equation(problem: AxisKernelProblem, op: CROperator) -> None:
    """Refuse a kernel problem that is not the equation of the operator on its axis.

    ``T_j = sum_n (b_n / n!) D^n - a z_j`` states ``C(D_j) f = a z_j f`` only
    if its symbol lies on axis j; then ``a`` must be the problem's and
    ``charpoly[k]`` the stored ``b_(k e_j) / k!``, up to a relative 1e-12.
    """
    j = op.axis - 1
    off = [list(n) for _, n in op.conv.terms if sum(n) != n[j]]
    if off:
        raise ScenarioError(f"operator on axis {op.axis} has symbol term {off[0]} off its axis")
    symbol = {n[j]: c for (_, n), c in op.conv.terms.items()}
    stated = dict(enumerate(problem.charpoly))
    pairs = [(f"charpoly[{k}]", stated.get(k, 0j), symbol.get(k, 0j)) for k in {*stated, *symbol}]
    for key, given, want in [("a", problem.a, op.a), *pairs]:
        if abs(given - want) > 1e-12 * max(abs(given), abs(want)):
            raise ScenarioError(f"kernel problem on axis {op.axis} has {key} = {given}, not {want}")


def parse_scenario(obj: Any) -> Scenario:
    header = read_object(obj, SCENARIO_KEYS, "scenario")
    dimension, ops = header["dimension"], header["operators"]
    try:
        _checked_layout(dimension, header["truncation"])
    except ValueError as exc:
        raise ScenarioError(f"scenario too large: {exc}") from exc
    generator = header.pop("generator")
    kernel_problems, explicit = generator["kernel"], generator["explicit"]
    if (kernel_problems is None) == (explicit is None):
        raise ScenarioError('generator must contain one of "kernel" and "explicit"')
    for op in ops:
        if op.dim != dimension:
            raise ScenarioError(
                f"operator on axis {op.axis} has dim {op.dim}, scenario declares {dimension}"
            )
    if kernel_problems is not None:
        if len(kernel_problems) != dimension:
            raise ScenarioError(
                f"kernel generation needs one axis problem per coordinate: "
                f"got {len(kernel_problems)} for dimension {dimension}"
            )
        axes_covered = sorted(op.axis for op in ops)
        if axes_covered != list(range(1, dimension + 1)):
            raise ScenarioError(
                f"kernel generation needs one operator per axis, got axes {axes_covered}"
            )
        for op in ops:
            _check_equation(kernel_problems[op.axis - 1], op)
    elif explicit.dim != dimension:
        raise ScenarioError(
            f"explicit generator has dim {explicit.dim}, scenario declares {dimension}"
        )
    scn = Scenario(**header, kernel_problems=kernel_problems, explicit_generator=explicit)
    return scn._replace(tasks=[task_params(task, scn) for task in scn.tasks])


def load_scenario(source: str) -> Scenario:
    """Load from a filesystem path or a bundled scenario name.

    Bare names (``gaussian2d``) and ``scenarios/<name>.json`` paths fall
    back to the files shipped inside the package.
    """
    path = Path(source)
    name = path.stem if path == Path("scenarios", f"{path.stem}.json") else source
    if path.is_file():
        text = path.read_text()
    elif name in BUNDLED:
        text = (resources.files("entireops") / f"scenarios/{name}.json").read_text()
    else:
        raise ScenarioError(
            f"scenario {source!r} not found (bundled names: {', '.join(BUNDLED)})"
        )
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    return parse_scenario(obj)


def generator_series(scn: Scenario, degree: int) -> TruncatedSeries:
    """The scenario generator, exact out to the requested degree."""
    if scn.kernel_problems is not None:
        return joint_kernel(scn.kernel_problems, degree)
    f = scn.explicit_generator
    assert f is not None
    if not f.is_polynomial and f.exact_degree < degree:
        raise ValueError(
            f"explicit generator is exact to degree {f.exact_degree} but the "
            f"task needs {degree}"
        )
    return with_cutoff(f, degree)


def _span_generator(scn: Scenario, n: int, order: int) -> TruncatedSeries:
    """The generator exact to ``n + order``, solved once its derivative span fits the budget.

    The span's orders include the zero order, so this is the check of the
    span's own gather, made before the solve.
    """
    _checked_rows(scn.dimension, n + order, _size(scn.dimension, order), n, 0)
    return generator_series(scn, n + order)


def _series_argument(
    scn: Scenario, value: TruncatedSeries | str, degree: int
) -> TruncatedSeries:
    if value == "generator":
        return generator_series(scn, degree)
    if value == "zero":
        return zero_series(scn.dimension, degree)
    return value


def _given(value: Any, derived: Any) -> Any:
    """A task parameter's value, or the one derived for its None default."""
    return derived if value is None else value


# ---------------------------------------------------------------------------
# task runners: each takes task_params and returns (report payload, passed).
# The payload is the whole report of its kind after the "task" and "passed"
# keys, in the order it is written.
# ---------------------------------------------------------------------------


def _run_verify_cr(scn: Scenario, p: dict, ctx: dict):
    """Commutator residuals on monomials."""
    report = verify_commutation(
        scn.operators, p["probe_degree"], tolerance=p["max_residual"]
    )
    payload = {
        "probe_degree": report.probe_degree,
        "residuals": [
            {"op_axis": j, "partial_axis": k, "residual": r}
            for (j, k), r in sorted(report.residuals.items())
        ],
        "max_residual": report.max_residual,
        "tolerance": report.tolerance,
    }
    return payload, report.passed


def _run_kernel(scn: Scenario, p: dict, ctx: dict):
    """Solve and verify the joint kernel."""
    f = generator_series(scn, _given(p["degree"], scn.truncation))
    payload = verify_kernel(scn.operators, f, tolerance=p["max_residual"])._asdict()
    passed = payload.pop("passed")
    payload["series"] = series_to_json(f)
    return payload, passed


def _run_complete(scn: Scenario, p: dict, ctx: dict):
    """Derivative/translate span rank."""
    trunc = p["truncation"]
    max_order = _given(p["max_order"], trunc)
    tolerance = _given(ctx["tolerance"], _given(p["tolerance"], scn.tolerance))

    def derivative_report(n: int, order: int):
        return rank_report(derivative_span(_span_generator(scn, n, order), n, order), tolerance)

    if p["mode"] == "derivative":
        report = derivative_report(trunc, max_order)
    else:
        count = _given(p["samples"], 3 * _size(scn.dimension, trunc))
        samples = sample_box(scn.dimension, count, ctx["seed"], *p["box"])
        # an explicit polynomial is translated whole: its coefficients past
        # the truncation reach the low degrees of its translates.  Any other
        # generator is solved or cut to N, and that truncation is what is
        # translated as the polynomial it stores (translate_span refuses a
        # truncation).  The block's budget is checked before the solve.
        f = scn.explicit_generator
        whole = f is not None and f.is_polynomial
        _checked_translates(scn.dimension, f.cutoff if whole else trunc, count, trunc)
        if not whole:
            vector = generator_series(scn, trunc).vector
            f = TruncatedSeries(scn.dimension, trunc, trunc, True, vector)
        report = rank_report(translate_span(f, trunc, samples), tolerance)
    payload = {
        "rank": report.rank,
        "ambient": report.ambient_dim,
        "complete_at_truncation": report.complete_at_truncation,
        "N": report.truncation,
        "max_order": report.max_order,
        "tolerance": report.tolerance,
        "diagnostics": list(report.singular_values),
    }
    if p["trajectory"] is not None:
        offset = max_order - trunc
        reports = [derivative_report(n, n + offset) for n in p["trajectory"]]
        payload["trajectory"] = [
            {"N": r.truncation, "rank": r.rank, "ambient": r.ambient_dim,
             "complete_at_truncation": r.complete_at_truncation}
            for r in reports
        ]
    passed = True
    if p["expect_complete"] is not None:
        passed = report.complete_at_truncation == p["expect_complete"]
    if p["expect_rank"] is not None:
        passed = passed and report.rank == p["expect_rank"]
    return payload, passed


def _run_approximate(scn: Scenario, p: dict, ctx: dict):
    """Least-squares derivative combination."""
    target = p["target"]
    trunc = _given(p["truncation"], target.cutoff)
    max_order = _given(p["max_order"], trunc)
    result = approximate_target(_span_generator(scn, trunc, max_order), target, trunc, max_order)
    payload = result._asdict()
    payload["coefficients"] = [[c.real, c.imag] for c in result.coefficients]
    return payload, result.residual <= p["max_residual"]


def _run_fhc(scn: Scenario, p: dict, ctx: dict):
    """Ladder convergence diagnostics."""
    terms = _given(p["terms"], {(0,) * scn.dimension: 1.0})
    x = LadderVector(tuple(scn.kernel_problems), terms)
    spec = SemiNormSpec(m=p["m"], epsilon=_given(p["epsilon"], 2.0 * _radius_floor(x)))
    report = convergence_report(
        x, p["axis"], spec, p["kmax"], p["realization_degree"]
    )
    passed = report.stable
    if p["max_kth_root"] is not None:
        passed = passed and report.kth_roots[-1] <= p["max_kth_root"]
    return report._asdict(), passed


def _run_orbit(scn: Scenario, p: dict, ctx: dict):
    """Iterate an operator and report visits."""
    op = next(op for op in scn.operators if op.axis == p["axis"])
    x = _series_argument(scn, p["initial"], _given(p["degree"], scn.truncation))
    iterates = iterate_orbit(op, x, p["steps"])
    spec = SemiNormSpec(m=p["m"], epsilon=p["epsilon"])
    target = _series_argument(scn, p["target"], x.cutoff)
    visits = measure_visits(iterates, target, p["delta"], spec)
    passed = True
    if p["min_density"] is not None:
        passed = visits.density_proxy >= p["min_density"]
    if p["max_density"] is not None:
        passed = passed and visits.density_proxy <= p["max_density"]
    return {**visits._asdict(), "note": DENSITY_DISCLAIMER}, passed


_RUNNERS = {
    "verify-cr": _run_verify_cr,
    "kernel": _run_kernel,
    "complete": _run_complete,
    "approximate": _run_approximate,
    "fhc": _run_fhc,
    "orbit": _run_orbit,
}

#: kind -> (CSV header, the rows of a report payload); no other kind has CSV
CSV_PROFILES = {
    "complete": (
        ("index", "singular_value"),
        lambda payload: enumerate(payload["diagnostics"]),
    ),
    "fhc": (
        ("k", "u", "ratio"),
        lambda payload: zip(
            range(len(payload["u"])), payload["u"], [None, *payload["ratios"]]
        ),
    ),
}


#: overrides of the scenario's tolerance and rng_seed, read by the header's
#: parsers (the only parse of the --tolerance and --seed flags' raw strings);
#: a None default keeps the scenario's value
RUN_OPTIONS: Schema = {
    "tolerance": (SCENARIO_KEYS["tolerance"][0], None),
    "seed": (SCENARIO_KEYS["rng_seed"][0], None),
}


def execute_tasks(
    scn: Scenario,
    *,
    fmt: str = "json",
    tolerance: float | None = None,
    seed: int | None = None,
) -> tuple[int, list[tuple[str, str]]]:
    """Run the scenario's tasks in order; returns (exit code, [(task name, report text)]).

    The tasks are already resolved against ``scn`` by ``task_params``; task
    i runs with the seed ``rng_seed + i`` (``seed + i`` if given).  Before
    any task runs, the ``tolerance`` and ``seed`` overrides are read by the
    scenario keys' parsers and the format is checked: a CSV request for a
    task kind outside ``CSV_PROFILES`` is refused.
    """
    if fmt not in ("json", "csv"):
        raise ScenarioError(f"unsupported format {fmt!r}")
    overrides = (("tolerance", tolerance), ("seed", seed))
    options = read_object({k: v for k, v in overrides if v is not None}, RUN_OPTIONS, "run options")
    no_csv = [p["task"] for p in scn.tasks if fmt == "csv" and p["task"] not in CSV_PROFILES]
    if no_csv:
        raise ScenarioError(
            f"csv unsupported for the {no_csv[0]} task; csv covers {', '.join(CSV_PROFILES)}"
        )

    outputs: list[tuple[str, str]] = []
    all_passed = True
    for i, params in enumerate(scn.tasks):
        name = params["task"]
        ctx = {
            "tolerance": options["tolerance"],
            "seed": _given(options["seed"], scn.rng_seed) + i,
        }
        try:
            payload, passed = _RUNNERS[name](scn, params, ctx)
            # a report holding a non-finite number fails its task here
            if fmt == "json":
                text = to_json_text({"task": name, "passed": passed, **payload})
            else:
                header, rows = CSV_PROFILES[name]
                text = to_csv_text(header, rows(payload))
        except (ValueError, OverflowError) as exc:
            failed = {"task": name, "passed": False, "error": str(exc)}
            if fmt == "json":
                text = to_json_text(failed)
            else:
                text = to_csv_text(failed, [failed.values()])
            passed = False
        outputs.append((name, text))
        all_passed = all_passed and passed
    return (EXIT_OK if all_passed else EXIT_TASK_FAILED), outputs


def run_scenario(
    source: str,
    *,
    fmt: str = "json",
    out: str | None = None,
    tolerance: float | None = None,
    seed: int | None = None,
    stream: TextIO | None = None,
) -> int:
    """Load a scenario, run every task, and emit one report per task."""
    stream = stream if stream is not None else sys.stdout
    return _run(load_scenario(source), fmt, out, tolerance, seed, stream)


def _run(scn: Scenario, fmt: str, out: Any, tolerance: Any, seed: Any, stream: TextIO) -> int:
    """Refuse a non-directory ``out``, or one under a file, before any task runs."""
    for path in [Path(out), *Path(out).parents] if out is not None else []:
        if path.exists() and not path.is_dir():
            raise ScenarioError(f"--out {out}: {path} is not a directory")
    code, outputs = execute_tasks(scn, fmt=fmt, tolerance=tolerance, seed=seed)
    if out is not None:
        Path(out).mkdir(parents=True, exist_ok=True)
    digits = max(2, len(str(len(outputs) - 1)))  # names sort in task order
    for i, (name, text) in enumerate(outputs):
        if out is None:
            stream.write(text)
        else:
            Path(out, f"{i:0{digits}d}_{name}.{fmt}").write_text(text)
    return code


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scenario", help="scenario path or bundled name")
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )
    parser.add_argument("--out", default=None, help="write reports into a directory")
    # raw strings, parsed once by RUN_OPTIONS
    parser.add_argument("--tolerance", help="override rank tolerance")
    parser.add_argument("--seed", help="override rng seed")


def _describe(default: Any) -> str:
    if default is REQUIRED:
        return "required"
    if default is None:
        return "default: derived, or no check"
    return f"default: {default}"


def build_parser() -> argparse.ArgumentParser:
    """``run``, plus one subcommand per task kind with a flag per TASK_PARAMS key."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="entireops",
        description=(
            "operator calculus on truncated entire-function series: "
            "commutation checks, joint kernels, completeness ranks, "
            "convergence diagnostics and orbit statistics"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="Run every task of a scenario file.")
    _add_common(p)

    for kind, schema in TASK_PARAMS.items():
        p = sub.add_parser(kind, help=_RUNNERS[kind].__doc__)
        _add_common(p)
        if kind == "approximate":
            p.add_argument(
                "--target-monomial",
                required=True,
                help="comma-separated exponents of the target monomial, e.g. 1 or 1,0",
            )
        file_only = []
        for key, (parse, default) in schema.items():
            if key in SCENARIO_ONLY:
                file_only.append(f"{key} ({_describe(default)})")
                continue
            # the value stays a string until task_params reads it
            choices = parse if isinstance(parse, tuple) else None
            p.add_argument("--" + key.replace("_", "-"), choices=choices, help=_describe(default))
        p.epilog = "scenario-file keys: " + (", ".join(file_only) or "none")
    return parser


def _task_from_args(args: argparse.Namespace) -> dict:
    kind = args.command
    task: dict[str, Any] = {"task": kind}
    for key in TASK_PARAMS[kind]:
        if key not in SCENARIO_ONLY and getattr(args, key) is not None:
            task[key] = getattr(args, key)
    if kind == "approximate":
        try:
            idx = [_natural(e) for e in args.target_monomial.split(",")]
        except ValueError as exc:
            raise ScenarioError(f"bad --target-monomial entry: {exc}") from exc
        task["target"] = {
            "dim": len(idx),
            "cutoff": sum(idx),
            "polynomial": True,
            "coeffs": [{"idx": idx, "re": 1.0, "im": 0.0}],
        }
    return task


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scn = load_scenario(args.scenario)
        if args.command != "run":
            scn = scn._replace(tasks=[task_params(_task_from_args(args), scn)])
        return _run(scn, args.format, args.out, args.tolerance, args.seed, sys.stdout)
    except ValueError as exc:
        # a ScenarioError, or a format the tasks do not support
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:  # noqa: BLE001 - report and exit 3
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
