"""Command-line front door: scenario files, task dispatch, report emission.

A scenario JSON file declares a dimension, an operator family, a generator
(either per-axis kernel problems or an explicit series literal) and a list
of tasks.  The header, the generator and each task are read by
``serialize.read_object`` from their key tables here (``SCENARIO_KEYS``,
``GENERATOR_KEYS``, ``TASK_PARAMS``).  A task subcommand's flags carry raw
strings into the same task reader, ``task_params``, so a flag and a file key
are parsed once, by one parser; ``--tolerance`` and ``--seed`` likewise reach
``RUN_OPTIONS`` as raw strings.  Tasks run in order.  Each kind's runner
builds its whole report as an ordered dict, emitted to stdout or to
``--out`` as JSON by default or, for the kinds in ``CSV_PROFILES``, as CSV
rows read from that dict.

Exit codes: 0 all pass-type tasks passed, 1 a task failed or raised,
2 scenario/format errors (found before any task runs), 3 internal errors.
Output is bytewise reproducible for equal scenario + seed.
"""

from __future__ import annotations

import argparse
import sys
import json
import math
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Sequence, TextIO

from .completeness import (
    derivative_span,
    approximate_target,
    rank_report,
    sample_box,
    translate_span,
)
from .fhc import LadderVector, convergence_report
from .kernel import AxisKernelProblem, joint_kernel, verify_kernel
from .operators import CROperator, verify_commutation
from .orbit import iterate_orbit, measure_visits
from .serialize import (
    REQUIRED,
    Schema,
    ScenarioError,
    _count,
    _finite,
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
    ApproximationWarning,
    SemiNormSpec,
    TruncatedSeries,
    _checked_layout,
    term_table,
    with_cutoff,
    worst,
    zero_series,
)

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
    low, high = value
    return _finite(low), _finite(high)


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

TASK_KINDS = tuple(TASK_PARAMS)


def task_params(
    task: Any, dimension: int, kernel: bool, axes: Sequence[int]
) -> dict[str, Any]:
    """Every parameter of a task object, parsed, with absent keys defaulted.

    The one resolver of a task, from a file or a subcommand, for a scenario
    of ``dimension`` with (``kernel``) or without a kernel generator and
    with operators on ``axes``.  Raises ScenarioError for an unknown kind,
    an unknown or missing key, a value its parser rejects, or a task that
    does not fit the scenario.
    """
    if not isinstance(task, dict):
        raise ScenarioError(f"task must be an object, got {task!r}")
    if "task" not in task:
        raise ScenarioError("missing key 'task' in task")
    kind = task["task"]
    if kind not in TASK_KINDS:
        raise ScenarioError(f"unknown task kind {kind!r}; expected one of {TASK_KINDS}")
    if kind in ("kernel", "fhc") and not kernel:
        raise ScenarioError(f"{kind} task needs a kernel generator")

    def fit(key: str, value: Any) -> Any:
        if key == "terms" and value is not None:  # fhc labels, tabled in the dimension
            return term_table(dimension, value)
        if key == "axis" and value not in axes:
            raise ValueError(f"no operator on axis {value}")
        if isinstance(value, TruncatedSeries) and value.dim != dimension:
            raise ValueError(f"series of dim {value.dim} does not match dim {dimension}")
        return value

    return read_object(task, {"task": (None, REQUIRED), **TASK_PARAMS[kind]}, f"{kind} task", fit)


@dataclass
class Scenario:
    dimension: int
    truncation: int
    tolerance: float
    rng_seed: int
    operators: list[CROperator]
    kernel_problems: list[AxisKernelProblem] | None
    explicit_generator: TruncatedSeries | None
    tasks: list[dict]
    #: task_params of each task, resolved once when the scenario is parsed
    params: list[dict]


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
    "tasks": (list, REQUIRED),
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
    axes = [op.axis for op in ops]
    params = [task_params(t, dimension, explicit is None, axes) for t in header["tasks"]]
    return Scenario(
        **header, kernel_problems=kernel_problems, explicit_generator=explicit, params=params
    )


def load_scenario(source: str) -> Scenario:
    """Load from a filesystem path or a bundled scenario name.

    Bare names (``gaussian2d``) and ``scenarios/<name>.json`` paths fall
    back to the files shipped inside the package.
    """
    path = Path(source)
    name = path.stem if path.suffix == ".json" else source
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
    report = verify_kernel(scn.operators, f, tolerance=p["max_residual"])
    payload = {
        "axes": list(report.axes),
        "residuals": list(report.residuals),
        "max_residual": report.max_residual,
        "tolerance": report.tolerance,
        "series": series_to_json(f),
    }
    return payload, report.passed


def _run_complete(scn: Scenario, p: dict, ctx: dict):
    """Derivative/translate span rank."""
    trunc = p["truncation"]
    max_order = _given(p["max_order"], trunc)
    tolerance = _given(ctx["tolerance"], _given(p["tolerance"], scn.tolerance))

    def derivative_report(n: int, order: int):
        f = generator_series(scn, n + order)
        return rank_report(derivative_span(f, n, order), tolerance)

    if p["mode"] == "derivative":
        report = derivative_report(trunc, max_order)
    else:
        f = generator_series(scn, trunc)
        ambient = math.comb(trunc + scn.dimension, scn.dimension)
        count = _given(p["samples"], 3 * ambient)
        samples = sample_box(scn.dimension, count, ctx["seed"], *p["box"])
        with warnings.catch_warnings():
            # asking for translate mode on a truncation accepts approximate rows
            warnings.simplefilter("ignore", ApproximationWarning)
            span = translate_span(f, trunc, samples)
        report = rank_report(span, tolerance)
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
    f = generator_series(scn, trunc + max_order)
    result = approximate_target(f, target, trunc, max_order)
    payload = {
        "orders": [list(n) for n in result.orders],
        "coefficients": [[c.real, c.imag] for c in result.coefficients],
        "residual": result.residual,
    }
    return payload, result.residual <= p["max_residual"]


def _run_fhc(scn: Scenario, p: dict, ctx: dict):
    """Ladder convergence diagnostics."""
    terms = _given(p["terms"], {(0,) * scn.dimension: 1.0})
    x = LadderVector(tuple(scn.kernel_problems), terms)
    default_eps = 2.0 * worst(1.0 / abs(a) for a in x.ladder_constants)
    spec = SemiNormSpec(m=p["m"], epsilon=_given(p["epsilon"], default_eps))
    report = convergence_report(
        x, p["axis"], spec, p["kmax"], p["realization_degree"]
    )
    payload = {
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
    passed = report.stable
    if p["max_kth_root"] is not None:
        passed = passed and report.kth_roots[-1] <= p["max_kth_root"]
    return payload, passed


def _run_orbit(scn: Scenario, p: dict, ctx: dict):
    """Iterate an operator and report visits."""
    op = next(op for op in scn.operators if op.axis == p["axis"])
    x = _series_argument(scn, p["initial"], _given(p["degree"], scn.truncation))
    iterates = iterate_orbit(op, x, p["steps"])
    spec = SemiNormSpec(m=p["m"], epsilon=p["epsilon"])
    target = _series_argument(scn, p["target"], x.cutoff)
    visits = measure_visits(iterates, target, p["delta"], spec)
    payload = {
        "steps": visits.steps,
        "hits": list(visits.hits),
        "density_proxy": visits.density_proxy,
        "distances": list(visits.distances),
        "note": DENSITY_DISCLAIMER,
    }
    passed = True
    if p["min_density"] is not None:
        passed = visits.density_proxy >= p["min_density"]
    if p["max_density"] is not None:
        passed = passed and visits.density_proxy <= p["max_density"]
    return payload, passed


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
    tasks: Sequence[dict] | None = None,
    *,
    fmt: str = "json",
    tolerance: float | None = None,
    seed: int | None = None,
) -> tuple[int, list[tuple[str, str]]]:
    """Run tasks in order; returns (exit code, [(task name, report text)]).

    ``tasks=None`` runs the scenario's own tasks with the parameters resolved
    when it was parsed.  Other task objects are resolved here, all of them
    before any runs, and so are the ``tolerance`` and ``seed`` overrides (by
    the scenario keys' parsers) and the format: a CSV request for a task kind
    outside ``CSV_PROFILES`` is refused.
    """
    if fmt not in ("json", "csv"):
        raise ScenarioError(f"unsupported format {fmt!r}")
    overrides = (("tolerance", tolerance), ("seed", seed))
    options = read_object({k: v for k, v in overrides if v is not None}, RUN_OPTIONS, "run options")
    resolved = scn.params
    if tasks is not None:
        kernel = scn.kernel_problems is not None
        axes = [op.axis for op in scn.operators]
        resolved = [task_params(task, scn.dimension, kernel, axes) for task in tasks]
    no_csv = [p["task"] for p in resolved if fmt == "csv" and p["task"] not in CSV_PROFILES]
    if no_csv:
        raise ScenarioError(
            f"csv unsupported for the {no_csv[0]} task; csv covers {', '.join(CSV_PROFILES)}"
        )
    outputs: list[tuple[str, str]] = []
    all_passed = True
    for i, params in enumerate(resolved):
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
    scn = load_scenario(source)
    code, outputs = execute_tasks(scn, fmt=fmt, tolerance=tolerance, seed=seed)
    _emit(outputs, fmt, out, stream)
    return code


def _emit(
    outputs: list[tuple[str, str]], fmt: str, out: str | None, stream: TextIO
) -> None:
    ext = "json" if fmt == "json" else "csv"
    if out is not None:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, (name, text) in enumerate(outputs):
            (out_dir / f"{i:02d}_{name}.{ext}").write_text(text)
        return
    for _, text in outputs:
        stream.write(text)


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        scn = load_scenario(args.scenario)
        tasks = None if args.command == "run" else [_task_from_args(args)]
        code, outputs = execute_tasks(
            scn, tasks, fmt=args.format, tolerance=args.tolerance, seed=args.seed
        )
        _emit(outputs, args.format, args.out, sys.stdout)
        return code
    except ValueError as exc:
        # a ScenarioError, or a format the tasks do not support
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:  # noqa: BLE001 - report and exit 3
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
