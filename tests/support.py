"""Shared builders for the test suite: the two shipped operator families,
a hypothesis strategy for random CR operators, the polynomial a truncation
stores, the scalar semi-norm loop,
the closed forms that check the library's raising and pairing, the
reference layout, plan and report writers, and the bundled scenario
objects."""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from hypothesis import strategies as st

import entireops as eo
from entireops import cli, series
from entireops.series import seminorm_rows

#: real numbers bounded away from 0, so no drawn coefficient vanishes
UNIT = st.floats(0.25, 2.0) | st.floats(-2.0, -0.25)
#: a real or a complex nonzero number
SCALAR = UNIT | st.builds(complex, UNIT, UNIT)


def gaussian_problem(a: complex = 1.0) -> eo.AxisKernelProblem:
    """Axis problem for f' = a z f (squared-exponential solution)."""
    return eo.AxisKernelProblem((0, 1), a, (1,))


def airy_problem(a: complex = 1.0) -> eo.AxisKernelProblem:
    """Axis problem for f'' = a z f with seed (1, 0)."""
    return eo.AxisKernelProblem((0, 0, 1), a, (1, 0))


def bundled_object(name: str) -> dict:
    """The JSON object of a bundled scenario."""
    return json.loads((cli.resources.files("entireops") / f"scenarios/{name}.json").read_text())


def partial_symbol(dim: int, axis: int, order: int = 1, b: complex = 1.0) -> eo.ConvolutionSymbol:
    idx = tuple(order if j == axis - 1 else 0 for j in range(dim))
    return eo.ConvolutionSymbol(dim, {idx: b})


def gaussian_family(dim: int) -> list[eo.CROperator]:
    """T_j = D_j - z_j on every axis."""
    return [
        eo.CROperator(dim, j, 1.0, partial_symbol(dim, j, order=1, b=1.0))
        for j in range(1, dim + 1)
    ]


def airy_family(dim: int) -> list[eo.CROperator]:
    """T_j = D_j^2 - z_j on every axis (symbol b = 2 so that b/2! = 1)."""
    return [
        eo.CROperator(dim, j, 1.0, partial_symbol(dim, j, order=2, b=2.0))
        for j in range(1, dim + 1)
    ]


def stored_polynomial(f: eo.TruncatedSeries) -> eo.TruncatedSeries:
    """The polynomial a truncation stores, the only kind of f ``translate_span`` takes."""
    return eo.TruncatedSeries(f.dim, f.cutoff, f.cutoff, True, f.vector)


def max_coeff_diff(f: eo.TruncatedSeries, expected: dict) -> float:
    """Largest deviation between a series' coefficients and an expected dict."""
    keys = {n for n, _ in f.terms()} | {tuple(k) for k in expected}
    return max(
        (abs(f.coefficient(k) - complex(expected.get(tuple(k), 0))) for k in keys),
        default=0.0,
    )


def scalar_seminorm(f: eo.TruncatedSeries, spec: eo.SemiNormSpec) -> float:
    """The upper sum as a loop over the nonzero terms in graded-lex order."""
    upper = 0.0
    for idx, c in f.terms():
        upper += abs(c) * spec.radius ** sum(idx)
    return upper


def seminorm_row(f: eo.TruncatedSeries, spec: eo.SemiNormSpec) -> float:
    """``seminorm_rows`` on the one-row block of f's vector."""
    return float(seminorm_rows(f.dim, f.cutoff, f.vector[None], spec)[0])


def raising_power_scalar(n_j: int, k: int, a_j: complex) -> complex:
    """Closed form ``n_j! / (a_j^k (n_j + k)!)`` of the k-fold raising factor."""
    return 1.0 / (complex(a_j) ** k * math.perm(n_j + k, k))


def characteristic_roundtrip(sym: eo.ConvolutionSymbol, point) -> complex:
    """The characteristic function ``sum_n b_n point^n / n!`` of a symbol, term by term."""
    total = 0j
    for n, b in sym.bcoeffs.items():
        term = b / eo.index_factorial(n)
        for zj, e in zip(point, n):
            if e:
                term *= complex(zj) ** e
        total += term
    return total


@st.composite
def cr_operators(draw, dim: int, max_order: int = 3) -> eo.CROperator:
    """A random ``T = M_F - a z_axis``: symbol of order <= max_order, real or complex a."""
    support = draw(
        st.lists(st.sampled_from(eo.monomial_basis(dim, max_order)), max_size=4, unique=True)
    )
    symbol = eo.ConvolutionSymbol(dim, {n: draw(SCALAR) for n in support})
    return eo.CROperator(dim, draw(st.integers(1, dim)), draw(SCALAR), symbol)


# ---------------------------------------------------------------------------
# reference layout and plan: the basis by recursion, the step table and each
# plan cell by math.perm, kept as the oracles of series._layout,
# series._positions, series._step_weight and series._derivative_plan
# ---------------------------------------------------------------------------


def _reference_degree_indices(dim: int, degree: int) -> list[tuple[int, ...]]:
    """The indices of total degree ``degree`` in lex order, first entry ascending."""
    if dim == 1:
        return [(degree,)]
    return [(e, *tail) for e in range(degree + 1)
            for tail in _reference_degree_indices(dim - 1, degree - e)]


def reference_basis(dim: int, cutoff: int) -> list[tuple[int, ...]]:
    """The indices of degree <= ``cutoff`` in graded-lex order, by recursion."""
    return [n for d in range(cutoff + 1) for n in _reference_degree_indices(dim, d)]


def reference_layout(dim: int, cutoff: int) -> series._Layout:
    """``series._layout(dim, cutoff)`` built index by index."""
    indices = reference_basis(dim, cutoff)
    exponents = np.array(indices, dtype=np.intp).reshape(len(indices), dim)
    return series._Layout(
        cutoff=cutoff,
        exponents=exponents,
        degree=exponents.sum(axis=1),
        raised=tuple(np.flatnonzero(exponents[:, j]) for j in range(dim)),
    )


def reference_step_weight(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """``series._step_weight(cutoff)`` cell by cell, by ``math.perm``."""
    steps = range(cutoff + 1)
    exact = np.array(
        [[math.perm(m + n, n) if m + n <= cutoff else 0 for m in steps] for n in steps]
        + [[0] * len(steps)],
        dtype=object,
    )
    return exact, series._rounded(exact)


def reference_plan(
    dim: int, cutoff: int, orders: list[tuple[int, ...]], rows: int, binomial: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """``series._derivative_plan`` over ``(dim, cutoff)``, cell by cell.

    Cell (k, m) reads s = m + n, for n = ``orders[k]`` and m the m-th index
    of the basis.  Where ``||s|| <= cutoff`` its weight is the exact integer
    ``prod_j perm(s_j, n_j)`` (``comb`` for binomial factors) rounded once,
    and its source is the position of s; past the cutoff the weight is 0 and
    the source -1, a cell the plan may place anywhere in the basis.  Raises
    the OverflowError of ``float`` where a weight is past the float range.
    """
    basis = reference_basis(dim, cutoff)
    position = {n: i for i, n in enumerate(basis)}
    factor = math.comb if binomial else math.perm
    source = np.full((len(orders), rows), -1, dtype=np.intp)
    weight = np.zeros((len(orders), rows))
    for k, n in enumerate(orders):
        for i, m in enumerate(basis[:rows]):
            s = tuple(a + b for a, b in zip(m, n))
            if sum(s) <= cutoff:
                source[k, i] = position[s]
                weight[k, i] = float(math.prod(factor(a, b) for a, b in zip(s, n)))
    return source, weight


# ---------------------------------------------------------------------------
# reference report writers: the plain recursive walk that
# serialize.to_json_text and serialize._scalar_text replace, kept as the
# oracle of their text and of their refusals
# ---------------------------------------------------------------------------


def _reference_fmt_float(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite float {v} cannot be serialized")
    return format(v, ".17g")


#: the values a one-line list may hold
_REFERENCE_SCALARS = (type(None), bool, int, float, str)


def reference_scalar_text(value) -> str:
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
        return int.__repr__(value)
    if isinstance(value, float):
        return _reference_fmt_float(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def reference_csv_text(header, rows) -> str:
    """``serialize.to_csv_text`` with ``reference_scalar_text``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        ["" if v is None else v if isinstance(v, str) else reference_scalar_text(v) for v in row]
        for row in rows
    )
    return buf.getvalue()


def reference_json_text(value) -> str:
    """JSON text with insertion-order keys, two spaces of indent per level and
    a list of scalars only (the empty list too) on one line."""
    out: list[str] = []

    def walk(value, pad: str) -> None:
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
            if all(isinstance(v, _REFERENCE_SCALARS) for v in value):
                out.append("[" + ", ".join(map(reference_scalar_text, value)) + "]")
                return
            sep = "[\n"
            for v in value:
                out.append(sep + inner)
                walk(v, inner)
                sep = ",\n"
            out.append(f"\n{pad}]")
        else:
            out.append(reference_scalar_text(value))

    walk(value, "")
    out.append("\n")
    return "".join(out)
