"""Shared builders for the test suite: the two shipped operator families,
a hypothesis strategy for random CR operators, the scalar semi-norm loop and
the bundled scenario objects."""

from __future__ import annotations

import json

from hypothesis import strategies as st

import entireops as eo
from entireops import cli

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


@st.composite
def cr_operators(draw, dim: int, max_order: int = 3) -> eo.CROperator:
    """A random ``T = M_F - a z_axis``: symbol of order <= max_order, real or complex a."""
    support = draw(
        st.lists(st.sampled_from(eo.monomial_basis(dim, max_order)), max_size=4, unique=True)
    )
    symbol = eo.ConvolutionSymbol(dim, {n: draw(SCALAR) for n in support})
    return eo.CROperator(dim, draw(st.integers(1, dim)), draw(SCALAR), symbol)
