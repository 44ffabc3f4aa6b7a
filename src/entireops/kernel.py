"""Joint-kernel elements of one-axis operators by coefficient recurrence.

For a single axis the equation ``C(D) f = a z f`` with
``C(D) = sum_{k<=p} c_k D^k`` couples the Taylor coefficients of f through

    sum_{n=0}^{p} c_n (k+n)!/k! f_{k+n} = a f_{k-1},   k >= 0, f_{-1} = 0,

which is triangular in the unknown f_{k+p} once the p seed values
f_0 .. f_{p-1} are fixed.  Tensor products of per-axis solutions give
elements of the joint kernel of a separable operator family.  Each solve
takes its truncation degree as an argument; the equation carries none.

With ``C = D`` and ``a = 1`` the recurrence reproduces the squared-
exponential series ``sum z^{2m} / (2^m m!)``; with ``C = D^2`` it produces
Airy-type solutions of ``f'' = z f`` (seed (1, 0) yields a fixed combination
of the two standard Airy solutions, not the Ai-normalized one).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .operators import CROperator, apply_weyl
from .series import Record, TruncatedSeries, _checked_layout, _layout, worst

#: solver aborts when a coefficient magnitude passes this (overflow hygiene)
GROWTH_LIMIT = 1e150


class AxisKernelProblem(Record):
    """One-axis kernel equation ``C(D) f = a z f`` plus its seeds.

    ``charpoly`` lists c_0 .. c_p of the convolution part; p >= 1 with
    c_p != 0, otherwise the kernel is trivial.  ``seeds`` fixes the p free
    coefficients f_0 .. f_{p-1} and must not be all zero (the solution would
    be identically zero).
    """

    charpoly: tuple[complex, ...]
    a: complex
    seeds: tuple[complex, ...]

    def __init__(
        self, charpoly: Sequence[complex], a: complex, seeds: Sequence[complex]
    ) -> None:
        charpoly = tuple(complex(c) for c in charpoly)
        seeds = tuple(complex(s) for s in seeds)
        a = complex(a)
        if len(charpoly) < 2:
            raise ValueError("kernel is trivial (order-zero convolution part)")
        if charpoly[-1] == 0:
            raise ValueError("leading charpoly coefficient must be nonzero")
        if a == 0:
            raise ValueError("the ladder constant a must be nonzero")
        order = len(charpoly) - 1
        if len(seeds) != order:
            raise ValueError(
                f"expected {order} seeds for an order-{order} "
                f"convolution part, got {len(seeds)}"
            )
        if all(s == 0 for s in seeds):
            raise ValueError(
                "zero seeds would yield the identically-zero function; "
                "a kernel element must be nonzero"
            )
        vars(self).update(charpoly=charpoly, a=a, seeds=seeds)

    @property
    def order(self) -> int:
        return len(self.charpoly) - 1


def solve_kernel_axis(problem: AxisKernelProblem, degree: int) -> TruncatedSeries:
    """Solve the axis recurrence upward from the seeds; exact to the degree."""
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    # the layout check of the result refuses a degree past its budget, before
    # the list of degree + 1 coefficients exists
    _checked_layout(1, degree)
    p = problem.order
    c = problem.charpoly
    n_coeffs = degree + 1
    f: list[complex] = list(problem.seeds[:n_coeffs])
    f.extend(0j for _ in range(n_coeffs - len(f)))
    for k in range(n_coeffs - p):
        rhs = problem.a * (f[k - 1] if k >= 1 else 0j)
        acc = 0j
        for n in range(p):
            if c[n] != 0:
                acc += c[n] * math.perm(k + n, n) * f[k + n]
        f[k + p] = (rhs - acc) / (c[p] * math.perm(k + p, p))
        if abs(f[k + p]) > GROWTH_LIMIT:
            raise OverflowError(
                f"kernel coefficient f_{k + p} exceeded {GROWTH_LIMIT:g}; "
                "aborting to avoid overflow"
            )
    # the dim-1 basis is 0 .. degree in order, so the list is the vector
    return TruncatedSeries(1, degree, degree, False, f)


def joint_kernel(problems: Sequence[AxisKernelProblem], degree: int) -> TruncatedSeries:
    """Tensor product of per-axis solutions, truncated to total degree ``degree``.

    One problem per axis; the resulting d-variate series is annihilated by
    every separable operator ``C_j(D_j) - a_j z_j`` because each factor is.
    """
    problems = list(problems)
    if not problems:
        raise ValueError("one axis problem per coordinate is required")
    if not all(isinstance(p, AxisKernelProblem) for p in problems):
        raise TypeError("every axis needs a genuine AxisKernelProblem")
    axes = [solve_kernel_axis(p, degree) for p in problems]
    dim = len(axes)
    exponents = _layout(dim, degree).exponents
    vector = np.ones(len(exponents), dtype=complex)
    for j, f in enumerate(axes):
        vector = vector * f.vector[exponents[:, j]]
    return TruncatedSeries(dim, degree, degree, False, vector)


class KernelReport(NamedTuple):
    """Per-operator residuals of a joint-kernel candidate: the ``kernel`` report's keys, in order."""

    axes: tuple[int, ...]
    residuals: tuple[float, ...]
    max_residual: float
    tolerance: float
    passed: bool


def verify_kernel(
    ops: Sequence[CROperator],
    f: TruncatedSeries,
    tolerance: float = 1e-12,
) -> KernelReport:
    """Apply each operator to f and report the worst exact-region coefficient."""
    ops = list(ops)
    if not ops:
        raise ValueError("at least one operator required")
    residuals = []
    for op in ops:
        image = apply_weyl(op, f)
        if not image.is_polynomial and image.exact_degree < 0:
            raise ValueError(
                "truncation too small to verify: the operator consumed the "
                "entire exact region"
            )
        residuals.append(image.max_exact_coefficient())
    max_residual = worst(residuals)
    return KernelReport(
        axes=tuple(op.axis for op in ops),
        residuals=tuple(residuals),
        max_residual=max_residual,
        tolerance=tolerance,
        passed=max_residual <= tolerance,
    )
