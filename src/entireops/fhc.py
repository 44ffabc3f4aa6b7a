"""Exact ladder calculus behind the frequent-hypercyclicity criterion checks.

On a joint-kernel generator f of a separable operator family, the axis
operators act on the derivative basis as an exact lowering ladder,

    T_j [D^n f] = a_j n_j [D^(n - e_j) f]        (zero when n_j = 0),

and more generally the k-th power multiplies by ``a^k n!/(n-k)!`` and drops
the label by k (annihilating it when any k_j > n_j).  That is the one
lowering rule, :func:`operator_power_on_basis`; :func:`apply_lowering` is
its ``k = e_j`` case.  The raising map

    S_j [D^n f] = 1 / (a_j (n_j + 1)) [D^(n + e_j) f]

is an exact right inverse of T_j.  Its one rule is ``_raised``, one
division per step: the reports rest on that rounding, not on the closed
form ``n_j! / (a_j^k (n_j + k)!)`` of k steps.  A :class:`LadderVector` is a
finite formal combination ``sum c_n [D^n f]``, its labels read by
``series.term_table``, on which both maps act symbolically; numeric series
enter only when semi-norm sizes of the raised iterates are estimated
(:func:`convergence_report`), because the exactness of the ladder
identities and of the right-inverse property should be tested exactly.
Every realization is one ``derivative_rows`` gather of the labels of one or
more label tables, each row summed in label order (``_realized_rows``):
:func:`realize` is its one-row case, and :func:`convergence_report` realizes
the raised iterates ``S^k x``, k <= kmax, together, their coefficients from
``_raised`` (behind :func:`apply_raising` too, which refuses a raised
coefficient that is not a normal float, so no verdict rests on a majorant
lost to underflow or overflow), then sums the semi-norms of the block of
rows in one ``seminorm_rows`` call.  The generator carries no degree: both
solve it to the degree they need with ``kernel.joint_kernel``.
"""

from __future__ import annotations

import cmath
import math
import sys
from itertools import accumulate
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .kernel import AxisKernelProblem, joint_kernel
from .series import (
    Entries,
    Index,
    Record,
    SemiNormSpec,
    TruncatedSeries,
    _checked_axis,
    _checked_index,
    _size,
    derivative_rows,
    seminorm_rows,
    term_table,
    worst,
    zero_series,
)


class LadderVector(Record):
    """Formal finite combination ``sum c_n [D^n f]`` over a fixed generator.

    The generator is given as one :class:`AxisKernelProblem` per axis; the
    ladder constants a_j are those problems' constants.  The combination is
    exact symbolic data — no truncation is involved until it is realized.
    Terms are given as a mapping or as (label, c_n) pairs and stored as a
    ``term_table``, in graded-lex order of their labels.
    """

    generator: tuple[AxisKernelProblem, ...]
    terms: Mapping[Index, complex]

    def __init__(self, generator: Sequence[AxisKernelProblem], terms: Entries) -> None:
        generator = tuple(generator)
        if not generator:
            raise ValueError("generator needs at least one axis problem")
        vars(self).update(generator=generator, terms=term_table(len(generator), terms))

    @property
    def dim(self) -> int:
        return len(self.generator)

    @property
    def ladder_constants(self) -> tuple[complex, ...]:
        return tuple(p.a for p in self.generator)

    @property
    def max_order(self) -> int:
        return max((sum(n) for n in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms


def operator_power_on_basis(
    k: Sequence[int], n: Sequence[int], a: Sequence[complex]
) -> tuple[complex, Index] | None:
    """Exact action of the k-th operator power on the basis label ``[D^n f]``.

    Returns ``(a^k * n!/(n-k)!, n - k)`` when k <= n componentwise; ``None``
    when any k_j exceeds n_j (the label is annihilated).
    """
    k = _checked_index(len(a), k, "operator power")
    n = _checked_index(len(a), n, "basis label")
    if any(kj > nj for kj, nj in zip(k, n)):
        return None
    scalar = 1 + 0j
    for kj, nj, aj in zip(k, n, a):
        scalar *= complex(aj) ** kj * math.perm(nj, kj)
    return scalar, tuple(nj - kj for kj, nj in zip(k, n))


def apply_lowering(x: LadderVector, axis: int) -> LadderVector:
    """Apply the axis operator: the ``k = e_j`` case of :func:`operator_power_on_basis`.

    A label with n_j = 0 is annihilated; distinct labels lower to distinct labels.
    """
    axis = _checked_axis(x.dim, axis)
    unit = tuple(int(s == axis - 1) for s in range(x.dim))
    out: dict[Index, complex] = {}
    for n, c in x.terms.items():
        action = operator_power_on_basis(unit, n, x.ladder_constants)
        if action is not None:
            scalar, m = action
            out[m] = c * scalar
    return LadderVector(x.generator, out)


def _raised(terms: Mapping[Index, complex], j: int, a: complex) -> dict[Index, complex]:
    """S_j on a label table: ``(c, n) -> (c / (a (n_j + 1)), n + e_j)``, j 0-based.

    Raising changes each label injectively and keeps graded-lex order, so
    the table stays in label order.  A finite coefficient must raise to a
    normal float: a raised value below ``sys.float_info.min`` in magnitude
    (a subnormal keeps few significant bits) or past the float range raises
    OverflowError, since a majorant read from it would be a float artifact,
    not a bound.  A coefficient that is already NaN or inf passes through.
    """
    out = {}
    for n, c in terms.items():
        raised = c / (a * (n[j] + 1))
        if cmath.isfinite(c):
            if not cmath.isfinite(raised):
                raise OverflowError(f"a coefficient of S_{j + 1} overflows past the float range")
            if math.hypot(raised.real, raised.imag) < sys.float_info.min:
                raise OverflowError(
                    f"a coefficient of S_{j + 1} underflows below the normal float range"
                )
        out[n[:j] + (n[j] + 1,) + n[j + 1 :]] = raised
    return out


def apply_raising(x: LadderVector, axis: int) -> LadderVector:
    """Apply the right inverse: ``(c, n) -> (c / (a_j (n_j + 1)), n + e_j)``."""
    axis = _checked_axis(x.dim, axis)
    return LadderVector(x.generator, _raised(x.terms, axis - 1, x.ladder_constants[axis - 1]))


def verify_right_inverse(
    x: LadderVector, axis: int, rel_tol: float = 1e-14
) -> bool:
    """True iff lowering after raising reproduces x term by term."""
    y = apply_lowering(apply_raising(x, axis), axis)
    if set(y.terms) != set(x.terms):
        return False
    for n, c in x.terms.items():
        # a NaN difference compares False either way, so it fails here
        if not abs(y.terms[n] - c) <= rel_tol * abs(c):
            return False
    return True


def nilpotency_index(x: LadderVector, axis: int) -> int:
    """Smallest K with the K-fold lowering of x equal to zero.

    Lowering maps distinct labels to distinct labels with nonzero factors,
    so no cancellation occurs and K = 1 + max n_j over the support.
    """
    if x.is_zero():
        raise ValueError("the zero vector has no nilpotency index")
    axis = _checked_axis(x.dim, axis)
    return 1 + max(n[axis - 1] for n in x.terms)


def realize(x: LadderVector, degree: int) -> TruncatedSeries:
    """Realize the combination as a series, exact to the requested degree.

    The generator is solved out to ``degree + max_order(x)`` so every
    differentiated term is still exact on the kept region; it is no
    polynomial, so neither is a nonzero realization.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    f = joint_kernel(x.generator, degree + x.max_order)
    if not x.terms:
        return zero_series(x.dim, degree)
    (row,) = _realized_rows(f, [x.terms], degree)
    return TruncatedSeries(x.dim, degree, degree, False, row)


def _realized_rows(
    f: TruncatedSeries, tables: Sequence[Mapping[Index, complex]], degree: int
) -> np.ndarray:
    """Row i is the coefficient vector of the realization of ``tables[i]`` to ``degree``.

    f must be the generator solved out to at least ``degree`` plus the
    highest label order.  One ``derivative_rows`` call gathers every label,
    and each row adds its terms in label order as ``linear_combine`` does.
    """
    gathered = iter(derivative_rows(f, [n for table in tables for n in table], degree))
    acc = np.zeros((len(tables), _size(f.dim, degree)), dtype=complex)
    for row, table in zip(acc, tables):
        for c, part in zip(table.values(), gathered):
            row += c * part
    return acc


class ConvergenceReport(NamedTuple):
    """Semi-norm majorants of the raised iterates of one vector.

    ``u[k]`` is the coefficient upper bound of the k-fold raised vector on
    the polydisc of the spec; ``bound`` is the reference ratio
    ``1/(|a_j| m epsilon)``.  The k-th roots tend to 0 (the Cauchy
    estimate in ``convergence_report``), so in the limit they fall below
    it.  ``stable`` flags
    agreement (within 5%) of the final k-th root between the requested
    realization degree and degree + 4 — the declared guard against
    truncation artifacts in the majorants.  The fields are the ``fhc``
    report's keys, in order.
    """

    axis: int
    m: int
    epsilon: float
    bound: float
    u: tuple[float, ...]
    ratios: tuple[float | None, ...]
    kth_roots: tuple[float, ...]
    partial_sums: tuple[float, ...]
    stable: bool


#: extra realization degree used for the stability cross-check
STABILITY_DEGREE_STEP = 4
#: relative agreement required between the two realizations
STABILITY_REL_TOL = 0.05


def _radius_floor(x: LadderVector) -> float:
    """``max_s 1/|a_s|``, the bound that the polydisc scale epsilon must exceed."""
    return worst(1.0 / abs(a) for a in x.ladder_constants)


def convergence_report(
    x: LadderVector,
    axis: int,
    spec: SemiNormSpec,
    kmax: int,
    realization_degree: int,
) -> ConvergenceReport:
    """Majorant diagnostics for the raised series ``sum_k S^k x``.

    Requires the polydisc scale to satisfy ``epsilon > max_s 1/|a_s|``, so
    that ``bound = 1/(|a_j| m epsilon) < 1``.  The Cauchy coefficient
    estimate ``M(S_j^k [D^n f], r) <= n! rho^(-|n|) M(f, r + rho)
    (|a_j| rho)^(-k)`` holds for every rho > 0, with ``M`` the upper sum of
    ``seminorm_rows``, so the k-th roots of the majorants tend to 0 and the
    semi-norm series converges absolutely; the reported roots are the
    finite-k evidence.

    The generator is solved once, out to the stability degree d + 4 plus the
    highest raised order.  The solve runs forward, so its cut to any lower
    degree is that degree's solve bit for bit, and the degree-d realizations
    are the leading columns of the degree-(d + 4) rows; both sets of
    majorants are the numbers of a realization per k and degree.
    """
    axis = _checked_axis(x.dim, axis)
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    if realization_degree < 0:
        raise ValueError("realization_degree must be >= 0")
    floor = _radius_floor(x)
    if not spec.epsilon > floor:
        raise ValueError(
            f"epsilon {spec.epsilon} violates the radius condition: it must "
            f"exceed max_s 1/|a_s| = {floor}"
        )
    a_j = x.ladder_constants[axis - 1]
    bound = 1.0 / (abs(a_j) * spec.m * spec.epsilon)

    tables = [x.terms]  # S^k x for k <= kmax, as plain label tables
    for _ in range(kmax):
        tables.append(_raised(tables[-1], axis - 1, a_j))
    d = realization_degree
    check = d + STABILITY_DEGREE_STEP
    try:
        f = joint_kernel(x.generator, check + x.max_order + kmax)
    except OverflowError:
        # errors keep the order of a degree-d pass before a degree-(d + 4)
        # one: an overflow of the shorter solve, then of its majorants
        f = joint_kernel(x.generator, d + x.max_order + kmax)
        seminorm_rows(x.dim, d, _realized_rows(f, tables, d), spec)
        raise
    rows = _realized_rows(f, tables, check)
    u = seminorm_rows(x.dim, d, rows[:, : _size(x.dim, d)], spec).tolist()
    u_check = seminorm_rows(x.dim, check, rows, spec).tolist()

    ratios: list[float | None] = [
        (u[k + 1] / u[k]) if u[k] > 0 else None for k in range(kmax)
    ]
    kth_roots = [u[k] ** (1.0 / k) for k in range(1, kmax + 1)]

    trend = u[kmax] ** (1.0 / kmax)
    trend_check = u_check[kmax] ** (1.0 / kmax)
    peak = worst((trend, trend_check))
    stable = peak == 0.0 or abs(trend - trend_check) <= STABILITY_REL_TOL * peak

    return ConvergenceReport(
        axis=axis,
        m=spec.m,
        epsilon=spec.epsilon,
        bound=bound,
        u=tuple(u),
        ratios=tuple(ratios),
        kth_roots=tuple(kth_roots),
        partial_sums=tuple(accumulate(u)),
        stable=stable,
    )
