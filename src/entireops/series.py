"""Total-degree-truncated Taylor series on C^d with exactness tracking.

A :class:`TruncatedSeries` stores the coefficients ``a_n`` of an entire
function ``f(z) = sum_n a_n z^n`` for all multi-indices with
``||n|| = n_1 + ... + n_d <= cutoff`` as one dense complex vector over
``monomial_basis(dim, cutoff)``, the indices in graded lexicographic order.
The degree <= N basis is a prefix of the degree <= M basis for N <= M, so
re-truncation is a slice.  Two pieces of bookkeeping ride along:

* ``exact_degree`` (E): coefficients with ``||n|| <= E`` (the first
  ``comb(E + d, d)`` entries) are guaranteed to equal the represented
  function's true Taylor coefficients.  ``E = -1`` means no guarantee.
* ``is_polynomial``: the vector is the whole function, so coefficients
  beyond the cutoff are genuine zeros.

The tables behind the layout (basis, index positions, exponent matrix and
degrees, unit-step gather maps, per-axis derivative weights) are built once
per ``(dim, cutoff)`` and owned by this module.  Differentiation and
coordinate multiplication are a gather and a scatter on the leading axis
(``_gather_derivative``, ``_scatter_coordinate``), so the same kernels act
on one coefficient vector or on a ``(basis size, batch)`` block of them;
linear combination is vector arithmetic.  Every gather of D^n goes through
one plan, ``_derivative_plan``: for a ``(K, dim)`` array of orders it builds
only the leading rows it is asked for, as ``(K, rows)`` grids of source
positions and weights, from one factor lookup and one lookup into a table of
unit-step powers per axis and one mask for the cells past the cutoff.
``derivative_rows`` (the rows of a derivative span) is one plan call and one
gather; ``_gather_derivative`` (behind ``differentiate`` and the operator
kernels) runs the plan with K = 1, or slices the cached tables for a unit
order.  A weight is the exact integer ``prod_j perm(s_j, n_j)`` rounded
once: the product of the rounded per-axis factors below 2^53, where every
factor and partial product is exact; above it, a cell with two or more
non-unit factors is recomputed from exact integers, and past the float range
the plan raises OverflowError.  The exactness rule of a ``z^alpha D^beta``
term is stated once, ``_exact_after``: ``differentiate``,
``multiply_coordinate`` and ``operators.apply_weyl`` all read it, and
``derivative_rows`` carries the rules of the derivatives it stands for.  The
semi-norm upper sum has one array form, ``seminorm_rows``, over a block of
coefficient rows (``seminorm_bound`` is its one-row case); each row gets the
number of a scalar loop over its terms in graded-lex order.  Translation is
the same plan, built in one place, ``translate_rows``:
``f(z + s)_m = sum_k s^k C(m + k, k) a_(m+k)``, so it runs the plan over
every order k with ``||k|| <= cutoff``, per-axis factors ``comb(m + k, k)``
in place of ``perm(m + k, k)``, sums the gathered rows with one matmul
``V @ B``, ``V[s, k] = s^k``, and emits the one ApproximationWarning;
``translate`` is its one-row case.  The rows are reproducible for equal
inputs.  Residual verdicts fold with ``worst``, which keeps a NaN wherever
it stands.

A given multi-index is checked in one place, ``_checked_index``, a given
axis in ``_checked_axis``, a given point (a shift, a sample, an evaluation
point) in ``_checked_point``, and a layout's ``(dim, cutoff)`` in
``_checked_layout``, which refuses, before any table exists, a layout whose
estimated size passes one budget.  Every ``{index: coefficient}`` table
(series literals, convolution symbols, ladder vectors) is read by
``term_table``, which also refuses a repeated index.

Operations only ever shrink the guaranteed region; nothing here attempts
tail estimates for non-polynomial data.  All values are immutable (the
vector is read-only) and every operation is a pure function of its inputs.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

Index = tuple[int, ...]
#: an index table as a mapping or as (index, coefficient) pairs
Entries = Iterable[tuple[Sequence[int], complex]] | Mapping[Index, complex]

class ApproximationWarning(UserWarning):
    """The returned series carries no exactness guarantee (exact_degree = -1)."""


def index_order(n: Index) -> int:
    """Total degree ``||n|| = n_1 + ... + n_d``."""
    return sum(n)


def index_factorial(n: Index) -> int:
    """``n! = n_1! n_2! ... n_d!``."""
    out = 1
    for e in n:
        out *= math.factorial(e)
    return out


def worst(values: Iterable[float]) -> float:
    """The largest value, or NaN when any value is NaN.

    Python's ``max`` keeps its running value whenever a comparison with NaN
    is false, so it drops a NaN that is not first; a verdict folded from
    residuals must not.  Every float fold of the library goes through here.
    """
    values = [float(v) for v in values]
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def graded_key(n: Index) -> tuple[int, Index]:
    """Sort key implementing graded lexicographic order."""
    return (sum(n), n)


class _Layout(NamedTuple):
    """Tables of the graded-lex basis of one ``(dim, cutoff)``."""

    cutoff: int
    #: index -> position, in basis order
    position: dict[Index, int]
    #: the indices as a (size, dim) integer matrix
    exponents: np.ndarray
    #: their total degrees
    degree: np.ndarray
    #: per axis j: positions of the indices with n_j >= 1, in basis order.
    #: They are exactly ``m + e_j`` for m in the degree <= cutoff - 1 prefix,
    #: in the same order, so one array serves D_j (gather) and z_j (scatter).
    raised: tuple[np.ndarray, ...]
    #: per axis j: n_j at those positions, the weights of D_j
    unit_weight: tuple[np.ndarray, ...]
    #: ``perm(m + n, n)`` at [n, m], the weight of D^n on exponent m along one
    #: axis, for ``m + n <= cutoff`` (0 elsewhere, so row ``cutoff + 1`` is all
    #: 0): exact integers and their floats (inf past the float range)
    step_weight: tuple[np.ndarray, np.ndarray]


#: integers from here up round to 2^1024, past the largest float
_FLOAT_LIMIT = int(sys.float_info.max) + 2**970


def _rounded(exact: np.ndarray) -> np.ndarray:
    """An object array of integers rounded to floats, inf past the float range."""
    fits = exact < _FLOAT_LIMIT
    out = np.full(exact.shape, math.inf)
    out[fits] = exact[fits].astype(float)
    return out


def _degree_indices(dim: int, degree: int) -> list[Index]:
    """The indices of total degree ``degree`` in lex order, first entry ascending."""
    if dim == 1:
        return [(degree,)]
    return [(e, *tail) for e in range(degree + 1)
            for tail in _degree_indices(dim - 1, degree - e)]


#: the most bytes the tables of one layout may take, as ``_checked_layout``
#: estimates them: about ten times the largest estimate of a layout built by
#: the tests, the bundled scenarios or the benchmark (27 MB, dim 1 at cutoff
#: 300; 8.7 MB at dim 2, cutoff 175)
_LAYOUT_BUDGET = 2**28


def _checked_layout(dim: int, cutoff: int) -> None:
    """The one check of a layout's ``(dim, cutoff)``, before any table is built.

    Refuses dim < 1, cutoff < 0, and a layout whose tables would take more
    than ``_LAYOUT_BUDGET`` bytes.  The estimate uses float logarithms only:
    per basis row, its index tuple and position entry and its entries in
    the exponent, degree and per-axis tables; per cell of the ``(cutoff + 2)
    x (cutoff + 1)`` step table, a pointer, a float and an integer of at most
    log2(cutoff!) bits.  It bounds the measured size from above.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    d, n = min(dim, 2**32), min(cutoff, 2**32)  # past 2^32, either is past any budget
    log_rows = math.lgamma(n + d + 1) - math.lgamma(d + 1) - math.lgamma(n + 1)
    cell_bytes = 44 + math.lgamma(n + 1) / math.log(256)
    estimate = math.exp(min(log_rows, 200.0)) * (128 + 40 * d) + (n + 2) * (n + 1) * cell_bytes
    if estimate > _LAYOUT_BUDGET:
        raise ValueError(
            f"the tables of degree <= {cutoff} in dim {dim} would take about "
            f"{estimate:.3g} bytes, past the budget of {_LAYOUT_BUDGET}"
        )


@lru_cache(maxsize=64)
def _layout(dim: int, cutoff: int) -> _Layout:
    _checked_layout(dim, cutoff)
    indices = [n for d in range(cutoff + 1) for n in _degree_indices(dim, d)]
    exponents = np.array(indices, dtype=np.intp).reshape(len(indices), dim)
    raised = tuple(np.flatnonzero(exponents[:, j]) for j in range(dim))
    steps = range(cutoff + 1)
    step_weight = np.array(
        [[math.perm(m + n, n) if m + n <= cutoff else 0 for m in steps] for n in steps]
        + [[0] * len(steps)],
        dtype=object,
    )
    return _Layout(
        cutoff=cutoff,
        position={n: i for i, n in enumerate(indices)},
        exponents=exponents,
        degree=exponents.sum(axis=1),
        raised=raised,
        unit_weight=tuple(exponents[r, j].astype(float) for j, r in enumerate(raised)),
        step_weight=(step_weight, _rounded(step_weight)),
    )


def _size(dim: int, degree: int) -> int:
    """Number of multi-indices with ``||n|| <= degree`` (0 for degree < 0)."""
    return math.comb(degree + dim, dim) if degree >= 0 else 0


def monomial_basis(dim: int, degree: int) -> list[Index]:
    """All multi-indices with ``||n|| <= degree`` in graded-lex order."""
    return list(_layout(dim, degree).position)


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Coefficient vector of an entire function over ``monomial_basis(dim, cutoff)``.

    ``exact_degree`` and ``is_polynomial`` follow the module-level contract.
    The constructor checks the structural invariants and the vector's
    length, takes ownership of the vector and makes it read-only.
    """

    dim: int
    cutoff: int
    exact_degree: int
    is_polynomial: bool
    vector: np.ndarray

    def __post_init__(self) -> None:
        size = len(_layout(self.dim, self.cutoff).position)  # checks dim and cutoff
        if not -1 <= self.exact_degree <= self.cutoff:
            raise ValueError(
                f"exact_degree {self.exact_degree} outside [-1, {self.cutoff}]"
            )
        if self.is_polynomial and self.exact_degree != self.cutoff:
            raise ValueError("a polynomial series must be exact up to its cutoff")
        vector = np.asarray(self.vector, dtype=complex)
        if vector.shape != (size,):
            raise ValueError(
                f"vector of shape {vector.shape} does not match the {size} "
                f"monomials of degree <= {self.cutoff} in dim {self.dim}"
            )
        vector.flags.writeable = False
        object.__setattr__(self, "vector", vector)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            (self.dim, self.cutoff, self.exact_degree, self.is_polynomial)
            == (other.dim, other.cutoff, other.exact_degree, other.is_polynomial)
            and np.array_equal(self.vector, other.vector)
        )

    def coefficient(self, idx: Sequence[int]) -> complex:
        idx = _checked_index(self.dim, idx, "index")
        pos = _layout(self.dim, self.cutoff).position.get(idx)
        return 0j if pos is None else complex(self.vector[pos])

    def terms(self) -> list[tuple[Index, complex]]:
        """The nonzero coefficients with their indices, in graded-lex order."""
        nonzero = np.flatnonzero(self.vector)
        rows = _layout(self.dim, self.cutoff).exponents[nonzero].tolist()
        return [(tuple(n), c) for n, c in zip(rows, self.vector[nonzero].tolist())]

    def is_zero(self) -> bool:
        return not self.vector.any()

    def max_exact_coefficient(self) -> float:
        """Largest coefficient magnitude over the guaranteed-exact region."""
        exact = self.vector[: _size(self.dim, self.exact_degree)]
        return float(np.abs(exact).max(initial=0.0))


@dataclass(frozen=True)
class SemiNormSpec:
    """Sup-norm over the closed polydisc ``{ |z_j| <= m * epsilon }``."""

    m: int
    epsilon: float

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"semi-norm index m must be >= 1, got {self.m}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def radius(self) -> float:
        return self.m * self.epsilon


def _checked_index(dim: int, idx: Sequence[int], what: str) -> Index:
    """The one check of a given multi-index: ``dim`` integral entries, none negative."""
    given = tuple(idx)
    idx = tuple(map(int, given))
    if idx != given:
        raise ValueError(f"non-integral entry in {what} {given}")
    if len(idx) != dim:
        raise ValueError(f"{what} {idx} does not match dim {dim}")
    if min(idx, default=0) < 0:
        raise ValueError(f"negative entry in {what} {idx}")
    return idx


def _checked_axis(dim: int, axis: int) -> int:
    """The one check of a given 1-based axis: an integer from 1 to ``dim``."""
    j = int(axis)
    if j != axis:
        raise ValueError(f"non-integral axis {axis!r}")
    if not 1 <= j <= dim:
        raise ValueError(f"axis {axis} out of range for dim {dim}")
    return j


def _checked_point(dim: int, point: Sequence[complex], what: str) -> tuple[complex, ...]:
    """The one check of a given point of C^dim: ``dim`` entries, read as complex."""
    point = tuple(complex(p) for p in point)
    if len(point) != dim:
        raise ValueError(f"{what} {point} does not match dim {dim}")
    return point


def term_table(dim: int, entries: Entries) -> dict[Index, complex]:
    """The ``{index: coefficient}`` table of series literals, symbols and ladder vectors.

    Every index is checked, a repeated one is refused, zero coefficients are
    dropped, and the table is in graded-lex order.
    """
    items = entries.items() if isinstance(entries, Mapping) else entries
    table: dict[Index, complex] = {}
    for raw_idx, c in items:
        idx = _checked_index(dim, raw_idx, "index")
        if idx in table:
            raise ValueError(f"duplicate index {idx}")
        table[idx] = complex(c)
    return {n: table[n] for n in sorted(table, key=graded_key) if table[n] != 0}


def make_series(
    dim: int, cutoff: int, entries: Entries, is_polynomial: bool = False
) -> TruncatedSeries:
    """A series of ``term_table`` entries, trusting the claim exact_degree = cutoff."""
    layout = _layout(dim, cutoff)
    vector = np.zeros(len(layout.position), dtype=complex)
    for idx, c in term_table(dim, entries).items():
        pos = layout.position.get(idx)
        if pos is None:
            raise ValueError(f"index {idx} exceeds cutoff {cutoff}")
        vector[pos] = c
    return TruncatedSeries(dim, cutoff, cutoff, bool(is_polynomial), vector)


def zero_series(dim: int, cutoff: int) -> TruncatedSeries:
    """The identically-zero function (polynomial, fully exact)."""
    return make_series(dim, cutoff, [], is_polynomial=True)


def monomial(
    dim: int, cutoff: int, idx: Sequence[int], coeff: complex = 1.0
) -> TruncatedSeries:
    return make_series(dim, cutoff, [(idx, coeff)], is_polynomial=True)


def linear_combine(
    terms: Iterable[tuple[complex, TruncatedSeries]]
) -> TruncatedSeries:
    """Coefficientwise ``sum w_i * f_i``.

    All series must share dim and cutoff.  The result is exact to the
    minimum of the exact degrees and polynomial iff every input is.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("linear_combine needs at least one term")
    shapes = {(s.dim, s.cutoff) for _, s in terms}
    if len(shapes) > 1:
        raise ValueError(f"shape mismatch: (dim, cutoff) pairs {sorted(shapes)}")
    ((dim, cutoff),) = shapes
    acc = np.zeros(_size(dim, cutoff), dtype=complex)
    for w, s in terms:
        w = complex(w)
        if w != 0:
            acc += w * s.vector
    exact = min(s.exact_degree for _, s in terms)
    poly = all(s.is_polynomial for _, s in terms)
    return TruncatedSeries(dim, cutoff, exact, poly, acc)


def _derivative_plan(
    layout: _Layout, orders: np.ndarray, rows: int, factors: tuple | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Gather positions and weights of the leading ``rows`` rows of D^n, n in orders.

    ``orders`` is a ``(K, dim)`` array with entries at most ``cutoff + 1``,
    and ``rows >= 1``; both results are ``(K, rows)`` grids.  ``factors`` is
    the per-axis ``(exact, rounded)`` table laid out as ``step_weight``
    (which it defaults to): the factor of order n_j on exponent m_j at [n_j,
    m_j], 0 for ``m_j + n_j > cutoff``.  Cell (k, m) of order n reads the
    index s = m + n: per axis j that some order steps along, one lookup of
    the rounded factor (``perm(s_j, n_j)`` by default) and one of the n_j-th
    power of ``raised[j]`` in a table built for this call (``_unit_powers``).
    The weight, the exact product of the factors rounded once, is the
    product of the rounded factors below 2^53, where every factor and
    partial product is an exact integer; at or above it the cells with two
    or more non-unit factors are recomputed from the exact integers.  One
    mask gives weight 0 to a cell with ``||s|| > cutoff`` (an
    over-differentiated short polynomial), whose position stays inside the
    basis; every other weight is at least 1, and one past the float range
    raises OverflowError.
    """
    exact, rounded = layout.step_weight if factors is None else factors
    tops = orders.max(axis=0).tolist()
    source, weight = np.arange(rows), None
    for j, top in enumerate(tops):
        if top:
            n = orders[:, j, None]
            factor = rounded[n, layout.exponents[:rows, j]]
            if weight is None:  # the first factor is the weight: one grid fewer
                weight = factor
            else:  # an overflow, or inf x 0 in a masked cell, is guarded below
                with np.errstate(over="ignore", invalid="ignore"):
                    weight = weight * factor
            source = _unit_powers(layout, j, top)[n, source]
    if weight is None:  # every order is the zero order
        return source[None].repeat(len(orders), axis=0), np.ones((len(orders), rows))
    # the degree a cell can reach: the last row plus every axis's largest step
    reach = int(layout.degree[rows - 1]) + sum(tops)
    if reach > layout.cutoff:  # some cell may lie past the cutoff
        inside = layout.degree[:rows] + orders.sum(axis=1)[:, None] <= layout.cutoff
        weight[~inside] = 0.0
    # a weight is at most ||s||! <= reach!, so most plans check no cell
    if math.factorial(min(reach, layout.cutoff)) >= 2**53 and weight.max() >= 2.0**53:
        if len(tops) - tops.count(0) > 1:
            multi = np.count_nonzero(orders, axis=1) > 1
            k, m = np.nonzero((weight >= 2.0**53) & multi[:, None])
            product = np.ones(len(k), dtype=object)
            for j in range(orders.shape[1]):
                product = product * exact[orders[k, j], layout.exponents[m, j]]
            weight[k, m] = _rounded(product)
        if weight.max() == math.inf:
            raise OverflowError("a derivative weight is past the float range")
    return source, weight


def _unit_powers(layout: _Layout, axis: int, top: int) -> np.ndarray:
    """Row t <= ``top``: the t-fold composition of ``raised[axis]`` over the basis.

    A step from degree ``cutoff`` is clipped to the last entry of
    ``raised[axis]`` (to position 0 at cutoff 0, where it is empty), so a
    path past the cutoff still ends at some position inside the basis.
    """
    step = layout.raised[axis] if layout.cutoff else np.zeros(1, dtype=np.intp)
    table = np.empty((top + 1, len(layout.exponents)), dtype=np.intp)
    table[0] = np.arange(table.shape[1])
    for t in range(1, top + 1):
        step.take(table[t - 1], out=table[t], mode="clip")
    return table


def _gather_derivative(layout: _Layout, data: np.ndarray, order: Index) -> np.ndarray:
    """D^order on the leading axis of a coefficient vector or block.

    Rows past what the cutoff determines are zero.  A unit order slices the
    cached ``raised`` and ``unit_weight`` tables; any other order is the
    plan with K = 1.  Returns ``data`` itself for the zero order, else a new
    array.
    """
    if not any(order):
        return data
    out = np.zeros(data.shape, dtype=complex)
    degree = sum(order)
    if degree <= layout.cutoff:
        count = _size(len(order), layout.cutoff - degree)
        if degree == 1:
            axis = order.index(1)
            source, weight = layout.raised[axis], layout.unit_weight[axis]
        else:
            source, weight = _derivative_plan(layout, np.array([order]), count)
            source, weight = source[0], weight[0]
        # one weight per basis row, broadcast over a block's columns
        weight = weight.reshape((-1,) + (1,) * (data.ndim - 1))
        out[:count] = data[source] * weight
    return out


def _scatter_coordinate(layout: _Layout, data: np.ndarray, axis: int) -> np.ndarray:
    """Multiplication by z_axis (1-based) on the leading axis of a vector or block.

    Rows of degree ``cutoff`` would move past the cutoff and are dropped.
    """
    target = layout.raised[axis - 1]
    out = np.zeros(data.shape, dtype=complex)
    out[target] = data[: len(target)]  # the degree <= cutoff - 1 prefix
    return out


def _exact_after(f: TruncatedSeries, raised: int, lowered: int) -> int:
    """The exact degree of ``z^alpha D^beta f``: ``||alpha||`` raised, ``||beta||`` lowered.

    A polynomial stays exact up to its cutoff.  Otherwise D^beta lowers the
    guaranteed degree by ``lowered`` (not below -1, no guarantee) and
    z^alpha then raises it by ``raised`` (not past the cutoff), since
    multiplication by z only shifts known coefficients and fills the new
    low-degree ones with genuine zeros.
    """
    if f.is_polynomial:
        return f.cutoff
    return min(f.cutoff, max(-1, f.exact_degree - lowered) + raised)


def differentiate(f: TruncatedSeries, order: Sequence[int]) -> TruncatedSeries:
    """Partial derivative D^order: coefficient of z^m becomes ((m+order)!/m!) a_{m+order}.

    Over-differentiating a polynomial yields the zero series.  For a
    polynomial the result stays fully exact; otherwise the guaranteed region
    shrinks by ``||order||``.
    """
    order = _checked_index(f.dim, order, "derivative order")
    if not any(order):
        return f
    out = _gather_derivative(_layout(f.dim, f.cutoff), f.vector, order)
    exact = _exact_after(f, 0, sum(order))
    return TruncatedSeries(f.dim, f.cutoff, exact, f.is_polynomial, out)


def derivative_rows(
    f: TruncatedSeries, orders: Sequence[Sequence[int]], degree: int
) -> np.ndarray:
    """Row i is ``coefficient_vector(differentiate(f, orders[i]), degree)``.

    One plan over all orders and one gather fill the degree <= ``degree``
    prefix, so a short truncation of a long series costs the truncation's
    size.  The first bad order raises the error ``differentiate`` would.
    """
    layout = _layout(f.dim, f.cutoff)
    # entries capped at cutoff + 1 as Python integers, before the conversion
    checked = (_checked_index(f.dim, n, "derivative order") for n in orders)
    capped = [[min(e, f.cutoff + 1) for e in n] for n in checked]
    table = np.array(capped, dtype=np.intp).reshape(len(orders), f.dim)
    return _gather_rows(f, table, degree, layout.step_weight)


def _gather_rows(
    f: TruncatedSeries, orders: np.ndarray, degree: int, factors: tuple
) -> np.ndarray:
    """One plan call with ``factors`` and one gather: the rows of checked orders.

    Only the degree <= ``degree`` prefix that the cutoff determines is
    gathered; the rest of each row is zero.
    """
    out = np.zeros((len(orders), _size(f.dim, degree)), dtype=complex)
    lowest = int(orders.sum(axis=1).min(initial=f.cutoff + 1))
    rows = min(out.shape[1], _size(f.dim, f.cutoff - lowest))
    if rows:
        layout = _layout(f.dim, f.cutoff)
        source, weight = _derivative_plan(layout, orders, rows, factors)
        # cells the cutoff leaves undetermined have weight 0 and stay +0j
        np.multiply(f.vector[source], weight, out=out[:, :rows], where=weight != 0)
    return out


def multiply_coordinate(f: TruncatedSeries, axis: int) -> TruncatedSeries:
    """Multiply by the coordinate z_axis (axis is 1-based).

    Coefficients pushed past the cutoff are dropped; if any nonzero one is,
    the result is no longer a whole polynomial, but the kept vector is still
    exact (multiplication by z only shifts known coefficients).
    """
    axis = _checked_axis(f.dim, axis)
    layout = _layout(f.dim, f.cutoff)
    out = _scatter_coordinate(layout, f.vector, axis)
    kept = len(layout.raised[axis - 1])
    poly = f.is_polynomial and not np.count_nonzero(f.vector[kept:])
    return TruncatedSeries(f.dim, f.cutoff, _exact_after(f, 1, 0), poly, out)


def translate_rows(
    f: TruncatedSeries, shifts: Sequence[Sequence[complex]], degree: int
) -> np.ndarray:
    """Row i is the degree <= ``degree`` coefficient vector of ``f(z + shifts[i])``.

    ``f(z + s)_m = sum_k s^k C(m + k, k) a_(m+k)``: one plan over every
    order k with ``||k|| <= cutoff``, per-axis factors ``comb(m + k, k)``,
    gathers the rows B, and ``V @ B`` sums them, ``V[i, k] = shifts[i]^k``
    by repeated multiplication (one past the float range raises
    OverflowError).  B costs basis(cutoff) x basis(min(degree, cutoff))
    cells, as a derivative span with ``max_order = cutoff`` does.  The rows
    are reproducible for equal inputs, but not bit for bit those of a scalar
    term loop, which sums in another order.  The row of an all-zero shift is
    f's vector itself.  For a non-polynomial f one ApproximationWarning
    covers every nonzero shift of the call; it names the caller of
    ``translate`` or ``completeness.translate_span``, the two callers.
    """
    shifts = [_checked_point(f.dim, s, "shift") for s in shifts]
    layout = _layout(f.dim, f.cutoff)
    factorial = np.array([math.factorial(n) for n in range(f.cutoff + 2)], dtype=object)
    binomial = layout.step_weight[0] // factorial[:, None]  # perm(m + n, n) / n!
    block = _gather_rows(f, layout.exponents, degree, (binomial, _rounded(binomial)))
    power = np.ones((len(shifts), f.dim, f.cutoff + 1), dtype=complex)
    power[:, :, 1:] = np.array(shifts, dtype=complex).reshape(len(shifts), f.dim, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        np.cumprod(power, axis=2, out=power)
        vandermonde = power[:, np.arange(f.dim), layout.exponents].prod(axis=2)
    if np.isinf(vandermonde).any():  # V @ B would turn it into NaN, even times 0
        raise OverflowError("a shift power is past the float range")
    out = vandermonde @ block
    zero = [not any(s) for s in shifts]
    out[zero] = coefficient_vector(f, degree)
    if not (f.is_polynomial or all(zero)):
        warnings.warn(
            "translating a non-polynomial truncation: the result has no "
            "exactness guarantee",
            ApproximationWarning,
            stacklevel=3,
        )
    return out


def translate(f: TruncatedSeries, shift: Sequence[complex]) -> TruncatedSeries:
    """Shift of argument: returns the coefficients of ``f(z + shift)``.

    The one-row case of ``translate_rows``; an all-zero shift returns f
    itself.  For a polynomial the result is exact.  Otherwise the missing
    tail of f contaminates every output coefficient, so the result is
    flagged exactness-free (exact_degree = -1) and an ApproximationWarning
    is emitted; rank tests that consume such rows are tolerance-based.
    """
    shift = _checked_point(f.dim, shift, "shift")
    if not any(shift):
        return f
    (vector,) = translate_rows(f, [shift], f.cutoff)
    exact = f.cutoff if f.is_polynomial else -1
    return TruncatedSeries(f.dim, f.cutoff, exact, f.is_polynomial, vector)


def evaluate(f: TruncatedSeries, point: Sequence[complex]) -> complex:
    """Value of the stored polynomial at the point (no tail correction)."""
    point = np.array(_checked_point(f.dim, point, "point"))
    monomials = np.prod(point ** _layout(f.dim, f.cutoff).exponents, axis=1)
    return complex(f.vector @ monomials)


def with_cutoff(f: TruncatedSeries, cutoff: int) -> TruncatedSeries:
    """Re-truncate (or extend) the series to a new total-degree cutoff."""
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    if cutoff == f.cutoff:
        return f
    vector = coefficient_vector(f, cutoff)
    # kept coefficients are still the true ones even if a polynomial's tail was cut
    exact = cutoff if f.is_polynomial else min(f.exact_degree, cutoff)
    poly = f.is_polynomial and not np.count_nonzero(f.vector[len(vector) :])
    return TruncatedSeries(f.dim, cutoff, exact, poly, vector)


def coefficient_vector(f: TruncatedSeries, degree: int) -> np.ndarray:
    """Coefficients of f over monomial_basis(dim, degree), graded-lex order.

    A copy of a prefix of f's vector, zero-padded past the cutoff.
    """
    out = np.zeros(_size(f.dim, degree), dtype=complex)
    n = min(len(out), len(f.vector))
    out[:n] = f.vector[:n]
    return out


def seminorm_rows(
    dim: int, cutoff: int, rows: np.ndarray, spec: SemiNormSpec
) -> np.ndarray:
    """Entry i is the upper sum ``sum |a_n| r^||n||`` of the coefficient row ``rows[i]``.

    ``rows`` is a ``(count, basis size)`` block over ``monomial_basis(dim,
    cutoff)`` and ``r = m * epsilon``.  Each row gives the number of a scalar
    loop over its nonzero coefficients in graded-lex order, bit for bit:
    ``np.hypot`` of the parts is ``abs(complex)``, ``r ** d`` comes from a
    table of Python powers, a zero coefficient adds nothing, and
    ``np.cumsum`` adds along the row in sequence.  The table stops at the
    first degree whose ``r ** d`` overflows, and a row with a nonzero
    coefficient there or above raises the OverflowError of that power, as
    its scalar loop does; a degree above the highest nonzero one is never
    formed.  A finite row whose sum overflows raises OverflowError too,
    where the scalar loop would return inf; a row holding inf or NaN keeps
    its non-finite sum, and no numpy warning is printed either way.  Of
    several failing rows the first one's error is raised, so a loop of
    one-row calls over the block raises the same error.
    """
    degree = _layout(dim, cutoff).degree
    rows = np.asarray(rows, dtype=complex)
    if rows.ndim != 2 or rows.shape[1] != len(degree):
        raise ValueError(
            f"rows of shape {rows.shape} do not match the {len(degree)} "
            f"monomials of degree <= {cutoff} in dim {dim}"
        )
    nonzero = rows != 0  # true for NaN
    filled = np.flatnonzero(nonzero.any(axis=0))
    if not len(filled):
        return np.zeros(len(rows))
    r = spec.radius
    powers: list[float] = []
    try:
        for d in range(degree[filled[-1]] + 1):
            powers.append(r ** d)
    except OverflowError as exc:
        past_range = exc
    power = np.array(powers)
    # the columns whose power is finite; a row with a nonzero beyond them
    # fails as its own scalar loop would
    width = min(filled[-1] + 1, _size(dim, len(power) - 1))
    # an overflow of finite rows raises below; inf times an underflowed
    # power is NaN, as in the scalar loop
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.hypot(rows.real[:, :width], rows.imag[:, :width]) * power[degree[:width]]
        terms[~nonzero[:, :width]] = 0.0
        sums = np.cumsum(terms, axis=1)[:, -1]
    overflowed = np.isinf(sums)
    overflowed[overflowed] = np.isfinite(rows[overflowed]).all(axis=1)
    failing = nonzero[:, width:].any(axis=1) | overflowed
    if failing.any():
        if nonzero[failing.argmax(), width:].any():
            raise past_range
        raise OverflowError(
            "the semi-norm majorant sum |a_n| r^||n|| of a finite row is past "
            "the float range"
        )
    return sums


def seminorm_bound(f: TruncatedSeries, spec: SemiNormSpec) -> float:
    """Upper bound for ``sup |f|`` over the polydisc of the spec.

    Returns ``sum |a_n| r^||n||`` with ``r = m * epsilon``, summed in
    graded-lex order: ``seminorm_rows`` on the one row of f's vector.  It
    bounds the stored polynomial on the whole polydisc, with equality for a
    single monomial; no lower estimate is computed.
    """
    return float(seminorm_rows(f.dim, f.cutoff, f.vector[None], spec)[0])
