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

The tables behind the layout are owned by this module and built the first
time a gather or a lookup reads them.  Per dim, only a cutoff past the
largest one built so far builds tables (``_layout``: the exponent matrix by
one numpy gather per dim level, ``_graded_exponents``, its degrees and the
unit-step gather maps); a smaller cutoff's layout is a prefix view of them.
The index positions (``_positions``) and the per-axis derivative weights,
one step table per cutoff shared by every dim (``_step_weight``), are cached
apart.  A series, or a solve, that needs only the size of its basis makes
the layout's budget check (``_checked_layout``, cached) and builds no table.
Differentiation and coordinate multiplication are a gather and a scatter on
a coefficient vector (``_gather_derivative``, ``_scatter_coordinate``);
linear combination is vector arithmetic.  Every gather of D^n goes through
one plan, ``_derivative_plan``: the leading rows of D^n for a ``(K, dim)``
array of orders, as ``(K, rows)`` grids of source positions and weights,
each weight the exact integer ``prod_j perm(s_j, n_j)`` rounded once.
``derivative_rows`` (the rows of a derivative span) is one plan call and one
gather; ``_gather_derivative`` (behind ``differentiate`` and
``operators.apply_weyl``) runs the plan with K = 1, or slices the layout for
a unit order.  The exactness rule of a ``z^alpha D^beta`` term is stated
once, ``_exact_after``: ``differentiate``, ``multiply_coordinate`` and
``operators.apply_weyl`` all read it, and ``derivative_rows`` carries the
rules of the derivatives it stands for.  The semi-norm upper sum has one
form, ``seminorm_rows``, over a block of coefficient rows; each row gets the
number of a scalar loop over its terms in graded-lex order.  Translation is
the same plan with binomial factors, built in one place, ``translate_rows``;
``translate`` is its one-row case.  Its byte estimate is stated once,
``_checked_translates``, as ``_checked_rows`` is for a derivative span, so a
caller can make the same check before it solves the series to translate.
The rows are reproducible for equal inputs.  Residual verdicts fold with
``worst``, which keeps a NaN wherever it stands.

A given multi-index is checked in one place, ``_checked_index``, a given
axis in ``_checked_axis``, a given point (a shift, a sample, an evaluation
point) in ``_checked_point``, and a layout's ``(dim, cutoff)`` in
``_checked_layout``, which refuses, before any table exists, a layout whose
estimated size passes one budget.  Every ``{index: coefficient}`` table
(series literals, convolution symbols, ladder vectors) is read by
``term_table``, which also refuses a repeated index.

The library's records are built with no code generated at import: a record
that checks its inputs derives from :class:`Record`, and one that checks
nothing is a ``typing.NamedTuple``.

Operations only ever shrink the guaranteed region; nothing here attempts
tail estimates for non-polynomial data.  All values are immutable (the
vector is read-only) and every operation is a pure function of its inputs.
"""

from __future__ import annotations

import ctypes
import math
import os
import sys
import threading
from functools import cache, lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

Index = tuple[int, ...]
#: an index table as a mapping or as (index, coefficient) pairs
Entries = Iterable[tuple[Sequence[int], complex]] | Mapping[Index, complex]


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
    """Tables of the graded-lex basis of one ``(dim, cutoff)``, views of its dim's largest."""

    cutoff: int
    #: the indices as a (size, dim) integer matrix
    exponents: np.ndarray
    #: their total degrees
    degree: np.ndarray
    #: per axis j: positions of the indices with n_j >= 1, in basis order.
    #: They are exactly ``m + e_j`` for m in the degree <= cutoff - 1 prefix,
    #: in the same order, so one array serves D_j (gather) and z_j (scatter).
    raised: tuple[np.ndarray, ...]


#: integers from here up round to 2^1024, past the largest float
_FLOAT_LIMIT = int(sys.float_info.max) + 2**970


def _rounded(exact: np.ndarray) -> np.ndarray:
    """An object array of integers rounded to floats, inf past the float range."""
    fits = exact < _FLOAT_LIMIT
    out = np.full(exact.shape, math.inf)
    out[fits] = exact[fits].astype(float)
    return out


#: the most bytes one layout's tables, or one call's row block, sample draw
#: or orbit, may take by its estimate: about ten times the largest estimate
#: of a layout built by the tests, the bundled scenarios or the benchmark
#: (27 MB, dim 1 at cutoff 300; 9.2 MB at dim 2, cutoff 175)
_LAYOUT_BUDGET = 2**28


def _checked_bytes(estimate: float, what: str) -> None:
    """The one budget check: refuse ``what`` if its estimated bytes pass ``_LAYOUT_BUDGET``."""
    if estimate > _LAYOUT_BUDGET:
        raise ValueError(
            f"{what} would take about {estimate:.3g} bytes, past the budget of {_LAYOUT_BUDGET}"
        )


@lru_cache(maxsize=256)
def _checked_layout(dim: int, cutoff: int) -> None:
    """The one check of a layout's ``(dim, cutoff)``, before any table is built.

    Refuses dim < 1, cutoff < 0, and a layout whose tables, built whole,
    would take more than ``_LAYOUT_BUDGET`` bytes by an estimate from float
    logarithms: per basis row, its index tuple and ``_positions`` entry and
    its entries in the exponent, degree and per-axis tables; per cell of the
    ``(cutoff + 2) x (cutoff + 1)`` step table, a pointer, a float and an
    integer of at most log2(cutoff!) bits.  It is an upper bound: a layout
    below its dim's largest is views, and one step table serves every dim.
    A passed check is cached, so a series or a solve that needs only the
    size of its basis pays a cache hit, not the estimate.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    d, n = min(dim, 2**32), min(cutoff, 2**32)  # past 2^32, either is past any budget
    log_rows = math.lgamma(n + d + 1) - math.lgamma(d + 1) - math.lgamma(n + 1)
    cell_bytes = 44 + math.lgamma(n + 1) / math.log(256)
    estimate = math.exp(min(log_rows, 200.0)) * (128 + 56 * d) + (n + 2) * (n + 1) * cell_bytes
    _checked_bytes(estimate, f"the tables of degree <= {cutoff} in dim {dim}")


def _graded_exponents(dim: int, cutoff: int) -> np.ndarray:
    """The indices of degree <= ``cutoff`` in graded-lex order, as a ``(size, dim)`` matrix.

    The degree-k block of dim d is, for e = 0 .. k in order, e prepended to
    the degree-(k - e) block of dim d - 1; so each dim is one gather of the
    rows of the one before, and dim 1 is 0 .. cutoff.
    """
    table = np.arange(cutoff + 1, dtype=np.intp).reshape(-1, 1)
    if dim == 1:
        return table
    steps = np.arange(cutoff + 1)
    degree = steps.repeat(steps + 1)  # the blocks (k, e), e = 0 .. k, in order
    first = np.arange(len(degree)) - steps.cumsum().repeat(steps + 1)
    lower = degree - first
    count = np.ones(cutoff + 1, dtype=np.intp)  # rows per degree of dim 1
    for _ in range(dim - 1):
        end = count.cumsum()  # the rows per degree of the next dim
        length = count[lower]
        # row i of block (k, e) is the i-th row of degree k - e in the table
        offset = (end - count)[lower] - (length.cumsum() - length)
        rows = offset.repeat(length) + np.arange(length.sum())
        table = np.column_stack((first.repeat(length), table[rows]))
        count = end
    return table


@lru_cache(maxsize=64)
def _step_weight(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """The weight ``perm(m + n, n)`` of D^n on exponent m along one axis, at [n, m].

    Exact integers and their floats (inf past the float range), 0 where
    ``m + n > cutoff``; one table per cutoff, shared by every dim.  Row n is
    the row before it times ``m + n``, on Python integers.
    """
    rows = [[1] * (cutoff + 1)]
    for n in range(1, cutoff + 1):
        last = rows[-1]
        rows.append([(m + n) * last[m] for m in range(cutoff + 1 - n)] + [0] * n)
    rows.append([0] * (cutoff + 1))
    exact = np.array(rows, dtype=object)
    return exact, _rounded(exact)


#: per dim, the largest layout built; replaced whole, never changed in place
_largest: dict[int, _Layout] = {}


@lru_cache(maxsize=64)
def _layout(dim: int, cutoff: int) -> _Layout:
    """The tables of ``(dim, cutoff)``: prefix views of the largest layout of ``dim``.

    A cutoff past the largest first builds its tables whole and becomes it;
    ``raised`` is a view of degree <= cutoff - 1.
    """
    global _largest
    _checked_layout(dim, cutoff)
    largest = _largest.get(dim)
    if largest is None or largest.cutoff < cutoff:
        exponents = _graded_exponents(dim, cutoff)
        raised = tuple(np.flatnonzero(exponents[:, j]) for j in range(dim))
        largest = _Layout(cutoff, exponents, exponents.sum(axis=1), raised)
        _largest = {**_largest, dim: largest}
    size, inner = _size(dim, cutoff), _size(dim, cutoff - 1)
    return _Layout(cutoff, largest.exponents[:size], largest.degree[:size],
                   tuple(r[:inner] for r in largest.raised))


@lru_cache(maxsize=64)
def _positions(dim: int, cutoff: int) -> dict[Index, int]:
    """Index -> position in the basis of ``(dim, cutoff)``, in basis order."""
    return dict(zip(zip(*_layout(dim, cutoff).exponents.T.tolist()), range(_size(dim, cutoff))))


def _size(dim: int, degree: int) -> int:
    """Number of multi-indices with ``||n|| <= degree`` (0 for degree < 0)."""
    return math.comb(degree + dim, dim) if degree >= 0 else 0


def monomial_basis(dim: int, degree: int) -> list[Index]:
    """All multi-indices with ``||n|| <= degree`` in graded-lex order."""
    return list(_positions(dim, degree))


class Record:
    """Base of the library's validating records: immutable values with named fields.

    A subclass's annotations name its fields, in order; its ``__init__``
    checks them and stores each once, with ``vars(self).update(...)``.  A
    record refuses assignment and deletion.  Two records are equal when they
    are of the same class and their tuples of field values are equal, and a
    record hashes that tuple; the repr is ``Name(field=value, ...)``.
    Attributes set in ``__init__`` but not annotated (derived tables) take
    part in none of these.
    """

    _fields = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class TruncatedSeries(Record):
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

    def __init__(
        self, dim: int, cutoff: int, exact_degree: int, is_polynomial: bool, vector: np.ndarray
    ) -> None:
        vars(self).update(
            dim=dim, cutoff=cutoff, exact_degree=exact_degree,
            is_polynomial=is_polynomial, vector=vector,
        )
        # the checks are a method of their own, looked up on each call, so
        # perfbench/layertrace.py can count constructions by wrapping it
        self.__post_init__()

    def __post_init__(self) -> None:
        _checked_layout(self.dim, self.cutoff)
        size = _size(self.dim, self.cutoff)
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
        vars(self)["vector"] = vector

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
        pos = _positions(self.dim, self.cutoff).get(idx)
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


class SemiNormSpec(Record):
    """Sup-norm over the closed polydisc ``{ |z_j| <= m * epsilon }``."""

    m: int
    epsilon: float

    def __init__(self, m: int, epsilon: float) -> None:
        vars(self).update(m=m, epsilon=epsilon)
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
    position = _positions(dim, cutoff)
    vector = np.zeros(len(position), dtype=complex)
    for idx, c in term_table(dim, entries).items():
        pos = position.get(idx)
        if pos is None:
            raise ValueError(f"index {idx} exceeds cutoff {cutoff}")
        vector[pos] = c
    return TruncatedSeries(dim, cutoff, cutoff, bool(is_polynomial), vector)


def zero_series(dim: int, cutoff: int) -> TruncatedSeries:
    """The identically-zero function (polynomial, fully exact), built with no index table."""
    _checked_layout(dim, cutoff)  # before a vector of that size is allocated
    return TruncatedSeries(dim, cutoff, cutoff, True, np.zeros(_size(dim, cutoff), dtype=complex))


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
    the per-axis ``(exact, rounded)`` table laid out as ``_step_weight``'s
    (which it defaults to): the factor of order n_j on exponent m_j at [n_j,
    m_j], 0 for ``m_j + n_j > cutoff``.  Cell (k, m) of order n reads the
    index s = m + n: per axis j that some order steps along, the rounded
    factor (``perm(s_j, n_j)`` by default) is a take of the table's columns
    by m_j, then of its rows by n_j, and the position a take of the n_j-th
    power of ``raised[j]`` in a table built for this call (``_unit_powers``).
    Later axes write into the grids, so a call allocates three.  The weight,
    the exact product of the factors rounded once, is the product of the
    rounded factors below 2^53, where every factor and partial product is an
    exact integer.  At or above it, a cell of at most two non-unit factors,
    each exact as a float, keeps that product, rounded once by one
    multiplication; any other cell there is recomputed from the exact
    integers.  A mask gives weight 0 to a cell with ``||s|| > cutoff`` (an
    over-differentiated short polynomial), whose position stays inside the
    basis; only a plan whose last row's degree plus largest ``||n||`` passes
    the cutoff builds it, so a derivative span builds none.  Every other
    weight is at least 1, and one past the float range raises OverflowError.
    """
    exact, rounded = _step_weight(layout.cutoff) if factors is None else factors
    tops = orders.max(axis=0).tolist()
    size = len(layout.exponents)
    source = weight = scratch = None
    for j, top in enumerate(tops):
        if top:
            n = orders[:, j]
            column = rounded[: top + 1].take(layout.exponents[:rows, j], axis=1)
            powers = _unit_powers(layout, j, top)
            if weight is None:  # the first axis that steps fills both grids
                weight = column.take(n, axis=0)
                source = powers[:, :rows].take(n, axis=0)
                continue
            if scratch is None:
                scratch = np.empty(weight.shape)
            # indices are in range; "clip" writes out directly, "raise" a copy
            column.take(n, axis=0, out=scratch, mode="clip")
            # an overflow, or inf x 0 in a masked cell, is guarded below
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(weight, scratch, out=weight)
            at = scratch.view(np.int64)  # row n_j of the flattened table
            np.add(source, (n * size)[:, None], out=at)
            powers.take(at, out=source, mode="clip")
    if weight is None:  # every order is the zero order
        return np.arange(rows)[None].repeat(len(orders), axis=0), np.ones((len(orders), rows))
    # the degree a cell can reach: the last row plus the largest order's
    total = orders.sum(axis=1)
    reach = int(layout.degree[rows - 1]) + int(total.max())
    if reach > layout.cutoff:  # some cell lies past the cutoff
        outside = layout.degree[:rows] + total[:, None] > layout.cutoff
        np.copyto(weight, 0.0, where=outside)
    # a weight is at most ||s||! <= reach!, so most plans check no cell
    if math.factorial(min(reach, layout.cutoff)) >= 2**53 and weight.max() >= 2.0**53:
        if len(tops) - tops.count(0) > 1:
            k, m = np.nonzero((weight >= 2.0**53) & (np.count_nonzero(orders, axis=1)[:, None] > 1))
            if len(k):
                # per factor 0 if unit, 1 if not, 3 if inexact: a sum past 2 is redone
                top = max(tops) + 1
                cost = np.where(exact[:top] == rounded[:top], rounded[:top] != 1, 3)
                at = [n[k] * exact.shape[1] + e[m] for n, e in zip(orders.T, layout.exponents.T)]
                redo = sum(cost.take(a) for a in at) > 2
                weight[k[redo], m[redo]] = _rounded(math.prod(exact.take(a[redo]) for a in at))
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


def _gather_derivative(
    layout: _Layout, data: np.ndarray, order: Index, carry: bool = False
) -> np.ndarray:
    """D^order on a coefficient vector.

    Rows past what the cutoff determines are zero.  A unit order D_j
    gathers ``raised[j]`` and weighs output row m by ``m_j + 1``; any other
    order is the plan with K = 1.  Returns ``data`` itself for the zero
    order, else a new array.  Callers ignore numpy's overflow warnings: a
    finite coefficient times its weight past the float range raises
    OverflowError, or with ``carry`` (``apply_weyl``) is inf.
    """
    if not any(order):
        return data
    out = np.zeros(data.shape, dtype=complex)
    degree = sum(order)
    if degree <= layout.cutoff:
        count = _size(len(order), layout.cutoff - degree)
        if degree == 1:
            axis = order.index(1)
            source, weight = layout.raised[axis], layout.exponents[:count, axis] + 1
        else:
            (source,), (weight,) = _derivative_plan(layout, np.array([order]), count)
        np.multiply(data[source], weight, out=out[:count])
        if not carry:
            _checked_products(out[:count], data, source)
    return out


def _checked_products(cells: np.ndarray, data: np.ndarray, source: np.ndarray) -> None:
    """Refuse a non-finite cell (a coefficient times its weight) of finite ``data[source]``."""
    finite = np.isfinite(cells)
    if not finite.all() and np.isfinite(data[source[~finite]]).any():
        raise OverflowError("a coefficient times its weight is past the float range")


def _scatter_coordinate(layout: _Layout, data: np.ndarray, axis: int) -> tuple[np.ndarray, bool]:
    """Multiplication by z_axis (1-based) on a coefficient vector.

    Rows of degree ``cutoff`` would move past the cutoff and are dropped;
    also returns whether a nonzero (or NaN) one was.
    """
    target = layout.raised[axis - 1]
    out = np.zeros(data.shape, dtype=complex)
    out[target] = data[: len(target)]  # the degree <= cutoff - 1 prefix
    return out, bool(data[len(target) :].any())


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
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises in the gather
        out = _gather_derivative(_layout(f.dim, f.cutoff), f.vector, order)
    return TruncatedSeries(f.dim, f.cutoff, _exact_after(f, 0, sum(order)), f.is_polynomial, out)


def derivative_rows(
    f: TruncatedSeries, orders: Sequence[Sequence[int]], degree: int
) -> np.ndarray:
    """Row i is ``coefficient_vector(differentiate(f, orders[i]), degree)``.

    One plan over all orders and one gather fill the degree <= ``degree``
    prefix, so a short truncation of a long series costs the truncation's
    size.  The first bad order raises the error ``differentiate`` would.
    """
    # entries capped at cutoff + 1 as Python integers, before the conversion
    checked = (_checked_index(f.dim, n, "derivative order") for n in orders)
    capped = [[min(e, f.cutoff + 1) for e in n] for n in checked]
    table = np.array(capped, dtype=np.intp).reshape(len(orders), f.dim)
    return _gather_rows(f, table, degree)


def _checked_rows(dim: int, cutoff: int, count: int, degree: int, lowest: int) -> int:
    """The budget check of ``count`` gathered rows, before anything is built.

    The rows are the degree <= ``degree`` prefixes of derivatives of a
    series of ``cutoff`` in ``dim``, the lowest of total order ``lowest``.
    An upper estimate of the bytes must fit the budget: 16 a cell of the
    block, 64 a gathered cell for the plan's grids and the gathered
    temporary, and one unit-power table.  Returns the number of leading
    cells the cutoff determines in some row.
    """
    width = _size(dim, degree)
    rows = min(width, _size(dim, cutoff - lowest))
    powers = 8 * (cutoff + 2) * _size(dim, cutoff)
    _checked_bytes(count * (16 * width + 64 * rows) + powers,
                   f"{count} rows of degree <= {degree} in dim {dim}")
    return rows


def _gather_rows(
    f: TruncatedSeries, orders: np.ndarray, degree: int, factors: tuple | None = None,
    real: bool = False,
) -> np.ndarray:
    """One plan call with ``factors`` and one gather: the rows of checked orders.

    ``orders`` is a ``(K, dim)`` array with entries at most ``cutoff + 1``;
    ``factors`` defaults to the cutoff's step table, as in the plan.  With
    ``real`` the block is float64, the real parts of the complex one.

    Only the degree <= ``degree`` prefix that the cutoff determines is
    gathered; the rest of each row is zero.  ``_checked_rows`` refuses a
    block past the budget first.  A finite coefficient whose product with
    its weight is past the float range raises OverflowError; an inf or NaN
    coefficient carries into its cells.
    """
    total = orders.sum(axis=1)
    lowest = int(total.min(initial=f.cutoff + 1))
    rows = _checked_rows(f.dim, f.cutoff, len(orders), degree, lowest)
    data = f.vector.real if real else f.vector
    out = np.zeros((len(orders), _size(f.dim, degree)), dtype=data.dtype)
    if rows:
        layout = _layout(f.dim, f.cutoff)
        source, weight = _derivative_plan(layout, orders, rows, factors)
        block = out[:, :rows]
        data.take(source, out=block, mode="clip")  # positions are in the basis
        if layout.degree[rows - 1] + total.max() > f.cutoff:
            # the plan masked the cells the cutoff leaves undetermined with
            # weight 0 (see its reach); zeroed first, they end +0j
            np.copyto(block, 0, where=weight == 0)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
            np.multiply(block, weight, out=block)
        _checked_products(block, data, source)
    return out


def multiply_coordinate(f: TruncatedSeries, axis: int) -> TruncatedSeries:
    """Multiply by the coordinate z_axis (axis is 1-based).

    Coefficients pushed past the cutoff are dropped; if any nonzero one is,
    the result is no longer a whole polynomial, but the kept vector is still
    exact (multiplication by z only shifts known coefficients).
    """
    axis = _checked_axis(f.dim, axis)
    out, spilled = _scatter_coordinate(_layout(f.dim, f.cutoff), f.vector, axis)
    poly = f.is_polynomial and not spilled
    return TruncatedSeries(f.dim, f.cutoff, _exact_after(f, 1, 0), poly, out)


@cache
def _openblas_thread_calls() -> tuple | None:
    """The (get, set) thread-count calls of the OpenBLAS numpy's wheel loaded, or None.

    Looked up once, at the first pinned call, not at import.  The wheel
    keeps its libraries in ``numpy.libs`` beside the package; another BLAS
    (MKL, Accelerate, a system build) has no such directory or symbol, and
    is left as it is.  The names are those a numpy >= 2 wheel's
    scipy-openblas exports.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = sorted(os.listdir(libs))
    except OSError:
        return None
    for name in names:
        if "openblas" not in name:
            continue
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


class _OneBlasThread:
    """Context manager: numpy's OpenBLAS runs on one thread inside, as before outside.

    Entries are counted under a lock, so nested entries, an exception and
    Python threads that overlap all leave the caller's count as it was: the
    first entrant saves it and sets 1, the last one out restores it.  With
    no OpenBLAS setter the calls run unpinned.

    One thread is the one count every host has, so a build's bytes do not
    depend on the thread setting.  It is also the faster count for every
    span the tasks build today (README, "Tests").
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 1

    def __enter__(self) -> None:
        with self._lock:
            calls = _openblas_thread_calls()
            if calls is not None and self._depth == 0:
                get, set_ = calls
                self._saved = get()
                set_(1)
            self._depth += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            calls = _openblas_thread_calls()
            if calls is not None and self._depth == 0:
                calls[1](self._saved)


_one_blas_thread = _OneBlasThread()


def _checked_translates(dim: int, cutoff: int, count: int, degree: int) -> None:
    """The budget check of ``count`` translates of a series of ``cutoff``, before anything is built.

    Per shift: its power table, its Vandermonde row with the per-axis
    products behind it, and its output row, 16 bytes a cell; then the
    gathered block of every order up to the cutoff, as ``_checked_rows``
    estimates it.
    """
    cells = dim * (cutoff + 1) + (dim + 1) * _size(dim, cutoff) + _size(dim, degree)
    _checked_bytes(16 * count * cells, f"{count} translates of degree <= {degree}")
    _checked_rows(dim, cutoff, _size(dim, cutoff), degree, 0)


def translate_rows(
    f: TruncatedSeries, shifts: Sequence[tuple[complex, ...]], degree: int
) -> np.ndarray:
    """Row i is the degree <= ``degree`` coefficient vector of ``f(z + shifts[i])``.

    Each shift is a point its caller checked (``_checked_point``).

    ``f(z + s)_m = sum_k s^k C(m + k, k) a_(m+k)``: one plan over every
    order k with ``||k|| <= cutoff``, per-axis factors ``comb(m + k, k)``,
    gathers the rows B, and ``V @ B`` sums them, ``V[i, k] = shifts[i]^k``
    by repeated multiplication (one past the float range raises
    OverflowError, and so does a sum past it over a column of finite B).
    B costs basis(cutoff) x basis(min(degree, cutoff)) cells, as a
    derivative span with ``max_order = cutoff`` does.  The rows
    are reproducible for equal inputs, but not bit for bit those of a scalar
    term loop, which sums in another order.  The row of an all-zero shift is
    f's vector itself.  A non-polynomial f is translated as the polynomial
    it stores; ``completeness.translate_span`` refuses one.
    """
    layout = _layout(f.dim, f.cutoff)
    _checked_translates(f.dim, f.cutoff, len(shifts), degree)
    factorial = np.array([math.factorial(n) for n in range(f.cutoff + 2)], dtype=object)
    binomial = _step_weight(f.cutoff)[0] // factorial[:, None]  # perm(m + n, n) / n!
    block = _gather_rows(f, layout.exponents, degree, (binomial, _rounded(binomial)))
    power = np.ones((len(shifts), f.dim, f.cutoff + 1), dtype=complex)
    power[:, :, 1:] = np.array(shifts, dtype=complex).reshape(len(shifts), f.dim, 1)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        np.cumprod(power, axis=2, out=power)
        vandermonde = power[:, np.arange(f.dim), layout.exponents].prod(axis=2)
    if np.isinf(vandermonde).any():  # V @ B would turn it into NaN, even times 0
        raise OverflowError("a shift power is past the float range")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        with _one_blas_thread:
            out = vandermonde @ block
    zero = [not any(s) for s in shifts]
    out[zero] = coefficient_vector(f, degree)
    bad = ~np.isfinite(out)
    if bad.any() and np.isfinite(block[:, bad.any(axis=0)]).all(axis=0).any():
        raise OverflowError("a translate coefficient is past the float range")
    return out


def translate(f: TruncatedSeries, shift: Sequence[complex]) -> TruncatedSeries:
    """Shift of argument: returns the coefficients of ``f(z + shift)``.

    The one-row case of ``translate_rows``; an all-zero shift returns f
    itself.  For a polynomial the result is exact.  Otherwise the missing
    tail of f contaminates every output coefficient, so the result is
    flagged exactness-free (exact_degree = -1); no warning is issued.
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
