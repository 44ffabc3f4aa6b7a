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

The tables behind the layout (basis, index positions, exponent matrix,
unit-step gather plans, falling factorials) are built once per
``(dim, cutoff)`` and owned by this module.  Differentiation and coordinate
multiplication are a gather and a scatter on the leading axis
(``_gather_derivative``, ``_scatter_coordinate``), so the same kernels act on
one coefficient vector or on a ``(basis size, batch)`` block of them;
linear combination is vector arithmetic.  Every gather of D^order goes
through one plan, ``_derivative_plan``, which builds only the leading rows it
is asked for: ``differentiate`` asks for all of them, ``derivative_rows``
(the rows of a derivative span) and ``combine_derivatives`` (a combination
of derivatives re-truncated to a lower degree) for a truncation prefix; the
latter two carry the exactness rules of the operations they stand for.  The
semi-norm upper sum accumulates term by term in graded-lex order, and
translation has one term loop, ``_translate_block``, which ``translate``
runs on one point and ``translate_rows`` on many in a single pass, each
point's arithmetic in the order of a scalar loop; the numbers they feed into
reports are reproducible bit for bit.

Operations only ever shrink the guaranteed region; nothing here attempts
tail estimates for non-polynomial data.  All values are immutable (the
vector is read-only) and every operation is a pure function of its inputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

Index = tuple[int, ...]

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


def index_binomial(n: Index, k: Index) -> int:
    """Product of per-axis binomial coefficients ``C(n_j, k_j)``."""
    out = 1
    for a, b in zip(n, k):
        out *= math.comb(a, b)
    return out


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
    #: per axis j: positions of the indices with n_j >= 1, in basis order.
    #: They are exactly ``m + e_j`` for m in the degree <= cutoff - 1 prefix,
    #: in the same order, so one array serves D_j (gather) and z_j (scatter).
    raised: tuple[np.ndarray, ...]
    #: per axis j: n_j at those positions, the weights of D_j
    unit_weight: tuple[np.ndarray, ...]
    #: ``perm(a, b)`` for ``0 <= a, b <= cutoff``: exact integers and their floats
    falling: tuple[np.ndarray, np.ndarray]


@lru_cache(maxsize=64)
def _layout(dim: int, cutoff: int) -> _Layout:
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    indices = [n for n in product(range(cutoff + 1), repeat=dim) if sum(n) <= cutoff]
    indices.sort(key=graded_key)
    exponents = np.array(indices, dtype=np.intp).reshape(len(indices), dim)
    raised = tuple(np.flatnonzero(exponents[:, j]) for j in range(dim))
    falling = [[math.perm(a, b) for b in range(cutoff + 1)] for a in range(cutoff + 1)]
    falling_exact = np.array(falling, dtype=object)
    return _Layout(
        cutoff=cutoff,
        position={n: i for i, n in enumerate(indices)},
        exponents=exponents,
        raised=raised,
        unit_weight=tuple(exponents[r, j].astype(float) for j, r in enumerate(raised)),
        falling=(falling_exact, falling_exact.astype(float)),
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
        pos = _layout(self.dim, self.cutoff).position.get(tuple(int(e) for e in idx))
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


def make_series(
    dim: int,
    cutoff: int,
    entries: Iterable[tuple[Sequence[int], complex]] | Mapping[Index, complex],
    is_polynomial: bool = False,
) -> TruncatedSeries:
    """Build a series from (index, coefficient) pairs; exact_degree = cutoff.

    This is where indices from outside the program are validated.  The
    constructor trusts the caller's exactness claim; downstream operations
    only ever shrink it.
    """
    layout = _layout(dim, cutoff)
    items = entries.items() if isinstance(entries, Mapping) else entries
    vector = np.zeros(len(layout.position), dtype=complex)
    seen: set[Index] = set()
    for raw_idx, c in items:
        idx = tuple(int(e) for e in raw_idx)
        if idx in seen:
            raise ValueError(f"duplicate index {idx}")
        seen.add(idx)
        pos = layout.position.get(idx)
        if pos is None:
            if len(idx) != dim:
                raise ValueError(f"index {idx} does not match dim {dim}")
            if any(e < 0 for e in idx):
                raise ValueError(f"negative entry in index {idx}")
            raise ValueError(f"index {idx} exceeds cutoff {cutoff}")
        vector[pos] = complex(c)
    return TruncatedSeries(dim, cutoff, cutoff, bool(is_polynomial), vector)


def zero_series(dim: int, cutoff: int) -> TruncatedSeries:
    """The identically-zero function (polynomial, fully exact)."""
    return make_series(dim, cutoff, [], is_polynomial=True)


def monomial(
    dim: int, cutoff: int, idx: Sequence[int], coeff: complex = 1.0
) -> TruncatedSeries:
    return make_series(dim, cutoff, [(tuple(idx), coeff)], is_polynomial=True)


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
    layout: _Layout, order: Index, rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gather positions and weights of the leading ``rows`` rows of D^order.

    Row m (0 < ||order|| <= cutoff, ``rows`` at most the size of the
    degree <= cutoff - ||order|| prefix) reads the index m + order.  Its
    position is reached by composing the unit-step maps ``raised[j]`` once
    per unit of the order, starting from the row numbers.  The weight of a
    row is ``float(prod_j perm(s_j, order_j))`` for s = m + order: the exact
    integer, rounded once.  Unit orders slice the cached plans.
    """
    axes = [j for j, k in enumerate(order) if k]
    if len(axes) == 1 and order[axes[0]] == 1:
        return layout.raised[axes[0]][:rows], layout.unit_weight[axes[0]][:rows]
    source = np.arange(rows)
    for j in axes:
        for _ in range(order[j]):
            source = layout.raised[j][source]
    exponents = layout.exponents[source]
    exact, rounded = layout.falling
    if len(axes) == 1:
        return source, rounded[exponents[:, axes[0]], order[axes[0]]]
    weight = np.ones(rows, dtype=object)
    for j in axes:
        weight = weight * exact[exponents[:, j], order[j]]
    return source, weight.astype(float)


def _gather_derivative(
    layout: _Layout, data: np.ndarray, order: Index, rows: int | None = None
) -> np.ndarray:
    """D^order on the leading axis of a coefficient vector or block.

    Only the leading ``rows`` rows are gathered (all of them by default), so
    a truncation prefix costs its own size; rows past what the cutoff
    determines are zero.  Returns ``data`` itself for the zero order at full
    length, else a new array.
    """
    rows = len(data) if rows is None else rows
    if not any(order) and rows == len(data):
        return data
    out = np.zeros((rows,) + data.shape[1:], dtype=complex)
    if not any(order):
        kept = min(rows, len(data))
        out[:kept] = data[:kept]
    elif sum(order) <= layout.cutoff:
        count = min(rows, _size(len(order), layout.cutoff - sum(order)))
        source, weight = _derivative_plan(layout, order, count)
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


def _checked_order(dim: int, order: Sequence[int]) -> Index:
    order = tuple(int(e) for e in order)
    if len(order) != dim:
        raise ValueError(f"order {order} does not match dim {dim}")
    if any(e < 0 for e in order):
        raise ValueError(f"negative entry in derivative order {order}")
    return order


def differentiate(f: TruncatedSeries, order: Sequence[int]) -> TruncatedSeries:
    """Partial derivative D^order: coefficient of z^m becomes ((m+order)!/m!) a_{m+order}.

    Over-differentiating a polynomial yields the zero series.  For a
    polynomial the result stays fully exact; otherwise the guaranteed region
    shrinks by ``||order||``.
    """
    order = _checked_order(f.dim, order)
    if not any(order):
        return f
    out = _gather_derivative(_layout(f.dim, f.cutoff), f.vector, order)
    exact = f.cutoff if f.is_polynomial else max(-1, f.exact_degree - sum(order))
    return TruncatedSeries(f.dim, f.cutoff, exact, f.is_polynomial, out)


def derivative_rows(
    f: TruncatedSeries, orders: Sequence[Sequence[int]], degree: int
) -> np.ndarray:
    """Row i is ``coefficient_vector(differentiate(f, orders[i]), degree)``.

    Each row gathers only the degree <= ``degree`` prefix, so a short
    truncation of a long series costs the truncation's size.
    """
    layout = _layout(f.dim, f.cutoff)
    out = np.zeros((len(orders), _size(f.dim, degree)), dtype=complex)
    for i, n in enumerate(orders):
        n = _checked_order(f.dim, n)
        out[i] = _gather_derivative(layout, f.vector, n, out.shape[1])
    return out


def combine_derivatives(
    f: TruncatedSeries, terms: Mapping[Index, complex], degree: int
) -> TruncatedSeries:
    """``sum c_n D^n f`` over ``terms = {n: c_n}``, re-truncated to the degree.

    Vector and flags equal ``with_cutoff(linear_combine([(c_n, differentiate(f,
    n)), ...]), degree)``, but only the kept rows are gathered.  A polynomial
    f is the exception: its result stays a polynomial only if the dropped
    tail vanishes, so all of its rows are combined.
    """
    orders = [(_checked_order(f.dim, n), complex(c)) for n, c in terms.items()]
    if not orders:
        raise ValueError("combine_derivatives needs at least one term")
    kept = _size(f.dim, degree)
    rows = len(f.vector) if f.is_polynomial else min(kept, len(f.vector))
    layout = _layout(f.dim, f.cutoff)
    acc = np.zeros(rows, dtype=complex)
    for n, w in orders:
        if w != 0:
            acc += w * _gather_derivative(layout, f.vector, n, rows)
    vector = np.zeros(kept, dtype=complex)
    vector[: min(kept, rows)] = acc[:kept]
    if f.is_polynomial:
        poly = not np.count_nonzero(acc[kept:])
        return TruncatedSeries(f.dim, degree, degree, poly, vector)
    exact = max(-1, f.exact_degree - max(sum(n) for n, _ in orders))
    return TruncatedSeries(f.dim, degree, min(exact, degree), False, vector)


def multiply_coordinate(f: TruncatedSeries, axis: int) -> TruncatedSeries:
    """Multiply by the coordinate z_axis (axis is 1-based).

    Coefficients pushed past the cutoff are dropped; if any nonzero one is,
    the result is no longer a whole polynomial, but the kept vector is still
    exact (multiplication by z only shifts known coefficients).
    """
    if not 1 <= axis <= f.dim:
        raise ValueError(f"axis {axis} out of range for dim {f.dim}")
    layout = _layout(f.dim, f.cutoff)
    out = _scatter_coordinate(layout, f.vector, axis)
    kept = len(layout.raised[axis - 1])
    poly = f.is_polynomial and not np.count_nonzero(f.vector[kept:])
    exact = f.cutoff if f.is_polynomial else min(f.cutoff, f.exact_degree + 1)
    return TruncatedSeries(f.dim, f.cutoff, exact, poly, out)


#: elements of the (pairs, shifts) weight arrays that translation holds at once
_TRANSLATE_CHUNK = 1 << 16


def _translate_block(
    f: TruncatedSeries, shifts: Sequence[tuple[complex, ...]]
) -> np.ndarray:
    """Coefficients of ``f(z + s)`` for each shift s: a ``(basis size, S)`` block.

    The coefficient of z^m sums ``C(idx, m) a_idx prod_j s_j^(idx_j - m_j)``
    over the terms a_idx of f and m <= idx.  One Python pass over those
    pairs, in graded-lex order, forms the shift-free weight, the Python
    complex ``a_idx * C(idx, m)``.  Then every shift sees the operations of
    a scalar loop in the same order: one product per axis with a positive
    power (powers by ``complex.__pow__``), then the sum into row m, pair
    after pair (``np.add.at`` applies repeated rows in order).  The pairs
    are taken in chunks of at most ``_TRANSLATE_CHUNK`` weights.  Complex
    products run on split real and imaginary arrays, because numpy's complex
    multiply may fuse a multiply-add and round differently from Python's.
    The column of an all-zero shift is f's vector itself.
    """
    dim, cutoff = f.dim, f.cutoff
    layout = _layout(dim, cutoff)
    # tabled once per call: C(a, b) as exact integers and shift_j ** e
    comb = [[math.comb(a, b) for b in range(a + 1)] for a in range(cutoff + 1)]
    rows: list[int] = []
    weights: list[complex] = []
    powers: list[Index] = []
    for idx, c in f.terms():
        for m in product(*(range(e + 1) for e in idx)):
            binom = 1
            for a, b in zip(idx, m):
                binom *= comb[a][b]
            rows.append(layout.position[m])
            weights.append(c * binom)
            powers.append(idx)
    # the power of shift_j that pair p multiplies by: idx_j - m_j
    exps = np.array(powers, dtype=np.intp).reshape(-1, dim) - layout.exponents[rows]
    weight = np.array(weights, dtype=complex)
    power = []
    for j in range(dim):
        table = np.array([[s[j] ** e for s in shifts] for e in range(cutoff + 1)])
        power.append((table.real, table.imag))
    re = np.zeros((len(layout.exponents), len(shifts)))
    im = np.zeros((len(layout.exponents), len(shifts)))
    chunk = max(1, _TRANSLATE_CHUNK // max(1, len(shifts)))
    for lo in range(0, len(rows), chunk):
        part = slice(lo, lo + chunk)
        wr = np.repeat(weight[part].real[:, None], len(shifts), axis=1)
        wi = np.repeat(weight[part].imag[:, None], len(shifts), axis=1)
        for j in range(dim):
            e = exps[part, j]
            sel = np.flatnonzero(e)
            pr, pi = power[j][0][e[sel]], power[j][1][e[sel]]
            ar, ai = wr[sel], wi[sel]
            wr[sel] = ar * pr - ai * pi
            wi[sel] = ar * pi + ai * pr
        np.add.at(re, rows[part], wr)
        np.add.at(im, rows[part], wi)
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    for k, s in enumerate(shifts):
        if not any(s):
            out[:, k] = f.vector
    return out


def translate(f: TruncatedSeries, shift: Sequence[complex]) -> TruncatedSeries:
    """Shift of argument: returns the coefficients of ``f(z + shift)``.

    The coefficient of z^m is ``sum_k C(m+k, k) a_{m+k} shift^k`` over stored
    indices (``_translate_block`` on one shift).  For a polynomial this is
    exact.  Otherwise the missing tail of f contaminates every output
    coefficient, so the result is flagged exactness-free (exact_degree = -1)
    and an ApproximationWarning is emitted; rank tests that consume such rows
    are tolerance-based.
    """
    shift = tuple(complex(s) for s in shift)
    if len(shift) != f.dim:
        raise ValueError(f"shift {shift} does not match dim {f.dim}")
    if all(s == 0 for s in shift):
        return f
    vector = _translate_block(f, [shift])[:, 0]
    if f.is_polynomial:
        return TruncatedSeries(f.dim, f.cutoff, f.cutoff, True, vector)
    _warn_approximate_translate()
    return TruncatedSeries(f.dim, f.cutoff, -1, False, vector)


def translate_rows(
    f: TruncatedSeries, shifts: Sequence[Sequence[complex]], degree: int
) -> np.ndarray:
    """Row i is ``coefficient_vector(translate(f, shifts[i]), degree)``.

    All rows come from one ``_translate_block`` pass.  For a non-polynomial
    f one ApproximationWarning covers every nonzero shift of the call.
    """
    shifts = [tuple(complex(c) for c in s) for s in shifts]
    for s in shifts:
        if len(s) != f.dim:
            raise ValueError(f"shift {s} does not match dim {f.dim}")
    block = _translate_block(f, shifts)
    out = np.zeros((len(shifts), _size(f.dim, degree)), dtype=complex)
    kept = min(out.shape[1], len(block))
    out[:, :kept] = block[:kept].T
    if not f.is_polynomial and any(any(s) for s in shifts):
        _warn_approximate_translate()
    return out


def _warn_approximate_translate() -> None:
    """Warn, at the caller of translate or translate_rows, of approximate rows."""
    warnings.warn(
        "translating a non-polynomial truncation: the result has no "
        "exactness guarantee",
        ApproximationWarning,
        stacklevel=3,
    )


def evaluate(f: TruncatedSeries, point: Sequence[complex]) -> complex:
    """Value of the stored polynomial at the point (no tail correction)."""
    point = np.array([complex(p) for p in point])
    if len(point) != f.dim:
        raise ValueError(f"point {tuple(point)} does not match dim {f.dim}")
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


def seminorm_bound(f: TruncatedSeries, spec: SemiNormSpec) -> float:
    """Upper bound for ``sup |f|`` over the polydisc of the spec.

    Returns ``sum |a_n| r^||n||`` with ``r = m * epsilon``, accumulated in
    graded-lex order.  It bounds the stored polynomial on the whole polydisc,
    with equality for a single monomial; no lower estimate is computed.
    """
    r = spec.radius
    upper = 0.0
    for idx, c in f.terms():
        upper += abs(c) * r ** sum(idx)
    return upper
