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
linear combination is vector arithmetic.  The semi-norm upper sum and
translation accumulate term by term in graded-lex order, so the numbers they
feed into reports are reproducible bit for bit.

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


def _derivative_plan(layout: _Layout, order: Index) -> tuple[np.ndarray, np.ndarray]:
    """Gather positions and weights of D^order (0 < ||order|| <= cutoff).

    The indices s >= order, in basis order, are m + order for m in the
    degree <= cutoff - ||order|| prefix, in the same order.  The weight of s
    is ``float(prod_j perm(s_j, order_j))``: the exact integer, rounded once.
    Unit orders use the cached plans; other orders are built per call.
    """
    axes = [j for j, k in enumerate(order) if k]
    if len(axes) == 1 and order[axes[0]] == 1:
        return layout.raised[axes[0]], layout.unit_weight[axes[0]]
    source = np.flatnonzero((layout.exponents >= order).all(axis=1))
    exponents = layout.exponents[source]
    exact, rounded = layout.falling
    if len(axes) == 1:
        return source, rounded[exponents[:, axes[0]], order[axes[0]]]
    weight = np.ones(len(source), dtype=object)
    for j in axes:
        weight = weight * exact[exponents[:, j], order[j]]
    return source, weight.astype(float)


def _gather_derivative(layout: _Layout, data: np.ndarray, order: Index) -> np.ndarray:
    """D^order on the leading axis of a coefficient vector or block.

    Returns ``data`` itself for the zero order, else a new array of its shape.
    """
    if not any(order):
        return data
    out = np.zeros(data.shape, dtype=complex)
    if sum(order) <= layout.cutoff:
        source, weight = _derivative_plan(layout, order)
        # one weight per basis row, broadcast over a block's columns
        weight = weight.reshape((-1,) + (1,) * (data.ndim - 1))
        out[: len(source)] = data[source] * weight
    return out


def _scatter_coordinate(layout: _Layout, data: np.ndarray, axis: int) -> np.ndarray:
    """Multiplication by z_axis (1-based) on the leading axis of a vector or block.

    Rows of degree ``cutoff`` would move past the cutoff and are dropped.
    """
    target = layout.raised[axis - 1]
    out = np.zeros(data.shape, dtype=complex)
    out[target] = data[: len(target)]  # the degree <= cutoff - 1 prefix
    return out


def differentiate(f: TruncatedSeries, order: Sequence[int]) -> TruncatedSeries:
    """Partial derivative D^order: coefficient of z^m becomes ((m+order)!/m!) a_{m+order}.

    Over-differentiating a polynomial yields the zero series.  For a
    polynomial the result stays fully exact; otherwise the guaranteed region
    shrinks by ``||order||``.
    """
    order = tuple(int(e) for e in order)
    if len(order) != f.dim:
        raise ValueError(f"order {order} does not match dim {f.dim}")
    if any(e < 0 for e in order):
        raise ValueError(f"negative entry in derivative order {order}")
    if not any(order):
        return f
    out = _gather_derivative(_layout(f.dim, f.cutoff), f.vector, order)
    exact = f.cutoff if f.is_polynomial else max(-1, f.exact_degree - sum(order))
    return TruncatedSeries(f.dim, f.cutoff, exact, f.is_polynomial, out)


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


def translate(f: TruncatedSeries, shift: Sequence[complex]) -> TruncatedSeries:
    """Shift of argument: returns the coefficients of ``f(z + shift)``.

    The coefficient of z^m is ``sum_k C(m+k, k) a_{m+k} shift^k`` over stored
    indices.  For a polynomial this is exact.  Otherwise the missing tail of
    f contaminates every output coefficient, so the result is flagged
    exactness-free (exact_degree = -1) and an ApproximationWarning is
    emitted; rank tests that consume such rows are tolerance-based.
    """
    shift = tuple(complex(s) for s in shift)
    if len(shift) != f.dim:
        raise ValueError(f"shift {shift} does not match dim {f.dim}")
    if all(s == 0 for s in shift):
        return f
    position = _layout(f.dim, f.cutoff).position
    # tabled once per call: C(a, b) as exact integers and shift_j ** e
    comb = [[math.comb(a, b) for b in range(a + 1)] for a in range(f.cutoff + 1)]
    power = [[s**e for e in range(f.cutoff + 1)] for s in shift]
    acc = [0j] * len(position)
    for idx, c in f.terms():
        for m in product(*(range(e + 1) for e in idx)):
            binom = 1
            for a, b in zip(idx, m):
                binom *= comb[a][b]
            w: complex = c * binom
            for j in range(f.dim):
                e = idx[j] - m[j]
                if e:
                    w *= power[j][e]
            acc[position[m]] += w
    if f.is_polynomial:
        return TruncatedSeries(f.dim, f.cutoff, f.cutoff, True, np.array(acc))
    warnings.warn(
        "translating a non-polynomial truncation: the result has no "
        "exactness guarantee",
        ApproximationWarning,
        stacklevel=2,
    )
    return TruncatedSeries(f.dim, f.cutoff, -1, False, np.array(acc))


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
