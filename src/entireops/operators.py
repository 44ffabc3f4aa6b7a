"""Operator algebra on truncated series.

Three layers:

* :class:`WeylOperator` — finite sums of terms ``c * z^alpha * D^beta`` with
  symbolic composition and commutators (normal ordering: coordinate powers
  to the left of derivative powers).  Both exponents of a term are checked
  by ``series._checked_index``.
* :class:`ConvolutionSymbol` — a constant-coefficient differential operator
  encoded by the Taylor data ``b_n`` of its characteristic function
  ``sum_n b_n lambda^n / n!``, read by ``series.term_table``; it acts as
  ``f -> sum_n b_n D^n f / n!`` and pairs with series through
  ``(F, f) = sum_n a_n b_n``.
* :class:`CROperator` — the one-axis family ``T = M_F - a * z_axis`` whose
  commutator with every coordinate partial is ``delta_{axis,k} * a * I``.
  Any operator with that commutator table has this shape: adding ``a * z``
  back produces an operator commuting with all partials, i.e. a convolution
  operator, so the relation is structural here rather than checked.

:func:`_weyl_kernel` is the one place where an operator meets coefficients:
one loop over the stored terms that acts on a coefficient vector or on a
``(basis size, batch)`` block of them.  :func:`apply_weyl` runs it on a
series' vector and reads each term's exact degree from the one rule of the
series primitives, ``series._exact_after``.  Both read only ``dim`` and the
normal-ordered ``terms`` table, which all three shapes carry (a CR
operator's is built in one ``WeylOperator`` call), so one path applies every
operator.  The symbolic algebra (:func:`commutator`) never touches series
and is the oracle the numeric route is tested against.

:func:`verify_commutation` re-derives the commutator table numerically,
independently of the symbolic route, as a guard against ordering bugs: it
applies the kernel to the identity on every probe monomial at once, in
column blocks small enough to be reused from the heap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

from .series import (
    Index,
    TruncatedSeries,
    _gather_derivative,
    _layout,
    _Layout,
    _checked_axis,
    _checked_index,
    _checked_point,
    _exact_after,
    _scatter_coordinate,
    _size,
    graded_key,
    index_factorial,
    index_order,
    term_table,
    worst,
    zero_series,
)

TermKey = tuple[Index, Index]  # (zpow, dpow)


def _unit(dim: int, axis: int) -> Index:
    return tuple(1 if j == axis - 1 else 0 for j in range(dim))


@dataclass(frozen=True)
class WeylOperator:
    """Normal-ordered polynomial differential operator sum c * z^zpow * D^dpow.

    Each term differentiates first (dpow), then multiplies by the monomial
    z^zpow, then scales by c.  At most one term per (zpow, dpow) pair is
    stored and zero coefficients are absent, so equality of the term tables
    is equality of operators.  Terms are stored in graded order of
    (zpow, dpow), the order in which they are composed and applied.
    """

    dim: int
    terms: Mapping[TermKey, complex]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        clean: dict[TermKey, complex] = {}
        for (zpow, dpow), raw in self.terms.items():
            zpow = _checked_index(self.dim, zpow, "coordinate power")
            dpow = _checked_index(self.dim, dpow, "derivative order")
            c = complex(raw)
            if c != 0:
                clean[(zpow, dpow)] = c
        ordered = sorted(clean, key=lambda t: (graded_key(t[0]), graded_key(t[1])))
        object.__setattr__(self, "terms", {key: clean[key] for key in ordered})

    @classmethod
    def from_terms(
        cls, dim: int, triples: Iterable[tuple[complex, Sequence[int], Sequence[int]]]
    ) -> WeylOperator:
        acc: dict[TermKey, complex] = {}
        for c, zpow, dpow in triples:
            key = (tuple(zpow), tuple(dpow))
            acc[key] = acc.get(key, 0j) + complex(c)
        return cls(dim, acc)

    @classmethod
    def identity(cls, dim: int) -> WeylOperator:
        z = (0,) * dim
        return cls(dim, {(z, z): 1.0})

    @classmethod
    def derivative(cls, dim: int, order: Sequence[int]) -> WeylOperator:
        z = (0,) * dim
        return cls(dim, {(z, tuple(order)): 1.0})

    @classmethod
    def coordinate(cls, dim: int, axis: int) -> WeylOperator:
        z = (0,) * dim
        return cls(dim, {(_unit(dim, axis), z): 1.0})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: WeylOperator) -> WeylOperator:
        if not isinstance(other, WeylOperator):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError(f"dim mismatch: {self.dim} vs {other.dim}")
        acc = dict(self.terms)
        for key, c in other.terms.items():
            acc[key] = acc.get(key, 0j) + c
        return WeylOperator(self.dim, acc)

    def __neg__(self) -> WeylOperator:
        return WeylOperator(self.dim, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: WeylOperator) -> WeylOperator:
        return self + (-other)

    def __rmul__(self, scalar: complex) -> WeylOperator:
        return WeylOperator(
            self.dim, {k: complex(scalar) * c for k, c in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, WeylOperator):
            return _compose(self, other)
        return WeylOperator(
            self.dim, {k: c * complex(other) for k, c in self.terms.items()}
        )


def _compose(a: WeylOperator, b: WeylOperator) -> WeylOperator:
    """Normal-ordered product a b via D^beta z^alpha rewriting.

    Per axis, D^p z^q = sum_k C(p, k) * q!/(q-k)! * z^(q-k) D^(p-k); the
    multivariate rule is the product over axes.
    """
    if a.dim != b.dim:
        raise ValueError(f"dim mismatch: {a.dim} vs {b.dim}")
    out: dict[TermKey, complex] = {}
    for (za, da), ca in a.terms.items():
        for (zb, db), cb in b.terms.items():
            for k in product(*(range(min(p, q) + 1) for p, q in zip(da, zb))):
                w = ca * cb
                for p, q, kk in zip(da, zb, k):
                    if kk:
                        w *= math.comb(p, kk) * math.perm(q, kk)
                key = (
                    tuple(x + y - kk for x, y, kk in zip(za, zb, k)),
                    tuple(x + y - kk for x, y, kk in zip(da, db, k)),
                )
                out[key] = out.get(key, 0j) + w
    return WeylOperator(a.dim, out)


def commutator(a: WeylOperator, b: WeylOperator) -> WeylOperator:
    """Normal-ordered ``a b - b a``."""
    return _compose(a, b) - _compose(b, a)


def _weyl_kernel(
    op: Operator, layout: _Layout, data: np.ndarray
) -> tuple[np.ndarray, bool]:
    """Apply the operator to a coefficient vector or block over ``layout``.

    Each term differentiates, multiplies by its coordinate powers axis by
    axis, and is accumulated as ``acc = acc + c * term`` in stored order,
    the arithmetic of ``linear_combine``.  Also returns whether a nonzero
    coefficient was pushed past the cutoff.
    """
    acc = np.zeros(data.shape, dtype=complex)
    top = len(layout.raised[0])  # rows of degree cutoff start here
    spilled = False
    for (zpow, dpow), c in op.terms.items():
        g = _gather_derivative(layout, data, dpow)
        for axis, power in enumerate(zpow, start=1):
            for _ in range(power):
                spilled = spilled or bool(g[top:].any())
                g = _scatter_coordinate(layout, g, axis)
        acc += c * g
    return acc, spilled


def apply_weyl(op: Operator, f: TruncatedSeries) -> TruncatedSeries:
    """Apply an operator of any of the three shapes to a series.

    Each term's exact degree is the one rule of the series primitives,
    ``series._exact_after``, and the sum keeps the least of the terms; a
    polynomial stays a polynomial unless a nonzero coefficient is pushed
    past the cutoff.
    """
    if op.dim != f.dim:
        raise ValueError(f"dim mismatch: operator {op.dim} vs series {f.dim}")
    if not op.terms:
        return zero_series(f.dim, f.cutoff)
    # a non-finite coefficient times a zero entry is NaN, and stays in the result
    with np.errstate(invalid="ignore"):
        out, spilled = _weyl_kernel(op, _layout(f.dim, f.cutoff), f.vector)
    exact = min(_exact_after(f, sum(zpow), sum(dpow)) for zpow, dpow in op.terms)
    return TruncatedSeries(f.dim, f.cutoff, exact, f.is_polynomial and not spilled, out)


@dataclass(frozen=True)
class ConvolutionSymbol:
    """Characteristic-function data of a convolution operator.

    ``bcoeffs[n]`` is the coefficient ``b_n`` in the expansion
    ``sum_n b_n lambda^n / n!`` of the characteristic function, given as a
    mapping or as (index, b_n) pairs and stored as a ``term_table`` in
    graded order.  Only finitely supported (polynomial) symbols are
    representable, which keeps every action decidable at finite truncation.
    """

    dim: int
    bcoeffs: Mapping[Index, complex]
    #: ``sum_n (b_n / n!) D^n`` as a normal-ordered Weyl table
    terms: Mapping[TermKey, complex] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        object.__setattr__(self, "bcoeffs", term_table(self.dim, self.bcoeffs))
        zero = (0,) * self.dim
        terms = {(zero, n): c / index_factorial(n) for n, c in self.bcoeffs.items()}
        object.__setattr__(self, "terms", WeylOperator(self.dim, terms).terms)

    @property
    def max_order(self) -> int:
        """Largest total degree in the support (0 for the zero symbol)."""
        return max((sum(n) for n in self.bcoeffs), default=0)


def dual_pairing(sym: ConvolutionSymbol, f: TruncatedSeries) -> complex:
    """The pairing ``(F, f) = sum_n a_n b_n`` over the symbol's support.

    Exact only where the series coefficients are trustworthy: for a
    polynomial every index is (absent means genuinely zero), otherwise the
    support must sit inside the guaranteed-exact region.
    """
    if sym.dim != f.dim:
        raise ValueError(f"dim mismatch: symbol {sym.dim} vs series {f.dim}")
    total = 0j
    for n, b in sym.bcoeffs.items():
        if not f.is_polynomial and index_order(n) > f.exact_degree:
            raise ValueError(
                f"pairing not determined at this truncation: symbol index {n} "
                f"lies beyond exact_degree {f.exact_degree}"
            )
        total += b * f.coefficient(n)
    return total


def characteristic_roundtrip(sym: ConvolutionSymbol, point: Sequence[complex]) -> complex:
    """Evaluate the characteristic function ``sum_n b_n point^n / n!``."""
    point = _checked_point(sym.dim, point, "point")
    total = 0j
    for n, b in sym.bcoeffs.items():
        term = b / index_factorial(n)
        for zj, e in zip(point, n):
            if e:
                term *= zj**e
        total += term
    return total


@dataclass(frozen=True)
class CROperator:
    """One-axis operator ``T = M_conv - a * z_axis`` with nonzero ladder constant a."""

    dim: int
    axis: int
    a: complex
    conv: ConvolutionSymbol
    #: ``sum_n (b_n / n!) D^n - a z_axis`` as a normal-ordered Weyl table
    terms: Mapping[TermKey, complex] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "axis", _checked_axis(self.dim, self.axis))
        a = complex(self.a)
        if a == 0:
            raise ValueError("the ladder constant a must be nonzero")
        object.__setattr__(self, "a", a)
        if self.conv.dim != self.dim:
            raise ValueError(
                f"symbol dim {self.conv.dim} does not match operator dim {self.dim}"
            )
        # the arithmetic of the operator sum conv + (-a) * z_axis: it sets
        # the signs of zero, and an infinite a leaves a NaN part
        z_term = (_unit(self.dim, self.axis), (0,) * self.dim)
        table = {**self.conv.terms, z_term: 0j + (-a) * (1 + 0j)}
        object.__setattr__(self, "terms", WeylOperator(self.dim, table).terms)


#: the three operator shapes; each carries ``dim`` and a normal-ordered ``terms``
Operator = WeylOperator | ConvolutionSymbol | CROperator


#: bytes of one probe block (16 per complex entry).  glibc serves a request of
#: 128 KiB or more from freshly mapped pages, which every call faults in
#: again; a smaller block, and every kernel temporary of its shape, is reused
#: from the heap, so a warm call faults in no new pages.
_PROBE_BLOCK_BYTES = 2**16


@dataclass(frozen=True)
class CommutationReport:
    """Worst commutator defect per (operator axis, partial axis) pair."""

    residuals: Mapping[tuple[int, int], float]
    max_residual: float
    probe_degree: int
    tolerance: float
    passed: bool


def verify_commutation(
    ops: Sequence[CROperator],
    probe_degree: int,
    *,
    tolerance: float = 1e-12,
) -> CommutationReport:
    """Numerically re-check the commutator table on monomials.

    For every operator T (claiming ladder constant a on its axis) and every
    partial D_k, applies ``T D_k - D_k T - delta * a * I`` to each monomial
    of total degree <= probe_degree and records the largest residual
    coefficient.  The probes are the identity on those monomials, taken in
    column blocks; each block's ``D_k`` images serve every operator.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("at least one operator required")
    dims = {op.dim for op in ops}
    if len(dims) > 1:
        raise ValueError(f"operators disagree on dim: {sorted(dims)}")
    dim = dims.pop()
    if probe_degree < 0:
        raise ValueError(f"probe_degree must be >= 0, got {probe_degree}")

    # z-multiplication never overflows the probes, so every defect below is
    # a polynomial, exact on the whole basis of this cutoff
    cutoff = probe_degree + 1
    layout = _layout(dim, cutoff)
    rows = len(layout.exponents)
    count = _size(dim, probe_degree)  # the probes: a prefix of the basis
    width = max(1, _PROBE_BLOCK_BYTES // (16 * rows))
    units = [_unit(dim, k) for k in range(1, dim + 1)]
    residuals: dict[tuple[int, int], float] = {}
    # a non-finite coefficient times a zero entry is NaN: it stays in the
    # defect, and worst keeps a NaN, so a non-finite defect cannot pass
    with np.errstate(invalid="ignore"):
        for first in range(0, count, width):
            cols = min(width, count - first)
            probes = np.zeros((rows, cols), dtype=complex)
            probes[np.arange(first, first + cols), np.arange(cols)] = 1.0
            d_probes = [_gather_derivative(layout, probes, ek) for ek in units]
            for op in ops:
                t_probes, _ = _weyl_kernel(op, layout, probes)
                for k, (ek, dk) in enumerate(zip(units, d_probes), start=1):
                    t_dk, _ = _weyl_kernel(op, layout, dk)
                    defect = t_dk - _gather_derivative(layout, t_probes, ek)
                    if k == op.axis:
                        defect -= op.a * probes
                    key = (op.axis, k)
                    residuals[key] = worst((residuals.get(key, 0.0), np.abs(defect).max()))
    max_residual = worst(residuals.values())
    return CommutationReport(
        residuals=residuals,
        max_residual=max_residual,
        probe_degree=probe_degree,
        tolerance=tolerance,
        passed=max_residual <= tolerance,
    )
