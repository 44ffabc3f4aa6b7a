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

:func:`apply_weyl` is the one place where an operator meets a series'
coefficients: one loop over the stored terms on the series' vector, each
term's exact degree read from the one rule of the series primitives,
``series._exact_after``.  It reads only ``dim`` and the normal-ordered
``terms`` table, which all three shapes carry (a CR operator's is built in
one ``WeylOperator`` call), so one path applies every operator.  The
symbolic algebra (:func:`commutator`) never touches series and is the
oracle the numeric route is tested against.

:func:`verify_commutation` re-derives the commutator table numerically,
independently of the symbolic route, as a guard against ordering bugs.  A
term ``z^alpha D^beta`` sends a monomial to one monomial, so the check
indexes its slots by the rows of the derivative plan that ``apply_weyl``
gathers with: slot (t, m) is the probe ``m + beta``, with the plan's
weight at row m, and its image is ``m + alpha``.  Every exponent comes from
the layout's exponent matrix, so no position is looked up, and the defect
is folded slot by slot with ``apply_weyl``'s arithmetic on the identity.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .series import (
    Entries,
    Index,
    Record,
    TruncatedSeries,
    _derivative_plan,
    _gather_derivative,
    _layout,
    _checked_axis,
    _checked_index,
    _exact_after,
    _scatter_coordinate,
    _size,
    graded_key,
    index_factorial,
    term_table,
    worst,
    zero_series,
)

TermKey = tuple[Index, Index]  # (zpow, dpow)


def _unit(dim: int, axis: int) -> Index:
    return tuple(1 if j == axis - 1 else 0 for j in range(dim))


class WeylOperator(Record):
    """Normal-ordered polynomial differential operator sum c * z^zpow * D^dpow.

    Each term differentiates first (dpow), then multiplies by the monomial
    z^zpow, then scales by c.  At most one term per (zpow, dpow) pair is
    stored and zero coefficients are absent, so equality of the term tables
    is equality of operators.  Terms are stored in graded order of
    (zpow, dpow), the order in which they are composed and applied.
    """

    dim: int
    terms: Mapping[TermKey, complex]

    def __init__(self, dim: int, terms: Mapping[TermKey, complex]) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        clean: dict[TermKey, complex] = {}
        for (zpow, dpow), raw in terms.items():
            zpow = _checked_index(dim, zpow, "coordinate power")
            dpow = _checked_index(dim, dpow, "derivative order")
            c = complex(raw)
            if c != 0:
                clean[(zpow, dpow)] = c
        ordered = sorted(clean, key=lambda t: (graded_key(t[0]), graded_key(t[1])))
        vars(self).update(dim=dim, terms={key: clean[key] for key in ordered})

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


def apply_weyl(op: Operator, f: TruncatedSeries) -> TruncatedSeries:
    """Apply an operator of any of the three shapes to a series.

    Each term differentiates, multiplies by its coordinate powers axis by
    axis, and is accumulated as ``out = out + c * term`` in stored order,
    the arithmetic of ``linear_combine``.  Each term's exact degree is the
    one rule of the series primitives, ``series._exact_after``, and the sum
    keeps the least of the terms; a polynomial stays a polynomial unless a
    nonzero coefficient is pushed past the cutoff.
    """
    if op.dim != f.dim:
        raise ValueError(f"dim mismatch: operator {op.dim} vs series {f.dim}")
    if not op.terms:
        return zero_series(f.dim, f.cutoff)
    layout = _layout(f.dim, f.cutoff)
    out = np.zeros(f.vector.shape, dtype=complex)
    spilled = False
    # a non-finite coefficient times a zero entry is NaN, and an overflow is
    # inf: either stays in the result
    with np.errstate(invalid="ignore", over="ignore"):
        for (zpow, dpow), c in op.terms.items():
            g = _gather_derivative(layout, f.vector, dpow)
            for axis, power in enumerate(zpow, start=1):
                for _ in range(power):
                    g, spill = _scatter_coordinate(layout, g, axis)
                    spilled |= spill
            out += c * g
    exact = min(_exact_after(f, sum(zpow), sum(dpow)) for zpow, dpow in op.terms)
    return TruncatedSeries(f.dim, f.cutoff, exact, f.is_polynomial and not spilled, out)


class ConvolutionSymbol(Record):
    """Characteristic-function data of a convolution operator.

    ``bcoeffs[n]`` is the coefficient ``b_n`` in the expansion
    ``sum_n b_n lambda^n / n!`` of the characteristic function, given as a
    mapping or as (index, b_n) pairs and stored as a ``term_table`` in
    graded order.  Only finitely supported (polynomial) symbols are
    representable, which keeps every action decidable at finite truncation.
    ``terms``, derived from the fields and not one of them, is
    ``sum_n (b_n / n!) D^n`` as a normal-ordered Weyl table.
    """

    dim: int
    bcoeffs: Mapping[Index, complex]

    def __init__(self, dim: int, bcoeffs: Entries) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        bcoeffs = term_table(dim, bcoeffs)
        zero = (0,) * dim
        terms = {(zero, n): c / index_factorial(n) for n, c in bcoeffs.items()}
        vars(self).update(dim=dim, bcoeffs=bcoeffs, terms=WeylOperator(dim, terms).terms)

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
        if not f.is_polynomial and sum(n) > f.exact_degree:
            raise ValueError(
                f"pairing not determined at this truncation: symbol index {n} "
                f"lies beyond exact_degree {f.exact_degree}"
            )
        total += b * f.coefficient(n)
    return total


class CROperator(Record):
    """One-axis operator ``T = M_conv - a * z_axis`` with nonzero ladder constant a.

    ``terms``, derived from the fields and not one of them, is
    ``sum_n (b_n / n!) D^n - a z_axis`` as a normal-ordered Weyl table.
    """

    dim: int
    axis: int
    a: complex
    conv: ConvolutionSymbol

    def __init__(self, dim: int, axis: int, a: complex, conv: ConvolutionSymbol) -> None:
        axis = _checked_axis(dim, axis)
        a = complex(a)
        if a == 0:
            raise ValueError("the ladder constant a must be nonzero")
        if conv.dim != dim:
            raise ValueError(f"symbol dim {conv.dim} does not match operator dim {dim}")
        # the arithmetic of the operator sum conv + (-a) * z_axis: it sets
        # the signs of zero, and an infinite a leaves a NaN part
        z_term = (_unit(dim, axis), (0,) * dim)
        table = {**conv.terms, z_term: 0j + (-a) * (1 + 0j)}
        terms = WeylOperator(dim, table).terms
        vars(self).update(dim=dim, axis=axis, a=a, conv=conv, terms=terms)


#: the three operator shapes; each carries ``dim`` and a normal-ordered ``terms``
Operator = WeylOperator | ConvolutionSymbol | CROperator


class CommutationReport(NamedTuple):
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
    coefficient.  A term ``c z^alpha D^beta`` sends a monomial to one
    monomial, so its slots are the rows m of ``series._derivative_plan``
    for beta: slot (t, m) is the probe ``p = m + beta`` (a probe while
    ``||p|| <= probe_degree``), its image is ``m + alpha``, and its weight
    ``perm(p, beta)`` is the plan's at row m.  ``perm(p - e_k, beta)`` is
    the plan's weight at row ``m - e_k``, placed by the layout's
    ``raised[k]``, and ``p_k`` and the image's k-th exponent are read from
    its exponent matrix.  The terms of a CR operator have pairwise distinct
    shifts ``alpha - beta`` (its symbol terms are ``(0, n)`` with distinct
    n, its z-term ``(e_axis, 0)``), so slot (t, m) of ``T D_k e_p`` and of
    ``D_k T e_p`` is the one on monomial ``m + alpha - e_k``, no two slots
    of a term share one, and the defect is folded slot by slot.  Each value
    takes the numpy operations of ``apply_weyl`` on the identity, in the
    same order, so each residual has the bits of that dense route.
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
    layout = _layout(dim, probe_degree + 1)
    count = _size(dim, probe_degree)  # the probes: a prefix of the basis
    inner = _size(dim, probe_degree - 1)  # the rows m whose m + e_k is a probe
    # the probe rows, then the first row past them: the cell no probe reaches
    exponents = layout.exponents[: count + 1]
    degree = layout.degree[: count + 1]
    residuals: dict[tuple[int, int], float] = {}
    # a non-finite coefficient times a zero entry is NaN, as is a non-finite
    # a: both reach the cell no probe reaches (the last column), and worst
    # keeps a NaN, so a non-finite defect cannot pass; an overflow is an inf
    # or NaN residual, which fails the same way
    with np.errstate(invalid="ignore", over="ignore"):
        for op in ops:
            zpow = np.array([z for z, _ in op.terms], dtype=np.intp)
            dpow = np.array([d for _, d in op.terms], dtype=np.intp)
            # slot (t, m) of term t = z^alpha D^beta is the probe m + beta
            probe = degree + dpow.sum(axis=1)[:, None] <= probe_degree
            # ||beta|| <= probe_degree (row 0 is the constant); the z-term
            # (beta = 0) always acts, so the plan gets at least one order
            acting = probe[:, 0]
            weight = np.zeros(probe.shape)  # perm(m + beta, beta) on the probes, else 0
            weight[acting, :count] = _derivative_plan(layout, dpow[acting], count)[1]
            weight[~probe] = 0.0
            p = np.where(probe[..., None], exponents + dpow[:, None], 0)  # the probes
            image = exponents + zpow[:, None]  # m + alpha
            coeffs = np.array(list(op.terms.values()), dtype=complex)[:, None]
            t_probes = coeffs * ((1 + 0j) * weight)
            for k in range(dim):
                # perm(p - e_k, beta) is the weight at row m - e_k (0 for m_k = 0)
                below = np.zeros(weight.shape)
                below[:, layout.raised[k][:inner]] = weight[:, :inner]
                t_dk = coeffs * (((1 + 0j) * p[..., k]) * below)
                down = image[..., k]
                defect = t_dk - np.where(down > 0, t_probes * down, 0)
                if k + 1 == op.axis:  # a at the probe slots of the term shifting by e_k
                    ladder = (zpow - dpow == _unit(dim, op.axis)).all(axis=1)[:, None]
                    defect -= op.a * (probe & ladder)
                key = (op.axis, k + 1)
                residuals[key] = worst((residuals.get(key, 0.0), np.abs(defect).max()))
    max_residual = worst(residuals.values())
    return CommutationReport(
        residuals=residuals,
        max_residual=max_residual,
        probe_degree=probe_degree,
        tolerance=tolerance,
        passed=max_residual <= tolerance,
    )
