"""Finite-truncation completeness tests for derivative and translate systems.

Whether the span of ``{D^n f}`` (or of a family of translates ``f(. + s)``)
is dense in the space of all entire functions cannot be decided from finite
data.  What can be computed is the rank of the system's coefficient matrix
over the monomials of total degree <= N: the reports therefore state
completeness AT TRUNCATION (N, max_order) only, and expose the singular
value profile so borderline cases can be judged.

Each span matrix is built in one pass by ``series``.  Derivative rows
(``derivative_rows``) are one gather through one ``(order x row)`` plan over
every order of the span, limited to the truncation prefix; their weights are
the exact integers ``prod_j perm(s_j, n_j)`` rounded once (see ``series``).
Translate rows come from one function, ``translate_rows`` (``translate``
is its one-row case): the same plan with binomial factors
``comb(m + k, k)`` over every order k up to f's cutoff, summed by one matmul
with the sample powers ``s^k``.  Each sample goes through the one point
check, ``series._checked_point``, and ``translate_rows`` emits the one
ApproximationWarning of the call, at the caller of ``translate_span``, when
f is a truncation rather than a polynomial.

Rows of derivative matrices grow factorially with the order, so each row is
normalized to unit max-magnitude before the rank computation; the relative
rank threshold then behaves uniformly across orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .series import (
    TruncatedSeries,
    _checked_index,
    _checked_point,
    coefficient_vector,
    derivative_rows,
    monomial_basis,
    translate_rows,
)


@dataclass(frozen=True)
class SpanMatrix:
    """Coefficient rows of a function system over the degree-<=N monomials.

    Row i holds the coefficients of the i-th system member in graded-lex
    order over ``monomial_basis(dim, truncation)``; ``row_labels`` carries
    the generating data (derivative orders or translation points).
    """

    matrix: np.ndarray
    row_labels: tuple
    truncation: int
    dim: int
    max_order: int | None = None

    def __post_init__(self) -> None:
        ambient = math.comb(self.truncation + self.dim, self.dim)
        if self.matrix.ndim != 2 or self.matrix.shape[1] != ambient:
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match ambient "
                f"dimension {ambient}"
            )
        if self.matrix.shape[0] != len(self.row_labels):
            raise ValueError("row_labels must align with the matrix rows")


@dataclass(frozen=True)
class CompletenessReport:
    rank: int
    ambient_dim: int
    complete_at_truncation: bool
    truncation: int
    max_order: int | None
    tolerance: float
    singular_values: tuple[float, ...]


@dataclass(frozen=True)
class ApproximationResult:
    """Least-squares combination of derivative rows matching a target."""

    orders: tuple
    coefficients: tuple[complex, ...]
    residual: float

    def coefficient(self, order: Sequence[int]) -> complex:
        """The weight of D^order f; an order absent from ``orders`` is a KeyError."""
        key = _checked_index(len(self.orders[0]), order, "derivative order")
        for label, c in zip(self.orders, self.coefficients):
            if label == key:
                return c
        raise KeyError(f"no derivative order {key} in this result")


def derivative_span(
    f: TruncatedSeries, truncation: int, max_order: int
) -> SpanMatrix:
    """Rows: truncations to degree <= truncation of D^n f for ||n|| <= max_order.

    Every row must be exact, so a non-polynomial f has to be exact to degree
    truncation + max_order.
    """
    if truncation < 0 or max_order < 0:
        raise ValueError("truncation and max_order must be >= 0")
    required = truncation + max_order
    if not f.is_polynomial and f.exact_degree < required:
        raise ValueError(
            f"derivative span needs exact_degree >= {required} "
            f"(truncation {truncation} + max_order {max_order}), "
            f"have {f.exact_degree}"
        )
    orders = monomial_basis(f.dim, max_order)
    return SpanMatrix(
        matrix=derivative_rows(f, orders, truncation),
        row_labels=tuple(orders),
        truncation=truncation,
        dim=f.dim,
        max_order=max_order,
    )


def translate_span(
    f: TruncatedSeries, truncation: int, samples: Sequence[Sequence[complex]]
) -> SpanMatrix:
    """Rows: truncations of f(. + s) for each sample point s.

    All rows come from one plan gather and one matmul.  Exact for polynomial f;
    otherwise the rows of nonzero samples are truncation approximations (one
    ApproximationWarning per call) and downstream rank decisions are
    tolerance-based.
    """
    samples = [_checked_point(f.dim, s, "shift") for s in samples]
    if not samples:
        raise ValueError("at least one translation sample required")
    return SpanMatrix(
        matrix=translate_rows(f, samples, truncation),
        row_labels=tuple(samples),
        truncation=truncation,
        dim=f.dim,
    )


def sample_box(
    dim: int,
    count: int,
    seed: int,
    low: float = -1.0,
    high: float = 1.0,
) -> list[tuple[float, ...]]:
    """Seeded uniform draw of real sample points from the box [low, high]^dim."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(low, high, size=(count, dim))
    return [tuple(float(c) for c in row) for row in pts]


def rank_report(span: SpanMatrix, tolerance: float) -> CompletenessReport:
    """Numerical rank of the (row-normalized) span matrix via SVD.

    rank = number of singular values above tolerance * largest; the full
    spectrum is returned as diagnostics.  Deterministic for fixed input.
    """
    if not tolerance > 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    if span.matrix.shape[0] == 0:
        raise ValueError("empty span matrix")
    m = span.matrix.copy()
    peak = np.abs(m).max(axis=1)
    scaled = peak > 0  # zero rows stay as they are
    m[scaled] /= peak[scaled, None]
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        rank = 0
    else:
        rank = int(np.sum(sv > tolerance * sv[0]))
    ambient = span.matrix.shape[1]
    return CompletenessReport(
        rank=rank,
        ambient_dim=ambient,
        complete_at_truncation=rank == ambient,
        truncation=span.truncation,
        max_order=span.max_order,
        tolerance=tolerance,
        singular_values=tuple(float(s) for s in sv),
    )


def approximate_target(
    f: TruncatedSeries,
    target: TruncatedSeries,
    truncation: int,
    max_order: int,
) -> ApproximationResult:
    """Least-squares solve for ``sum_n c_n D^n f = target`` in coefficient norm.

    The target must be a polynomial of degree <= truncation; the residual is
    the Euclidean norm of the defect over the degree-<=truncation monomials.
    """
    if target.dim != f.dim:
        raise ValueError(f"dim mismatch: generator {f.dim} vs target {target.dim}")
    if not target.is_polynomial:
        raise ValueError("the approximation target must be a polynomial")
    if any(sum(n) > truncation for n, _ in target.terms()):
        raise ValueError(f"target degree exceeds truncation {truncation}")
    span = derivative_span(f, truncation, max_order)
    a = span.matrix.T
    t = coefficient_vector(target, truncation)
    with np.errstate(over="ignore", invalid="ignore"):
        c, _, _, _ = np.linalg.lstsq(a, t, rcond=None)
        defect = a @ c - t
        residual = float(np.linalg.norm(defect))
        if residual == math.inf:  # the sum of squares overflowed, not the norm
            scale = np.abs(defect).max()
            residual = float(scale * np.linalg.norm(defect / scale))
    if not math.isfinite(residual):  # a non-finite coefficient leaves one here too
        raise OverflowError("the least-squares solution is not finite")
    return ApproximationResult(
        orders=span.row_labels,
        coefficients=tuple(complex(v) for v in c),
        residual=residual,
    )
