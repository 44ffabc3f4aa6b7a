"""Span matrices, numerical rank reports, constructive approximation."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import entireops as eo
from support import airy_problem, gaussian_problem


def one_axis_gaussian_2d(cutoff: int = 8) -> eo.TruncatedSeries:
    """exp(z1^2/2) viewed as a two-variable series: constant in z2."""
    g = eo.solve_kernel_axis(gaussian_problem(cutoff))
    return eo.make_series(
        2, cutoff, {(n[0], 0): c for n, c in g.terms()}
    )


def random_polynomial(rng, dim: int, degree: int) -> eo.TruncatedSeries:
    basis = eo.monomial_basis(dim, degree)
    coeffs = {
        n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in basis
    }
    return eo.make_series(dim, degree, coeffs, is_polynomial=True)


# ---------------------------------------------------------------------------
# derivative spans
# ---------------------------------------------------------------------------


def test_derivative_span_gaussian_full_rank():
    f = eo.solve_kernel_axis(gaussian_problem(8))
    span = eo.derivative_span(f, 4, 4)
    assert span.matrix.shape == (5, 5)
    # independent oracle: plain matrix rank without row scaling
    assert np.linalg.matrix_rank(span.matrix) == 5
    assert eo.rank_report(span, 1e-8).rank == 5


def test_derivative_span_rows_vanish_off_axis():
    span = eo.derivative_span(one_axis_gaussian_2d(), 4, 4)
    for label, row in zip(span.row_labels, span.matrix):
        if label[1] >= 1:
            assert np.all(row == 0)


def test_derivative_span_constant_generator():
    f = eo.make_series(1, 4, {(0,): 1.0}, is_polynomial=True)
    span = eo.derivative_span(f, 4, 2)
    nonzero_rows = [r for r in span.matrix if np.any(r != 0)]
    assert len(nonzero_rows) == 1


def test_derivative_span_demands_exactness():
    f = eo.solve_kernel_axis(gaussian_problem(6))
    with pytest.raises(ValueError, match="exact_degree >= 8"):
        eo.derivative_span(f, 4, 4)


# ---------------------------------------------------------------------------
# translate spans
# ---------------------------------------------------------------------------


def test_translate_span_vandermonde_rows():
    f = eo.monomial(1, 2, (2,))
    span = eo.translate_span(f, 2, [(0,), (1,), (2,)])
    expected = np.array([[0, 0, 1], [1, 2, 1], [4, 4, 1]], dtype=complex)
    assert np.allclose(span.matrix, expected)
    assert eo.rank_report(span, 1e-8).rank == 3


def test_translate_span_single_zero_sample():
    f = eo.make_series(1, 3, {(0,): 1.0, (2,): 0.5}, is_polynomial=True)
    span = eo.translate_span(f, 3, [(0,)])
    assert np.allclose(span.matrix[0], eo.coefficient_vector(f, 3))


def test_translate_span_needs_samples():
    with pytest.raises(ValueError, match="sample"):
        eo.translate_span(eo.monomial(1, 2, (1,)), 2, [])


def test_translate_span_matches_derivative_rank_for_truncated_gaussian():
    f = eo.solve_kernel_axis(gaussian_problem(8))
    d_rank = eo.rank_report(eo.derivative_span(f, 4, 4), 1e-8).rank
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", eo.ApproximationWarning)
        span = eo.translate_span(f, 4, eo.sample_box(1, 10, seed=5))
    assert eo.rank_report(span, 1e-8).rank == d_rank


# ---------------------------------------------------------------------------
# rank reports
# ---------------------------------------------------------------------------


def test_rank_report_counterexample_generator():
    span = eo.derivative_span(one_axis_gaussian_2d(), 4, 4)
    report = eo.rank_report(span, 1e-8)
    assert (report.rank, report.ambient_dim) == (5, 15)
    assert not report.complete_at_truncation


def test_rank_report_product_gaussian_complete():
    f = eo.joint_kernel([gaussian_problem(8), gaussian_problem(8)])
    report = eo.rank_report(eo.derivative_span(f, 4, 4), 1e-8)
    assert (report.rank, report.ambient_dim) == (15, 15)
    assert report.complete_at_truncation


def test_rank_report_zero_matrix():
    f = eo.zero_series(1, 3)
    span = eo.derivative_span(f, 3, 2)
    assert eo.rank_report(span, 1e-8).rank == 0


def test_rank_report_rejects_empty_matrix():
    span = eo.SpanMatrix(
        matrix=np.zeros((0, 5), dtype=complex),
        row_labels=(),
        truncation=4,
        dim=1,
        source="derivative",
    )
    with pytest.raises(ValueError, match="empty"):
        eo.rank_report(span, 1e-8)


def test_rank_unchanged_by_row_scaling():
    f = eo.solve_kernel_axis(gaussian_problem(8))
    span = eo.derivative_span(f, 4, 4)
    scaled = eo.SpanMatrix(
        matrix=span.matrix * np.array([1.0, 1e6, 1e-6, 3.0, 42.0])[:, None],
        row_labels=span.row_labels,
        truncation=span.truncation,
        dim=span.dim,
        source=span.source,
        max_order=span.max_order,
    )
    assert eo.rank_report(scaled, 1e-8).rank == eo.rank_report(span, 1e-8).rank


def test_rank_monotone_in_max_order_and_samples():
    rng = np.random.default_rng(31)
    f = random_polynomial(rng, 2, 3)
    ranks = [
        eo.rank_report(eo.derivative_span(f, 3, mo), 1e-8).rank for mo in range(4)
    ]
    assert ranks == sorted(ranks)
    samples = eo.sample_box(2, 12, seed=8)
    t_ranks = [
        eo.rank_report(eo.translate_span(f, 3, samples[:k]), 1e-8).rank
        for k in range(1, 13)
    ]
    assert t_ranks == sorted(t_ranks)


def test_derivative_and_translate_ranks_agree_on_random_polynomials():
    # the two span constructions see the same space once the derivative
    # order covers the polynomial degree and the samples are generic
    rng = np.random.default_rng(123)
    for trial in range(20):
        dim = int(rng.integers(1, 3))
        n = int(rng.integers(2, 5))
        f = random_polynomial(rng, dim, n)
        ambient = len(eo.monomial_basis(dim, n))
        d_rank = eo.rank_report(eo.derivative_span(f, n, n), 1e-8).rank
        samples = eo.sample_box(dim, 3 * ambient, seed=900 + trial)
        t_rank = eo.rank_report(eo.translate_span(f, n, samples), 1e-8).rank
        assert d_rank == t_rank


# ---------------------------------------------------------------------------
# approximate_target
# ---------------------------------------------------------------------------


def test_approximate_coordinate_by_gaussian_derivatives():
    f = eo.solve_kernel_axis(gaussian_problem(6))
    target = eo.monomial(1, 3, (1,))
    result = eo.approximate_target(f, target, 3, 3)
    assert result.coefficient((1,)) == pytest.approx(2.5, abs=1e-12)
    assert result.coefficient((3,)) == pytest.approx(-0.5, abs=1e-12)
    assert result.coefficient((0,)) == pytest.approx(0.0, abs=1e-12)
    assert result.residual <= 1e-12


def test_approximate_constant_trivial():
    f = eo.solve_kernel_axis(gaussian_problem(4))
    target = eo.make_series(1, 0, {(0,): 1.0}, is_polynomial=True)
    result = eo.approximate_target(f, target, 0, 0)
    assert result.coefficient((0,)) == pytest.approx(1.0)
    assert result.residual <= 1e-14


def test_approximate_orthogonal_target_leaves_unit_residual():
    f = one_axis_gaussian_2d()
    target = eo.monomial(2, 4, (0, 1))
    result = eo.approximate_target(f, target, 4, 4)
    assert result.residual == pytest.approx(1.0)


def test_approximate_zero_residual_when_complete():
    rng = np.random.default_rng(77)
    f = eo.joint_kernel([gaussian_problem(8), gaussian_problem(8)])
    basis = eo.monomial_basis(2, 4)
    target = eo.make_series(
        2, 4,
        {n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in basis},
        is_polynomial=True,
    )
    result = eo.approximate_target(f, target, 4, 4)
    assert result.residual <= 1e-10


def test_approximate_rejects_nonpolynomial_target():
    f = eo.solve_kernel_axis(gaussian_problem(6))
    target = eo.make_series(1, 3, {(1,): 1.0})
    with pytest.raises(ValueError, match="polynomial"):
        eo.approximate_target(f, target, 3, 3)
