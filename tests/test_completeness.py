"""Span matrices, numerical rank reports, constructive approximation."""

from __future__ import annotations

import math
import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import entireops as eo
from entireops import cli, completeness, series
from support import SCALAR, airy_problem, gaussian_problem, stored_polynomial

# the benchmark's exact GF(2^31 - 1) span ranks, independent of entireops, and
# its span scenarios
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import certify  # noqa: E402
import workloads  # noqa: E402


def one_axis_gaussian_2d(cutoff: int = 8) -> eo.TruncatedSeries:
    """exp(z1^2/2) viewed as a two-variable series: constant in z2."""
    g = eo.solve_kernel_axis(gaussian_problem(), cutoff)
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
    f = eo.solve_kernel_axis(gaussian_problem(), 8)
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
    f = eo.solve_kernel_axis(gaussian_problem(), 6)
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
    f = eo.solve_kernel_axis(gaussian_problem(), 8)
    d_rank = eo.rank_report(eo.derivative_span(f, 4, 4), 1e-8).rank
    span = eo.translate_span(stored_polynomial(f), 4, eo.sample_box(1, 10, seed=5))
    assert eo.rank_report(span, 1e-8).rank == d_rank


@pytest.mark.parametrize(
    "samples", [eo.sample_box(1, 10, seed=5), [(0.0,), (0j,)]], ids=["box", "zero_shifts"]
)
def test_translate_span_refuses_a_truncation(samples):
    # its missing tail would reach every row; the refusal does not depend on
    # the samples, so shifts that would leave f as it is are refused too
    f = eo.solve_kernel_axis(gaussian_problem(), 8)
    with pytest.raises(ValueError, match=r"needs a polynomial f; .* pass TruncatedSeries\(dim"):
        eo.translate_span(f, 4, samples)


def test_translate_span_zero_sample_row_is_the_coefficient_vector():
    # bit for bit, even where multiplying by the zero powers would not give f:
    # a -0.0 entry, and an infinite one that 0 * inf turns into NaN
    f = eo.make_series(1, 3, {(0,): -0.0, (1,): 2.0, (3,): float("inf")}, is_polynomial=True)
    with np.errstate(invalid="ignore"):
        span = eo.translate_span(f, 2, [(0.5,), (0.0,)])
    assert span.matrix[1].tobytes() == eo.coefficient_vector(f, 2).tobytes()


# ---------------------------------------------------------------------------
# the sample stream: numpy's default_rng(seed).uniform, bit for bit
# ---------------------------------------------------------------------------


def drawn(draw) -> bytes | tuple[type, str]:
    """The C-order float64 bytes of a draw, or the type and message of its refusal."""
    try:
        return np.asarray(draw(), dtype=np.float64).tobytes()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def numpy_stream_outcome(dim: int, count: int, seed: int, low: float, high: float):
    """``sample_box``'s outcome, asserted equal to numpy's Generator draw first."""
    ours = drawn(lambda: eo.sample_box(dim, count, seed, low, high))
    assert ours == drawn(lambda: np.random.default_rng(seed).uniform(low, high, size=(count, dim)))
    return ours


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 1])
def test_sample_box_is_numpys_default_rng_uniform_bit_for_bit(seed):
    # one to five 32-bit seed words; 2**128 + 1 mixes a fifth word into the pool
    for dim in (1, 2, 3):
        for low, high in [(-1.0, 1.0), (-3.5, 1e-3), (2.0, 2.0), (-1e300, 1e300)]:
            assert isinstance(numpy_stream_outcome(dim, 9, seed, low, high), bytes)
    points = eo.sample_box(3, 4, seed)
    assert all(type(c) is float for p in points for c in p)


#: seeds of one to eight 32-bit words, so that long seeds are drawn often
SEEDS = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8).map(
    lambda words: sum(w << 32 * i for i, w in enumerate(words))
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(SEEDS, st.integers(1, 3), st.integers(0, 12), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
def test_sample_box_matches_numpy_on_a_derandomized_sweep(seed, dim, count, low, high):
    # a reversed box is refused by both, with one message
    numpy_stream_outcome(dim, count, seed, low, high)


@pytest.mark.parametrize(
    "args, refusal",
    [
        ((2, 3, -1, -1.0, 1.0), (ValueError, "expected non-negative integer")),
        ((2, 3, 0, 1.0, -1.0), (ValueError, "high - low < 0")),
        ((2, 3, 0, 0.0, -0.0), (ValueError, "high - low < 0")),
        ((2, 3, 0, -1e308, 1e308), (OverflowError, "high - low range exceeds valid bounds")),
        ((2, 3, 0, math.nan, 1.0), (OverflowError, "high - low range exceeds valid bounds")),
        # the seed is refused before the box
        ((2, 3, -1, 1.0, -1.0), (ValueError, "expected non-negative integer")),
    ],
)
def test_sample_box_refuses_as_numpy_does(args, refusal):
    assert numpy_stream_outcome(*args) == refusal


# ---------------------------------------------------------------------------
# batched span builders against per-row references
# ---------------------------------------------------------------------------


def dense_series(seed: int, dim: int, cutoff: int, polynomial: bool) -> eo.TruncatedSeries:
    """Random complex coefficients on about two thirds of the basis."""
    rng = np.random.default_rng(seed)
    basis = eo.monomial_basis(dim, cutoff)
    keep = rng.random(len(basis)) < 2 / 3
    values = rng.uniform(-1, 1, len(basis)) + 1j * rng.uniform(-1, 1, len(basis))
    entries = [(n, complex(v)) for n, v, k in zip(basis, values, keep) if k]
    return eo.make_series(dim, cutoff, entries, is_polynomial=polynomial)


def scalar_translate_row(f: eo.TruncatedSeries, shift, truncation: int) -> np.ndarray:
    """One sample at a time: the scalar term loop over a_idx and m <= idx."""
    shift = tuple(complex(s) for s in shift)
    out = np.zeros(math.comb(truncation + f.dim, f.dim), dtype=complex)
    if not any(shift):
        values = f.vector
    else:
        position = {n: i for i, n in enumerate(eo.monomial_basis(f.dim, f.cutoff))}
        acc = [0j] * len(position)
        for idx, c in f.terms():
            for m in product(*(range(e + 1) for e in idx)):
                w = c * math.prod(math.comb(a, b) for a, b in zip(idx, m))
                for s, a, b in zip(shift, idx, m):
                    if a > b:
                        w *= s ** (a - b)
                acc[position[m]] += w
        values = np.array(acc)
    n = min(len(out), len(values))
    out[:n] = values[:n]
    return out


def _times(x: tuple[Fraction, Fraction], y: tuple[Fraction, Fraction]):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def exact_translate_row(f: eo.TruncatedSeries, shift, truncation: int) -> list:
    """Per coefficient m of ``f(z + shift)``, degree <= truncation: ``(re, im, size)``.

    ``re`` and ``im`` are the exact parts of ``sum_k s^k C(m + k, k) a_(m+k)``
    in Fraction arithmetic, on the float inputs as given; ``size`` is
    ``sum_k |s^k C(m + k, k) a_(m+k)|``.
    """
    one = (Fraction(1), Fraction(0))
    powers = []  # powers[j][e] = shift_j ** e, exactly
    for s in shift:
        s = complex(s)
        column = [one]
        for _ in range(f.cutoff):
            column.append(_times(column[-1], (Fraction(s.real), Fraction(s.imag))))
        powers.append(column)
    terms = f.terms()
    out = []
    for m in eo.monomial_basis(f.dim, truncation):
        re = im = Fraction(0)
        size = 0.0
        for idx, c in terms:
            k = tuple(a - b for a, b in zip(idx, m))
            if min(k) < 0:
                continue
            binom = math.prod(math.comb(a, b) for a, b in zip(idx, k))
            term = (Fraction(c.real) * binom, Fraction(c.imag) * binom)
            for column, e in zip(powers, k):
                term = _times(term, column[e])
            re, im = re + term[0], im + term[1]
            size += math.hypot(term[0], term[1])
        out.append((re, im, size))
    return out


def assert_within_rounding(f: eo.TruncatedSeries, shifts, truncation: int, matrix):
    """Each part of each coefficient is within ``6 (K + d) u size`` of the exact value.

    A translate row is ``V @ B`` summed over the K = comb(cutoff + d, d)
    orders k; u = 2^-53.  Relative to the term ``s^k C(m + k, k) a_(m+k)``:
    the power ``s^k`` takes fewer than ``||k|| + d`` complex products
    (repeated products per axis, then one product over the axes), each
    within sqrt(5) u (Brent, Percival and Zimmermann, Math. Comp. 76, 2007);
    the rounded binomial and its product with ``a_(m+k)`` add 2u; and each
    part of the complex matmul is a real dot product of length 2K, within
    2K u of the sum of the term magnitudes in any summation order, product
    rounding included (Higham, *Accuracy and Stability*, section 3.1).  With
    ``||k|| <= cutoff < K`` and ``K + d >= 2`` the first-order sum is below
    ``(3 + sqrt(5)) (K + d) u``; c = 6 leaves room for the second-order terms.
    """
    u = 2.0**-53
    scale = 6 * (math.comb(f.cutoff + f.dim, f.dim) + f.dim) * u
    for shift, row in zip(shifts, matrix):
        for got, (re, im, size) in zip(row, exact_translate_row(f, shift, truncation)):
            assert abs(Fraction(got.real) - re) <= scale * size
            assert abs(Fraction(got.imag) - im) <= scale * size


@st.composite
def translate_case(draw):
    dim = draw(st.integers(1, 3))
    cutoff = draw(st.integers(0, 7 - dim))
    f = dense_series(draw(st.integers(0, 2**32 - 1)), dim, cutoff, draw(st.booleans()))
    coordinate = st.floats(-2.0, 2.0) | SCALAR
    samples = draw(st.lists(st.tuples(*[coordinate] * dim), min_size=1, max_size=6))
    samples.insert(draw(st.integers(0, len(samples))), (0.0,) * dim)
    return f, draw(st.integers(0, cutoff + 2)), samples


@settings(max_examples=60, deadline=None, derandomize=True)
@given(translate_case())
def test_translate_span_is_the_exact_sum_within_its_rounding_bound(case):
    f, truncation, samples = case
    span = eo.translate_span(f if f.is_polynomial else stored_polynomial(f), truncation, samples)
    assert_within_rounding(f, samples, truncation, span.matrix)


@pytest.mark.parametrize(
    "f",
    [
        eo.solve_kernel_axis(gaussian_problem(), 200),
        eo.make_series(1, 300, {(n,): 1 / (n + 1) for n in range(301)}, is_polynomial=True),
    ],
    ids=["gaussian_degree_200", "polynomial_cutoff_300"],
)
def test_translate_past_171_factorial_is_finite_and_exact_within_rounding(f):
    # s^k / k! over the derivative weights k! C(m + k, k) would pass 171!
    out = eo.translate(f, (-0.75,))
    assert np.isfinite(out.vector).all()
    assert_within_rounding(f, [(-0.75,)], f.cutoff, [out.vector])


@pytest.mark.parametrize("shift", [(0.5, -0.25), (1.5, 0.0), (-1.0, 0.75j)])
@pytest.mark.parametrize("where", [(1, 2), (3, 1), (4, 0)])
def test_translate_with_an_infinite_coefficient_keeps_the_other_sums_finite(where, shift):
    # only the sums of m <= where read the infinite coefficient; at the
    # cutoff it also sits where the plan parks the cells past the cutoff
    terms = {(0, 0): 1.0, (2, 1): 2.0, (0, 4): 0.5, where: math.inf}
    f = eo.make_series(2, 4, terms, is_polynomial=True)
    with np.errstate(invalid="ignore"):
        got = eo.translate(f, shift).vector
        finite = np.isfinite(scalar_translate_row(f, shift, 4))
    assert finite.any() and np.isfinite(got[finite]).all()


@st.composite
def derivative_case(draw):
    dim = draw(st.integers(1, 3))
    truncation = draw(st.integers(0, 5 - dim))
    max_order = draw(st.integers(0, 4 - dim))
    polynomial = draw(st.booleans())
    required = truncation + max_order
    # a polynomial may stop short of the truncation plus the order: zero rows
    low = 0 if polynomial else required
    cutoff = draw(st.integers(low, required + 2))
    f = dense_series(draw(st.integers(0, 2**32 - 1)), dim, cutoff, polynomial)
    return f, truncation, max_order


@settings(max_examples=60, deadline=None, derandomize=True)
@given(derivative_case())
def test_derivative_span_matches_differentiate_rows(case):
    f, truncation, max_order = case
    span = eo.derivative_span(f, truncation, max_order)
    expected = np.array(
        [eo.coefficient_vector(eo.differentiate(f, n), truncation) for n in span.row_labels]
    )
    assert span.row_labels == tuple(eo.monomial_basis(f.dim, max_order))
    assert span.matrix.tobytes() == expected.tobytes()


def test_derivative_span_pads_a_short_polynomial():
    f = eo.make_series(2, 3, {(3, 0): 2.0, (1, 1): -1.5, (0, 2): 0.5j}, is_polynomial=True)
    span = eo.derivative_span(f, 3, 2)
    expected = np.array(
        [eo.coefficient_vector(eo.differentiate(f, n), 3) for n in span.row_labels]
    )
    assert span.matrix.tobytes() == expected.tobytes()
    # every derivative of the cubic stops at degree 2: its degree-3 columns are padding
    assert not span.matrix[1:, len(eo.monomial_basis(2, 2)) :].any()


def exact_derivative_rows(f: eo.TruncatedSeries, orders, truncation: int) -> np.ndarray:
    """Cell (n, m) is ``a_{m+n} * float(prod_j perm(m_j + n_j, n_j))`` from Python integers."""
    position = {s: i for i, s in enumerate(eo.monomial_basis(f.dim, f.cutoff))}
    columns = eo.monomial_basis(f.dim, truncation)
    source = np.zeros((len(orders), len(columns)), dtype=np.intp)
    weight = np.zeros(source.shape)
    for i, n in enumerate(orders):
        for c, m in enumerate(columns):
            s = tuple(a + b for a, b in zip(m, n))
            if s in position:
                source[i, c] = position[s]
                weight[i, c] = float(math.prod(map(math.perm, s, n)))
    return np.where(weight != 0, f.vector[source] * weight, 0)


@pytest.mark.parametrize("dim, truncation", [(2, 20), (2, 16), (3, 10)])
def test_derivative_span_weights_past_two_to_the_53(dim, truncation):
    # (N, N) spans of a dense f: at d=2 N=20 a product of the rounded per-axis
    # factors differs from the exact weight in 494 of the 53 361 cells
    rng = np.random.default_rng(dim * 100 + truncation)
    cutoff = 2 * truncation
    basis = eo.monomial_basis(dim, cutoff)
    values = rng.uniform(-1, 1, len(basis)) + 1j * rng.uniform(-1, 1, len(basis))
    f = eo.make_series(dim, cutoff, list(zip(basis, values)))
    span = eo.derivative_span(f, truncation, truncation)
    rows = [eo.coefficient_vector(eo.differentiate(f, n), truncation) for n in span.row_labels]
    assert span.matrix.tobytes() == np.array(rows).tobytes()
    expected = exact_derivative_rows(f, span.row_labels, truncation)
    assert span.matrix.tobytes() == expected.tobytes()


@st.composite
def order_list_case(draw):
    dim = draw(st.integers(1, 4))
    cutoff = draw(st.integers(0, 8 - dim))
    f = dense_series(draw(st.integers(0, 2**32 - 1)), dim, cutoff, draw(st.booleans()))
    # any order list: unsorted, repeated, and orders past the cutoff
    order = st.tuples(*[st.integers(0, cutoff + 2)] * dim)
    orders = draw(st.lists(order, min_size=1, max_size=12))
    orders += draw(st.lists(st.sampled_from(orders), max_size=3))
    return f, orders, draw(st.integers(0, cutoff + 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(order_list_case())
def test_derivative_rows_match_per_order_reference(case):
    f, orders, degree = case
    got = series.derivative_rows(f, orders, degree)
    expected = np.array([eo.coefficient_vector(eo.differentiate(f, n), degree) for n in orders])
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "dim, orders",
    [
        # every order steps once along axis 2; for (3, 1) every cell but m = 0
        # lies past the cutoff 4, and (5, 1) has no cell inside it
        (2, [(0, 1), (3, 1), (1, 1), (5, 1), (2, 2), (0, 1)]),
        # every order steps at least 4 times, and (6,) is past the cutoff
        (1, [(4,), (6,)]),
        (1, [(6,), (4,), (5,)]),
        # an entry too large for a machine integer is capped before conversion
        (1, [(2**70,), (1,)]),
    ],
)
def test_derivative_rows_mask_the_cells_a_short_polynomial_leaves_out(dim, orders):
    f = dense_series(11, dim, 4 if dim == 2 else 5, polynomial=True)
    got = series.derivative_rows(f, orders, 4)
    expected = np.array([eo.coefficient_vector(eo.differentiate(f, n), 4) for n in orders])
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "orders, message",
    [
        ([(1, 0), (1,)], r"order \(1,\) does not match dim 2"),
        ([(1, 0), (0, 1, 0)], r"order \(0, 1, 0\) does not match dim 2"),
        ([(1, 0, 0), (0, 1, 0)], r"order \(1, 0, 0\) does not match dim 2"),
        ([(1, 0), (0, -1)], r"negative entry in derivative order \(0, -1\)"),
        ([(2, -3), (1,)], r"negative entry in derivative order \(2, -3\)"),
        ([(1, 1), (1,), (0, -1)], r"order \(1,\) does not match dim 2"),
    ],
)
def test_derivative_rows_name_the_first_bad_order(orders, message):
    f = dense_series(5, 2, 4, polynomial=False)
    with pytest.raises(ValueError, match=message):
        series.derivative_rows(f, orders, 2)


# ---------------------------------------------------------------------------
# rank reports
# ---------------------------------------------------------------------------


def test_rank_report_counterexample_generator():
    span = eo.derivative_span(one_axis_gaussian_2d(), 4, 4)
    report = eo.rank_report(span, 1e-8)
    assert (report.rank, report.ambient_dim) == (5, 15)
    assert not report.complete_at_truncation


def test_rank_report_product_gaussian_complete():
    f = eo.joint_kernel([gaussian_problem(), gaussian_problem()], 8)
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
    )
    with pytest.raises(ValueError, match="empty"):
        eo.rank_report(span, 1e-8)


def test_rank_unchanged_by_row_scaling():
    f = eo.solve_kernel_axis(gaussian_problem(), 8)
    span = eo.derivative_span(f, 4, 4)
    scaled = eo.SpanMatrix(
        matrix=span.matrix * np.array([1.0, 1e6, 1e-6, 3.0, 42.0])[:, None],
        row_labels=span.row_labels,
        truncation=span.truncation,
        dim=span.dim,
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


#: dyadic reals in [-2, 2], exact in floats and in Fraction
DYADIC = st.integers(-8, 8).map(lambda k: k / 4)
NONZERO_DYADIC = DYADIC.filter(bool)


@st.composite
def dyadic_kernel_problems(draw) -> list[eo.AxisKernelProblem]:
    """One real dyadic axis problem of order <= 3 per axis, d <= 2."""
    problems = []
    for _ in range(draw(st.integers(1, 2))):
        order = draw(st.integers(1, 3))
        charpoly = draw(st.lists(DYADIC, min_size=order, max_size=order))
        seeds = draw(st.lists(DYADIC, min_size=order, max_size=order).filter(any))
        problems.append(eo.AxisKernelProblem(
            charpoly + [draw(NONZERO_DYADIC)], draw(NONZERO_DYADIC), seeds))
    return problems


@settings(max_examples=100, deadline=None, derandomize=True)
@given(dyadic_kernel_problems(), st.integers(0, 8))
def test_float_rank_never_exceeds_the_exact_rank_mod_p(problems, n):
    # rank mod p <= rank over Q, so a float rank above it is a false rank
    as_json = [
        {"charpoly": [[c.real, 0] for c in p.charpoly], "a": [p.a.real, 0],
         "seeds": [[s.real, 0] for s in p.seeds]}
        for p in problems
    ]
    exact = certify.rank_mod_p(certify.kernel_span_mod_p(as_json, n, n))
    span = eo.derivative_span(eo.joint_kernel(problems, 2 * n), n, n)
    assert eo.rank_report(span, 1e-10).rank <= exact


# ---------------------------------------------------------------------------
# approximate_target
# ---------------------------------------------------------------------------


def test_approximate_coordinate_by_gaussian_derivatives():
    f = eo.solve_kernel_axis(gaussian_problem(), 6)
    target = eo.monomial(1, 3, (1,))
    result = eo.approximate_target(f, target, 3, 3)
    assert result.coefficient((1,)) == pytest.approx(2.5, abs=1e-12)
    assert result.coefficient((3,)) == pytest.approx(-0.5, abs=1e-12)
    assert result.coefficient((0,)) == pytest.approx(0.0, abs=1e-12)
    assert result.residual <= 1e-12


def test_approximate_a_huge_target_keeps_a_finite_residual_without_a_warning():
    # the sum of the squared defects overflows though their norm does not
    f = eo.solve_kernel_axis(gaussian_problem(), 6)
    small = eo.approximate_target(f, eo.monomial(1, 3, (1,)), 3, 3)
    huge = eo.approximate_target(f, eo.make_series(1, 3, {(1,): 1e300}, True), 3, 3)
    assert huge.coefficient((1,)) == pytest.approx(1e300 * small.coefficient((1,)), rel=1e-12)
    assert 0 < huge.residual <= 1e300 * 1e-12


@pytest.mark.parametrize(
    "order, message",
    [
        ((1.5,), r"non-integral entry in derivative order \(1.5,\)"),
        ((1, 0), r"derivative order \(1, 0\) does not match dim 1"),
        ((-1,), r"negative entry in derivative order \(-1,\)"),
    ],
    ids=["non-integral", "wrong-length", "negative"],
)
def test_approximation_coefficient_checks_its_order(order, message):
    f = eo.solve_kernel_axis(gaussian_problem(), 6)
    result = eo.approximate_target(f, eo.monomial(1, 3, (1,)), 3, 3)
    with pytest.raises(ValueError, match=message):
        result.coefficient(order)
    assert result.coefficient((1.0,)) == result.coefficient((1,))
    with pytest.raises(KeyError, match=r"no derivative order \(4,\)"):
        result.coefficient((4,))


def test_approximate_constant_trivial():
    f = eo.solve_kernel_axis(gaussian_problem(), 4)
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
    f = eo.joint_kernel([gaussian_problem(), gaussian_problem()], 8)
    basis = eo.monomial_basis(2, 4)
    target = eo.make_series(
        2, 4,
        {n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in basis},
        is_polynomial=True,
    )
    result = eo.approximate_target(f, target, 4, 4)
    assert result.residual <= 1e-10


def test_approximate_rejects_nonpolynomial_target():
    f = eo.solve_kernel_axis(gaussian_problem(), 6)
    target = eo.make_series(1, 3, {(1,): 1.0})
    with pytest.raises(ValueError, match="polynomial"):
        eo.approximate_target(f, target, 3, 3)


def traced_peak(call) -> int:
    """The tracemalloc peak of ``call()``."""
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize(
    "call, match",
    [
        # a 31626 x 31626 complex span, 16 GB, of a dim-2 cubic
        (lambda: eo.derivative_span(eo.make_series(2, 3, {(3, 0): 1.0}, True), 250, 250),
         "31626 rows of degree <= 250 in dim 2 would take .* past the budget"),
        # the budget is checked before the seed and the box
        (lambda: eo.sample_box(2, 10**9, -1, 1.0, -1.0),
         "1000000000 samples in dim 2 .* past the budget"),
        # ten rows of 2 003 001 coefficients, 320 MB
        (lambda: eo.translate_span(eo.monomial(2, 3, (1, 1)), 2000, [(0.5, 0.5)] * 10),
         "10 translates of degree <= 2000 .* past the budget"),
    ],
    ids=["derivative_span", "sample_box", "translate_span"],
)
def test_a_block_past_the_budget_is_refused_before_it_exists(call, match):
    def refused():
        with pytest.raises(ValueError, match=match):
            call()

    assert traced_peak(refused) < 2**26


def test_derivative_span_is_refused_before_its_orders_layout_is_built():
    f = eo.make_series(2, 3, {(3, 0): 1.0}, True)
    misses = series._layout.cache_info().misses
    with pytest.raises(ValueError, match="31626 rows of degree <= 250 in dim 2 would take"):
        eo.derivative_span(f, 250, 250)
    assert series._layout.cache_info().misses == misses


@pytest.mark.parametrize(
    "call",
    [
        lambda: eo.derivative_span(one_axis_gaussian_2d(24), 12, 12),
        # three stepping axes: the plan's scratch grid is alive with its two others
        lambda: eo.derivative_span(eo.joint_kernel([gaussian_problem()] * 3, 20), 10, 10),
        lambda: series.translate_rows(eo.monomial(2, 24, (1, 1)), [(0.5, 0.25)] * 5, 24),
        lambda: eo.sample_box(3, 4000, 0),
    ],
    ids=["derivative_span", "derivative_span_d3", "translate_block", "sample_box"],
)
def test_the_block_estimate_bounds_the_built_block(monkeypatch, call):
    call()  # the layouts are cached from here on
    peak = traced_peak(call)
    monkeypatch.setattr(series, "_LAYOUT_BUDGET", peak)
    with pytest.raises(ValueError, match="past the budget"):
        call()


# ---------------------------------------------------------------------------
# LAPACK calls on one BLAS thread
# ---------------------------------------------------------------------------


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS thread-count getter, with the count set to 2 for the test."""
    calls = completeness._openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy's BLAS has no OpenBLAS thread-count setter")
    get, set_ = calls
    old = get()
    set_(2)
    yield get
    set_(old)


def gaussian_span_3d() -> eo.SpanMatrix:
    """The 165 x 165 span of d=3 N=8, large enough for OpenBLAS to thread."""
    return eo.derivative_span(eo.joint_kernel([gaussian_problem()] * 3, 16), 8, 8)


def gaussian_span_2d() -> eo.SpanMatrix:
    """The 15 x 15 span of d=2 N=4, below the real-arithmetic gate."""
    return eo.derivative_span(eo.joint_kernel([gaussian_problem()] * 2, 8), 4, 4)


def counting_threads(monkeypatch, get, name: str) -> list[int]:
    """Record the thread count at each call of ``np.linalg.<name>``."""
    seen = []
    real = getattr(np.linalg, name)

    def recorded(*args, **kwargs):
        seen.append(get())
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recorded)
    return seen


def test_lapack_calls_run_on_one_blas_thread_and_restore_the_count(monkeypatch, blas_threads):
    # the 165 x 165 span is decomposed in real arithmetic, the 15 x 15 one as it is
    svd_threads = counting_threads(monkeypatch, blas_threads, "svd")
    lstsq_threads = counting_threads(monkeypatch, blas_threads, "lstsq")
    eo.rank_report(gaussian_span_3d(), 1e-8)
    eo.rank_report(gaussian_span_2d(), 1e-8)
    f = eo.solve_kernel_axis(gaussian_problem(), 6)
    eo.approximate_target(f, eo.monomial(1, 3, (1,)), 3, 3)
    assert (svd_threads, lstsq_threads) == ([1, 1], [1])
    assert blas_threads() == 2


def test_a_raising_lapack_call_restores_the_thread_count(monkeypatch, blas_threads):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", singular)
    for span in (gaussian_span_2d(), gaussian_span_3d()):
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            eo.rank_report(span, 1e-8)
        assert blas_threads() == 2


def test_nested_pins_restore_the_count_on_the_last_exit(blas_threads):
    pin = completeness._one_blas_thread
    with pin:
        with pin:
            assert blas_threads() == 1
        assert blas_threads() == 1
    assert blas_threads() == 2


def test_overlapping_threads_leave_the_count_unchanged(monkeypatch, blas_threads):
    span = gaussian_span_3d()
    want = eo.rank_report(span, 1e-8)
    svd_threads = counting_threads(monkeypatch, blas_threads, "svd")
    got = []

    def work():
        got.extend(eo.rank_report(span, 1e-8) for _ in range(20))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(3)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert got == [want] * 60
    assert svd_threads == [1] * 60
    assert blas_threads() == 2


def test_without_an_openblas_setter_the_calls_run_unpinned(monkeypatch):
    monkeypatch.setattr(completeness, "_openblas_thread_calls", lambda: None)
    span = gaussian_span_3d()
    m = span.matrix / np.abs(span.matrix).max(axis=1)[:, None]
    sv = np.linalg.svd(m.real, compute_uv=False)
    assert eo.rank_report(span, 1e-8).singular_values == tuple(float(s) for s in sv)
    f = eo.joint_kernel([gaussian_problem(), gaussian_problem()], 12)
    target = eo.monomial(2, 6, (1, 2))
    c = np.linalg.lstsq(
        eo.derivative_span(f, 6, 6).matrix.T, eo.coefficient_vector(target, 6), rcond=None
    )[0]
    got = eo.approximate_target(f, target, 6, 6)
    assert got.coefficients == tuple(complex(v) for v in c)


# ---------------------------------------------------------------------------
# the SVD: real arithmetic for a large span of real data
# ---------------------------------------------------------------------------


def numpys(m: np.ndarray) -> np.ndarray:
    """numpy's singular values of m on one BLAS thread, as ``_singular_values`` runs."""
    with completeness._one_blas_thread:
        return np.linalg.svd(m, compute_uv=False)


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and np.array_equal(got.view(np.int64), want.view(np.int64))


GATE = completeness._REAL_MIN_SIDE
SHAPES = [
    (GATE, GATE), (GATE - 1, GATE - 1), (GATE + 1, GATE + 1),
    (GATE, 3 * GATE), (3 * GATE, GATE), (GATE - 1, 2 * GATE), (2 * GATE, GATE - 1),
    (GATE + 1, 2 * GATE), (2 * GATE, GATE + 1), (1, 2 * GATE), (2 * GATE, 1), (286, 286),
]


@pytest.mark.parametrize("shape", SHAPES, ids=[f"{r}x{c}" for r, c in SHAPES])
def test_singular_values_are_numpys_bit_for_bit_on_random_matrices(shape):
    # complex data at any size is decomposed as it is
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert same_bits(completeness._singular_values(m), numpys(m))


@pytest.mark.parametrize("shape", SHAPES, ids=[f"{r}x{c}" for r, c in SHAPES])
def test_real_data_at_or_above_the_gate_is_decomposed_in_real_arithmetic(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    m = rng.standard_normal(shape) + 0j
    m.imag[0, 0] = -0.0  # a signed zero is no imaginary part
    want = numpys(m.real) if min(shape) >= GATE else numpys(m)
    assert same_bits(completeness._singular_values(m), want)
    # one nonzero imaginary part keeps the complex decomposition
    m.imag[-1, -1] = 1e-300
    assert same_bits(completeness._singular_values(m), numpys(m))


def test_singular_values_of_a_zero_matrix_are_numpys():
    m = np.zeros((GATE + 6, GATE + 6), dtype=complex)
    assert same_bits(completeness._singular_values(m), numpys(m.real))


def test_a_nan_entry_fails_as_numpy_does_and_an_inf_entry_gives_numpys_values():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((GATE + 2, GATE + 2)) + 0j
    m[3, 5] = np.nan
    for svd in (completeness._singular_values, numpys):
        with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge$"):
            svd(m)
    m[3, 5] = np.inf
    assert same_bits(completeness._singular_values(m), numpys(m.real))


def recorded_spans(monkeypatch) -> list[np.ndarray]:
    """The normalized spans that rank_report hands to ``_singular_values`` from here on."""
    spans = []
    real = completeness._singular_values

    def recorded(m):
        spans.append(m.copy())
        return real(m)

    monkeypatch.setattr(completeness, "_singular_values", recorded)
    return spans


def test_singular_values_are_numpys_bit_for_bit_on_every_benchmark_and_bundled_span(
    monkeypatch, tmp_path
):
    spans = recorded_spans(monkeypatch)
    for source in cli.BUNDLED:
        cli.execute_tasks(cli.load_scenario(source))
    bundled = len(spans)
    for _, source in workloads.write_inputs("span", 0, tmp_path):
        cli.execute_tasks(cli.load_scenario(source))
    # every span has real data; each bundled one is below the gate, and the
    # span workload has exactly 5 at or above it
    assert not any(m.imag.any() for m in spans)
    large = [min(m.shape) >= GATE for m in spans]
    assert large[:bundled] == [False] * bundled
    assert large[bundled:].count(True) == 5
    monkeypatch.undo()
    for m, real in zip(spans, large):
        assert same_bits(completeness._singular_values(m), numpys(m.real if real else m))
