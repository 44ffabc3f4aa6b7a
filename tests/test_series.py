"""Series arithmetic: construction, calculus operations, semi-norm bounds."""

from __future__ import annotations

import cmath
import math
import random
import sys
import threading
import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import entireops as eo
from entireops import series
from entireops.series import seminorm_rows, worst
from support import (
    cr_operators, gaussian_problem, max_coeff_diff, reference_basis, reference_layout,
    reference_plan, reference_step_weight, scalar_seminorm, seminorm_row,
)

GAUSS6 = {(0,): 1.0, (2,): 0.5, (4,): 0.125, (6,): 1 / 48}


def gauss_series(cutoff: int = 6) -> eo.TruncatedSeries:
    return eo.make_series(1, cutoff, {k: v for k, v in GAUSS6.items() if sum(k) <= cutoff})


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_make_series_basic():
    f = eo.make_series(1, 3, [((0,), 1.0), ((2,), 0.5)])
    assert f.exact_degree == 3
    assert not f.is_polynomial
    assert f.coefficient((2,)) == 0.5
    assert f.coefficient((1,)) == 0


def test_make_series_polynomial_monomial():
    f = eo.make_series(2, 2, [((1, 1), 1.0)], is_polynomial=True)
    assert f.is_polynomial and f.exact_degree == 2


def test_make_series_index_exceeds_cutoff():
    with pytest.raises(ValueError, match="exceeds cutoff"):
        eo.make_series(1, 1, [((2,), 1.0)])


def test_make_series_duplicate_index():
    with pytest.raises(ValueError, match="duplicate"):
        eo.make_series(1, 3, [((1,), 1.0), ((1,), 2.0)])


def test_make_series_dim_mismatch():
    with pytest.raises(ValueError, match="dim"):
        eo.make_series(2, 3, [((1,), 1.0)])


@pytest.mark.parametrize("dim, cutoff", [(1, 0), (2, 7), (3, 5), (5, 9)])
def test_zero_series_equals_the_empty_literal_and_builds_no_index_table(dim, cutoff):
    before = series._positions.cache_info()
    zero = eo.zero_series(dim, cutoff)
    assert series._positions.cache_info() == before  # not even a cache hit
    assert zero == eo.make_series(dim, cutoff, [], True)  # equality compares the flags too
    assert zero.vector.dtype == complex and not zero.vector.flags.writeable


@pytest.mark.parametrize(
    "dim, cutoff, message",
    [(0, 3, "dim must be"), (-1, 2, "dim must be"), (1, -1, "cutoff must be"),
     (2, 10**6, "past the budget")],
)
def test_zero_series_refuses_what_the_empty_literal_refuses(dim, cutoff, message):
    for build in (eo.zero_series, lambda d, c: eo.make_series(d, c, [], True)):
        with pytest.raises(ValueError, match=message):
            build(dim, cutoff)


def test_zero_coefficients_dropped():
    f = eo.make_series(1, 3, [((0,), 1.0), ((1,), 0.0)])
    assert f.terms() == [((0,), 1.0)]


def test_term_table_checks_every_index_refuses_a_repeat_and_sorts():
    pairs = [((0, 2), 3.0), ((1, 0), 0.0), ((2, 0), 1j), ((0, 0), 2.0)]
    table = series.term_table(2, pairs)
    assert list(table.items()) == [((0, 0), 2.0), ((0, 2), 3.0), ((2, 0), 1j)]
    assert series.term_table(2, dict(pairs)) == table
    with pytest.raises(ValueError, match=r"duplicate index \(1, 0\)"):
        series.term_table(2, [((1, 0), 0.0), ((1, 0), 1.0)])  # a zero still counts
    with pytest.raises(ValueError, match=r"index \(1,\) does not match dim 2"):
        series.term_table(2, [((0, 0), 1.0), ((1,), 1.0)])
    with pytest.raises(ValueError, match=r"negative entry in index \(1, -1\)"):
        series.term_table(2, {(1, -1): 1.0})


@pytest.mark.parametrize(
    "call, message",
    [
        # int() would run the order as (1, 0)
        (lambda: eo.differentiate(eo.make_series(2, 3, {(2, 1): 1.0}), (1.5, 0)),
         r"non-integral entry in derivative order \(1.5, 0\)"),
        # int() would store the coefficient at (1,)
        (lambda: eo.make_series(1, 3, [((1.7,), 2.0)]), r"non-integral entry in index \(1.7,\)"),
    ],
    ids=["derivative_order", "series_index"],
)
def test_a_non_integral_index_entry_is_refused_not_truncated(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def _ladder_vector() -> eo.LadderVector:
    return eo.LadderVector((gaussian_problem(), gaussian_problem()), {(1, 1): 1.0})


@pytest.mark.parametrize(
    "call",
    [
        lambda axis: eo.multiply_coordinate(eo.make_series(2, 3, {(0, 0): 1.0}), axis),
        # 1 <= 1.5 <= 2 passed, and the operator was built as D_1 - I
        lambda axis: eo.CROperator(2, axis, 1.0, eo.ConvolutionSymbol(2, {(1, 0): 1.0})),
        lambda axis: eo.apply_lowering(_ladder_vector(), axis),
        lambda axis: eo.apply_raising(_ladder_vector(), axis),
        lambda axis: eo.nilpotency_index(_ladder_vector(), axis),
        lambda axis: eo.convergence_report(_ladder_vector(), axis, eo.SemiNormSpec(1, 2.0), 2, 2),
    ],
    ids=["multiply_coordinate", "CROperator", "apply_lowering", "apply_raising",
         "nilpotency_index", "convergence_report"],
)
def test_every_axis_is_checked_in_range_and_integral(call):
    with pytest.raises(ValueError, match=r"non-integral axis 1.5"):
        call(1.5)
    for axis in (0, 3):
        with pytest.raises(ValueError, match=f"axis {axis} out of range for dim 2"):
            call(axis)
    call(2.0)  # an integral float is the integer


@pytest.mark.parametrize(
    "idx, message",
    [
        ((1.5,), r"non-integral entry in index \(1.5,\)"),
        ((1, 0), r"index \(1, 0\) does not match dim 1"),
        ((-1,), r"negative entry in index \(-1,\)"),
    ],
    ids=["non-integral", "wrong-length", "negative"],
)
def test_coefficient_lookup_checks_its_index(idx, message):
    f = eo.make_series(1, 3, {(1,): 2.0})
    with pytest.raises(ValueError, match=message):
        f.coefficient(idx)
    assert f.coefficient((1.0,)) == 2.0
    assert f.coefficient((4,)) == 0j  # past the cutoff


def test_integral_floats_and_numpy_integers_are_indices():
    f = eo.make_series(2, 3, {(2, 1): 1.0})
    assert eo.differentiate(f, (np.int64(1), 1.0)) == eo.differentiate(f, (1, 1))
    assert eo.make_series(1, 3, [((2.0,), 2.0)]).terms() == [((2,), 2.0)]


@pytest.mark.parametrize(
    "table_of",
    [
        lambda entries: eo.ConvolutionSymbol(1, entries).bcoeffs,
        lambda entries: eo.LadderVector((gaussian_problem(),), entries).terms,
        lambda entries: dict(eo.make_series(1, 4, entries).terms()),
    ],
    ids=["symbol", "ladder_vector", "series_literal"],
)
def test_symbols_ladder_vectors_and_literals_read_pairs_through_one_table(table_of):
    assert table_of([((2,), 1.0), ((0,), 0.5), ((1,), 0.0)]) == {(0,): 0.5, (2,): 1.0}
    with pytest.raises(ValueError, match=r"duplicate index \(2,\)"):
        table_of([((2,), 1.0), ((2,), 5.0)])


def test_graded_lex_basis_order():
    assert eo.monomial_basis(2, 2) == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0),
    ]
    assert len(eo.monomial_basis(2, 4)) == math.comb(6, 2)


@pytest.mark.parametrize("dim", range(1, 6))
def test_basis_is_the_filtered_sorted_cube(dim):
    # reference: every index of the (cutoff + 1)^dim cube, filtered by total
    # degree and sorted into graded-lex order
    for cutoff in range(9):
        cube = product(range(cutoff + 1), repeat=dim)
        want = sorted((n for n in cube if sum(n) <= cutoff), key=eo.graded_key)
        assert eo.monomial_basis(dim, cutoff) == want


def test_basis_of_a_wide_dimension():
    # the (3 + 1)^12 cube holds 1.7e7 indices; the basis holds comb(15, 12)
    basis = eo.monomial_basis(12, 3)
    assert len(basis) == len(set(basis)) == math.comb(15, 12)
    assert basis[:3] == [(0,) * 12, (0,) * 11 + (1,), (0,) * 10 + (1, 0)]
    assert basis == sorted(basis, key=eo.graded_key)


# ---------------------------------------------------------------------------
# linear_combine
# ---------------------------------------------------------------------------


def test_linear_combine_addition():
    one_plus_z = eo.make_series(1, 2, {(0,): 1, (1,): 1}, is_polynomial=True)
    z = eo.monomial(1, 2, (1,))
    out = eo.linear_combine([(1, one_plus_z), (1, z)])
    assert max_coeff_diff(out, {(0,): 1, (1,): 2}) == 0


def test_linear_combine_cancellation_keeps_exactness():
    z2 = eo.make_series(1, 4, {(2,): 1.0})
    out = eo.linear_combine([(2, z2), (-2, z2)])
    assert out.is_zero()
    assert out.exact_degree == 4


def test_linear_combine_cutoff_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        eo.linear_combine([(1, eo.monomial(1, 2, (1,))), (1, eo.monomial(1, 3, (1,)))])


def test_linear_combine_empty():
    with pytest.raises(ValueError, match="at least one"):
        eo.linear_combine([])


# ---------------------------------------------------------------------------
# differentiate
# ---------------------------------------------------------------------------


def test_differentiate_gaussian_matches_z_times_f():
    # independent oracle: the squared exponential satisfies f' = z f
    f = gauss_series()
    df = eo.differentiate(f, (1,))
    assert df.exact_degree == 5
    assert max_coeff_diff(df, {(1,): 1.0, (3,): 0.5, (5,): 0.125}) <= 1e-15
    zf = eo.multiply_coordinate(f, 1)
    diff = eo.linear_combine([(1, df), (-1, zf)])
    assert diff.max_exact_coefficient() <= 1e-15


def test_differentiate_mixed_partial():
    f = eo.make_series(2, 2, [((1, 1), 1.0)], is_polynomial=True)
    out = eo.differentiate(f, (1, 1))
    assert max_coeff_diff(out, {(0, 0): 1.0}) == 0


def test_differentiate_past_degree():
    f = eo.monomial(1, 3, (3,))
    out = eo.differentiate(f, (4,))
    assert out.is_zero()
    assert out.is_polynomial


def test_differentiate_polynomial_stays_exact():
    f = eo.monomial(1, 5, (3,))
    out = eo.differentiate(f, (1,))
    assert out.is_polynomial and out.exact_degree == 5


@pytest.mark.parametrize("order", [(2, 3, 4), (9, 8), (20, 20), (30, 3), (0, 17)])
def test_derivative_weights_are_exact_integers_rounded_once(order):
    # for (20, 20) and (30, 3) a product of the rounded per-axis factors would
    # round some weights differently, e.g. at m = (0, 4)
    dim = len(order)
    cutoff = sum(order) + 8
    basis = eo.monomial_basis(dim, cutoff)
    out = eo.differentiate(eo.make_series(dim, cutoff, [(n, 1.0) for n in basis]), order)
    for m in eo.monomial_basis(dim, cutoff - sum(order)):
        exact = math.prod(math.perm(a + b, b) for a, b in zip(m, order))
        assert out.coefficient(m) == float(exact)


def test_rounded_weights_are_inf_past_the_float_range():
    # integers from halfway between the largest float and 2^1024 round past it
    largest = int(sys.float_info.max)
    halfway = largest + 2**970
    exact = np.array([largest, halfway - 1, halfway, 2**1100], dtype=object)
    rounded = series._rounded(exact)
    assert rounded.tolist() == [sys.float_info.max, sys.float_info.max, math.inf, math.inf]


@pytest.mark.parametrize(
    "dim, cutoff", [(2, 10**9), (10**9, 1), (10**9, 10**9), (1, 10**400), (1, 1000)]
)
def test_a_layout_past_the_budget_is_refused_before_any_table_exists(dim, cutoff):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"degree <= {cutoff} in dim {dim} would take"):
            eo.make_series(dim, cutoff, [])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def assert_same_layout(built: series._Layout, expected: series._Layout) -> None:
    """Every field equal: arrays in dtype, shape and entries."""
    assert built.cutoff == expected.cutoff
    for name, got, want in zip(built._fields[1:], built[1:], expected[1:]):
        pairs = [(got, want)] if isinstance(got, np.ndarray) else zip(got, want, strict=True)
        for a, b in pairs:
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert np.array_equal(a, b), name


def assert_same_positions(dim: int, cutoff: int) -> None:
    """``_positions`` maps the reference basis, in its order, to 0, 1, ..., as Python ints."""
    got = series._positions(dim, cutoff)
    assert list(got.items()) == [(n, i) for i, n in enumerate(reference_basis(dim, cutoff))]
    assert all(type(e) is int for n in got for e in n)


def assert_same_step_weight(cutoff: int) -> None:
    for got, want in zip(series._step_weight.__wrapped__(cutoff), reference_step_weight(cutoff),
                         strict=True):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dim", range(1, 5))
def test_layout_tables_equal_the_recursive_reference(dim):
    for cutoff in range(25):
        assert_same_layout(series._layout.__wrapped__(dim, cutoff), reference_layout(dim, cutoff))
        assert_same_positions(dim, cutoff)
        assert_same_step_weight(cutoff)


@pytest.mark.parametrize("dim", [1, 2])
def test_layout_tables_past_cutoff_170_equal_the_reference_inf_included(dim):
    assert_same_layout(series._layout.__wrapped__(dim, 175), reference_layout(dim, 175))
    assert_same_positions(dim, 175)
    assert_same_step_weight(175)
    assert series._step_weight(175)[1][175, 0] == math.inf  # 175! is past the float range


@st.composite
def layout_requests(draw):
    """A dim and distinct cutoffs in the order a process asks for their layouts."""
    dim = draw(st.integers(1, 4))
    top = 24 if dim < 4 else 14
    return dim, draw(st.lists(st.integers(0, top), min_size=1, max_size=6, unique=True))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(layout_requests())
def test_layouts_equal_the_reference_whatever_order_they_are_asked_in(case):
    # a cutoff at or below the largest of its dim is served by views, one past it is built
    dim, cutoffs = case
    series._layout.cache_clear()
    series._positions.cache_clear()
    series._largest = {}
    for cutoff in cutoffs:
        assert_same_layout(series._layout(dim, cutoff), reference_layout(dim, cutoff))
        assert_same_positions(dim, cutoff)
    assert series._largest[dim].cutoff == max(cutoffs)


def test_layouts_asked_for_by_overlapping_threads_equal_the_reference():
    # threads growing a dim's largest layout at once may drop one another's
    # table, which costs a rebuild; every layout handed out must still be right
    requests = [(dim, cutoff) for dim in (1, 2, 3) for cutoff in range(0, 19, 2)]
    expected = {r: reference_layout(*r) for r in requests}
    wrong = []

    def ask(order):
        for r in order:
            try:
                assert_same_layout(series._layout(*r), expected[r])
            except AssertionError as exc:
                wrong.append((r, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for attempt in range(5):
            series._layout.cache_clear()
            series._largest = {}
            orders = [random.Random(10 * attempt + i).sample(requests, len(requests))
                      for i in range(4)]
            threads = [threading.Thread(target=ask, args=(order,)) for order in orders]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


def test_one_step_table_serves_every_dim_of_a_cutoff():
    series._step_weight(11)
    misses = series._step_weight.cache_info().misses
    for dim in range(1, 5):
        rest = (0,) * (dim - 1)
        f = eo.make_series(dim, 11, {(3, *rest): 1.0})  # D_1^2 is a plan call
        assert eo.differentiate(f, (2, *rest)).coefficient((1, *rest)) == 6.0
    assert series._step_weight.cache_info().misses == misses


def test_a_series_or_a_one_axis_solve_builds_no_layout():
    before = series._layout.cache_info().misses
    # (dim, cutoff) pairs no other test lays out
    eo.TruncatedSeries(2, 43, 43, False, np.zeros(math.comb(45, 2)))
    eo.solve_kernel_axis(gaussian_problem(), 47)
    assert series._layout.cache_info().misses == before


@pytest.mark.parametrize(
    "build",
    [lambda: eo.TruncatedSeries(2, 10**9, -1, False, np.zeros(1)),
     lambda: eo.solve_kernel_axis(gaussian_problem(), 10**9)],
    ids=["series", "solve"],
)
def test_a_size_check_refuses_an_oversized_layout_with_the_layout_message(build):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value).startswith("the tables of degree <= 1000000000 in dim ")
    assert str(exc.value).endswith(f" bytes, past the budget of {2**28}")


@pytest.mark.parametrize("dim, cutoff", [(1, 300), (2, 175), (3, 20), (12, 3)])
def test_the_layout_estimate_bounds_the_built_tables(monkeypatch, dim, cutoff):
    # the largest layouts the tests build, per dimension; the budget is ten
    # times the largest estimate among them
    series._layout(dim, cutoff)  # caches the layout the index table below reads
    # no larger layout of the dim to take views of, so the one below is built whole
    monkeypatch.setattr(series, "_largest", {})
    tracemalloc.start()
    try:
        # past the caches: a step table, a layout's tables and its index table
        tables = (
            series._step_weight.__wrapped__(cutoff),
            series._layout.__wrapped__(dim, cutoff),
            series._positions.__wrapped__(dim, cutoff),
        )
        built, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert series._largest[dim].cutoff == cutoff  # built whole, as the first of its dim
    del tables
    # past the cache of passed checks too, which holds the earlier pass
    series._checked_layout.__wrapped__(dim, cutoff)
    monkeypatch.setattr(series, "_LAYOUT_BUDGET", built)
    with pytest.raises(ValueError, match="past the budget"):
        series._checked_layout.__wrapped__(dim, cutoff)


def test_series_past_cutoff_170_build_solve_and_differentiate():
    # perm(171, 171) = 171! is past the float range
    assert eo.make_series(1, 171, {(0,): 1.0}).cutoff == 171
    gaussian = eo.solve_kernel_axis(eo.AxisKernelProblem((0, 1), 1.0, (1,)), 200)
    assert gaussian.cutoff == 200 and gaussian.coefficient((2,)) == 0.5
    assert eo.differentiate(gaussian, (2,)).coefficient((0,)) == 1.0
    with pytest.raises(OverflowError, match="past the float range"):
        eo.differentiate(gaussian, (172,))


def test_two_axis_derivative_weight_past_the_float_range_raises():
    # each factor, 170! and 5!, is a float; their product is not
    f = eo.make_series(2, 175, {(170, 5): 1.0})
    # the overflowing product warns nothing on the way to the OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="past the float range"):
            eo.differentiate(f, (170, 5))
        with pytest.raises(OverflowError, match="past the float range"):
            series.derivative_rows(f, [(0, 0), (170, 5)], 0)


@pytest.mark.parametrize("order", [(5,), (1,)])
def test_a_derivative_cell_past_the_float_range_raises_without_a_warning(order):
    # 1e308 times the weight 10!/5! of D^5 (or 10 of D^1) overflows; the
    # plan path and the unit-order path refuse it as derivative_rows does
    f = eo.make_series(1, 10, {(0,): 1, (10,): 1e308}, is_polynomial=True)
    g = eo.make_series(1, 10, {(0,): 1, (10,): math.inf}, is_polynomial=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="a coefficient times its weight is past the float range"):
            eo.differentiate(f, order)
        # an inf coefficient is data and carries
        assert np.isinf(eo.differentiate(g, order).vector[10 - order[0]].real)
        # apply_weyl keeps the overflow as inf, for its callers to name
        op = eo.CROperator(1, 1, 1.0, eo.ConvolutionSymbol(1, {order: 1.0}))
        image = eo.apply_weyl(op, f)
        assert np.isinf(image.vector[10 - order[0]].real)
        with pytest.raises(OverflowError, match="orbit overflows at step 1"):
            eo.iterate_orbit(op, f, 1)


def test_an_inf_factor_in_a_masked_cell_leaves_the_per_order_rows():
    # cell m = (0, 171) of order (171, 5): the factor 171! is inf on axis 1
    # and the step past the cutoff gives 0 on axis 2; the cell is masked
    f = eo.make_series(2, 175, {(0, 171): 1.0, (3, 2): 2.0, (171, 4): 0.5})
    orders = [(0, 0), (171, 5), (1, 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = series.derivative_rows(f, orders, 175)
    expected = [eo.coefficient_vector(eo.differentiate(f, n), 175) for n in orders]
    assert np.array_equal(rows, expected)


def test_a_row_cell_past_the_float_range_raises_and_an_inf_coefficient_carries():
    # 1e308 times the weight 10!/5! of D^5 at z^5 overflows; an inf
    # coefficient is data, and its cells stay non-finite
    f = eo.make_series(1, 10, {(0,): 1.0, (10,): 1e308}, is_polynomial=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="past the float range"):
            series.derivative_rows(f, [(0,), (5,)], 5)
        with pytest.raises(OverflowError, match="past the float range"):
            eo.derivative_span(f, 5, 5)
        g = eo.make_series(1, 10, {(0,): 1.0, (10,): math.inf}, is_polynomial=True)
        rows = series.derivative_rows(g, [(0,), (5,)], 5)
    assert np.isinf(rows[1, 5].real)
    assert np.argwhere(~np.isfinite(rows)).tolist() == [[1, 5]]


def test_a_translate_sum_past_the_float_range_raises_without_a_warning():
    # every gathered cell and every power 100^k is finite; the sum at z^0
    # reaches 1e300 * 100^10
    f = eo.make_series(1, 10, {(10,): 1e300}, is_polynomial=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="a translate coefficient is past the float range"):
            eo.translate(f, (100.0,))
        assert np.isfinite(eo.translate(f, (1.0,)).vector).all()


@st.composite
def plan_cases(draw):
    """A layout, up to three orders (the zero order among the draws), a row count, a factor kind."""
    dim = draw(st.integers(1, 4))
    # past cutoff 170 only in dims 1 and 2, whose bases stay small there
    cutoff = draw(st.integers(0, 30) | st.just(172) if dim <= 2 else st.integers(0, 30))
    entry = st.integers(0, cutoff + 1)
    order = st.just((0,) * dim) | st.tuples(*[entry] * dim)
    orders = draw(st.lists(order, min_size=1, max_size=3))
    rows = draw(st.integers(1, math.comb(cutoff + dim, dim)))
    return dim, cutoff, orders, rows, draw(st.booleans())


def binomial_factors(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """``comb(m + n, n)`` at [n, m] for ``m + n <= cutoff``, laid out as the step table."""
    exact = np.array(
        [[math.comb(m + n, n) if m + n <= cutoff else 0 for m in range(cutoff + 1)]
         for n in range(cutoff + 2)],
        dtype=object,
    )
    return exact, series._rounded(exact)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(plan_cases())
@example((1, 172, [(171,)], 2, False))  # 171! is past the float range
@example((2, 172, [(0, 0), (170, 2)], 3, False))  # 170! 2! is not: recomputed
@example((2, 172, [(80, 6)], 3828, True))  # binomials past 2^53, recomputed
@example((2, 0, [(1, 0), (0, 0)], 1, False))  # a step at cutoff 0
def test_the_plan_equals_the_cell_by_cell_reference(case):
    assert_plan_equals_the_reference(*case)


@st.composite
def large_weight_plans(draw):
    """2-D and 3-D orders on a cutoff whose weights pass 2^53, a row count, a factor kind."""
    dim = draw(st.integers(2, 3))
    cutoff = draw(st.integers(20, 60 if dim == 2 else 36))
    order = st.tuples(*[st.integers(0, cutoff // 2)] * dim)
    orders = draw(st.lists(order, min_size=1, max_size=4))
    rows = draw(st.integers(1, min(math.comb(cutoff + dim, dim), 500)))
    return dim, cutoff, orders, rows, draw(st.booleans())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(large_weight_plans())
# cell m = (2, 5, 2): 16!/2! 17!/5! 3, each factor a float, is rounded twice
# by the float product
@example((3, 36, [(14, 12, 1)], 220, False))
def test_the_plan_of_large_weights_equals_the_cell_by_cell_reference(case):
    # cells of at most two non-unit factors, each exact as a float, keep the
    # rounded product; the others are rebuilt from integers
    assert_plan_equals_the_reference(*case)


def test_the_plan_of_the_d2_n20_span_equals_the_cell_by_cell_reference():
    # 18248 cells pass 2^53: most keep the float product, 1830 are rebuilt
    basis = [tuple(n) for n in series._layout(2, 20).exponents.tolist()]
    assert_plan_equals_the_reference(2, 40, basis, len(basis), False)


def assert_plan_equals_the_reference(dim, cutoff, orders, rows, binomial):
    """Weights bit for bit; a source wherever the weight is nonzero, and one inside the basis in every cell."""
    layout = series._layout(dim, cutoff)
    table = np.array(orders, dtype=np.intp)
    factors = binomial_factors(cutoff) if binomial else None
    try:
        want_source, want_weight = reference_plan(dim, cutoff, orders, rows, binomial)
    except OverflowError:
        with pytest.raises(OverflowError, match="past the float range"):
            series._derivative_plan(layout, table, rows, factors)
        return
    source, weight = series._derivative_plan(layout, table, rows, factors)
    assert (source.dtype, weight.dtype) == (np.intp, np.float64)
    assert weight.shape == want_weight.shape and weight.tobytes() == want_weight.tobytes()
    inside = want_weight != 0
    assert np.array_equal(source[inside], want_source[inside])
    assert source.shape == want_source.shape
    assert 0 <= source.min() and source.max() < len(layout.exponents)


def test_worst_keeps_a_nan_in_any_position():
    assert worst([0.5, 2.0, 1.0]) == 2.0
    for values in ([math.nan, 0.0, 1.0], [0.0, math.nan, 1.0], [0.0, 1.0, math.nan]):
        assert math.isnan(worst(values))
        assert math.isnan(worst(np.array(values)))


# ---------------------------------------------------------------------------
# multiply_coordinate
# ---------------------------------------------------------------------------


def test_multiply_coordinate_shift():
    f = eo.make_series(1, 3, {(0,): 1, (1,): 1}, is_polynomial=True)
    out = eo.multiply_coordinate(f, 1)
    assert max_coeff_diff(out, {(1,): 1, (2,): 1}) == 0
    assert out.is_polynomial


def test_multiply_coordinate_overflow_drops_polynomial_flag():
    out = eo.multiply_coordinate(eo.monomial(1, 3, (3,)), 1)
    assert out.is_zero()
    assert not out.is_polynomial
    assert out.exact_degree == 3  # kept coefficients are still true ones


def test_multiply_coordinate_other_axis():
    out = eo.multiply_coordinate(eo.monomial(2, 3, (1, 0)), 2)
    assert max_coeff_diff(out, {(1, 1): 1.0}) == 0


def test_multiply_coordinate_axis_range():
    with pytest.raises(ValueError, match="axis"):
        eo.multiply_coordinate(eo.monomial(1, 2, (1,)), 2)


# ---------------------------------------------------------------------------
# translate
# ---------------------------------------------------------------------------


def test_translate_binomial_expansion():
    out = eo.translate(eo.monomial(1, 2, (2,)), (1,))
    assert max_coeff_diff(out, {(0,): 1, (1,): 2, (2,): 1}) == 0


def test_translate_bivariate():
    out = eo.translate(eo.monomial(2, 2, (1, 1)), (1, 0))
    assert max_coeff_diff(out, {(0, 1): 1, (1, 1): 1}) == 0


def test_translate_zero_shift_preserves_exactness():
    f = gauss_series()
    out = eo.translate(f, (0,))
    assert out is f


def test_translate_nonpolynomial_clears_exactness_and_warns_nothing():
    f = gauss_series()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = eo.translate(f, (1,))
    assert out.exact_degree == -1
    assert not out.is_polynomial
    assert caught == []


@pytest.mark.parametrize(
    "f, shift",
    [
        (eo.make_series(1, 5, {(0,): 1.0, (1,): 1.0}, is_polynomial=True), (1e100,)),
        (eo.monomial(2, 2, (1, 1)), (1e200, -1e200j)),
    ],
    ids=["one_axis", "two_axes"],
)
def test_translate_with_a_shift_power_past_the_float_range_raises(f, shift):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and prints no RuntimeWarning on the way
        with pytest.raises(OverflowError):
            eo.translate(f, shift)


def test_translate_dim_mismatch():
    with pytest.raises(ValueError, match="dim"):
        eo.translate(eo.monomial(2, 2, (1, 0)), (1.0,))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: eo.translate(eo.monomial(2, 2, (1, 0)), (1.0,)),
         "shift ((1+0j),) does not match dim 2"),
        (lambda: eo.translate_span(eo.monomial(2, 2, (1, 0)), 2, [(0, 0), (1, 2, 3)]),
         "shift ((1+0j), (2+0j), (3+0j)) does not match dim 2"),
        (lambda: eo.evaluate(eo.monomial(1, 2, (1,)), (1.0, 2j)),
         "point ((1+0j), 2j) does not match dim 1"),
    ],
    ids=["translate", "translate_span", "evaluate"],
)
def test_every_given_point_goes_through_the_one_point_check(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_gaussian_partial_sum():
    assert eo.evaluate(gauss_series(), (1,)) == pytest.approx(79 / 48)


def test_evaluate_at_origin_is_constant_term():
    f = eo.make_series(1, 3, {(0,): 2.5, (2,): 1.0})
    assert eo.evaluate(f, (0,)) == 2.5


def test_evaluate_bivariate_monomial():
    f = eo.monomial(2, 3, (2, 1))
    assert eo.evaluate(f, (2, 3)) == 12


def test_evaluate_dim_mismatch():
    with pytest.raises(ValueError, match="dim"):
        eo.evaluate(eo.monomial(2, 2, (1, 0)), (1.0,))


def test_evaluate_forms_only_the_monomials_of_nonzero_coefficients():
    # z^2 .. z^4 at 1e100 are past the float range; their coefficients are 0
    f = eo.make_series(1, 4, {(0,): 1, (1,): 1}, is_polynomial=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eo.evaluate(f, (1e100,)) == 1e100
        # a needed monomial, or the sum, past the float range raises
        for g, point in ((eo.monomial(1, 4, (3,)), (1e200,)),
                         (eo.monomial(2, 2, (1, 1)), (1e200, 1e200)),
                         (eo.make_series(1, 1, {(0,): 1e308, (1,): 1e308}, True), (1.0,))):
            with pytest.raises(OverflowError, match="past the float range"):
                eo.evaluate(g, point)
        # an inf coefficient or coordinate carries into the value
        assert cmath.isinf(eo.evaluate(eo.monomial(1, 2, (2,), math.inf), (2.0,)))
        assert not cmath.isfinite(eo.evaluate(eo.monomial(1, 2, (2,)), (math.inf,)))


def test_a_weighted_sum_past_the_float_range_raises_without_a_warning():
    f = eo.make_series(1, 2, {(0,): 1e300, (1,): 1.0}, is_polynomial=True)
    g = eo.make_series(1, 2, {(0,): 1e308, (2,): 1.0}, is_polynomial=True)
    h = eo.make_series(1, 2, {(0,): math.inf, (1,): 1.0}, is_polynomial=True)
    message = "a weighted sum of finite coefficients is past the float range"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a product past the range, then a sum of two finite products past it,
        # then that sum beside an inf term of weight 0, which is not summed
        for terms in ([(1e300, f), (1e300, f)], [(1, g), (1, g)], [(0, h), (1, g), (1, g)]):
            with pytest.raises(OverflowError, match=message):
                eo.linear_combine(terms)
        # inf data carries, to the NaN of orbit.measure_visits' weighted sums
        carried = eo.linear_combine([(2, h), (-1, f)]).vector
        assert np.isnan(eo.linear_combine([(math.inf, f), (1, f)]).vector).all()
    want = np.zeros(3, dtype=complex)
    with np.errstate(invalid="ignore"):
        want += (2 + 0j) * h.vector
        want += (-1 + 0j) * f.vector
    assert carried.tobytes() == want.tobytes()


def _overflow_cases() -> dict:
    """Calls of the public numeric API at overflowing inputs, each with its outcome.

    An exception class names the refusal; None means the call returns, an
    inf or NaN in its data carried into the result.
    """
    big = eo.make_series(1, 10, {(0,): 1.0, (10,): 1e308}, is_polynomial=True)
    inf = eo.make_series(1, 10, {(0,): 1.0, (10,): math.inf}, is_polynomial=True)
    d5 = eo.CROperator(1, 1, 1.0, eo.ConvolutionSymbol(1, {(5,): 1.0}))
    wide = eo.AxisKernelProblem([0, 1], 1, [1e140])
    rows = np.array([[1e300, 0, 1e300]])
    wide_disc, unit_disc = eo.SemiNormSpec(1, 1e200), eo.SemiNormSpec(1, 1.0)
    span = eo.derivative_span(inf, 5, 5)
    ladder = eo.LadderVector([gaussian_problem()], {(10,): 1e307})
    shift = eo.CROperator(1, 1, 1.0, eo.ConvolutionSymbol(1, {(1,): 1.0}))
    orbit = eo.iterate_orbit(shift, eo.make_series(1, 6, {(0,): -1e308}, True), 2)
    far, inf_target = (eo.make_series(1, 6, {(0,): c}, True) for c in (1e308, math.inf))
    return {
        "differentiate": (lambda: eo.differentiate(big, (5,)), OverflowError),
        "differentiate inf": (lambda: eo.differentiate(inf, (5,)), None),
        "linear_combine": (lambda: eo.linear_combine([(1e300, big), (1e300, big)]), OverflowError),
        "linear_combine inf": (lambda: eo.linear_combine([(2, inf), (1, big)]), None),
        "evaluate": (lambda: eo.evaluate(big, (1e100,)), OverflowError),
        "evaluate zeros": (lambda: eo.evaluate(eo.monomial(1, 4, (1,)), (1e100,)), None),
        "evaluate inf": (lambda: eo.evaluate(inf, (2.0,)), None),
        "translate sum": (lambda: eo.translate(big, (100.0,)), OverflowError),
        "translate power": (lambda: eo.translate(big, (1e200,)), OverflowError),
        "translate inf": (lambda: eo.translate(inf, (0.5,)), None),
        "joint_kernel": (lambda: eo.joint_kernel([wide] * 3, 2), OverflowError),
        "apply_weyl": (lambda: eo.apply_weyl(d5, big), None),
        "apply_weyl inf": (lambda: eo.apply_weyl(d5, inf), None),
        "derivative_span": (lambda: eo.derivative_span(big, 5, 5), OverflowError),
        "derivative_span inf": (lambda: eo.derivative_span(inf, 5, 5), None),
        "rank_report inf": (lambda: eo.rank_report(span, 1e-8), ValueError),
        "realize": (lambda: eo.realize(ladder, 4), OverflowError),
        "measure_visits": (lambda: eo.measure_visits(orbit, far, 0.5, unit_disc), OverflowError),
        "measure_visits inf": (lambda: eo.measure_visits(orbit, inf_target, 0.5, unit_disc), None),
        "seminorm_rows power": (lambda: seminorm_rows(1, 2, rows, wide_disc), OverflowError),
        "seminorm_rows sum": (lambda: seminorm_rows(1, 2, rows * 1e8, unit_disc), OverflowError),
    }


OVERFLOWS = _overflow_cases()


@pytest.mark.parametrize("name", OVERFLOWS)
def test_the_numeric_api_returns_or_raises_at_overflowing_inputs_and_never_warns(name):
    call, refusal = OVERFLOWS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if refusal is None:
            call()
        else:
            with pytest.raises(refusal):
                call()


# ---------------------------------------------------------------------------
# seminorm bounds
# ---------------------------------------------------------------------------


def test_seminorm_monomial_bounds_coincide():
    b = seminorm_row(eo.monomial(1, 2, (1,)), eo.SemiNormSpec(1, 2.0))
    assert b == pytest.approx(2.0, abs=1e-12)


def test_seminorm_affine_attained_on_grid():
    f = eo.make_series(1, 1, {(0,): 1, (1,): 1}, is_polynomial=True)
    b = seminorm_row(f, eo.SemiNormSpec(1, 1.0))
    assert b == pytest.approx(2.0)


def test_seminorm_gaussian_upper():
    b = seminorm_row(gauss_series(), eo.SemiNormSpec(1, 2.0))
    assert b == pytest.approx(19 / 3)


def test_seminorm_high_dimension_upper_only():
    f = eo.monomial(4, 2, (1, 0, 0, 1))
    b = seminorm_row(f, eo.SemiNormSpec(1, 1.0))
    assert b == pytest.approx(1.0)


@st.composite
def seminorm_case(draw):
    """A block of sparse complex rows with exponents spanning up to +-150, and a spec.

    Rows of like magnitudes make the order of the sum show in the last bit.
    """
    dim = draw(st.integers(1, 3))
    cutoff = draw(st.integers(0, 8))
    rows = np.zeros((draw(st.integers(1, 4)), math.comb(cutoff + dim, dim)), dtype=complex)
    part = st.floats(-10.0, 10.0)
    spread = draw(st.sampled_from((0, 150)))
    for row in rows:
        for pos in draw(st.lists(st.integers(0, len(row) - 1), unique=True, max_size=24)):
            row[pos] = complex(draw(part), draw(part)) * 10.0 ** draw(st.integers(-spread, spread))
    spec = eo.SemiNormSpec(draw(st.integers(1, 3)), draw(st.floats(0.05, 20.0)))
    return dim, cutoff, rows, spec


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seminorm_case())
def test_seminorm_rows_equal_the_scalar_loop_bit_for_bit(case):
    dim, cutoff, rows, spec = case
    got = seminorm_rows(dim, cutoff, rows, spec)
    for bound, row in zip(got.tolist(), rows):
        f = eo.TruncatedSeries(dim, cutoff, cutoff, False, row)
        want = scalar_seminorm(f, spec)
        assert bound.hex() == want.hex()
        assert seminorm_row(f, spec).hex() == want.hex()


def test_seminorm_zero_coefficient_where_the_power_overflows_leaves_the_bound_finite():
    spec = eo.SemiNormSpec(1, 1e40)  # r ** 8 overflows
    f = eo.make_series(1, 10, {(0,): 1.0, (7,): 2.0j, (9,): 0.0})
    bound = seminorm_row(f, spec)
    assert math.isfinite(bound) and bound == scalar_seminorm(f, spec)


def test_seminorm_nonzero_coefficient_where_the_power_overflows_raises_as_the_loop_does():
    spec = eo.SemiNormSpec(1, 1e40)
    f = eo.make_series(1, 10, {(0,): 1.0, (9,): 1e-300})
    with pytest.raises(OverflowError) as want:
        scalar_seminorm(f, spec)
    with pytest.raises(OverflowError) as got:
        seminorm_row(f, spec)
    assert str(got.value) == str(want.value)


def test_seminorm_sum_of_a_finite_row_past_the_float_range_raises_without_a_warning():
    spec = eo.SemiNormSpec(1, 1e10)  # r ** 4 = 1e40 is finite, 1e300 * 1e40 is not
    f = eo.make_series(1, 4, {(0,): 1.0, (4,): 1e300})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="semi-norm majorant"):
            seminorm_row(f, spec)
    # a row that already holds inf keeps its non-finite sum: inf, or NaN
    # where its power underflows to 0, as in the scalar loop
    g = eo.make_series(1, 4, {(0,): 1.0, (2,): math.inf})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert seminorm_rows(1, 4, np.stack([g.vector, g.vector]), spec).tolist() == [
            math.inf, math.inf
        ]
        tiny = eo.SemiNormSpec(1, 1e-200)
        assert math.isnan(seminorm_row(g, tiny))
        assert math.isnan(scalar_seminorm(g, tiny))


@pytest.mark.parametrize("power_row_first", [False, True])
def test_seminorm_rows_raise_the_error_of_the_first_failing_row(power_row_first):
    spec = eo.SemiNormSpec(1, 1e200)  # r ** 2 overflows
    rows = [
        eo.make_series(1, 4, {(1,): 1e120}).vector,  # its sum 1e320 overflows
        eo.make_series(1, 4, {(2,): 1.0}).vector,  # its power r ** 2 overflows
    ]
    if power_row_first:
        rows.reverse()
    block = np.stack([np.zeros(5), *rows])
    with pytest.raises(OverflowError) as want:
        for row in block:
            seminorm_row(eo.TruncatedSeries(1, 4, 4, False, row), spec)
    with pytest.raises(OverflowError) as got:
        seminorm_rows(1, 4, block, spec)
    assert str(got.value) == str(want.value)
    assert ("Numerical result out of range" in str(got.value)) == power_row_first


def test_seminorm_nan_coefficient_gives_nan():
    spec = eo.SemiNormSpec(1, 2.0)
    f = eo.make_series(2, 3, {(0, 0): 1.0, (1, 1): complex(math.nan, 1.0)})
    assert math.isnan(seminorm_row(f, spec))
    clean = eo.make_series(2, 3, {(0, 0): 1.0})
    bounds = seminorm_rows(2, 3, np.stack([f.vector, clean.vector]), spec)
    assert math.isnan(bounds[0]) and bounds[1] == 1.0


def test_seminorm_rows_reject_a_block_off_the_basis():
    spec = eo.SemiNormSpec(1, 2.0)
    for rows in (np.zeros(4), np.zeros((2, 5))):  # the basis of (1, 3) has 4 monomials
        with pytest.raises(ValueError, match="do not match the 4 monomials"):
            seminorm_rows(1, 3, rows, spec)


def test_seminorm_spec_validation():
    with pytest.raises(ValueError):
        eo.SemiNormSpec(0, 1.0)
    with pytest.raises(ValueError):
        eo.SemiNormSpec(1, 0.0)


# ---------------------------------------------------------------------------
# calculus identities (property-based)
# ---------------------------------------------------------------------------


@st.composite
def small_series(draw, dim=None, force_polynomial=None):
    d = dim if dim is not None else draw(st.integers(1, 2))
    cutoff = draw(st.integers(2, 5))
    basis = eo.monomial_basis(d, cutoff)
    picks = draw(
        st.lists(st.sampled_from(basis), min_size=1, max_size=6, unique=True)
    )
    vals = draw(
        st.lists(
            st.complex_numbers(
                min_magnitude=0.1, max_magnitude=2.0, allow_infinity=False, allow_nan=False
            ),
            min_size=len(picks),
            max_size=len(picks),
        )
    )
    poly = force_polynomial if force_polynomial is not None else draw(st.booleans())
    return eo.make_series(d, cutoff, list(zip(picks, vals)), is_polynomial=poly)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_series(), st.data())
def test_vector_operations_match_termwise_reference(f, data):
    """Gathers and vector sums give the coefficient-by-coefficient values, bit for bit."""
    order = tuple(data.draw(st.integers(0, 3)) for _ in range(f.dim))
    axis = data.draw(st.integers(1, f.dim))
    w1, w2 = data.draw(st.floats(-2, 2)), data.draw(st.floats(-2, 2))
    terms = dict(f.terms())
    derivative = eo.differentiate(f, order)
    shifted = eo.multiply_coordinate(f, axis)
    combined = eo.linear_combine([(w1, f), (w2, derivative)])
    for m in eo.monomial_basis(f.dim, f.cutoff):
        n = tuple(a + b for a, b in zip(m, order))
        weight = math.prod(math.perm(a, b) for a, b in zip(n, order))
        assert derivative.coefficient(m) == terms.get(n, 0j) * weight
        below = m[: axis - 1] + (m[axis - 1] - 1,) + m[axis:]
        assert shifted.coefficient(m) == (terms.get(below, 0j) if m[axis - 1] else 0)
        expected = 0j + complex(w1) * terms.get(m, 0j)
        expected += complex(w2) * derivative.coefficient(m)
        assert combined.coefficient(m) == expected


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_series(), st.data())
def test_derivative_composition(f, data):
    m = tuple(data.draw(st.integers(0, 2)) for _ in range(f.dim))
    k = tuple(data.draw(st.integers(0, 2)) for _ in range(f.dim))
    two_step = eo.differentiate(eo.differentiate(f, m), k)
    one_step = eo.differentiate(f, tuple(a + b for a, b in zip(m, k)))
    diff = eo.linear_combine([(1, two_step), (-1, one_step)])
    assert diff.max_exact_coefficient() <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_series(force_polynomial=True), st.data())
def test_translate_composition_for_polynomials(f, data):
    lam = tuple(
        complex(data.draw(st.floats(-1, 1)), data.draw(st.floats(-1, 1)))
        for _ in range(f.dim)
    )
    mu = tuple(
        complex(data.draw(st.floats(-1, 1)), data.draw(st.floats(-1, 1)))
        for _ in range(f.dim)
    )
    two_step = eo.translate(eo.translate(f, lam), mu)
    one_step = eo.translate(f, tuple(a + b for a, b in zip(lam, mu)))
    diff = eo.linear_combine([(1, two_step), (-1, one_step)])
    assert diff.max_exact_coefficient() <= 1e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_series(force_polynomial=True), st.data())
def test_translate_evaluate_consistency(f, data):
    lam = tuple(data.draw(st.floats(-1, 1)) for _ in range(f.dim))
    z = tuple(data.draw(st.floats(-1, 1)) for _ in range(f.dim))
    lhs = eo.evaluate(eo.translate(f, lam), z)
    rhs = eo.evaluate(f, tuple(a + b for a, b in zip(z, lam)))
    assert lhs == pytest.approx(rhs, abs=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_series())
def test_coefficient_recovery_via_derivative_at_zero(f):
    for n, _ in f.terms():
        if sum(n) > f.exact_degree:
            continue
        d = eo.differentiate(f, n)
        recovered = eo.evaluate(
            eo.make_series(f.dim, f.cutoff, {(0,) * f.dim: d.coefficient((0,) * f.dim)}),
            (0,) * f.dim,
        ) / eo.index_factorial(n)
        assert recovered == pytest.approx(f.coefficient(n), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# exactness soundness (property-based, through the public API only)
# ---------------------------------------------------------------------------


@st.composite
def soundness_case(draw):
    """A dense polynomial, a small cutoff that may truncate it, and steps."""
    dim = draw(st.integers(1, 2))
    cutoff = draw(st.integers(1, 5))
    degree = draw(st.integers(0, cutoff + 2))
    # every coefficient up to the degree is nonzero, so any coefficient a
    # truncation gets wrong differs from the true one
    support = eo.monomial_basis(dim, degree)
    # magnitudes bounded away from 0, so no step hides a wrong coefficient
    unit = st.floats(0.25, 1.0) | st.floats(-1.0, -0.25)
    values = [complex(draw(unit), draw(unit)) for _ in support]
    order = st.tuples(*[st.integers(0, 2)] * dim)
    step = st.one_of(
        st.tuples(st.just("differentiate"), order),
        st.tuples(st.just("multiply"), st.integers(1, dim)),
        st.tuples(st.just("translate"), st.tuples(*[unit] * dim)),
        st.tuples(st.just("combine"), st.tuples(unit, unit)),
        st.tuples(st.just("cutoff"), st.integers(-2, 2)),
        st.tuples(st.just("cr"), cr_operators(dim)),
    )
    steps = draw(st.lists(step, min_size=2, max_size=5))
    return dim, cutoff, degree, list(zip(support, values)), steps


def _step(f, f0, kind, arg):
    if kind == "differentiate":
        return eo.differentiate(f, arg)
    if kind == "multiply":
        return eo.multiply_coordinate(f, arg)
    if kind == "translate":
        return eo.translate(f, arg)
    if kind == "cutoff":
        return eo.with_cutoff(f, max(0, f.cutoff + arg))
    if kind == "cr":
        return eo.apply_weyl(arg, f)
    f0 = eo.with_cutoff(f0, f.cutoff)
    return eo.linear_combine([(arg[0], f), (arg[1], f0)])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(soundness_case())
def test_exactness_claims_survive_a_larger_cutoff(case):
    """What a truncation claims to know agrees with a truncation that cuts nothing.

    The wide run holds every coefficient the steps can produce, so it is the
    true function.  The narrow run must match it on ``||n|| <= exact_degree``,
    and may only claim ``is_polynomial`` when nothing beyond its cutoff exists.
    """
    dim, cutoff, degree, entries, steps = case
    wide_cutoff = max(cutoff, degree) + len(steps)

    def at(c: int) -> eo.TruncatedSeries:
        kept = [(n, v) for n, v in entries if sum(n) <= c]
        return eo.make_series(dim, c, kept, is_polynomial=len(kept) == len(entries))

    narrow0, wide0 = at(cutoff), at(wide_cutoff)
    narrow, wide = narrow0, wide0
    for kind, arg in steps:
        if kind == "translate" and not narrow.is_polynomial:
            # translating a truncation is approximate by design: it claims
            # nothing, and the later steps go on from the untranslated runs
            shifted = _step(narrow, narrow0, kind, arg)
            assert shifted.exact_degree == -1 and not shifted.is_polynomial
            continue
        narrow = _step(narrow, narrow0, kind, arg)
        if kind != "cutoff":  # re-truncation leaves the true function as it is
            wide = _step(wide, wide0, kind, arg)
    assert wide.is_polynomial
    scale = 1 + wide.max_exact_coefficient()
    if narrow.exact_degree >= 0:
        for n in eo.monomial_basis(dim, narrow.exact_degree):
            assert abs(narrow.coefficient(n) - wide.coefficient(n)) <= 1e-9 * scale
    if narrow.is_polynomial:
        basis = eo.monomial_basis(dim, wide_cutoff)
        assert all(wide.coefficient(n) == 0 for n in basis if sum(n) > narrow.cutoff)


# ---------------------------------------------------------------------------
# with_cutoff
# ---------------------------------------------------------------------------


def test_with_cutoff_extend_polynomial_stays_exact():
    f = eo.monomial(1, 2, (2,))
    g = eo.with_cutoff(f, 5)
    assert g.is_polynomial and g.exact_degree == 5


def test_with_cutoff_shrink_nonpolynomial():
    f = gauss_series()
    g = eo.with_cutoff(f, 3)
    assert g.cutoff == 3 and g.exact_degree == 3
    assert g.coefficient((2,)) == 0.5


def test_with_cutoff_shrink_dropping_polynomial_tail():
    f = eo.make_series(1, 4, {(0,): 1, (4,): 1}, is_polynomial=True)
    g = eo.with_cutoff(f, 2)
    assert not g.is_polynomial
    assert g.exact_degree == 2
