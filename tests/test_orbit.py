"""Orbit iteration, exactness budget, visit-density proxy."""

from __future__ import annotations

import contextlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import entireops as eo
from entireops import orbit, series
from support import gaussian_family, gaussian_problem, max_coeff_diff, seminorm_row

SPEC = eo.SemiNormSpec(1, 2.0)


def shift_op(cutoff_dim: int = 1) -> eo.CROperator:
    return gaussian_family(1)[0]


def test_iterates_of_coordinate():
    rec = eo.iterate_orbit(shift_op(), eo.monomial(1, 3, (1,)), 2)
    assert max_coeff_diff(rec[0], {(1,): 1}) == 0
    assert max_coeff_diff(rec[1], {(0,): 1, (2,): -1}) == 0
    assert max_coeff_diff(rec[2], {(1,): -3, (3,): 1}) == 0


def test_kernel_element_is_fixed_at_zero():
    f = eo.solve_kernel_axis(gaussian_problem(), 10)
    rec = eo.iterate_orbit(shift_op(), f, 5)
    assert all(it.max_exact_coefficient() <= 1e-14 for it in rec[1:])


def test_zero_steps_keeps_only_initial_vector():
    x = eo.monomial(1, 4, (2,))
    rec = eo.iterate_orbit(shift_op(), x, 0)
    assert len(rec) - 1 == 0
    assert rec == (x,)


def test_budget_error_names_the_failing_step():
    f = eo.solve_kernel_axis(gaussian_problem(), 6)
    with pytest.raises(ValueError, match="step 7"):
        eo.iterate_orbit(shift_op(), f, 9)


def test_a_spilling_polynomial_spends_its_exactness_one_degree_a_step():
    # z^4 at cutoff 4 under T = D - z: the first step spills z^5, so the
    # iterates are truncations exact to 4, 3, ..., 0; step 6 has none left
    x = eo.monomial(1, 4, (4,))
    rec = eo.iterate_orbit(shift_op(), x, 5)
    assert [it.exact_degree for it in rec] == [4, 4, 3, 2, 1, 0]
    assert not rec[-1].is_polynomial
    with pytest.raises(ValueError, match=r"supports 5 steps .*; step 6 of 6 would"):
        eo.iterate_orbit(shift_op(), x, 6)


def exactness_free(cutoff: int = 4) -> eo.TruncatedSeries:
    """A truncation with no guaranteed coefficient, as a translate of one is."""
    g = eo.solve_kernel_axis(gaussian_problem(), cutoff)
    x = eo.translate(g, (0.5,))
    assert x.exact_degree == -1
    return x


def test_an_exactness_free_input_is_refused_at_its_first_step():
    with pytest.raises(ValueError, match=r"supports 0 steps .*; step 1 of 1 would"):
        eo.iterate_orbit(shift_op(), exactness_free(), 1)
    assert eo.iterate_orbit(shift_op(), exactness_free(), 0)[0].exact_degree == -1


def test_an_order_zero_operator_checks_exactness_too():
    # T = 2 - z: D lowers nothing, yet an input with no guarantee yields none
    op = eo.CROperator(1, 1, 1.0, eo.ConvolutionSymbol(1, {(0,): 2.0}))
    with pytest.raises(ValueError, match=r"order-0 convolution part; step 1 of 3"):
        eo.iterate_orbit(op, exactness_free(), 3)
    x = eo.solve_kernel_axis(gaussian_problem(), 4)
    assert [it.exact_degree for it in eo.iterate_orbit(op, x, 3)] == [4, 4, 4, 4]


def test_an_orbit_past_the_budget_is_refused_before_its_first_step():
    # an order-0 operator never runs out of exactness, so only the budget
    # stops an orbit that would keep 10^9 iterates
    op = eo.CROperator(1, 1, 1.0, eo.ConvolutionSymbol(1, {(0,): 2.0}))
    x = eo.monomial(1, 4, (1,))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="an orbit of 1000000000 steps .* past the budget"):
            eo.iterate_orbit(op, x, 10**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**26


def test_the_orbit_estimate_bounds_the_kept_iterates(monkeypatch):
    op = eo.CROperator(2, 1, 1.0, eo.ConvolutionSymbol(2, {(0, 0): 0.5}))
    x = eo.monomial(2, 20, (1, 1))
    eo.iterate_orbit(op, x, 50)  # the layout is cached from here on
    tracemalloc.start()
    try:
        eo.iterate_orbit(op, x, 50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(series, "_LAYOUT_BUDGET", peak)
    with pytest.raises(ValueError, match="past the budget"):
        eo.iterate_orbit(op, x, 50)


def test_the_visit_estimate_bounds_the_block_and_its_temporaries(monkeypatch):
    # the orbit of an order-0 operator keeps its exactness, so 150 steps run
    op = eo.CROperator(2, 1, 0.5, eo.ConvolutionSymbol(2, {(0, 0): 1.0}))
    x, target = eo.monomial(2, 80, (1, 1)), eo.zero_series(2, 80)
    estimates = []
    checked = orbit._checked_bytes
    monkeypatch.setattr(
        orbit, "_checked_bytes", lambda estimate, what: estimates.append(estimate) or checked(estimate, what)
    )
    iterates = eo.iterate_orbit(op, x, 150)
    eo.measure_visits(iterates, target, 0.1, SPEC)  # the layout is cached from here on
    tracemalloc.start()
    try:
        eo.measure_visits(iterates, target, 0.1, SPEC)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    orbit_estimate, visits_estimate = estimates[0], estimates[-1]
    assert orbit_estimate < peak <= visits_estimate
    budget = (orbit_estimate + peak) // 2
    monkeypatch.setattr(series, "_LAYOUT_BUDGET", budget)
    assert len(eo.iterate_orbit(op, x, 150)) == 151
    with pytest.raises(ValueError, match=f"the distances of 151 iterates .* past the budget of {budget}"):
        eo.measure_visits(iterates, target, 0.1, SPEC)


def test_an_overflowing_iterate_names_its_step_without_a_warning():
    op = eo.CROperator(1, 1, 1e300, eo.ConvolutionSymbol(1, {(1,): 1.0}))
    x = eo.make_series(1, 4, {(1,): complex(1e300, 1e300)}, is_polynomial=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="orbit overflows at step 1"):
            eo.iterate_orbit(op, x, 2)


def test_orbit_concatenation_consistency():
    x = eo.monomial(1, 8, (1,))
    full = eo.iterate_orbit(shift_op(), x, 5)
    part = eo.iterate_orbit(shift_op(), x, 2)
    rest = eo.iterate_orbit(shift_op(), part[-1], 3)
    for a, b in zip(full[2:], rest):
        diff = eo.linear_combine([(1, a), (-1, b)])
        assert diff.max_exact_coefficient() <= 1e-12


def test_visit_density_of_kernel_orbit_is_one():
    f = eo.solve_kernel_axis(gaussian_problem(), 10)
    rec = eo.iterate_orbit(shift_op(), f, 5)
    for delta in (0.1, 1e-6, 10.0):
        annotated = eo.measure_visits(rec, eo.zero_series(1, 10), delta, SPEC)
        assert annotated.density_proxy == 1.0


def test_visit_density_coordinate_orbit_misses():
    rec = eo.iterate_orbit(shift_op(), eo.monomial(1, 3, (1,)), 2)
    annotated = eo.measure_visits(rec, eo.zero_series(1, 3), 0.5, SPEC)
    assert annotated.distances == (2.0, 5.0, 14.0)
    assert annotated.hits == ()
    assert annotated.density_proxy == 0.0


def test_density_counts_hits_after_the_initial_vector():
    # distances 0.1, 0.2, 0.5, 1.4: hits at k = 0 and k = 1 only, over 3 steps
    rec = eo.iterate_orbit(shift_op(), eo.monomial(1, 3, (0,), 0.1), 3)
    annotated = eo.measure_visits(rec, eo.zero_series(1, 3), 0.3, SPEC)
    assert annotated.hits == (0, 1)
    assert annotated.density_proxy == pytest.approx(1 / 3)


def test_density_monotone_in_delta():
    rec = eo.iterate_orbit(shift_op(), eo.monomial(1, 6, (1,)), 4)
    target = eo.zero_series(1, 6)
    deltas = (0.01, 1.0, 3.0, 10.0, 100.0)
    proxies = [eo.measure_visits(rec, target, d, SPEC).density_proxy for d in deltas]
    assert proxies == sorted(proxies)


def test_density_dimension_mismatch():
    rec = eo.iterate_orbit(shift_op(), eo.monomial(1, 3, (1,)), 1)
    with pytest.raises(ValueError, match="dim"):
        eo.measure_visits(rec, eo.zero_series(2, 3), 0.5, SPEC)


def test_empty_hit_set_gives_zero():
    rec = eo.iterate_orbit(shift_op(), eo.monomial(1, 3, (1,)), 2)
    annotated = eo.measure_visits(rec, eo.monomial(1, 3, (3,), 100.0), 0.01, SPEC)
    assert annotated.density_proxy == 0.0


def test_a_target_past_the_orbit_cutoff_is_refused_unless_zero_there():
    rec = eo.iterate_orbit(shift_op(), eo.zero_series(1, 6), 3)
    target = eo.monomial(1, 12, (12,), 1000.0)
    with pytest.raises(ValueError, match="target of cutoff 12 .* the orbit's cutoff 6"):
        eo.measure_visits(rec, target, 0.5, SPEC)
    padded = eo.with_cutoff(eo.monomial(1, 6, (6,), 1000.0), 12)
    visits = eo.measure_visits(rec, padded, 0.5, SPEC)
    assert visits.distances == (1000.0 * 2.0**6,) * 4


def test_an_empty_orbit_is_refused():
    with pytest.raises(ValueError, match="at least the initial vector"):
        eo.measure_visits((), eo.zero_series(1, 3), 0.5, SPEC)


def outcome(call):
    """The bit patterns of the distances a call returns, or its error."""
    try:
        return [d.hex() for d in call()]
    except (OverflowError, ValueError) as exc:
        return str(exc)


def per_iterate_distances(iterates, target, spec):
    """One difference and one one-row semi-norm per iterate.

    A nonzero target coefficient past the iterates' cutoff is refused.
    """
    cutoff = iterates[0].cutoff
    basis = eo.monomial_basis(target.dim, target.cutoff)
    if any(sum(n) > cutoff and c != 0 for n, c in zip(basis, target.vector)):
        raise ValueError(
            f"target of cutoff {target.cutoff} has a nonzero coefficient past "
            f"the orbit's cutoff {cutoff}"
        )
    return [
        seminorm_row(
            eo.linear_combine([(1, it), (-1, eo.with_cutoff(target, it.cutoff))]), spec
        )
        for it in iterates
    ]


def assert_distances_match_the_per_iterate_loop(iterates, target, spec, infinite=False):
    # an inf + inf j entry is NaN after the weighted sums on both sides, and
    # numpy warns on the way there
    with np.errstate(invalid="ignore") if infinite else contextlib.nullcontext():
        want = outcome(lambda: per_iterate_distances(iterates, target, spec))
        got = outcome(lambda: eo.measure_visits(iterates, target, 1.0, spec).distances)
    assert got == want


@st.composite
def visit_case(draw):
    """Iterates over one basis, a real or complex target of another cutoff, a spec.

    A target of a larger cutoff may hold only zeros past the iterates' one.

    Coefficients reach 1e150 and epsilon 1e80, so both overflows of the
    semi-norm occur; one iterate may hold inf + inf j.
    """
    dim = draw(st.sampled_from((1, 2)))
    part = st.floats(-10.0, 10.0)
    scale = st.sampled_from((1.0, 1e-150, 1e150))

    def series(cutoff: int, complex_parts: bool) -> eo.TruncatedSeries:
        size = math.comb(cutoff + dim, dim)
        v = np.zeros(size, dtype=complex)
        for pos in draw(st.lists(st.integers(0, size - 1), unique=True, max_size=size)):
            imag = draw(part) if complex_parts else 0.0
            v[pos] = complex(draw(part), imag) * draw(scale)
        return eo.TruncatedSeries(dim, cutoff, cutoff, False, v)

    cutoff = draw(st.integers(0, 4))
    iterates = [series(cutoff, True) for _ in range(draw(st.integers(1, 4)))]
    infinite = draw(st.booleans())
    if infinite:
        k = draw(st.integers(0, len(iterates) - 1))
        v = iterates[k].vector.copy()
        v[draw(st.integers(0, len(v) - 1))] = complex(math.inf, math.inf)
        iterates[k] = eo.TruncatedSeries(dim, cutoff, cutoff, False, v)
    target = series(draw(st.integers(0, 6)), draw(st.booleans()))
    if draw(st.booleans()):
        v = target.vector.copy()
        v[math.comb(cutoff + dim, dim):] = 0
        target = eo.TruncatedSeries(dim, target.cutoff, target.cutoff, False, v)
    epsilon = draw(st.sampled_from((0.5, 2.0, 1e40, 1e80)))
    spec = eo.SemiNormSpec(draw(st.integers(1, 2)), epsilon)
    return tuple(iterates), target, spec, infinite


@settings(max_examples=150, deadline=None, derandomize=True)
@given(visit_case())
def test_distances_match_the_per_iterate_loop_bit_for_bit(case):
    assert_distances_match_the_per_iterate_loop(*case)


def test_an_early_sum_overflow_is_raised_before_a_later_power_overflow():
    # x = 1e120 z: |x| r = 1e320 overflows; T x holds z^2, whose r ** 2 does
    iterates = eo.iterate_orbit(shift_op(), eo.monomial(1, 4, (1,), 1e120), 2)
    spec = eo.SemiNormSpec(1, 1e200)
    with pytest.raises(OverflowError, match="semi-norm majorant"):
        eo.measure_visits(iterates, eo.zero_series(1, 4), 0.1, spec)
    assert_distances_match_the_per_iterate_loop(iterates, eo.zero_series(1, 4), spec)
