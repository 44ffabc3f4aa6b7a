"""Orbit iteration, exactness budget, visit-density proxy."""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import entireops as eo
from support import gaussian_family, gaussian_problem, max_coeff_diff

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


def test_an_empty_orbit_is_refused():
    with pytest.raises(ValueError, match="at least the initial vector"):
        eo.measure_visits((), eo.zero_series(1, 3), 0.5, SPEC)


def outcome(call):
    """The bit patterns of the distances a call returns, or its error."""
    try:
        return [d.hex() for d in call()]
    except OverflowError as exc:
        return str(exc)


def per_iterate_distances(iterates, target, spec):
    """One difference and one seminorm_bound per iterate."""
    return [
        eo.seminorm_bound(
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
