"""Orbit iteration, exactness budget, visit-density proxy."""

from __future__ import annotations

import pytest

import entireops as eo
from support import gaussian_family, gaussian_problem, max_coeff_diff

SPEC = eo.SemiNormSpec(1, 2.0)


def shift_op(cutoff_dim: int = 1) -> eo.CROperator:
    return gaussian_family(1)[0]


def test_iterates_of_coordinate():
    rec = eo.iterate_orbit(shift_op(), eo.monomial(1, 3, (1,)), 2)
    assert max_coeff_diff(rec.iterates[0], {(1,): 1}) == 0
    assert max_coeff_diff(rec.iterates[1], {(0,): 1, (2,): -1}) == 0
    assert max_coeff_diff(rec.iterates[2], {(1,): -3, (3,): 1}) == 0


def test_kernel_element_is_fixed_at_zero():
    f = eo.solve_kernel_axis(gaussian_problem(10))
    rec = eo.iterate_orbit(shift_op(), f, 5)
    assert all(it.max_exact_coefficient() <= 1e-14 for it in rec.iterates[1:])


def test_zero_steps_keeps_only_initial_vector():
    x = eo.monomial(1, 4, (2,))
    rec = eo.iterate_orbit(shift_op(), x, 0)
    assert rec.steps == 0
    assert rec.iterates == (x,)


def test_budget_error_names_the_failing_step():
    f = eo.solve_kernel_axis(gaussian_problem(6))
    with pytest.raises(ValueError, match="step 7"):
        eo.iterate_orbit(shift_op(), f, 9)


def test_orbit_concatenation_consistency():
    x = eo.monomial(1, 8, (1,))
    full = eo.iterate_orbit(shift_op(), x, 5)
    part = eo.iterate_orbit(shift_op(), x, 2)
    rest = eo.iterate_orbit(shift_op(), part.iterates[-1], 3)
    for a, b in zip(full.iterates[2:], rest.iterates):
        diff = eo.linear_combine([(1, a), (-1, b)])
        assert diff.max_exact_coefficient() <= 1e-12


def test_visit_density_of_kernel_orbit_is_one():
    f = eo.solve_kernel_axis(gaussian_problem(10))
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
