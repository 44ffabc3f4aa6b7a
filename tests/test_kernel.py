"""Axis recurrence solver, tensor-product kernels, residual verification."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import entireops as eo
from support import (
    SCALAR,
    airy_family,
    airy_problem,
    gaussian_family,
    gaussian_problem,
    max_coeff_diff,
)


def test_gaussian_recurrence_closed_form():
    f = eo.solve_kernel_axis(gaussian_problem(12))
    for m in range(7):
        assert f.coefficient((2 * m,)) == pytest.approx(
            1 / (2**m * math.factorial(m)), abs=1e-12
        )
    for odd in range(1, 12, 2):
        assert f.coefficient((odd,)) == 0


def test_airy_recurrence_values():
    f = eo.solve_kernel_axis(airy_problem(6))
    assert max_coeff_diff(f, {(0,): 1.0, (3,): 1 / 6, (6,): 1 / 180}) <= 1e-15


def test_airy_equation_roundtrip_through_series_ops():
    f = eo.solve_kernel_axis(airy_problem(10))
    residual = eo.linear_combine(
        [(1, eo.differentiate(f, (2,))), (-1, eo.multiply_coordinate(f, 1))]
    )
    assert residual.max_exact_coefficient() <= 1e-12


def test_solver_is_reproducible_bitwise():
    p = airy_problem(14)
    a = eo.solve_kernel_axis(p)
    b = eo.solve_kernel_axis(p)
    assert a == b


def test_trivial_convolution_part_rejected():
    with pytest.raises(ValueError, match="trivial"):
        eo.AxisKernelProblem((1.0,), 1.0, (), 6)


def test_zero_seed_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        eo.AxisKernelProblem((0, 0, 1), 1.0, (0, 0), 6)


def test_vanishing_leading_coefficient_rejected():
    with pytest.raises(ValueError, match="leading"):
        eo.AxisKernelProblem((0, 1, 0), 1.0, (1, 0), 6)


def test_seed_count_must_match_order():
    with pytest.raises(ValueError, match="seeds"):
        eo.AxisKernelProblem((0, 0, 1), 1.0, (1,), 6)


def test_growth_guard_trips_on_adversarial_charpoly():
    with pytest.raises(OverflowError, match="exceeded"):
        eo.solve_kernel_axis(eo.AxisKernelProblem((0, 1e-120), 1.0, (1.0,), 8))


def test_joint_kernel_product_coefficients():
    f = eo.joint_kernel([gaussian_problem(4), gaussian_problem(4)])
    expected = {
        (0, 0): 1.0,
        (2, 0): 0.5,
        (0, 2): 0.5,
        (4, 0): 0.125,
        (0, 4): 0.125,
        (2, 2): 0.25,
    }
    assert max_coeff_diff(f, expected) <= 1e-15
    assert f.cutoff == 4  # the (2,2)*z^2 interactions beyond degree 4 are cut


@st.composite
def axis_problem(draw):
    """A random order-1 to order-3 axis problem with real or complex data."""
    order = draw(st.integers(1, 3))
    charpoly = [draw(SCALAR | st.just(0.0)) for _ in range(order)] + [draw(SCALAR)]
    seeds = [draw(SCALAR) for _ in range(order)]
    return eo.AxisKernelProblem(tuple(charpoly), draw(SCALAR), tuple(seeds), 0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(axis_problem(), min_size=1, max_size=3), st.integers(0, 8), st.integers(1, 8))
def test_a_longer_solve_cut_to_a_degree_is_that_degree_s_solve_bit_for_bit(problems, degree, extra):
    # the majorants of convergence_report read both realizations off one solve
    short = eo.joint_kernel([replace(p, degree=degree) for p in problems])
    long = eo.joint_kernel([replace(p, degree=degree + extra) for p in problems])
    assert eo.with_cutoff(long, degree).vector.tobytes() == short.vector.tobytes()


def test_joint_kernel_requires_problem_per_axis():
    with pytest.raises(TypeError, match="AxisKernelProblem"):
        eo.joint_kernel([gaussian_problem(4), None])
    with pytest.raises(ValueError, match="axis problem"):
        eo.joint_kernel([])


def test_joint_kernel_requires_shared_degree():
    with pytest.raises(ValueError, match="share a degree"):
        eo.joint_kernel([gaussian_problem(4), gaussian_problem(6)])


@pytest.mark.parametrize(
    "family,problem",
    [(gaussian_family, gaussian_problem), (airy_family, airy_problem)],
)
def test_product_kernel_annihilated_by_family(family, problem):
    f = eo.joint_kernel([problem(8), problem(8)])
    report = eo.verify_kernel(family(2), f)
    assert report.max_residual <= 1e-12
    assert report.passed


def test_verify_kernel_flags_non_kernel_element():
    report = eo.verify_kernel(gaussian_family(2), eo.monomial(2, 6, (1, 0)))
    assert report.residuals[0] == pytest.approx(1.0)
    assert not report.passed


def test_verify_kernel_fails_on_a_nan_residual_first_or_not():
    # a = inf on axis 2 leaves inf - inf = NaN in that operator's image
    good, bad = gaussian_family(2)[0], eo.CROperator(2, 2, math.inf, gaussian_family(2)[1].conv)
    f = eo.joint_kernel([gaussian_problem(8)] * 2)
    for ops, position in (([bad, good], 0), ([good, bad], 1)):
        report = eo.verify_kernel(ops, f)
        assert math.isnan(report.residuals[position])
        assert math.isnan(report.max_residual)
        assert not report.passed


def test_verify_kernel_needs_room_to_verify():
    f = eo.solve_kernel_axis(airy_problem(1))
    with pytest.raises(ValueError, match="truncation too small"):
        eo.verify_kernel(airy_family(1), f)


def test_mixed_family_joint_kernel():
    f = eo.joint_kernel([gaussian_problem(8), airy_problem(8)])
    ops = [gaussian_family(2)[0], airy_family(2)[1]]
    report = eo.verify_kernel(ops, f)
    assert report.max_residual <= 1e-12
