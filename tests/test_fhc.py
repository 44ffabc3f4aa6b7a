"""Ladder calculus: exact raising/lowering, right inverse, majorant decay."""

from __future__ import annotations

import io
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import entireops as eo
from entireops import cli
from entireops.fhc import STABILITY_DEGREE_STEP, STABILITY_REL_TOL
from entireops.series import worst
from support import (
    SCALAR,
    airy_problem,
    bundled_object,
    gaussian_problem,
    raising_power_scalar,
    scalar_seminorm,
)


def gauss_vector(terms, a=1.0, dim=1) -> eo.LadderVector:
    gens = tuple(gaussian_problem(a) for _ in range(dim))
    return eo.LadderVector(gens, terms)


def random_vector(rng, dim: int) -> eo.LadderVector:
    a = tuple(
        complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)) for _ in range(dim)
    )
    gens = tuple(gaussian_problem(a_j) for a_j in a)
    support = {
        tuple(int(e) for e in rng.integers(0, 6, dim))
        for _ in range(int(rng.integers(1, 6)))
    }
    terms = {
        n: complex(rng.standard_normal(), rng.standard_normal()) for n in support
    }
    return eo.LadderVector(gens, terms)


# ---------------------------------------------------------------------------
# the exact basis action
# ---------------------------------------------------------------------------


def test_power_action_single_step():
    assert eo.operator_power_on_basis((1,), (2,), (1.0,)) == (2.0, (1,))


def test_power_action_identity():
    scalar, idx = eo.operator_power_on_basis((0, 0), (3, 1), (1.0, 1.0))
    assert scalar == 1.0 and idx == (3, 1)


def test_power_action_annihilates():
    assert eo.operator_power_on_basis((1, 0), (0, 3), (1.0, 1.0)) is None


def test_power_action_scalar_formula():
    scalar, idx = eo.operator_power_on_basis((2, 1), (3, 4), (2.0, 3.0))
    assert scalar == pytest.approx((2.0**2 * 6) * (3.0 * 4))
    assert idx == (1, 3)


def test_power_action_checks_both_labels_against_the_constants():
    with pytest.raises(ValueError, match=r"operator power \(1,\) does not match dim 2"):
        eo.operator_power_on_basis((1,), (1, 1), (1.0, 2.0))
    with pytest.raises(ValueError, match=r"negative entry in basis label \(0, -1\)"):
        eo.operator_power_on_basis((0, 0), (0, -1), (1.0, 2.0))


def test_lowering_single_label():
    x = gauss_vector({(2,): 1.0})
    y = eo.apply_lowering(x, 1)
    assert y.terms == {(1,): 2.0}


def test_lowering_kills_generator_label():
    x = gauss_vector({(0,): 1.0})
    assert eo.apply_lowering(x, 1).is_zero()


def test_lowering_termwise_with_constant_two():
    x = gauss_vector({(1,): 1.0, (3,): 1.0}, a=2.0)
    y = eo.apply_lowering(x, 1)
    assert y.terms == {(0,): 2.0, (2,): 6.0}


def test_raising_on_generator():
    x = gauss_vector({(0,): 1.0})
    assert eo.apply_raising(x, 1).terms == {(1,): 1.0}


def test_raising_twice_halves():
    x = gauss_vector({(0,): 1.0})
    y = eo.apply_raising(eo.apply_raising(x, 1), 1)
    assert y.terms == {(2,): 0.5}


def test_raising_off_axis_constant():
    gens = (gaussian_problem(2.0), gaussian_problem(1.0))
    x = eo.LadderVector(gens, {(0, 1): 1.0})
    y = eo.apply_raising(x, 1)
    assert y.terms == {(1, 1): 0.5}


def test_raising_power_scalar_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n_j = int(rng.integers(0, 6))
        k = int(rng.integers(0, 8))
        a = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        gens = (gaussian_problem(a),)
        x = eo.LadderVector(gens, {(n_j,): 1.0})
        for _ in range(k):
            x = eo.apply_raising(x, 1)
        (idx, scalar), = x.terms.items()
        assert idx == (n_j + k,)
        expected = raising_power_scalar(n_j, k, a)
        assert scalar == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(
            math.factorial(n_j) / (a**k * math.factorial(n_j + k)), rel=1e-14
        )


# ---------------------------------------------------------------------------
# right inverse, nilpotency, axis independence
# ---------------------------------------------------------------------------


def test_right_inverse_on_generator():
    assert eo.verify_right_inverse(gauss_vector({(0,): 1.0}), 1)


def test_right_inverse_on_random_vectors():
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = random_vector(rng, int(rng.integers(1, 3)))
        for axis in range(1, x.dim + 1):
            assert eo.verify_right_inverse(x, axis)


@pytest.mark.parametrize(
    "c", [math.nan, math.inf, complex(0.0, math.nan)], ids=["nan", "inf", "nan-imag"]
)
def test_right_inverse_is_not_verified_on_a_non_finite_coefficient(c):
    assert not eo.verify_right_inverse(gauss_vector({(0,): 1.0, (2,): c}), 1)
    assert eo.verify_right_inverse(gauss_vector({(0,): 1.0, (2,): 0.5 - 2j}), 1)


def test_left_inverse_fails_on_kernel_label():
    x = gauss_vector({(0,): 1.0})
    y = eo.apply_raising(eo.apply_lowering(x, 1), 1)
    assert y.is_zero()
    assert y.terms != x.terms


def test_nilpotency_values():
    gens = (gaussian_problem(), gaussian_problem())
    assert eo.nilpotency_index(eo.LadderVector(gens, {(2, 0): 1.0}), 1) == 3
    assert eo.nilpotency_index(eo.LadderVector(gens, {(0, 0): 1.0}), 1) == 1
    assert eo.nilpotency_index(eo.LadderVector(gens, {(2, 0): 1.0}), 2) == 1


def test_nilpotency_matches_iterated_lowering():
    rng = np.random.default_rng(29)
    for _ in range(20):
        x = random_vector(rng, 2)
        for axis in (1, 2):
            k = eo.nilpotency_index(x, axis)
            y = x
            for _ in range(k - 1):
                y = eo.apply_lowering(y, axis)
            assert not y.is_zero()
            assert eo.apply_lowering(y, axis).is_zero()


def test_nilpotency_rejects_zero_vector():
    x = gauss_vector({})
    with pytest.raises(ValueError, match="zero vector"):
        eo.nilpotency_index(x, 1)


def test_lowering_series_terminates():
    # finite support means the operator series on any vector has finitely
    # many nonzero terms
    rng = np.random.default_rng(41)
    for _ in range(10):
        x = random_vector(rng, 2)
        terms = 0
        y = x
        while not y.is_zero():
            terms += 1
            assert terms <= 16
            y = eo.apply_lowering(y, 1)


def test_raising_and_lowering_commute_across_axes():
    rng = np.random.default_rng(43)
    for _ in range(20):
        x = random_vector(rng, 2)
        a = eo.apply_raising(eo.apply_lowering(x, 1), 2)
        b = eo.apply_lowering(eo.apply_raising(x, 2), 1)
        keys = set(a.terms) | set(b.terms)
        for n in keys:
            assert a.terms.get(n, 0j) == pytest.approx(b.terms.get(n, 0j), rel=1e-12)


# ---------------------------------------------------------------------------
# realization and the small ladder-vs-series oracle
# ---------------------------------------------------------------------------


def test_realize_single_label_matches_differentiated_kernel():
    x = gauss_vector({(2,): 1.0})
    series = eo.realize(x, 4)
    f = eo.solve_kernel_axis(gaussian_problem(), 6)
    expected = eo.with_cutoff(eo.differentiate(f, (2,)), 4)
    diff = eo.linear_combine([(1, series), (-1, expected)])
    assert diff.max_exact_coefficient() <= 1e-14
    assert series.exact_degree == 4


def test_lowering_agrees_with_operator_application():
    # small instance of the symbolic-vs-numeric equivalence
    gens = (gaussian_problem(),)
    op = eo.CROperator(1, 1, 1.0, eo.ConvolutionSymbol(1, {(1,): 1.0}))
    for n in range(4):
        x = eo.LadderVector(gens, {(n,): 1.0})
        numeric = eo.apply_weyl(op, eo.realize(x, 6))
        symbolic = eo.realize(eo.apply_lowering(x, 1), 6)
        aligned = eo.with_cutoff(symbolic, numeric.cutoff)
        diff = eo.linear_combine([(1, numeric), (-1, aligned)])
        assert diff.max_exact_coefficient() <= 1e-12


# ---------------------------------------------------------------------------
# convergence diagnostics
# ---------------------------------------------------------------------------


def test_convergence_report_gaussian():
    x = gauss_vector({(0,): 1.0})
    report = eo.convergence_report(x, 1, eo.SemiNormSpec(1, 2.0), 20, 8)
    assert report.bound == pytest.approx(0.5)
    assert report.u[0] == pytest.approx(7.0)
    assert report.kth_roots[-1] <= 0.55
    assert report.stable
    assert report.partial_sums[-1] - report.partial_sums[-2] == pytest.approx(
        report.u[-1], rel=1e-6
    )
    assert report.u[-1] < 1e-5


def test_convergence_report_rejects_small_epsilon():
    x = gauss_vector({(0,): 1.0})
    with pytest.raises(ValueError, match="radius condition"):
        eo.convergence_report(x, 1, eo.SemiNormSpec(1, 0.5), 10, 6)


def test_convergence_report_rejects_a_nan_ladder_constant_first_or_not():
    for a in ((math.nan, 1.0), (1.0, math.nan)):
        x = eo.LadderVector(tuple(gaussian_problem(a_j) for a_j in a), {(0, 0): 1.0})
        with pytest.raises(ValueError, match="radius condition"):
            eo.convergence_report(x, 1, eo.SemiNormSpec(1, 2.0), 8, 6)


def test_convergence_report_airy():
    gens = (airy_problem(),)
    x = eo.LadderVector(gens, {(0,): 1.0})
    report = eo.convergence_report(x, 1, eo.SemiNormSpec(1, 2.0), 12, 8)
    assert report.kth_roots[-1] < 1.0
    assert report.stable
    assert all(r is not None for r in report.ratios)
    assert report.partial_sums[-1] < float("inf")


def test_convergence_report_epsilon_floor_uses_all_axes():
    gens = (gaussian_problem(a=4.0), gaussian_problem(a=0.25))
    x = eo.LadderVector(gens, {(0, 0): 1.0})
    # 1/|a_2| = 4 dominates, so epsilon = 2 is too small even on axis 1
    with pytest.raises(ValueError, match="radius condition"):
        eo.convergence_report(x, 1, eo.SemiNormSpec(1, 2.0), 8, 6)


# ---------------------------------------------------------------------------
# the batched majorants against the per-k path
# ---------------------------------------------------------------------------


def per_k_majorants(x, axis, spec, kmax, degree) -> list[float]:
    """One solve, then realize S^k x by raising and combining, k by k."""
    f = eo.joint_kernel(x.generator, degree + x.max_order + kmax)
    u = []
    for _ in range(kmax + 1):
        if x.terms:
            parts = [(c, eo.differentiate(f, n)) for n, c in x.terms.items()]
            u.append(scalar_seminorm(eo.with_cutoff(eo.linear_combine(parts), degree), spec))
        else:
            u.append(scalar_seminorm(eo.zero_series(x.dim, degree), spec))
        x = eo.apply_raising(x, axis)
    return u


def per_k_report(x, axis, spec, kmax, degree):
    """``u``, ``u_check``, ``kth_roots`` and ``stable`` from a pass per degree."""
    u = per_k_majorants(x, axis, spec, kmax, degree)
    u_check = per_k_majorants(x, axis, spec, kmax, degree + STABILITY_DEGREE_STEP)
    trend, trend_check = u[kmax] ** (1.0 / kmax), u_check[kmax] ** (1.0 / kmax)
    peak = worst((trend, trend_check))
    stable = peak == 0.0 or abs(trend - trend_check) <= STABILITY_REL_TOL * peak
    return u, u_check, [u[k] ** (1.0 / k) for k in range(1, kmax + 1)], stable


@st.composite
def majorant_case(draw):
    """A ladder vector over Gaussian or Airy axes with complex constants, and a spec."""
    dim = draw(st.integers(1, 2))
    gens = tuple(
        draw(st.sampled_from((gaussian_problem, airy_problem)))(draw(SCALAR))
        for _ in range(dim)
    )
    labels = draw(st.lists(st.tuples(*[st.integers(0, 3)] * dim), max_size=3, unique=True))
    x = eo.LadderVector(gens, {n: draw(SCALAR) for n in labels})
    floor = max(1.0 / abs(p.a) for p in gens)
    spec = eo.SemiNormSpec(draw(st.integers(1, 2)), floor * draw(st.floats(1.05, 3.0)))
    axis = draw(st.integers(1, dim))
    return x, axis, spec, draw(st.integers(1, 12)), draw(st.integers(0, 6))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(majorant_case())
def test_batched_majorants_equal_the_per_k_path_exactly(case):
    x, axis, spec, kmax, degree = case
    u, u_check, kth_roots, stable = per_k_report(x, axis, spec, kmax, degree)
    report = eo.convergence_report(x, axis, spec, kmax, degree)
    # a report at degree + 4 realizes the raised iterates of the stability check
    check = eo.convergence_report(x, axis, spec, kmax, degree + STABILITY_DEGREE_STEP)
    assert report.u == tuple(u)
    assert check.u == tuple(u_check)
    assert report.kth_roots == tuple(kth_roots)
    assert report.stable == stable


@settings(max_examples=40, deadline=None, derandomize=True)
@given(majorant_case())
def test_realize_equals_the_differentiate_combine_cut_composition(case):
    x, degree = case[0], case[4]
    f = eo.joint_kernel(x.generator, degree + x.max_order)
    parts = [(c, eo.differentiate(f, n)) for n, c in x.terms.items()]
    want = eo.zero_series(x.dim, degree)
    if parts:
        want = eo.with_cutoff(eo.linear_combine(parts), degree)
    got = eo.realize(x, degree)
    assert (got.exact_degree, got.is_polynomial) == (want.exact_degree, want.is_polynomial)
    # bit for bit: equal bytes, so signed zeros and NaN payloads agree too
    assert got.vector.tobytes() == want.vector.tobytes()


def test_realize_of_the_zero_vector_is_the_polynomial_zero_series():
    x = eo.LadderVector((gaussian_problem(), airy_problem()), {})
    assert eo.realize(x, 5) == eo.zero_series(2, 5)  # equality compares the flags too


def test_an_underflowed_raised_coefficient_is_refused():
    # from k = 61 on the raised coefficient 1 / (5000^k k!) is subnormal in
    # float (4.5e-310 at k = 61, correct to about 3 digits at k = 63, 0 from
    # k = 64), while the true majorant of S^64 x is about 10^-163.4: a
    # verdict read from such a u[k] would be a float artifact
    x = gauss_vector({(0,): 1.0}, a=5000.0)
    spec = eo.SemiNormSpec(1, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any gather overflows
        with pytest.raises(
            OverflowError, match="coefficient of S_1 underflows below the normal float range"
        ):
            eo.convergence_report(x, 1, spec, 61, 6)
    for _ in range(60):
        x = eo.apply_raising(x, 1)
    assert abs(x.terms[(60,)]) >= sys.float_info.min
    with pytest.raises(OverflowError, match="underflows below the normal float range"):
        eo.apply_raising(x, 1)


def test_an_overflowed_raised_coefficient_is_refused_at_its_raising():
    # with a = 1e-300 the second raising 1 / (a^2 2!) is past the float
    # range; the refusal comes there, before the other label tables exist
    x = gauss_vector({(0,): 1.0}, a=1e-300)
    spec = eo.SemiNormSpec(1, 2e300)
    with pytest.raises(OverflowError, match="coefficient of S_1 overflows past the float range"):
        eo.convergence_report(x, 1, spec, 10**9, 6)
    once = eo.apply_raising(x, 1)
    assert math.isfinite(abs(once.terms[(1,)]))
    with pytest.raises(OverflowError, match="overflows past the float range"):
        eo.apply_raising(once, 1)


def test_an_underflowed_fhc_task_fails_instead_of_reporting_stable(tmp_path):
    obj = bundled_object("gaussian1d")
    obj["operators"][0]["a"] = [5000.0, 0.0]
    obj["generator"]["kernel"][0]["a"] = [5000.0, 0.0]
    obj["tasks"] = [{"task": "fhc", "epsilon": 1.0, "kmax": 140, "realization_degree": 6}]
    path = tmp_path / "underflow.json"
    path.write_text(json.dumps(obj))
    buf = io.StringIO()
    assert cli.run_scenario(str(path), stream=buf) == cli.EXIT_TASK_FAILED
    report = json.loads(buf.getvalue())
    assert report["passed"] is False and "stable" not in report
    assert report["error"] == "a coefficient of S_1 underflows below the normal float range"


def overflowing_problem(growth: float) -> eo.AxisKernelProblem:
    """Axis problem ``(D - growth) f = z f``: f_k grows like growth^k / k!."""
    return eo.AxisKernelProblem((-growth, 1), 1.0, (1,))


@pytest.mark.parametrize(
    "growths, epsilon, message",
    [
        # f_57 of the one axis lies past the degree-14 solve (54), inside the check's (58)
        ((1e4,), 2.0, "f_57 exceeded"),
        # the first axis overflows only in the check's solve, the second in both
        ((1e4, 2e4), 2.0, "f_50 exceeded"),
        # r ** 8 overflows in the degree-14 majorants before the check's solve
        ((1e4,), 1e40, "Numerical result out of range"),
    ],
)
def test_an_overflow_past_the_realization_degree_raises_as_before(growths, epsilon, message):
    x = eo.LadderVector(tuple(map(overflowing_problem, growths)), {(0,) * len(growths): 1.0})
    spec = eo.SemiNormSpec(1, epsilon)
    with pytest.raises(OverflowError, match=message) as want:
        per_k_report(x, 1, spec, 40, 14)
    with pytest.raises(OverflowError) as got:
        eo.convergence_report(x, 1, spec, 40, 14)
    assert str(got.value) == str(want.value)


def test_realize_solves_the_generator_even_for_the_zero_vector():
    x = eo.LadderVector((overflowing_problem(1e4),), {})
    with pytest.raises(OverflowError, match="exceeded"):
        eo.realize(x, 60)


def test_majorants_past_the_float_range_raise_instead_of_a_stable_verdict():
    # finite u with u_check = inf once read as stable; now the overflow raises
    x = eo.LadderVector((eo.AxisKernelProblem((0, 1), 1.0, (1e100,)),), {(0,): 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="semi-norm majorant"):
            eo.convergence_report(x, 1, eo.SemiNormSpec(m=1, epsilon=1e20), 3, 8)
