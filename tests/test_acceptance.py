"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import io
import math
from itertools import product

import numpy as np

import entireops as eo
from entireops import cli
from support import airy_family, airy_problem, gaussian_family, gaussian_problem


def check(num: int, description: str, condition: bool) -> None:
    status = "PASS" if condition else "FAIL"
    print(f"criterion {num:2d} [{status}] {description}")
    assert condition, f"criterion {num}: {description}"


def test_criterion_1_commutation_relations():
    worst = 0.0
    for family in (gaussian_family(2), airy_family(2)):
        report = eo.verify_commutation(family, 8, tolerance=1e-12)
        worst = max(worst, report.max_residual)
        assert set(report.residuals) == {(j, k) for j in (1, 2) for k in (1, 2)}
    check(1, f"commutator table on both families, probe 8 (worst {worst:.2e})", worst <= 1e-12)


def test_criterion_2_ladder_oracle_equivalence():
    # symbolic power action vs k-fold operator application on realized labels
    cases = 0
    worst = 0.0
    for family_ops, problem, degree in (
        (gaussian_family(2), gaussian_problem, 16),
        (airy_family(2), airy_problem, 24),
    ):
        f = eo.joint_kernel([problem(degree), problem(degree)])
        for n in product(range(5), repeat=2):
            g = eo.differentiate(f, n)
            first_axis_powers = [g]
            for _ in range(4):
                first_axis_powers.append(
                    eo.apply_cr_operator(family_ops[0], first_axis_powers[-1])
                )
            for k1 in range(5):
                h = first_axis_powers[k1]
                for k2 in range(5):
                    cases += 1
                    action = eo.operator_power_on_basis((k1, k2), n, (1.0, 1.0))
                    if action is None:
                        deviation = h.max_exact_coefficient()
                    else:
                        scalar, idx = action
                        expected = eo.differentiate(f, idx)
                        delta = eo.linear_combine([(1, h), (-scalar, expected)])
                        deviation = delta.max_exact_coefficient()
                    worst = max(worst, deviation)
                    if k2 < 4:
                        h = eo.apply_cr_operator(family_ops[1], h)
    check(
        2,
        f"ladder action vs brute force, {cases} cases (worst {worst:.2e})",
        cases == 1250 and worst <= 1e-10,
    )


def test_criterion_3_kernel_correctness():
    g = eo.solve_kernel_axis(gaussian_problem(12))
    gauss_dev = max(
        abs(g.coefficient((2 * m,)) - 1 / (2**m * math.factorial(m)))
        for m in range(7)
    )
    a = eo.solve_kernel_axis(airy_problem(6))
    airy_dev = max(
        abs(a.coefficient((3,)) - 1 / 6), abs(a.coefficient((6,)) - 1 / 180)
    )
    residual = 0.0
    for family, problem in (
        (gaussian_family(2), gaussian_problem),
        (airy_family(2), airy_problem),
    ):
        f = eo.joint_kernel([problem(8), problem(8)])
        residual = max(residual, eo.verify_kernel(family, f).max_residual)
    check(
        3,
        f"axis recurrences (dev {max(gauss_dev, airy_dev):.2e}) and product "
        f"kernels (residual {residual:.2e})",
        gauss_dev <= 1e-12 and airy_dev <= 1e-12 and residual <= 1e-12,
    )


def test_criterion_4_completeness_of_joint_kernels():
    # the squared-exponential family completes at max_order = N; the second
    # order family needs one extra derivative order at these truncations
    results = []
    for problem, extra in ((gaussian_problem, 0), (airy_problem, 1)):
        for n, ambient in ((4, 15), (6, 28)):
            max_order = n + extra
            f = eo.joint_kernel([problem(n + max_order), problem(n + max_order)])
            report = eo.rank_report(eo.derivative_span(f, n, max_order), 1e-8)
            results.append(
                report.rank == ambient
                and report.ambient_dim == ambient
                and report.complete_at_truncation
            )
    check(
        4,
        "product kernels complete at truncation: rank 15/15 at N=4, 28/28 at N=6",
        all(results),
    )


def test_criterion_5_one_axis_kernel_is_not_complete():
    g = eo.solve_kernel_axis(gaussian_problem(8))
    f = eo.make_series(2, 8, {(n[0], 0): c for n, c in g.terms()})
    report = eo.rank_report(eo.derivative_span(f, 4, 4), 1e-8)
    check(
        5,
        f"one-axis generator in two variables: rank {report.rank}/{report.ambient_dim}",
        report.rank == 5 and report.ambient_dim == 15
        and not report.complete_at_truncation,
    )


def test_criterion_6_ladder_criterion_conditions():
    rng = np.random.default_rng(2024)
    inverse_ok = True
    for _ in range(100):
        dim = int(rng.integers(1, 3))
        constants = [
            complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)) for _ in range(dim)
        ]
        gens = tuple(gaussian_problem(6, c) for c in constants)
        support = {
            tuple(int(e) for e in rng.integers(0, 6, dim))
            for _ in range(int(rng.integers(1, 6)))
        }
        x = eo.LadderVector(
            gens,
            {n: complex(rng.standard_normal(), rng.standard_normal()) for n in support},
        )
        for axis in range(1, dim + 1):
            inverse_ok = inverse_ok and eo.verify_right_inverse(x, axis)

    gens2 = (gaussian_problem(6), gaussian_problem(6))
    nilpotency_ok = True
    for n in product(range(6), repeat=2):
        x = eo.LadderVector(gens2, {n: 1.0})
        for axis in (1, 2):
            nilpotency_ok = nilpotency_ok and (
                eo.nilpotency_index(x, axis) == n[axis - 1] + 1
            )

    x0 = eo.LadderVector((gaussian_problem(8),), {(0,): 1.0})
    report = eo.convergence_report(x0, 1, eo.SemiNormSpec(1, 2.0), 20, 8)
    trend = report.kth_roots[-1]
    check(
        6,
        f"right inverse x100, nilpotency grid, majorant trend {trend:.4f} <= 0.55 "
        f"(bound {report.bound}), stable={report.stable}",
        inverse_ok and nilpotency_ok and trend <= 0.55 and report.stable,
    )


def test_criterion_7_route_equality():
    rng = np.random.default_rng(555)
    symbols = [
        eo.ConvolutionSymbol(1, {(0,): 1.0}),
        eo.ConvolutionSymbol(1, {(1,): 1.0}),
        eo.ConvolutionSymbol(1, {(2,): 2.0}),
        eo.ConvolutionSymbol(1, {(0,): -1.0, (3,): 1.5}),
        eo.ConvolutionSymbol(1, {(1,): 0.5, (5,): -1.0}),
    ]
    worst = 0.0
    for _ in range(20):
        basis = eo.monomial_basis(1, 5)
        f = eo.make_series(
            1, 5,
            {n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in basis},
            is_polynomial=True,
        )
        for sym in symbols:
            image = eo.apply_convolution(sym, f)
            for _ in range(20):
                lam = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),)
                lhs = eo.evaluate(image, lam)
                rhs = eo.dual_pairing(sym, eo.translate(f, lam))
                worst = max(worst, abs(lhs - rhs))
    check(
        7,
        f"convolution image at a point vs pairing with the translate "
        f"(worst {worst:.2e})",
        worst <= 1e-10,
    )


def test_criterion_8_derivative_vs_translate_rank():
    rng = np.random.default_rng(808)
    agree = True
    for trial in range(20):
        dim = int(rng.integers(1, 3))
        n = int(rng.integers(2, 5))
        basis = eo.monomial_basis(dim, n)
        f = eo.make_series(
            dim, n,
            {m: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for m in basis},
            is_polynomial=True,
        )
        d_rank = eo.rank_report(eo.derivative_span(f, n, n), 1e-8).rank
        samples = eo.sample_box(dim, 3 * len(basis), seed=4000 + trial)
        t_rank = eo.rank_report(eo.translate_span(f, n, samples), 1e-8).rank
        agree = agree and (d_rank == t_rank)
    check(8, "derivative-span rank equals translate-span rank on 20 random polynomials", agree)


def test_criterion_9_constructive_approximation():
    f = eo.solve_kernel_axis(gaussian_problem(6))
    result = eo.approximate_target(f, eo.monomial(1, 3, (1,)), 3, 3)
    c1 = result.coefficient((1,))
    c3 = result.coefficient((3,))
    check(
        9,
        f"coordinate from derivative rows: c1={c1.real:.6f}, c3={c3.real:.6f}, "
        f"residual {result.residual:.2e}",
        abs(c1 - 2.5) <= 1e-12
        and abs(c3 + 0.5) <= 1e-12
        and result.residual <= 1e-12,
    )


def test_criterion_10_deterministic_reports():
    texts = []
    codes = []
    for _ in range(2):
        buf = io.StringIO()
        codes.append(cli.run_scenario("scenarios/gaussian2d.json", stream=buf))
        texts.append(buf.getvalue())
    check(
        10,
        "two runs of the gaussian2d scenario emit bytewise-identical reports",
        codes == [0, 0] and texts[0] == texts[1] and len(texts[0]) > 0,
    )
