"""Operator algebra: commutators, convolution actions, pairing, CR family."""

from __future__ import annotations

import math
import struct
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import entireops as eo
from entireops import cli
from entireops.series import worst
from support import (
    SCALAR,
    airy_family,
    airy_problem,
    characteristic_roundtrip,
    cr_operators,
    gaussian_family,
    gaussian_problem,
    max_coeff_diff,
)


def weyl_terms_close(a: eo.WeylOperator, b: eo.WeylOperator, tol=1e-12) -> bool:
    keys = set(a.terms) | set(b.terms)
    return all(abs(a.terms.get(k, 0) - b.terms.get(k, 0)) <= tol for k in keys)


def random_weyl(rng, dim: int, nterms: int = 3, maxpow: int = 2) -> eo.WeylOperator:
    triples = []
    for _ in range(nterms):
        c = complex(rng.standard_normal(), rng.standard_normal())
        zpow = tuple(int(e) for e in rng.integers(0, maxpow + 1, dim))
        dpow = tuple(int(e) for e in rng.integers(0, maxpow + 1, dim))
        triples.append((c, zpow, dpow))
    return eo.WeylOperator.from_terms(dim, triples)


# ---------------------------------------------------------------------------
# commutator
# ---------------------------------------------------------------------------


def test_canonical_commutation_relation():
    d = eo.WeylOperator.derivative(1, (1,))
    z = eo.WeylOperator.coordinate(1, 1)
    assert weyl_terms_close(eo.commutator(d, z), eo.WeylOperator.identity(1))


def test_shifted_derivative_still_canonical():
    d = eo.WeylOperator.derivative(1, (1,))
    t = d - eo.WeylOperator.coordinate(1, 1)
    assert weyl_terms_close(eo.commutator(t, d), eo.WeylOperator.identity(1))


def test_cross_axis_commutator_vanishes():
    t1 = eo.WeylOperator.derivative(2, (1, 0)) - eo.WeylOperator.coordinate(2, 1)
    d2 = eo.WeylOperator.derivative(2, (0, 1))
    assert eo.commutator(t1, d2).is_zero()


def test_weyl_terms_check_both_exponents():
    with pytest.raises(ValueError, match=r"coordinate power \(1,\) does not match dim 2"):
        eo.WeylOperator(2, {((1,), (0, 0)): 1.0})
    with pytest.raises(ValueError, match=r"negative entry in derivative order \(0, -1\)"):
        eo.WeylOperator.derivative(2, (0, -1))


def test_commutator_self_is_zero():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = random_weyl(rng, int(rng.integers(1, 3)))
        assert eo.commutator(a, a).is_zero()


def test_commutator_antisymmetric_and_bilinear():
    rng = np.random.default_rng(11)
    for _ in range(20):
        dim = int(rng.integers(1, 3))
        a, b, c = (random_weyl(rng, dim) for _ in range(3))
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        assert weyl_terms_close(eo.commutator(a, b), -eo.commutator(b, a))
        lhs = eo.commutator(alpha * a + b, c)
        rhs = alpha * eo.commutator(a, c) + eo.commutator(b, c)
        assert weyl_terms_close(lhs, rhs, tol=1e-10)


def test_symbolic_vs_numeric_commutator_route():
    # two independent routes: normal-ordered algebra vs action on monomials
    for ops in (gaussian_family(2), airy_family(2)):
        for op in ops:
            for k in (1, 2):
                sym = eo.commutator(eo.WeylOperator(2, op.terms), eo.WeylOperator.derivative(2, tuple(1 if j == k - 1 else 0 for j in range(2))))
                expected = (op.a if k == op.axis else 0.0) * eo.WeylOperator.identity(2)
                assert weyl_terms_close(sym, expected)


# ---------------------------------------------------------------------------
# apply_weyl
# ---------------------------------------------------------------------------


def test_apply_weyl_annihilates_gaussian():
    f = eo.solve_kernel_axis(gaussian_problem(), 6)
    t = eo.WeylOperator.derivative(1, (1,)) - eo.WeylOperator.coordinate(1, 1)
    out = eo.apply_weyl(t, f)
    assert out.exact_degree == 5
    assert out.max_exact_coefficient() <= 1e-15


def test_apply_weyl_identity():
    f = eo.make_series(2, 3, {(1, 0): 2.0, (0, 2): -1.0})
    out = eo.apply_weyl(eo.WeylOperator.identity(2), f)
    assert max_coeff_diff(out, dict(f.terms())) == 0


def test_apply_weyl_euler_operator():
    euler = eo.WeylOperator.from_terms(1, [(1.0, (1,), (1,))])
    out = eo.apply_weyl(euler, eo.monomial(1, 4, (3,)))
    assert max_coeff_diff(out, {(3,): 3.0}) == 0


def termwise_apply(op: eo.WeylOperator, f: eo.TruncatedSeries) -> eo.TruncatedSeries:
    """Reference: each term through differentiate, multiply_coordinate, linear_combine."""
    if op.is_zero():
        return eo.zero_series(f.dim, f.cutoff)
    parts = []
    for (zpow, dpow), c in op.terms.items():
        g = eo.differentiate(f, dpow)
        for axis, power in enumerate(zpow, start=1):
            for _ in range(power):
                g = eo.multiply_coordinate(g, axis)
        parts.append((c, g))
    return eo.linear_combine(parts)


@st.composite
def weyl_case(draw):
    """A random operator and a series that may or may not be a polynomial.

    The support's degree is drawn up to the cutoff, so coordinate powers
    sometimes push a polynomial past it and sometimes do not.
    """
    dim = draw(st.integers(1, 3))
    cutoff = draw(st.integers(0, 6))
    power = st.tuples(*[st.integers(0, 3)] * dim)
    op = eo.WeylOperator.from_terms(
        dim, draw(st.lists(st.tuples(SCALAR, power, power), max_size=4))
    )
    basis = eo.monomial_basis(dim, draw(st.integers(0, cutoff)))
    picks = draw(st.lists(st.sampled_from(basis), max_size=6, unique=True))
    base = eo.make_series(dim, cutoff, [(n, draw(SCALAR)) for n in picks])
    poly = draw(st.booleans())
    exact = cutoff if poly else draw(st.integers(-1, cutoff))
    return op, eo.TruncatedSeries(dim, cutoff, exact, poly, base.vector)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(weyl_case())
def test_apply_weyl_matches_termwise_composition(case):
    op, f = case
    got, want = eo.apply_weyl(op, f), termwise_apply(op, f)
    assert (got.exact_degree, got.is_polynomial) == (want.exact_degree, want.is_polynomial)
    assert got.vector.tobytes() == want.vector.tobytes()


# ---------------------------------------------------------------------------
# convolution symbols
# ---------------------------------------------------------------------------


def test_apply_convolution_dirac_is_identity():
    f = eo.make_series(1, 4, {(0,): 1, (3,): 2.0})
    sym = eo.ConvolutionSymbol(1, {(0,): 1.0})
    assert max_coeff_diff(eo.apply_weyl(sym, f), dict(f.terms())) == 0


def test_apply_convolution_first_order_is_derivative():
    f = eo.make_series(1, 5, {(1,): 3.0, (4,): 1.0})
    sym = eo.ConvolutionSymbol(1, {(1,): 1.0})
    out = eo.apply_weyl(sym, f)
    expected = eo.differentiate(f, (1,))
    assert max_coeff_diff(out, dict(expected.terms())) == 0


def test_apply_convolution_second_order():
    sym = eo.ConvolutionSymbol(1, {(2,): 2.0})
    out = eo.apply_weyl(sym, eo.monomial(1, 3, (3,)))
    assert max_coeff_diff(out, {(1,): 6.0}) == 0


def test_apply_convolution_exactness_drop():
    f = eo.make_series(1, 6, {(0,): 1.0, (2,): 0.5})  # exact to 6, not polynomial
    sym = eo.ConvolutionSymbol(1, {(2,): 2.0})
    assert eo.apply_weyl(sym, f).exact_degree == 4


# ---------------------------------------------------------------------------
# dual pairing
# ---------------------------------------------------------------------------


def test_pairing_dirac_evaluates_at_origin():
    f = eo.make_series(1, 6, {(0,): 1.0, (2,): 0.5, (4,): 0.125})
    sym = eo.ConvolutionSymbol(1, {(0,): 1.0})
    assert eo.dual_pairing(sym, f) == 1.0


def test_pairing_extracts_derivative_at_origin():
    f = eo.make_series(1, 2, {(1,): 3.0, (2,): 1.0}, is_polynomial=True)
    sym = eo.ConvolutionSymbol(1, {(1,): 1.0})
    assert eo.dual_pairing(sym, f) == 3.0


def test_pairing_after_translation():
    f = eo.translate(eo.monomial(1, 3, (3,)), (1,))
    sym = eo.ConvolutionSymbol(1, {(2,): 2.0})
    assert eo.dual_pairing(sym, f) == pytest.approx(6.0)


def test_pairing_with_polynomial_sees_true_zeros_beyond_cutoff():
    f = eo.monomial(1, 3, (3,))
    sym = eo.ConvolutionSymbol(1, {(7,): 4.0, (3,): 1.0})
    assert eo.dual_pairing(sym, f) == 1.0


def test_pairing_undetermined_beyond_exact_region():
    f = eo.make_series(1, 3, {(0,): 1.0})
    f = eo.differentiate(f, (2,))  # exact_degree drops to 1
    sym = eo.ConvolutionSymbol(1, {(2,): 1.0})
    with pytest.raises(ValueError, match="pairing not determined"):
        eo.dual_pairing(sym, f)


def test_characteristic_roundtrip_values():
    assert characteristic_roundtrip(eo.ConvolutionSymbol(1, {(0,): 1.0}), (5,)) == 1.0
    assert characteristic_roundtrip(eo.ConvolutionSymbol(1, {(1,): 1.0}), (2,)) == 2.0
    assert characteristic_roundtrip(eo.ConvolutionSymbol(1, {(2,): 2.0}), (3,)) == pytest.approx(9.0)


def test_laplace_consistency_on_exponential_truncations():
    # pairing against the truncated exponential recovers the characteristic
    # function once the truncation covers the support
    rng = np.random.default_rng(3)
    for _ in range(10):
        w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        n_max = 6
        expo = eo.make_series(
            1, n_max, {(n,): w**n / eo.index_factorial((n,)) for n in range(n_max + 1)}
        )
        sym = eo.ConvolutionSymbol(1, {(0,): 0.5, (2,): 1.5, (3,): -2.0})
        lhs = eo.dual_pairing(sym, expo)
        rhs = characteristic_roundtrip(sym, (w,))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
    under = eo.make_series(1, 2, {(n,): 1.0 / eo.index_factorial((n,)) for n in range(3)})
    with pytest.raises(ValueError, match="pairing not determined"):
        eo.dual_pairing(eo.ConvolutionSymbol(1, {(3,): 1.0}), under)


# ---------------------------------------------------------------------------
# CR operators
# ---------------------------------------------------------------------------


def test_cr_operator_requires_nonzero_constant():
    with pytest.raises(ValueError, match="nonzero"):
        eo.CROperator(1, 1, 0.0, eo.ConvolutionSymbol(1, {(1,): 1.0}))


def algebra_cr_operator(op: eo.CROperator) -> eo.WeylOperator:
    """``T = M_F - a z_axis`` composed in the symbolic algebra."""
    conv = eo.WeylOperator(op.dim, op.conv.terms)
    return conv + (-op.a) * eo.WeylOperator.coordinate(op.dim, op.axis)


def term_bits(terms) -> list:
    """Keys in stored order with the bytes of both parts (signs of zero included)."""
    return [(key, struct.pack("<dd", c.real, c.imag)) for key, c in terms.items()]


def assert_cr_table_is_the_algebra(op: eo.CROperator, f: eo.TruncatedSeries) -> None:
    oracle = algebra_cr_operator(op)
    assert term_bits(op.terms) == term_bits(oracle.terms)
    got, want = eo.apply_weyl(op, f), eo.apply_weyl(oracle, f)
    assert np.array_equal(got.vector, want.vector, equal_nan=True)
    assert (got.exact_degree, got.is_polynomial) == (want.exact_degree, want.is_polynomial)


def rng_series(dim: int, cutoff: int, seed: int) -> eo.TruncatedSeries:
    rng = np.random.default_rng(seed)
    coeffs = {n: complex(*rng.uniform(-1, 1, 2)) for n in eo.monomial_basis(dim, cutoff)}
    return eo.make_series(dim, cutoff, coeffs, is_polynomial=bool(seed % 2))


@pytest.mark.parametrize("name", cli.BUNDLED)
def test_bundled_cr_tables_are_the_algebra(name):
    scn = cli.load_scenario(name)
    for op in scn.operators:
        assert_cr_table_is_the_algebra(op, rng_series(op.dim, 6, op.axis))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(cr_operators), st.integers(0, 9))
def test_drawn_cr_tables_are_the_algebra(op, seed):
    assert_cr_table_is_the_algebra(op, rng_series(op.dim, 5, seed))


@pytest.mark.parametrize(
    "a, stored",
    [
        (1.5, (-1.5, 0.0)),
        (-1.5, (1.5, 0.0)),
        (complex(2.0, -0.0), (-2.0, 0.0)),
        (complex(-0.0, -1.0), (0.0, 1.0)),
        (complex(0.0, 1.0), (0.0, -1.0)),
    ],
)
def test_cr_table_keeps_the_algebras_signs_of_zero(a, stored):
    op = eo.CROperator(2, 1, a, eo.ConvolutionSymbol(2, {(1, 0): 1.0, (0, 2): -2.0}))
    assert_cr_table_is_the_algebra(op, rng_series(2, 4, 1))
    z = op.terms[((1, 0), (0, 0))]
    assert struct.pack("<dd", z.real, z.imag) == struct.pack("<dd", *stored)


def test_cr_table_of_an_infinite_constant_is_the_algebras():
    # -inf * (1 + 0j) has a NaN imaginary part, which numpy multiplies quietly
    op = eo.CROperator(1, 1, math.inf, eo.ConvolutionSymbol(1, {(1,): 1.0}))
    assert_cr_table_is_the_algebra(op, rng_series(1, 4, 2))
    assert np.isnan(eo.apply_weyl(op, rng_series(1, 4, 2)).vector[1:]).all()


@pytest.mark.parametrize("a", [complex(0.0, -math.inf), math.inf])
def test_an_infinite_constant_gives_nan_verdicts_without_a_warning(a):
    # a = -inf i stores the z coefficient (nan, inf), and inf times a zero
    # entry of the image is numpy's invalid multiply
    op = eo.CROperator(1, 1, a, eo.ConvolutionSymbol(1, {(1,): 1.0}))
    f = rng_series(1, 4, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        image = eo.apply_weyl(op, f)
        commutation = eo.verify_commutation([op], 2)
        kernel = eo.verify_kernel([op], f)
    assert np.isnan(image.vector[1:]).all()
    assert math.isnan(commutation.max_residual) and not commutation.passed
    assert math.isnan(kernel.max_residual) and not kernel.passed


def test_symbol_table_is_b_over_factorial():
    sym = eo.ConvolutionSymbol(2, {(0, 0): 3.0, (2, 1): 4.0 - 2j, (0, 3): 6.0})
    zero = (0, 0)
    assert sym.terms == {
        (zero, n): b / (math.factorial(n[0]) * math.factorial(n[1]))
        for n, b in sym.bcoeffs.items()
    }
    assert list(sym.terms) == [(zero, n) for n in sym.bcoeffs]


def test_cr_operator_builds_its_table_in_one_construction(monkeypatch):
    sym = eo.ConvolutionSymbol(3, {(0, 2, 0): 2.0, (1, 0, 0): 1.0})
    calls = []
    init = eo.WeylOperator.__init__

    def counted(self, *args, **kwargs):
        calls.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(eo.WeylOperator, "__init__", counted)
    op = eo.CROperator(3, 2, 1.5, sym)
    assert len(calls) == 1
    assert calls[0].terms is op.terms


def test_apply_cr_gaussian_kernel():
    f = eo.solve_kernel_axis(gaussian_problem(), 8)
    [op] = gaussian_family(1)
    out = eo.apply_weyl(op, f)
    assert out.max_exact_coefficient() <= 1e-15


def test_apply_cr_airy_kernel():
    f = eo.solve_kernel_axis(airy_problem(), 8)
    [op] = airy_family(1)
    out = eo.apply_weyl(op, f)
    assert out.max_exact_coefficient() <= 1e-15


def test_apply_cr_on_coordinate():
    [op] = gaussian_family(1)
    out = eo.apply_weyl(op, eo.monomial(1, 3, (1,)))
    assert max_coeff_diff(out, {(0,): 1.0, (2,): -1.0}) == 0


def test_convolution_part_commutes_with_translation():
    rng = np.random.default_rng(19)
    sym = eo.ConvolutionSymbol(1, {(1,): 1.0, (2,): -0.5})
    for _ in range(10):
        basis = eo.monomial_basis(1, 4)
        f = eo.make_series(
            1, 4,
            {n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in basis},
            is_polynomial=True,
        )
        lam = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),)
        a = eo.translate(eo.apply_weyl(sym, f), lam)
        b = eo.apply_weyl(sym, eo.translate(f, lam))
        diff = eo.linear_combine([(1, a), (-1, b)])
        assert diff.max_exact_coefficient() <= 1e-12


# ---------------------------------------------------------------------------
# verify_commutation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", [gaussian_family, airy_family])
def test_commutation_residual_zero_for_shipped_families(family):
    report = eo.verify_commutation(family(2), 8)
    assert report.max_residual <= 1e-12
    assert report.passed
    assert set(report.residuals) == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_commutation_family_closed_under_symbol_change():
    # adding any polynomial convolution part leaves the commutator table alone
    sym = eo.ConvolutionSymbol(1, {(0,): 2.0, (1,): 1.0, (3,): -0.25})
    op = eo.CROperator(1, 1, 1.0, sym)
    report = eo.verify_commutation([op], 8)
    assert report.max_residual <= 1e-12


def claiming(op: eo.CROperator, a: complex) -> SimpleNamespace:
    """A stand-in for op that claims the ladder constant a, its terms unchanged."""
    return SimpleNamespace(dim=op.dim, axis=op.axis, a=complex(a), terms=op.terms)


def test_commutation_detects_mismatched_constant():
    [op] = gaussian_family(1)
    report = eo.verify_commutation([claiming(op, 2.0)], 4)
    assert report.max_residual == pytest.approx(1.0)
    assert not report.passed


@pytest.mark.parametrize("b", [float("inf"), complex(0.0, float("-inf")), float("nan")])
def test_commutation_fails_on_a_non_finite_symbol(b):
    # the defects are NaN past the constant probe; none may fold away
    op = eo.CROperator(1, 1, 1.0, eo.ConvolutionSymbol(1, {(1,): b}))
    report = eo.verify_commutation([op], 3)
    assert np.isnan(report.residuals[(1, 1)])
    assert np.isnan(report.max_residual)
    assert not report.passed


def per_monomial_residuals(ops, probe_degree, claimed):
    """Reference: the commutator defect of every probe monomial, one at a time."""
    dim = ops[0].dim
    cutoff = probe_degree + 1
    units = [tuple(int(j == k) for j in range(dim)) for k in range(dim)]
    residuals = {}
    for op, a in zip(ops, claimed):
        for n in eo.monomial_basis(dim, probe_degree):
            probe = eo.monomial(dim, cutoff, n)
            t_probe = eo.apply_weyl(op, probe)
            for k, ek in enumerate(units, start=1):
                with np.errstate(invalid="ignore"):  # a non-finite a times a zero entry
                    defect = eo.linear_combine(
                        [
                            (1.0, eo.apply_weyl(op, eo.differentiate(probe, ek))),
                            # D_k as apply_weyl applies it: differentiate refuses
                            # a product past the float range, apply_weyl keeps it inf
                            (-1.0, eo.apply_weyl(eo.ConvolutionSymbol(dim, {ek: 1.0}), t_probe)),
                            (-(a if k == op.axis else 0.0), probe),
                        ]
                    )
                key = (op.axis, k)
                residuals[key] = worst((residuals.get(key, 0.0), defect.max_exact_coefficient()))
    return residuals


@st.composite
def commutation_case(draw):
    dim = draw(st.integers(1, 3))
    ops = draw(st.lists(cr_operators(dim), min_size=1, max_size=dim))
    probe_degree = draw(st.integers(0, 6))
    expected_a = draw(st.none() | st.lists(SCALAR, min_size=len(ops), max_size=len(ops)))
    return ops, probe_degree, expected_a


def cr(dim: int, axis: int, a: complex, bcoeffs: dict) -> eo.CROperator:
    return eo.CROperator(dim, axis, a, eo.ConvolutionSymbol(dim, bcoeffs))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(commutation_case())
# d = 3 at probe degree 8: 165 probes over 220 basis rows
@example((
    [gaussian_family(3)[0], airy_family(3)[1], cr(3, 3, 0.5j, {(1, 1, 0): 0.5, (0, 0, 3): -2.0})],
    8,
    None,
))
# a symbol order past the cutoff acts on no probe
@example(([cr(2, 1, 1.0, {(0, 5): 3.0, (1, 0): 1.0})], 2, None))
# c = 1e300 times weights up to 16 perm(15, 8) = 4.2e9 overflows, and inf - inf is
# NaN; c = 1e300 (1 + i) on D^3 stays finite and leaves a rounding residual
@example((
    [cr(2, 1, 1e300, {(8, 0): 40320e300, (1, 0): -1e300}),
     cr(2, 2, -1.0, {(0, 3): (1e300 + 1e300j) * 6})],
    16,
    None,
))
# plan weights up to 13! 12! = 2.98e18 (12! 12! = 2.3e17 on a probe), past 2^53,
# where the plan recomputes a cell of two non-unit factors from exact integers
@example((
    [cr(2, 1, 1.0, {(12, 12): 0.1, (1, 0): 1.0}),
     cr(2, 2, 0.5, {(0, 1): 2.0, (9, 10): (1 + 2j) / 3})],
    24,
    None,
))
# 1e308 p_2 overflows at e_(0, 2), whose image e_(0, 1) D_1 never reads: (1, 1) stays 0
@example(([cr(2, 1, 1.0, {(0, 1): 1e308})], 2, None))
# non-finite symbol entries: every defect is NaN
@example((
    [cr(2, 1, 1.0, {(1, 0): math.nan, (0, 2): math.inf}), cr(2, 2, 1.0, {(0, 1): -math.inf})],
    3,
    None,
))
# a non-finite claimed constant; the first operator's only term is its z-term
@example((
    [cr(1, 1, 1.0, {}), cr(1, 1, 2.0, {(1,): 1.0})],
    3,
    [math.inf, complex(1.0, math.nan)],
))
@example((gaussian_family(4), 4, None))
def test_verify_commutation_matches_per_monomial_reference(case):
    """The slots of all probes give each monomial's residual, bit for bit."""
    ops, probe_degree, expected_a = case
    claimed = [op.a for op in ops] if expected_a is None else expected_a
    report = eo.verify_commutation(list(map(claiming, ops, claimed)), probe_degree)
    with np.errstate(over="ignore"):  # the reference overflows where the library does
        want = per_monomial_residuals(ops, probe_degree, claimed)
    # .hex() is a residual's exact bits, and reads "nan" for every NaN
    assert [(key, r.hex()) for key, r in report.residuals.items()] == [
        (key, r.hex()) for key, r in want.items()
    ]
    assert report.max_residual.hex() == worst(want.values()).hex()


def test_an_overflow_is_an_inf_or_nan_in_the_result_and_no_warning():
    # the overflow example above, with no errstate around the library calls
    ops = [cr(2, 1, 1e300, {(8, 0): 40320e300, (1, 0): -1e300}),
           cr(2, 2, -1.0, {(0, 3): (1e300 + 1e300j) * 6})]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = eo.verify_commutation(ops, 16)
        image = eo.apply_weyl(cr(2, 1, 1e300, {(8, 0): 40320e300}), eo.monomial(2, 17, (16, 0)))
    assert np.isnan(report.max_residual) and not report.passed
    assert np.isinf(image.vector).any()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 4).flatmap(cr_operators))
def test_cr_operator_terms_have_distinct_shifts(op):
    """verify_commutation's premise: no two terms of a CR operator shift a monomial alike."""
    shifts = [tuple(np.subtract(zpow, dpow)) for zpow, dpow in op.terms]
    assert len(set(shifts)) == len(shifts)


@pytest.mark.parametrize(
    "ops, probe_degree",
    [(gaussian_family(3), 8), ([gaussian_family(2)[0], airy_family(2)[1]], 12)],
    ids=["d3-p8", "d2-p12"],
)
def test_verify_commutation_stays_below_a_fresh_mapping(ops, probe_degree):
    # glibc serves a request of 128 KiB or more from freshly mapped pages,
    # which every call would fault in again
    eo.verify_commutation(ops, probe_degree)  # the layout tables are cached
    tracemalloc.start()
    try:
        eo.verify_commutation(ops, probe_degree)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**17


# ---------------------------------------------------------------------------
# two representations of the convolution action (route equality)
# ---------------------------------------------------------------------------


def test_route_equality_on_random_polynomials():
    # evaluating the convolution image at a point agrees with pairing the
    # symbol against the translated series
    rng = np.random.default_rng(23)
    symbols = [
        eo.ConvolutionSymbol(1, {(0,): 1.0}),
        eo.ConvolutionSymbol(1, {(1,): 1.0}),
        eo.ConvolutionSymbol(1, {(2,): 2.0, (0,): -1.0}),
        eo.ConvolutionSymbol(1, {(3,): 1.5, (1,): 0.5}),
        eo.ConvolutionSymbol(1, {(5,): -1.0}),
    ]
    for _ in range(5):
        basis = eo.monomial_basis(1, 5)
        f = eo.make_series(
            1, 5,
            {n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in basis},
            is_polynomial=True,
        )
        for sym in symbols:
            image = eo.apply_weyl(sym, f)
            for _ in range(5):
                lam = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),)
                lhs = eo.evaluate(image, lam)
                rhs = eo.dual_pairing(sym, eo.translate(f, lam))
                assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)
