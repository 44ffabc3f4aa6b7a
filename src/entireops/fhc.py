"""Exact ladder calculus behind the frequent-hypercyclicity criterion checks.

On a joint-kernel generator f of a separable operator family, the axis
operators act on the derivative basis as an exact lowering ladder,

    T_j [D^n f] = a_j n_j [D^(n - e_j) f]        (zero when n_j = 0),

and more generally the k-th power multiplies by ``a^k n!/(n-k)!`` and drops
the label by k (annihilating it when any k_j > n_j).  The raising map

    S_j [D^n f] = 1 / (a_j (n_j + 1)) [D^(n + e_j) f]

is an exact right inverse of T_j.  A :class:`LadderVector` is a finite
formal combination ``sum c_n [D^n f]`` on which both maps act symbolically;
numeric series enter only when semi-norm sizes of the raised iterates are
estimated (:func:`convergence_report`), because the exactness of the ladder
identities and of the right-inverse property should be tested exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .kernel import AxisKernelProblem, joint_kernel
from .series import (
    Index,
    SemiNormSpec,
    TruncatedSeries,
    combine_derivatives,
    graded_key,
    seminorm_bound,
    worst,
    zero_series,
)


@dataclass(frozen=True)
class LadderVector:
    """Formal finite combination ``sum c_n [D^n f]`` over a fixed generator.

    The generator is given as one :class:`AxisKernelProblem` per axis; the
    ladder constants a_j are those problems' constants.  The combination is
    exact symbolic data — no truncation is involved until it is realized.
    Terms are stored in graded-lex order of their labels.
    """

    generator: tuple[AxisKernelProblem, ...]
    terms: Mapping[Index, complex]

    def __post_init__(self) -> None:
        generator = tuple(self.generator)
        if not generator:
            raise ValueError("generator needs at least one axis problem")
        object.__setattr__(self, "generator", generator)
        dim = len(generator)
        clean: dict[Index, complex] = {}
        for raw_idx, raw in self.terms.items():
            idx = tuple(int(e) for e in raw_idx)
            if len(idx) != dim:
                raise ValueError(f"index {idx} does not match dim {dim}")
            if any(e < 0 for e in idx):
                raise ValueError(f"negative entry in index {idx}")
            c = complex(raw)
            if c != 0:
                clean[idx] = c
        ordered = sorted(clean, key=graded_key)
        object.__setattr__(self, "terms", {n: clean[n] for n in ordered})

    @property
    def dim(self) -> int:
        return len(self.generator)

    @property
    def ladder_constants(self) -> tuple[complex, ...]:
        return tuple(p.a for p in self.generator)

    @property
    def max_order(self) -> int:
        return max((sum(n) for n in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms


def operator_power_on_basis(
    k: Sequence[int], n: Sequence[int], a: Sequence[complex]
) -> tuple[complex, Index] | None:
    """Exact action of the k-th operator power on the basis label ``[D^n f]``.

    Returns ``(a^k * n!/(n-k)!, n - k)`` when k <= n componentwise; ``None``
    when any k_j exceeds n_j (the label is annihilated).
    """
    k = tuple(int(e) for e in k)
    n = tuple(int(e) for e in n)
    if len(k) != len(n) or len(k) != len(a):
        raise ValueError("k, n and a must share the dimension")
    if any(e < 0 for e in k + n):
        raise ValueError("negative multi-index entry")
    if any(kj > nj for kj, nj in zip(k, n)):
        return None
    scalar = 1 + 0j
    for kj, nj, aj in zip(k, n, a):
        scalar *= complex(aj) ** kj * math.perm(nj, kj)
    return scalar, tuple(nj - kj for kj, nj in zip(k, n))


def apply_lowering(x: LadderVector, axis: int) -> LadderVector:
    """Apply the axis operator: ``(c, n) -> (c a_j n_j, n - e_j)``, dropping n_j = 0."""
    if not 1 <= axis <= x.dim:
        raise ValueError(f"axis {axis} out of range for dim {x.dim}")
    j = axis - 1
    a = x.ladder_constants[j]
    out: dict[Index, complex] = {}
    for n, c in x.terms.items():
        if n[j] == 0:
            continue
        m = n[:j] + (n[j] - 1,) + n[j + 1 :]
        out[m] = out.get(m, 0j) + c * a * n[j]
    return LadderVector(x.generator, out)


def apply_raising(x: LadderVector, axis: int) -> LadderVector:
    """Apply the right inverse: ``(c, n) -> (c / (a_j (n_j + 1)), n + e_j)``."""
    if not 1 <= axis <= x.dim:
        raise ValueError(f"axis {axis} out of range for dim {x.dim}")
    j = axis - 1
    a = x.ladder_constants[j]
    out: dict[Index, complex] = {}
    for n, c in x.terms.items():
        m = n[:j] + (n[j] + 1,) + n[j + 1 :]
        out[m] = c / (a * (n[j] + 1))
    return LadderVector(x.generator, out)


def verify_right_inverse(
    x: LadderVector, axis: int, rel_tol: float = 1e-14
) -> bool:
    """True iff lowering after raising reproduces x term by term."""
    y = apply_lowering(apply_raising(x, axis), axis)
    if set(y.terms) != set(x.terms):
        return False
    for n, c in x.terms.items():
        if abs(y.terms[n] - c) > rel_tol * abs(c):
            return False
    return True


def nilpotency_index(x: LadderVector, axis: int) -> int:
    """Smallest K with the K-fold lowering of x equal to zero.

    Lowering maps distinct labels to distinct labels with nonzero factors,
    so no cancellation occurs and K = 1 + max n_j over the support.
    """
    if x.is_zero():
        raise ValueError("the zero vector has no nilpotency index")
    if not 1 <= axis <= x.dim:
        raise ValueError(f"axis {axis} out of range for dim {x.dim}")
    return 1 + max(n[axis - 1] for n in x.terms)


def raising_power_scalar(n_j: int, k: int, a_j: complex) -> complex:
    """Closed form ``n_j! / (a_j^k (n_j + k)!)`` of the k-fold raising factor."""
    if n_j < 0 or k < 0:
        raise ValueError("n_j and k must be >= 0")
    return 1.0 / (complex(a_j) ** k * math.perm(n_j + k, k))


def _generator_series(
    generator: Sequence[AxisKernelProblem], degree: int
) -> TruncatedSeries:
    return joint_kernel([replace(p, degree=degree) for p in generator])


def _combine_on(
    f: TruncatedSeries, terms: Mapping[Index, complex], degree: int
) -> TruncatedSeries:
    """``sum c_n D^n f`` cut to the degree; terms in graded-lex order."""
    if not terms:
        return zero_series(f.dim, degree)
    return combine_derivatives(f, terms, degree)


def realize(x: LadderVector, degree: int) -> TruncatedSeries:
    """Realize the combination as a series, exact to the requested degree.

    The generator is solved out to ``degree + max_order(x)`` so every
    differentiated term is still exact on the kept region.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    f = _generator_series(x.generator, degree + x.max_order)
    return _combine_on(f, x.terms, degree)


@dataclass(frozen=True)
class ConvergenceReport:
    """Semi-norm majorants of the raised iterates of one vector.

    ``u[k]`` is the coefficient upper bound of the k-fold raised vector on
    the polydisc of the spec; ``bound`` is the predicted asymptotic decay
    rate ``1/(|a_j| m epsilon)`` of the k-th roots.  ``stable`` flags
    agreement (within 5%) of the final k-th root between the requested
    realization degree and degree + 4 — the declared guard against
    truncation artifacts in the majorants.
    """

    axis: int
    m: int
    epsilon: float
    bound: float
    u: tuple[float, ...]
    ratios: tuple[float | None, ...]
    kth_roots: tuple[float, ...]
    partial_sums: tuple[float, ...]
    stable: bool


#: extra realization degree used for the stability cross-check
STABILITY_DEGREE_STEP = 4
#: relative agreement required between the two realizations
STABILITY_REL_TOL = 0.05


def convergence_report(
    x: LadderVector,
    axis: int,
    spec: SemiNormSpec,
    kmax: int,
    realization_degree: int,
) -> ConvergenceReport:
    """Majorant diagnostics for the raised series ``sum_k S^k x``.

    Requires the polydisc scale to satisfy ``epsilon > max_s 1/|a_s|``;
    under that condition the k-th roots of the majorants are expected to
    settle below ``1/(|a_j| m epsilon) < 1``, certifying absolute
    convergence of the semi-norm series.
    """
    if not 1 <= axis <= x.dim:
        raise ValueError(f"axis {axis} out of range for dim {x.dim}")
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    if realization_degree < 0:
        raise ValueError("realization_degree must be >= 0")
    floor = worst(1.0 / abs(a) for a in x.ladder_constants)
    if not spec.epsilon > floor:
        raise ValueError(
            f"epsilon {spec.epsilon} violates the radius condition: it must "
            f"exceed max_s 1/|a_s| = {floor}"
        )
    a_j = x.ladder_constants[axis - 1]
    bound = 1.0 / (abs(a_j) * spec.m * spec.epsilon)

    def majorants(degree: int) -> list[float]:
        f = _generator_series(x.generator, degree + x.max_order + kmax)
        u: list[float] = []
        y = x
        for k in range(kmax + 1):
            series = _combine_on(f, y.terms, degree)
            u.append(seminorm_bound(series, spec))
            if k < kmax:
                y = apply_raising(y, axis)
        return u

    u = majorants(realization_degree)
    u_check = majorants(realization_degree + STABILITY_DEGREE_STEP)

    ratios: list[float | None] = [
        (u[k + 1] / u[k]) if u[k] > 0 else None for k in range(kmax)
    ]
    kth_roots = [u[k] ** (1.0 / k) for k in range(1, kmax + 1)]
    partial_sums: list[float] = []
    acc = 0.0
    for v in u:
        acc += v
        partial_sums.append(acc)

    trend = u[kmax] ** (1.0 / kmax)
    trend_check = u_check[kmax] ** (1.0 / kmax)
    peak = worst((trend, trend_check))
    stable = peak == 0.0 or abs(trend - trend_check) <= STABILITY_REL_TOL * peak

    return ConvergenceReport(
        axis=axis,
        m=spec.m,
        epsilon=spec.epsilon,
        bound=bound,
        u=tuple(u),
        ratios=tuple(ratios),
        kth_roots=tuple(kth_roots),
        partial_sums=tuple(partial_sums),
        stable=stable,
    )
