"""Finite-horizon orbit statistics for one-axis operators.

Iterating an operator on a truncated series consumes exactness: each step
eats as many guaranteed degrees as the order of the convolution part.
``iterate_orbit`` enforces that budget up front and returns the tuple of
iterates; ``measure_visits`` bounds their distances to a target by one
``seminorm_rows`` call on the block of differences.

The visit-density number reported here is a finite, one-sided PROXY for the
lower density of hitting times: it counts the iterates T^k x, 1 <= k <= N,
whose semi-norm distance bound to the target falls below delta, divided by
the horizon N.  No finite
computation can certify a positive liminf over all iterates, so the CLI
labels the value accordingly and nothing here extrapolates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import CROperator, apply_weyl
from .series import SemiNormSpec, TruncatedSeries, coefficient_vector, seminorm_rows


@dataclass(frozen=True)
class VisitReport:
    """Visit statistics of an orbit of ``steps`` steps, in the order they are written."""

    steps: int
    hits: tuple[int, ...]
    density_proxy: float
    distances: tuple[float, ...]


def iterate_orbit(
    op: CROperator, x: TruncatedSeries, steps: int
) -> tuple[TruncatedSeries, ...]:
    """The iterates ``(x, Tx, ..., T^steps x)``, tracking exactness per step.

    Each step consumes order(conv) exact degrees, so the initial exact
    degree must cover steps * order(conv); otherwise the step at which the
    budget runs out is reported.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if op.dim != x.dim:
        raise ValueError(f"dim mismatch: operator {op.dim} vs series {x.dim}")
    order = op.conv.max_order
    if order > 0 and steps * order > x.exact_degree:
        supported = x.exact_degree // order
        raise ValueError(
            f"exactness budget exhausted: exact_degree {x.exact_degree} "
            f"supports {supported} steps of an order-{order} convolution "
            f"part; step {supported + 1} of {steps} would exceed it"
        )
    iterates = [x]
    for _ in range(steps):
        iterates.append(apply_weyl(op, iterates[-1]))
    return tuple(iterates)


def measure_visits(
    iterates: tuple[TruncatedSeries, ...],
    target: TruncatedSeries,
    delta: float,
    spec: SemiNormSpec,
) -> VisitReport:
    """Distance bounds, hit times and the density proxy of an orbit.

    distance_k is the semi-norm upper bound of iterate_k - target, so a hit
    (distance < delta) certifies closeness of the stored polynomials while a
    miss is only evidence.  The iterates share one basis, as from ``iterate_orbit``.
    """
    if not iterates:
        raise ValueError("an orbit needs at least the initial vector")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    first = iterates[0]
    if target.dim != first.dim:
        raise ValueError(f"dim mismatch: orbit {first.dim} vs target {target.dim}")
    # the weighted sums of linear_combine: an infinite entry gives the same
    # NaN as iterate - target does there, where a plain subtraction keeps inf
    block = np.zeros((len(iterates), len(first.vector)), dtype=complex)
    block += (1 + 0j) * np.stack([it.vector for it in iterates])
    block += (-1 + 0j) * coefficient_vector(target, first.cutoff)
    distances = tuple(seminorm_rows(first.dim, first.cutoff, block, spec).tolist())
    hits = tuple(k for k, dist in enumerate(distances) if dist < delta)
    steps = len(iterates) - 1
    # the #{1 <= n <= N : n in A} / N shape of a lower density: the initial
    # vector (k = 0) is listed among the hits but not counted
    proxy = sum(1 for k in hits if k >= 1) / max(steps, 1)
    return VisitReport(steps, hits, proxy, distances)
