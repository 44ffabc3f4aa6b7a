"""Finite-horizon orbit statistics for one-axis operators.

Iterating an operator on a truncated series consumes exactness: each step
eats as many guaranteed degrees as the order of the convolution part.  The
orbit runner enforces that budget up front and tracks exactness per step.

The visit-density number reported here is a finite, one-sided PROXY for the
lower density of hitting times: it counts the iterates T^k x, 1 <= k <= N,
whose semi-norm distance bound to the target falls below delta, divided by
the horizon N.  No finite
computation can certify a positive liminf over all iterates, so the CLI
labels the value accordingly and nothing here extrapolates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .operators import CROperator, apply_cr_operator
from .series import (
    SemiNormSpec,
    TruncatedSeries,
    linear_combine,
    seminorm_bound,
    with_cutoff,
)


@dataclass(frozen=True)
class OrbitRecord:
    """Iterates x, Tx, T^2 x, ... plus optional distance/hit statistics."""

    iterates: tuple[TruncatedSeries, ...]
    distances: tuple[float, ...] | None = None
    hits: tuple[int, ...] | None = None
    density_proxy: float | None = None

    def __post_init__(self) -> None:
        if not self.iterates:
            raise ValueError("an orbit record needs at least the initial vector")
        if self.distances is not None and len(self.distances) != len(self.iterates):
            raise ValueError("distances must align with the iterates")

    @property
    def steps(self) -> int:
        return len(self.iterates) - 1


def iterate_orbit(
    op: CROperator, x: TruncatedSeries, steps: int
) -> OrbitRecord:
    """Repeatedly apply the operator, tracking exactness per step.

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
        iterates.append(apply_cr_operator(op, iterates[-1]))
    return OrbitRecord(iterates=tuple(iterates))


def measure_visits(
    rec: OrbitRecord,
    target: TruncatedSeries,
    delta: float,
    spec: SemiNormSpec,
) -> OrbitRecord:
    """Annotate a record with distance bounds, hit times and the density proxy.

    distance_k is the semi-norm upper bound of iterate_k - target, so a hit
    (distance < delta) certifies closeness of the stored polynomials while a
    miss is only evidence.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    first = rec.iterates[0]
    if target.dim != first.dim:
        raise ValueError(f"dim mismatch: orbit {first.dim} vs target {target.dim}")
    distances = []
    for it in rec.iterates:
        diff = linear_combine([(1.0, it), (-1.0, with_cutoff(target, it.cutoff))])
        distances.append(seminorm_bound(diff, spec))
    hits = tuple(k for k, dist in enumerate(distances) if dist < delta)
    # the #{1 <= n <= N : n in A} / N shape of a lower density: the initial
    # vector (k = 0) is listed among the hits but not counted
    proxy = sum(1 for k in hits if k >= 1) / max(rec.steps, 1)
    return replace(
        rec,
        distances=tuple(distances),
        hits=hits,
        density_proxy=proxy,
    )
