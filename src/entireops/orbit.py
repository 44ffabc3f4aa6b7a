"""Finite-horizon orbit statistics for one-axis operators.

Iterating an operator on a truncated series consumes exactness: each step
eats as many guaranteed degrees as the order of the convolution part.
``iterate_orbit`` reads that per step from each iterate's ``exact_degree``,
which ``apply_weyl`` sets by the one exactness rule of the series
primitives, and returns the tuple of iterates; ``measure_visits`` bounds
their distances to a target by one ``seminorm_rows`` call on the block of
differences.

The visit-density number reported here is a finite, one-sided PROXY for the
lower density of hitting times: it counts the iterates T^k x, 1 <= k <= N,
whose semi-norm distance bound to the target falls below delta, divided by
the horizon N.  No finite
computation can certify a positive liminf over all iterates, so the CLI
labels the value accordingly and nothing here extrapolates.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .operators import CROperator, apply_weyl
from .series import SemiNormSpec, TruncatedSeries, _checked_bytes, coefficient_vector, seminorm_rows


class VisitReport(NamedTuple):
    """Visit statistics of an orbit of ``steps`` steps: the ``orbit`` report's keys, in order."""

    steps: int
    hits: tuple[int, ...]
    density_proxy: float
    distances: tuple[float, ...]


def iterate_orbit(
    op: CROperator, x: TruncatedSeries, steps: int
) -> tuple[TruncatedSeries, ...]:
    """The iterates ``(x, Tx, ..., T^steps x)``, tracking exactness per step.

    Each iterate's exact degree is the one ``apply_weyl`` gives it; the
    first iterate with no guaranteed coefficient (exact_degree -1) is a
    ValueError naming its step, and then the first with a non-finite
    coefficient an OverflowError naming its step.  Every iterate is kept,
    so ``steps + 1`` coefficient vectors must fit the byte budget of
    ``series._checked_bytes`` before the first step.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if op.dim != x.dim:
        raise ValueError(f"dim mismatch: operator {op.dim} vs series {x.dim}")
    _checked_bytes((steps + 1) * (16 * len(x.vector) + 1024), f"an orbit of {steps} steps")
    iterates = [x]
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, steps + 1):
            iterates.append(apply_weyl(op, iterates[-1]))
            if iterates[-1].exact_degree < 0:
                raise ValueError(
                    f"exactness budget exhausted: exact_degree {x.exact_degree} "
                    f"supports {step - 1} steps of an order-{op.conv.max_order} "
                    f"convolution part; step {step} of {steps} would exceed it"
                )
            if not np.isfinite(iterates[-1].vector).all():
                raise OverflowError(f"orbit overflows at step {step}: a coefficient is not finite")
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
    A nonzero target coefficient past their cutoff is a ValueError.
    The block of differences and the temporaries of its semi-norms must fit
    the byte budget of ``series._checked_bytes`` before the block is built.
    """
    if not iterates:
        raise ValueError("an orbit needs at least the initial vector")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    first = iterates[0]
    if target.dim != first.dim:
        raise ValueError(f"dim mismatch: orbit {first.dim} vs target {target.dim}")
    if target.vector[len(first.vector):].any():
        raise ValueError(f"target of cutoff {target.cutoff} has a nonzero "
                         f"coefficient past the orbit's cutoff {first.cutoff}")
    # the block, the stacked iterates or their scaled copy, and the float
    # temporaries of seminorm_rows: 48 bytes a cell
    _checked_bytes(48 * len(iterates) * len(first.vector),
                   f"the distances of {len(iterates)} iterates")
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
