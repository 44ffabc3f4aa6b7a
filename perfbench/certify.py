"""Exact ranks of derivative-span matrices over the prime field GF(2^31 - 1).

Independent of ``entireops``: the kernel recurrence runs in ``Fraction``
arithmetic on the scenario's (dyadic, hence exact) JSON numbers, the span
matrix is reduced mod p, and its rank is found by Gaussian elimination in
int64 numpy rows (products of two residues stay below 2^62), the word-size
prime-field technique of Dumas, Giorgi & Pernet (FFLAS/FFPACK, ACM TOMS
2008).  Since rank mod p <= rank over Q <= ambient, a full rank mod p
certifies a full rank over Q.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np

P = 2**31 - 1


def _real(pair) -> Fraction:
    re, im = pair
    if im:
        raise ValueError("exact ranks are implemented for real data only")
    return Fraction(re)


def axis_kernel(problem: dict, degree: int) -> list[Fraction]:
    """Coefficients f_0..f_degree of ``C(D) f = a z f`` from the seeds, exactly.

    ``sum_{n<=p} c_n (k+n)!/k! f_{k+n} = a f_{k-1}`` solved for ``f_{k+p}``.
    """
    c = [_real(x) for x in problem["charpoly"]]
    a = _real(problem["a"])
    p = len(c) - 1
    f = [_real(s) for s in problem["seeds"]] + [Fraction(0)] * (degree + 1 - p)
    for k in range(degree + 1 - p):
        rhs = a * f[k - 1] if k >= 1 else Fraction(0)
        acc = sum(c[n] * math.perm(k + n, n) * f[k + n] for n in range(p))
        f[k + p] = (rhs - acc) / (c[p] * math.perm(k + p, p))
    return f[: degree + 1]


def _basis(dim: int, degree: int) -> list[tuple[int, ...]]:
    return [n for n in product(range(degree + 1), repeat=dim) if sum(n) <= degree]


def _mod(x: Fraction) -> int:
    if x.denominator % P == 0:
        raise ZeroDivisionError("denominator divisible by p")
    return x.numerator % P * pow(x.denominator, P - 2, P) % P


def derivative_span_mod_p(coeff, dim: int, truncation: int, max_order: int) -> np.ndarray:
    """Rows ``D^n f`` (``|n| <= max_order``) over the monomials of degree <= truncation.

    ``coeff(idx)`` returns the exact Taylor coefficient of f at ``idx``.
    """
    rows = []
    for n in _basis(dim, max_order):
        row = []
        for m in _basis(dim, truncation):
            idx = tuple(a + b for a, b in zip(m, n))
            weight = math.prod(math.perm(i, k) for i, k in zip(idx, n))
            row.append(_mod(weight * coeff(idx)))
        rows.append(row)
    return np.array(rows, dtype=np.int64)


def kernel_span_mod_p(problems: list[dict], truncation: int, max_order: int) -> np.ndarray:
    """Derivative span of the tensor product of per-axis kernel solutions."""
    axes = [axis_kernel(p, truncation + max_order) for p in problems]

    def coeff(idx):
        return math.prod(f[i] for f, i in zip(axes, idx))

    return derivative_span_mod_p(coeff, len(problems), truncation, max_order)


def rank_mod_p(matrix: np.ndarray) -> int:
    m = np.array(matrix, dtype=np.int64) % P
    rank = 0
    rows, cols = m.shape
    for col in range(cols):
        pivots = np.nonzero(m[rank:, col])[0]
        if pivots.size == 0:
            continue
        r = rank + pivots[0]
        m[[rank, r]] = m[[r, rank]]
        m[rank] = m[rank] * pow(int(m[rank, col]), P - 2, P) % P
        below = m[rank + 1:, col].copy()
        m[rank + 1:] = (m[rank + 1:] - np.outer(below, m[rank])) % P
        rank += 1
        if rank == rows:
            break
    return rank
