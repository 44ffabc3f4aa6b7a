"""Finite-truncation completeness tests for derivative and translate systems.

Whether the span of ``{D^n f}`` (or of a family of translates ``f(. + s)``)
is dense in the space of all entire functions cannot be decided from finite
data.  What can be computed is the rank of the system's coefficient matrix
over the monomials of total degree <= N: the reports therefore state
completeness AT TRUNCATION (N, max_order) only, and expose the singular
value profile so borderline cases can be judged.

Each span matrix is built in one pass by ``series``.  Derivative rows are
one gather (``series._gather_rows``, the gather of ``derivative_rows``)
through one ``(order x row)`` plan over every order of the span, read from
the exponent matrix of the degree <= max_order layout and limited to the
truncation prefix; their weights are the exact integers
``prod_j perm(s_j, n_j)`` rounded once (see ``series``).
Translate rows come from one function, ``translate_rows`` (``translate``
is its one-row case): the same plan with binomial factors
``comb(m + k, k)`` over every order k up to f's cutoff, summed by one matmul
with the sample powers ``s^k``.  Each sample goes through the one point
check, ``series._checked_point``, once, in ``translate_span``, and
``translate_rows`` takes the checked points.  Every span row is exact:
``derivative_span`` refuses an f not exact to N + max_order, and
``translate_span`` a truncation, whose tail reaches every translate.

Rows of derivative matrices grow factorially with the order, so each row is
normalized to unit max-magnitude before the rank computation; the relative
rank threshold then behaves uniformly across orders.  A row is multiplied by
1 / peak, with the bits of a complex division by peak + 0j but for the
sign of a zero.

Translate samples come from ``sample_box``, whose stream is stated here: the
draw of numpy's ``default_rng(seed).uniform`` (``SeedSequence`` into PCG64
XSL-RR 128/64, a double from the top 53 bits of each output), equal to
numpy's bit for bit and written in pure Python at about 1 us a coordinate.
So numpy's random module is never imported, and the samples, with the
report bytes built on them, do not depend on the version of numpy's
Generator.

Every BLAS call of the library (the SVD and the solve here, the matmuls of
``approximate_target`` and ``translate_rows``) runs inside
``series._one_blas_thread``: when numpy's BLAS is the OpenBLAS its wheels
bundle, the thread count is held at 1 for the call and then restored.  The
blocked reductions of a threaded SVD follow the thread count, so this makes
the printed singular values independent of it; they still depend on the
numpy and BLAS build.

Every span the bundled scenarios and the benchmark build has real data.
One rule, ``series._real_span``, decides a span's dtype where it is built,
for both kinds: a span whose short side is at least 64 and whose data (f's
coefficients, and a translate span's shifts) is real is float64 from the
gather to the SVD, at a third to a half of the complex SVD's cost; its
singular values equal the complex ones to within about 1e-15 of the
largest, though not bit for bit.  Any other span is complex128, and
``rank_report`` decomposes every span in the dtype it was built in.  The
gate keeps the bundled spans (at most 21 x 15) complex, as their pinned
reports are: in float64 each would print other last digits in
``diagnostics``.

The same gate decides how a span is decomposed.  Below it, the normalized
span goes to LAPACK whole.  At or above it, ``rank_report`` splits it by
its nonzero pattern: the connected components of the bipartite graph of
its nonzero cells (a signed zero is zero) are the blocks of a permutation
of its rows and columns, and its singular values are exactly the union of
the blocks' (Golub & Van Loan, *Matrix Computations*, 2.4).  Each block is
decomposed alone, the values are merged in descending order and padded
with +0.0 up to ``min(m, n)`` for the zero rows and columns.  A span of one
block of every row and column, such as a translate span, is decomposed
whole, with the bits of the whole-matrix SVD.  Cell (n, m) of a derivative
span is a weight times f_(n+m), so an even generator such as the Gaussian
gives one block per parity class of n, 2^d of them: the 286 x 286 span of
d=3 N=10 is eight blocks of at most 56 x 56.  The values agree with the
whole-matrix SVD's to about 1e-15 of the largest, not bit for bit.
"""

from __future__ import annotations

import math
import operator
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .series import (
    Record,
    TruncatedSeries,
    _checked_bytes,
    _checked_index,
    _checked_point,
    _checked_rows,
    _gather_rows,
    _layout,
    _one_blas_thread,
    _positions,
    _REAL_MIN_SIDE,
    _real_span,
    _size,
    coefficient_vector,
    translate_rows,
)


class SpanMatrix(Record):
    """Coefficient rows of a function system over the degree-<=N monomials.

    Row i holds the coefficients of the i-th system member in graded-lex
    order over ``monomial_basis(dim, truncation)``; ``row_labels`` carries
    the generating data (derivative orders or translation points).  The
    matrix is float64 when ``series._real_span`` holds for the span as
    built (real data, short side at least 64), else complex128.
    """

    matrix: np.ndarray
    row_labels: tuple
    truncation: int
    dim: int
    max_order: int | None

    def __init__(
        self,
        matrix: np.ndarray,
        row_labels: tuple,
        truncation: int,
        dim: int,
        max_order: int | None = None,
    ) -> None:
        vars(self).update(
            matrix=matrix, row_labels=row_labels, truncation=truncation,
            dim=dim, max_order=max_order,
        )
        ambient = _size(self.dim, self.truncation)
        if self.matrix.ndim != 2 or self.matrix.shape[1] != ambient:
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match ambient "
                f"dimension {ambient}"
            )
        if self.matrix.shape[0] != len(self.row_labels):
            raise ValueError("row_labels must align with the matrix rows")


class CompletenessReport(NamedTuple):
    rank: int
    ambient_dim: int
    complete_at_truncation: bool
    truncation: int
    max_order: int | None
    tolerance: float
    singular_values: tuple[float, ...]


class ApproximationResult(NamedTuple):
    """Least-squares derivative combination for a target: the ``approximate`` report's keys, in order."""

    orders: tuple
    coefficients: tuple[complex, ...]
    residual: float

    def coefficient(self, order: Sequence[int]) -> complex:
        """The weight of D^order f; an order absent from ``orders`` is a KeyError."""
        key = _checked_index(len(self.orders[0]), order, "derivative order")
        for label, c in zip(self.orders, self.coefficients):
            if label == key:
                return c
        raise KeyError(f"no derivative order {key} in this result")


def derivative_span(
    f: TruncatedSeries, truncation: int, max_order: int
) -> SpanMatrix:
    """Rows: truncations to degree <= truncation of D^n f for ||n|| <= max_order.

    Every row must be exact, so a non-polynomial f has to be exact to degree
    truncation + max_order.
    """
    if truncation < 0 or max_order < 0:
        raise ValueError("truncation and max_order must be >= 0")
    required = truncation + max_order
    if not f.is_polynomial and f.exact_degree < required:
        raise ValueError(
            f"derivative span needs exact_degree >= {required} "
            f"(truncation {truncation} + max_order {max_order}), "
            f"have {f.exact_degree}"
        )
    # the block is refused before the orders' layout is built; the orders are
    # the basis of degree <= max_order, so none needs the index check, and
    # entries are capped at cutoff + 1, as derivative_rows does
    count = _size(f.dim, max_order)
    _checked_rows(f.dim, f.cutoff, count, truncation, 0)
    capped = np.minimum(_layout(f.dim, max_order).exponents, f.cutoff + 1)
    real = _real_span((count, _size(f.dim, truncation)), f.vector)
    return SpanMatrix(
        matrix=_gather_rows(f, capped, truncation, real=real),
        row_labels=tuple(_positions(f.dim, max_order)),
        truncation=truncation,
        dim=f.dim,
        max_order=max_order,
    )


def translate_span(
    f: TruncatedSeries, truncation: int, samples: Sequence[Sequence[complex]]
) -> SpanMatrix:
    """Rows: truncations of f(. + s) for each sample point s.

    All rows come from one plan gather and one matmul, each exact, so f
    must be a polynomial (a truncation's tail reaches every translate).
    """
    if not f.is_polynomial:
        raise ValueError("translate span needs a polynomial f; for a truncation's stored one, "
                         "pass TruncatedSeries(dim, cutoff, cutoff, True, f.vector)")
    samples = [_checked_point(f.dim, s, "shift") for s in samples]
    if not samples:
        raise ValueError("at least one translation sample required")
    return SpanMatrix(
        matrix=translate_rows(f, samples, truncation),
        row_labels=tuple(samples),
        truncation=truncation,
        dim=f.dim,
    )


_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
#: the 128-bit LCG multiplier of PCG64 (O'Neill 2014; numpy's pcg64.h)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """numpy's ``SeedSequence(seed).generate_state(8, np.uint32)``.

    The seed's 32-bit words, least significant first, are hashed into a pool
    of four words; every pool word is then mixed into every other, and any
    word past the fourth into all four.  The eight output words are hashed
    from the pool in turn.
    """
    entropy = [seed & _M32]
    while seed := seed >> 32:
        entropy.append(seed & _M32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    return words


def _pcg64_doubles(seed: int) -> Iterator[float]:
    """The doubles of numpy's ``default_rng(seed).random()``, bit for bit.

    PCG64 is the XSL-RR 128/64 generator: the 128-bit LCG state is stepped
    before each output, whose 64 bits are the high and low halves XORed
    and rotated right by the top 6 bits of the state.  It is seeded as
    numpy's ``pcg64_set_seed`` does, from the 64-bit words v0..v3 that the
    pairs of ``_seed_words`` make little-endian: initstate = v0 * 2**64 + v1,
    initseq = v2 * 2**64 + v3.  A double is the top 53 bits times 2**-53.
    """
    w = _seed_words(seed)
    v = [w[2 * k] | w[2 * k + 1] << 32 for k in range(4)]
    inc = (v[2] << 64 | v[3]) << 1 & _M128 | 1
    state = ((inc + (v[0] << 64 | v[1])) * _PCG64_MULT + inc) & _M128
    mult, m64, m128, scale = _PCG64_MULT, _M64, _M128, 2.0**-53
    while True:
        state = (state * mult + inc) & m128
        word = (state >> 64 ^ state) & m64
        rot = state >> 122
        yield (((word >> rot | word << 64 - rot) & m64) >> 11) * scale


def sample_box(
    dim: int,
    count: int,
    seed: int,
    low: float = -1.0,
    high: float = 1.0,
) -> list[tuple[float, ...]]:
    """Seeded uniform draw of real sample points from the box [low, high]^dim.

    The points are numpy's ``default_rng(seed).uniform(low, high,
    size=(count, dim))`` in C order, bit for bit, from a pure-Python PCG64
    (``_pcg64_doubles``), so the stream is stated here and numpy's random
    module is never imported.  Each coordinate is ``low + (high - low) * u`` and costs
    about 1 us: 0.4 ms for 396 coordinates, 0.1 s for 10**5.

    Refusals, in this order: a draw whose tuples would pass the byte budget
    (before anything is drawn); a negative seed (ValueError "expected
    non-negative integer"); a non-finite ``high - low`` (OverflowError "high
    - low range exceeds valid bounds"); a ``high - low`` with its sign bit
    set, as ``low > high`` or the box (0.0, -0.0) (ValueError "high - low <
    0"); a negative count or dim.
    """
    _checked_bytes(count * (64 + 40 * dim), f"{count} samples in dim {dim}")
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    low, high = float(low), float(high)
    width = high - low
    if not math.isfinite(width):
        raise OverflowError("high - low range exceeds valid bounds")
    if math.copysign(1.0, width) < 0:
        raise ValueError("high - low < 0")
    if count < 0 or dim < 0:
        raise ValueError("negative dimensions are not allowed")
    u = _pcg64_doubles(seed)
    return [tuple([low + width * next(u) for _ in range(dim)]) for _ in range(count)]


def _blocks(nonzero: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The connected blocks of a pattern: (rows, columns) of each, ascending.

    A block is a connected component of the bipartite graph whose edges are
    the True cells of ``nonzero``; a zero row or column is in none.  From
    the first row not yet placed, its columns' rows and their columns are
    read again until the columns stop growing.  Once every column is
    reached, every nonzero row is in the block, so a dense pattern costs
    one step; a block reached in many steps (a path) costs a read each.
    """
    live = nonzero.any(axis=1)
    seen = ~live
    blocks = []
    while not seen.all():
        cols = nonzero[seen.argmin()]
        while True:
            rows = live if cols.all() else nonzero[:, cols].any(axis=1)
            reach = nonzero[rows].any(axis=0)
            if (reach == cols).all():
                break
            cols = reach
        seen |= rows
        blocks.append((np.flatnonzero(rows), np.flatnonzero(cols)))
    return blocks


def _block_singular_values(m: np.ndarray) -> np.ndarray:
    """numpy's singular values of m, descending, one SVD per connected block.

    Below the gate (a short side under ``_REAL_MIN_SIDE``), or when one
    block holds every row and column, m is decomposed whole.  Otherwise
    each block of its nonzero pattern (``_blocks``; a signed zero is zero)
    is decomposed alone, and the values are merged, padded with +0.0 to
    ``min(m.shape)`` for the zero rows and columns.
    """
    if min(m.shape) < _REAL_MIN_SIDE:
        return np.linalg.svd(m, compute_uv=False)
    blocks = _blocks(m != 0)
    if len(blocks) == 1 and (len(blocks[0][0]), len(blocks[0][1])) == m.shape:
        return np.linalg.svd(m, compute_uv=False)
    parts = [np.linalg.svd(m[np.ix_(r, c)], compute_uv=False) for r, c in blocks]
    pad = min(m.shape) - sum(len(p) for p in parts)
    return np.sort(np.concatenate([*parts, np.zeros(pad)]))[::-1]


def rank_report(span: SpanMatrix, tolerance: float) -> CompletenessReport:
    """Numerical rank of the (row-normalized) span matrix via SVD.

    rank = number of singular values above tolerance * largest; the full
    spectrum of ``min(m, n)`` values is returned as diagnostics.  A span
    whose short side is at least the gate (``series._REAL_MIN_SIDE``, 64)
    is decomposed one connected block of its nonzero pattern at a time, all
    on one BLAS thread, the values merged in descending order and padded
    with +0.0 for its zero rows and columns; a smaller span, or one block
    of every row and column, is decomposed whole.  Deterministic for fixed
    input on the same numpy and BLAS build (see the module docstring).  A
    span with an entry of non-finite modulus is refused with ValueError.
    """
    if not tolerance > 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    if span.matrix.shape[0] == 0:
        raise ValueError("empty span matrix")
    with np.errstate(over="ignore"):  # refused below
        peak = np.abs(span.matrix).max(axis=1)
    if not math.isfinite(peak.max()):  # a NaN propagates through max
        raise ValueError("span matrix has an entry of non-finite modulus")
    peak[peak == 0] = 1.0  # zero rows stay as they are
    with _one_blas_thread:
        sv = _block_singular_values(span.matrix * (1 / peak)[:, None])
    rank = int(np.count_nonzero(sv > tolerance * sv[0]))  # 0 for a zero matrix
    ambient = span.matrix.shape[1]
    return CompletenessReport(
        rank=rank,
        ambient_dim=ambient,
        complete_at_truncation=rank == ambient,
        truncation=span.truncation,
        max_order=span.max_order,
        tolerance=tolerance,
        singular_values=tuple(float(s) for s in sv),
    )


def approximate_target(
    f: TruncatedSeries,
    target: TruncatedSeries,
    truncation: int,
    max_order: int,
) -> ApproximationResult:
    """Least-squares solve for ``sum_n c_n D^n f = target`` in coefficient norm.

    The target must be a polynomial of degree <= truncation; the residual is
    the Euclidean norm of the defect over the degree-<=truncation monomials.
    """
    if target.dim != f.dim:
        raise ValueError(f"dim mismatch: generator {f.dim} vs target {target.dim}")
    if not target.is_polynomial:
        raise ValueError("the approximation target must be a polynomial")
    if any(sum(n) > truncation for n, _ in target.terms()):
        raise ValueError(f"target degree exceeds truncation {truncation}")
    span = derivative_span(f, truncation, max_order)
    a = span.matrix.T.astype(complex, copy=False)  # a @ c keeps a complex span's bits
    t = coefficient_vector(target, truncation)
    with np.errstate(over="ignore", invalid="ignore"):
        with _one_blas_thread:
            c, _, _, _ = np.linalg.lstsq(a, t, rcond=None)
            defect = a @ c - t
        residual = float(np.linalg.norm(defect))
        if residual == math.inf:  # the sum of squares overflowed, not the norm
            scale = np.abs(defect).max()
            residual = float(scale * np.linalg.norm(defect / scale))
    if not math.isfinite(residual):  # a non-finite coefficient leaves one here too
        raise OverflowError("the least-squares solution is not finite")
    return ApproximationResult(
        orders=span.row_labels,
        coefficients=tuple(complex(v) for v in c),
        residual=residual,
    )
