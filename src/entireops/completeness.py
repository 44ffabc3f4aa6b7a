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
rank threshold then behaves uniformly across orders.

Translate samples come from ``sample_box``, whose stream is stated here: the
draw of numpy's ``default_rng(seed).uniform`` (``SeedSequence`` into PCG64
XSL-RR 128/64, a double from the top 53 bits of each output), equal to
numpy's bit for bit and written in pure Python at about 1 us a coordinate.
So numpy's random module is never imported, and the samples, with the
report bytes built on them, do not depend on the version of numpy's
Generator.

The library's two LAPACK calls, the SVD of ``rank_report`` and the solve of
``approximate_target``, run inside ``_one_blas_thread``: when numpy's BLAS is
the OpenBLAS its wheels bundle, the thread count is held at 1 for the call
and then restored.  The blocked reductions of a threaded SVD follow the
thread count, so this makes the printed singular values independent of it;
they still depend on the numpy and BLAS build.

The SVD is ``_singular_values``.  Every span the bundled scenarios and the
benchmark build has real data, stored as complex128.  A span with no
imaginary part whose short side is at least ``_REAL_MIN_SIDE`` (64) is
decomposed as its real part, in float64 arithmetic, at a third to a half of
the complex SVD's cost; its singular values equal the complex ones to
within about 1e-15 of the largest, though not bit for bit.  Any other
matrix is decomposed as it is.  The gate is there only for the bundled
spans (at most 21 x 15), whose reports are pinned byte for byte: decomposed
in real arithmetic, each would print other last digits in ``diagnostics``.
"""

from __future__ import annotations

import ctypes
import math
import operator
import os
import threading
from functools import cache
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
    _positions,
    _size,
    coefficient_vector,
    translate_rows,
)


class SpanMatrix(Record):
    """Coefficient rows of a function system over the degree-<=N monomials.

    Row i holds the coefficients of the i-th system member in graded-lex
    order over ``monomial_basis(dim, truncation)``; ``row_labels`` carries
    the generating data (derivative orders or translation points).
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
    _checked_rows(f.dim, f.cutoff, _size(f.dim, max_order), truncation, 0)
    capped = np.minimum(_layout(f.dim, max_order).exponents, f.cutoff + 1)
    return SpanMatrix(
        matrix=_gather_rows(f, capped, truncation),
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


@cache
def _openblas_thread_calls() -> tuple | None:
    """The (get, set) thread-count calls of the OpenBLAS numpy's wheel loaded, or None.

    Looked up once, at the first LAPACK call, not at import.  The wheel
    keeps its libraries in ``numpy.libs`` beside the package; another BLAS
    (MKL, Accelerate, a system build) has no such directory or symbol, and
    is left as it is.  The names are those a numpy >= 2 wheel's
    scipy-openblas exports.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = sorted(os.listdir(libs))
    except OSError:
        return None
    for name in names:
        if "openblas" not in name:
            continue
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


class _OneBlasThread:
    """Context manager: numpy's OpenBLAS runs on one thread inside, as before outside.

    Entries are counted under a lock, so nested entries, an exception and
    Python threads that overlap all leave the caller's count as it was: the
    first entrant saves it and sets 1, the last one out restores it.  With
    no OpenBLAS setter the calls run unpinned.

    One thread is the one count every host has, so a build's bytes do not
    depend on the thread setting.  It is also the faster count for every
    span the tasks build today.  A float64 SVD on a 2-vCPU x86-64 host,
    one thread against two: 286 x 286 7.5-7.7 against 9.5-9.8 ms, 455 x 455
    24-27 against 25-29 ms, 1000 x 1000 0.31 against 0.24 s; so two threads
    win from about the 455 x 455 span of d=3 N=12.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 1

    def __enter__(self) -> None:
        with self._lock:
            calls = _openblas_thread_calls()
            if calls is not None and self._depth == 0:
                get, set_ = calls
                self._saved = get()
                set_(1)
            self._depth += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            calls = _openblas_thread_calls()
            if calls is not None and self._depth == 0:
                calls[1](self._saved)


_one_blas_thread = _OneBlasThread()

#: the short side from which a span with no imaginary part is decomposed in
#: real arithmetic; every bundled span (at most 21 x 15) stays below it, so
#: its reports keep the bytes of the complex SVD
_REAL_MIN_SIDE = 64


def _singular_values(m: np.ndarray) -> np.ndarray:
    """``np.linalg.svd(m, compute_uv=False)`` on one BLAS thread.

    A complex ``m`` with no imaginary part whose short side is at least
    ``_REAL_MIN_SIDE`` is decomposed as ``m.real``, in float64 arithmetic;
    any other ``m`` as it is.
    """
    if min(m.shape) >= _REAL_MIN_SIDE and not m.imag.any():
        m = m.real
    with _one_blas_thread:
        return np.linalg.svd(m, compute_uv=False)


def rank_report(span: SpanMatrix, tolerance: float) -> CompletenessReport:
    """Numerical rank of the (row-normalized) span matrix via SVD.

    rank = number of singular values above tolerance * largest; the full
    spectrum is returned as diagnostics.  Deterministic for fixed input on
    the same numpy and BLAS build.  When that BLAS is the OpenBLAS numpy's
    wheels bundle, the SVD runs on one BLAS thread (``_one_blas_thread``),
    so the values do not depend on the thread count; under another BLAS a
    different thread count can still move the last bits of the small ones.
    """
    if not tolerance > 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    if span.matrix.shape[0] == 0:
        raise ValueError("empty span matrix")
    m = span.matrix.copy()
    peak = np.abs(m).max(axis=1)
    scaled = peak > 0  # zero rows stay as they are
    np.divide(m, peak[:, None], out=m, where=scaled[:, None])
    sv = _singular_values(m)
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
    a = span.matrix.T
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
