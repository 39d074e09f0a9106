"""Exact solution counts for x0*y0 + x1*y1 + x2*y2 = 0.

Quantities (all exact integers):

  * M(X, Y)   -- pairs x, y in (Z\\{0})^3 on the cone with |x| <= X,
                 |y| <= Y (sup norm).  ``m_naive`` enumerates, ``m_fast``
                 uses the divisor-pair table r(n):

                     M = sum_{a+b+c=0, abc != 0} r(a) r(b) r(c),

                 and since every zero-sum triple of nonzero integers has
                 its largest-modulus entry equal to minus the sum of the
                 other two, the six sign/position patterns collapse to

                     M = 6 * sum_{a,b >= 1} r(a) r(b) r(a+b),

                 one self-convolution of r, taken with r(0) = 0.  By
                 Parseval the sum is (1/L) sum_k |R_k|^2 Re R_k for the
                 DFT R of r at a length L >= 2XY: one forward float64
                 transform, with no square, no inverse transform and no
                 int64 dot.  A rounding bound after Percival (Math.
                 Comp. 72, 2003), checked before the transform from row
                 norms computed exactly in integers, proves the rounded
                 sum exact.  Boxes are counted in batches: the r-tables
                 of several boxes, zero-padded to one width, go through
                 one 2-D rfft along the rows under the bound of the
                 largest row.
  * P(X)      -- all integer solutions with |coordinates| <= X, zeros
                 allowed.
  * M'(B)     -- nonzero-coordinate pairs with |x|^2 |y|^2 <= B, i.e.
                 |x| |y| <= Z = isqrt(B).  Split at s = isqrt(Z) by the
                 hyperbola method, and since M is symmetric in X, Y:

                     M'(B) = 2 sum_{k <= s} [M(k, Z//k) - M(k-1, Z//k)]
                             - M(s, s),

                 2s + 1 box reads (the shell sum over all k <= Z needs
                 the same boxes, as its blocks of k > s telescope to
                 M(Z//q, q) - M(Z//(q+1), q)).  The uncached boxes are
                 counted in batches, and the sum reads the counts the
                 batch routine returns.
  * 4*N0(B)   -- primitive nonzero-coordinate pairs, by Moebius inversion
                 4 N0(B) = sum_{nm <= sqrt(B)} mu(n) mu(m) M'(B/(nm)^2)
                         = sum_{c <= Z} (mu*mu)(c) M'(Z // c).
  * W1..W4    -- primitive pairs on coordinate hyperplanes with exactly j
                 of the six coordinates zero, via their structural
                 parametrizations in coprime-pair counts (cross-checked
                 by enumeration).
  * 4*N(B)    -- all primitive pairs of height <= B:
                 4N = 4N0 + W1 + W2 + W3 + W4.

Every floor-division sum goes through one block walk, ``_blocks``: the lists
of the starts and ends of the runs of d on which every n // d is constant,
built once with no per-step generator.  One block
sum, ``_block_sum(f, prefix, *ns) = sum_d g(d) f(n // d, ...)``, weighs one
f-value per run by a difference of the prefix sums of g.  With g = mu and
the Mertens sums the shared sieve carries it is the Moebius sum
``_moebius``, behind the coprime-pair counts of W1..W3 (cached by
isqrt(B), as M' is); the primitive row of the pair oracle walks the same
Mertens blocks.  With g = mu*mu, whose prefix sums the shared sieve also
carries (``mu_square``), it is 4N0: one walk over c, since
(z // n) // m = z // (nm).

Every fast path has a naive enumeration oracle in this module.  The
oracles share one kernel that uses no r(n): x runs over the shells
max |x_i| = k, up to order and signs, and for each (x, y0) the (y1, y2)
on the line x1 y1 + x2 y2 = -x0 y0 are counted in closed form, bucketed by
how many of the six coordinates vanish (``_line_counts``).  The rows x
of all shells are numbered in one sequence, and shells that share their
y0 columns form one group (``_kernel_hist``): all of M(X, Y) and P(X) is
one group, and the pair table splits |x| |y| <= Z at isqrt(Z) as M'
does (``_pair_table``).  Every vectorised pass takes a tile of at most
``_BLOCK_CELLS`` (x, y0) cells, so the kernel's memory does not grow
with the box: a group's rows are cut into tiles, and a box wider than a
tile into slices of columns, each built when it is counted.  All
counters fit comfortably in checked 64-bit range at the configured
budgets; results are returned as Python ints and verified nonnegative
and < 2^63 (an OverflowError is raised rather than wrapping).  A failed
rounding bound raises FloatingPointError; there is no fallback path.

Counting functions are pure; the module-level caches only grow, except
the box cache, which is emptied when a batch would take it past
``_BOXES_MAX`` boxes.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import repeat

import numpy as np

from .arith import arith_table, build_r_table
from .errors import ResourceLimitError

# Cost caps: the box kernel of m_naive and p_count visits about
# (X+1)^3 (Y+1) / 6 (x, y0) cells at 70-100 ns each (2 cores, numpy 2.4.6:
# 100 ns at (11, 10), 85 ns at (26, 12) and (60, 60)), so the cap is about
# a second; the pair oracle's walk is capped by the cells of the box
# (isqrt(Z), Z) that holds it.  m_fast transforms a length-XY table by an
# FFT of length ~2XY, O(XY log XY).
M_NAIVE_MAX_CELLS = 10**7
M_FAST_MAX_XY = 200_000

_INT63 = 1 << 63


@dataclass(frozen=True)
class BoxCount:
    """An exact M(X, Y) value; the order-16 sign group forces 16 | count."""

    X: int
    Y: int
    count: int

    def __post_init__(self):
        if self.count % 16:
            raise ValueError(f"M({self.X},{self.Y}) = {self.count} is not divisible by 16")


@dataclass(frozen=True)
class HeightCounts:
    """All height-<= B counts, tied together by 4N - 4N0 = W1+W2+W3+W4."""

    B: int
    mprime: int
    n0_times4: int
    n_times4: int
    W1: int
    W2: int
    W3: int
    W4: int

    def __post_init__(self):
        if self.n_times4 - self.n0_times4 != self.W1 + self.W2 + self.W3 + self.W4:
            raise ValueError(f"boundary decomposition violated at B = {self.B}")
        if self.B >= 1 and self.W4 != 24:
            raise ValueError(f"W4 = {self.W4} != 24 at B = {self.B}")


def _checked(count) -> int:
    count = int(count)
    if not 0 <= count < _INT63:
        raise OverflowError(f"count {count} outside checked 64-bit range")
    return count


# ---------------------------------------------------------------------------
# Enumeration kernel: the y on x.y = 0, in tiles of at most _BLOCK_CELLS cells
# ---------------------------------------------------------------------------

# The tile: one _line_counts pass takes at most this many (x, y0) cells, at
# about 100 bytes each while it runs, so the kernel's memory does not grow
# with the box.  Timed on 2 cores (numpy 2.4.6) at 2^12, 2^13 and 2^14
# cells: m_naive(19, 8) took 1.6, 1.4 and 1.7-2.2 ms, p_count(12) 0.7, 0.6
# and 0.6 ms, m_naive(26, 12) 4.7, 4.0 and 5.1 ms, and the pair table at
# Z = 38 7.1-8.7, 7.3 and 7.4-7.8 ms.
_BLOCK_CELLS = 1 << 13


def _box_columns(q: int, ys: range):
    """The y0 in ``ys`` of a box |y| <= q as kernel columns (y0, ym, weight):
    0 <= y0 <= q only, weighted 2 for y0 > 0 because y -> -y keeps every
    count."""
    y0 = np.arange(ys.start, ys.stop, dtype=np.int64)
    return y0, np.full(len(y0), q, dtype=np.int64), np.where(y0 > 0, 2, 1)


def _reduced(x1, k):
    """(a, b, g): the line x1 y1 + k y2 = c as a y1 + b y2 = c / g, with
    g = gcd(x1, k) and gcd(a, b) = 1.  x1 = 0 only at x = (0, 0, k), where
    c = 0 and a = 1 bounds y1 to the box just as a = 0 would."""
    g = np.gcd(x1, k)
    return np.maximum(x1 // g, 1), k // g, g


def _line_counts(x0, x1, k, inv, y0, ym, wy) -> np.ndarray:
    """Weighted counts of y != 0 on x.y = 0 for each row x = (x0, x1, k), by zero count of y.

    ``x0 <= x1 <= k`` and ``inv`` are int64 arrays of length n, ``inv``
    the inverse of a mod b (``_reduced``) for each row; the columns
    ``y0, ym`` (length m, 0 <= y0 <= ym) fix y0 and the box |y| <= ym,
    and ``wy`` (shape (m,) or (m, r)) weights them.  Entry [i, j] of the
    (n, 3[, r]) result sums wy over the columns times the number of y
    with j zero coordinates.  For each (x, y0) the (y1, y2) on the line
    x1 y1 + k y2 = c = x0 y0 (the sign of c is immaterial, the box being
    symmetric) form an arithmetic progression in y1, counted in closed
    form; the at most one point with y1 = 0, the points with y2 = 0 and
    the origin are split off by inclusion-exclusion.
    """
    x0, x1, k, inv = (v[:, None] for v in (x0, x1, k, inv))
    a, b, g = _reduced(x1, k)
    c = x0 * y0
    cg, rem = np.divmod(c, g)
    r = cg * inv % b  # the y1 on the line are r + b t
    lo = np.maximum(-ym, -((b * ym - cg) // a))  # |y2| = |cg - a y1| / b <= ym
    hi = np.minimum(ym, (cg + b * ym) // a)
    line = np.maximum((hi - r) // b - (lo - 1 - r) // b, 0) * (rem == 0)
    y1_zero = (c % k == 0) & (c <= k * ym)
    y2_zero = np.where(x1 > 0, (rem == 0) & (cg % a == 0) & (cg <= a * ym), line)
    origin = c == 0
    e0 = line - y1_zero - y2_zero + origin
    e1 = y1_zero + y2_zero - 2 * origin
    # y0 = 0 adds one zero and turns the origin of the line into y = 0
    z = y0 == 0
    return np.stack([np.where(z, 0, e0) @ wy, np.where(z, e0, e1) @ wy, np.where(z, e1, origin) @ wy], axis=1)


def _kernel_hist(groups, top: int, primitive: bool = False) -> np.ndarray:
    """The line counts of the x-shells 1 <= k <= top, weighted and bucketed
    by the total zero count of (x, y): a (5,) histogram, or (5, 2) with
    ``primitive``, whose second column keeps only the primitive x.

    Permuting the coordinates of x and y together, and flipping x_i and y_i
    together, keep x.y, |y|, gcd(y) and the zero count.  So x runs over
    0 <= x0 <= x1 <= x2 = k, weighted by its distinct orderings times its
    2^(#nonzero x_i) sign patterns.  These rows are numbered in one
    sequence: shell k starts at row k(k+1)(k+2)/6, and its (x0, x1) are the
    first (k+1)(k+2)/2 pairs lo <= hi of ``np.tril_indices(top + 1)``, which
    come hi-major.  The same pairs read as (x1, k) give the inverses mod b
    (``_reduced``), taken once per call: the k + 1 pairs of shell k start at
    k(k+1)/2, and the pair (0, 0) of shell 0 is skipped.

    ``groups`` yields (ks, columns): a range of consecutive shells and the
    kernel columns they share (with ``primitive``, two weight columns).
    Each group's rows are counted in tiles of at most ``_BLOCK_CELLS``
    cells (at least one row), every tile built when it is counted.
    """
    lo, hi = np.tril_indices(top + 1)[::-1]
    a, b, _ = _reduced(lo[1:], hi[1:])
    # memoryviews yield Python ints one at a time, where .tolist() would hold them all
    inv = np.fromiter(map(pow, memoryview(a), repeat(-1), memoryview(b)), np.int64, len(a))
    del a, b
    first = np.array([k * (k + 1) * (k + 2) // 6 for k in range(top + 2)])  # the first row of each shell
    shape = (2,) if primitive else ()
    by_zeros = np.zeros((3, 3, *shape), dtype=np.int64)
    for ks, columns in groups:
        step = max(1, _BLOCK_CELLS // len(columns[0]))
        stop = int(first[ks.stop])
        for i in range(int(first[ks.start]), stop, step):
            row = np.arange(i, min(i + step, stop))
            k = np.searchsorted(first, row, side="right") - 1
            at = row - first[k]
            x0, x1 = lo[at], hi[at]
            orderings = 6 // ((1 + (x0 == x1)) * (1 + (x1 == k)))  # 6, 3, or 1 when x0 = x1 = k
            weight = orderings << (1 + (x0 > 0) + (x1 > 0))
            if primitive:
                weight = np.stack([weight, weight * (np.gcd(np.gcd(x0, x1), k) == 1)], axis=1)
            counts = weight[:, None] * _line_counts(x0, x1, k, inv[k * (k + 1) // 2 + x1 - 1], *columns)
            # sum_i weight_i counts[i, j] by zeros_i, the zero count of x, as one int64
            # product by the indicator rows of zeros_i = 0, 1, 2 (np.add.at took 2-3 times as long)
            zeros = (x0 == 0).astype(np.int64) + (x1 == 0)
            by_zeros += np.tensordot((zeros == np.arange(3)[:, None]).astype(np.int64), counts, 1)
    hist = np.zeros((5, *shape), dtype=np.int64)
    for z, part in enumerate(by_zeros):
        hist[z : z + 3] += part  # zeros_i + j, the total zero count
    return hist


# ---------------------------------------------------------------------------
# M(X, Y)
# ---------------------------------------------------------------------------


def _check_cells(X: int, Y: int) -> None:
    """Refuse a kernel walk held by the box (X, Y) of more than
    ``M_NAIVE_MAX_CELLS`` (x, y0) cells, before any work."""
    if (X + 1) ** 3 * (Y + 1) // 6 > M_NAIVE_MAX_CELLS:
        raise ResourceLimitError(f"box kernel cells (X+1)^3 (Y+1)/6 > {M_NAIVE_MAX_CELLS}")


def _box_hist(X: int, Y: int) -> np.ndarray:
    """Pairs x, y != 0 on the cone with |x| <= X, |y| <= Y, by zero count,
    the y0 columns in slices of one tile's width, each built when counted."""
    _check_cells(X, Y)
    slices = (range(y, min(y + _BLOCK_CELLS, Y + 1)) for y in range(0, Y + 1, _BLOCK_CELLS))
    return _kernel_hist(((range(1, X + 1), _box_columns(Y, ys)) for ys in slices), X)


def m_naive(X, Y) -> int:
    """M(X, Y) by enumeration: the zero-free bucket of the line-counting kernel."""
    X, Y = math.floor(X), math.floor(Y)
    if X < 1 or Y < 1:
        raise ValueError("box bounds must be >= 1")
    return _checked(_box_hist(X, Y)[0])


_EPS = 2.0**-53  # unit roundoff of float64


@lru_cache(maxsize=None)
def _smooth_numbers(bits: int) -> list[int]:
    """The numbers 2^a 3^b 5^c below 2^bits, ascending."""
    top, out, p5 = 1 << bits, [], 1
    while p5 < top:
        p35 = p5
        while p35 < top:
            out.extend(p35 << a for a in range(bits - p35.bit_length() + 1))
            p35 *= 3
        p5 *= 5
    return sorted(out)


def _smooth_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= max(n, 2): a length pocketfft transforms
    quickly.  Looked up in a table of at least 2^20, built once: a height
    run asks for 187 different lengths in its 196 batches (seed 7)."""
    n = max(n, 2)
    table = _smooth_numbers(max(n.bit_length() + 1, 20))
    return table[bisect_left(table, n)]


def _fft_growth(length: int) -> float:
    """Percival's growth factor eta at transform length ``length``: the
    computed DFT y' of x satisfies ||y' - y||_2 <= eta ||y||_2, with

        eta = (1+e)^(3n) (1+e sqrt5)^(3n+1) (1+b)^(3n) - 1,

    n = ceil(log2 length), e the unit roundoff, and b = e the error of a
    twiddle factor (Percival, Math. Comp. 72 (2003)).  This is the growth
    of the three transforms of an FFT square, so it over-counts the one
    forward pass it is used for.  The bound is derived for radix-2
    transforms; pocketfft's radix-3 and radix-5 passes are counted as
    n = ceil(log2 length) levels.
    """
    n = (length - 1).bit_length()
    return math.expm1(6 * n * math.log1p(_EPS) + (3 * n + 1) * math.log1p(_EPS * math.sqrt(5)))


def _triple_sums(rows: np.ndarray) -> list[int]:
    """sum_{a, b >= 1} r(a) r(b) r(a+b) for each row of an integer (k, w)
    array, row[n] = r(n), row[0] = 0, zero past the row's own N.

    By Parseval, with R = DFT_L(r) at L >= 2N (a + b >= L only where
    a + b = L = 2N, which wraps to r(0) = 0),

        S = (1/L) sum_{k < L} |R_k|^2 Re R_k,

    and each rfft bin f other than 0 and L/2 stands for f and L - f: one
    forward rfft per batch gives every S, with no inverse transform.

    Rounding.  Let P = ||r||_1 ||r||_2^2; then S <= P, and
    sum_k |R_k|^3 <= sup|R| ||R||_2^2 <= L P, as sup|R_k| <= ||r||_1
    (Young's inequality ||r*r||_2 <= ||r||_1 ||r||_2 gives the same).  The
    computed spectrum is R + d with ||d||_2 <= eta ||R||_2 = eta sqrt(L)
    ||r||_2 (``_fft_growth``), and
    | |R+d|^2 (R+d) - |R|^2 R | <= 3|R|^2 |d| + 3|R| |d|^2 + |d|^3 sums
    (Cauchy-Schwarz, ||d||_3 <= ||d||_2, ||r||_2 <= ||r||_1) to at most
    L P (3 eta + 3 eta^2 + eta^3 sqrt(L)).  Forming |R|^2 Re R (3
    roundings), numpy's pairwise row sum (leaves of up to 128 items, under
    a tree less than n = ceil(log2 L) deep), the weights and the division
    by L take gamma_m = m e / (1 - m e) of the computed sum of |R|^3 with
    m below n + 40; gamma_(n+140) also covers that sum's excess over L P.
    So each S is within

        (3 eta + 3 eta^2 + eta^3 sqrt(L) + gamma_(n+140)) P

    of the computed value, which rounds to S while this is < 1/2 and
    P < 2^52.  Both are checked at the batch's largest P before any
    transform (FloatingPointError).  The norms are exact int64 sums; a row
    whose peak^2 times the width could wrap raises OverflowError.
    """
    width = rows.shape[1]
    mags = np.abs(rows)
    if int(mags.max(initial=0)) ** 2 * width >= _INT63:
        raise OverflowError("r-table row norms could exceed the int64 range")
    norm1 = mags.sum(axis=1, dtype=np.int64).tolist()
    norm2 = np.einsum("ij,ij->i", rows, rows, dtype=np.int64).tolist()
    worst = max(a * b for a, b in zip(norm1, norm2))
    length = _smooth_length(2 * (width - 1))
    n = (length - 1).bit_length()
    eta = _fft_growth(length)
    gamma = (n + 140) * _EPS / (1 - (n + 140) * _EPS)
    bound = (3 * eta + 3 * eta * eta + eta**3 * math.sqrt(length) + gamma) * worst
    if bound >= 0.5 or worst >= 1 << 52:
        raise FloatingPointError(f"FFT rounding bound {bound:.3g} >= 1/2: the triple sums would not be exact")
    spectrum = np.fft.rfft(rows, length, axis=1)
    re, im = spectrum.real, spectrum.imag
    im *= im
    im += re * re
    im *= re  # |R_f|^2 Re R_f
    totals = 2 * im.sum(axis=1) - im[:, 0]
    if length % 2 == 0:
        totals -= im[:, -1]  # the Nyquist bin stands for itself alone
    return [round(t / length) for t in totals.tolist()]


# A batch transforms its boxes' r-tables together while its rows times the
# largest transform size 2XY stay within this many points; a larger box is
# a batch of one.  One forward rfft per batch, under one Parseval rounding
# bound: no square, no inverse transform and no int64 dot.
_BATCH_POINTS = 1 << 15
# M(X, Y) for X <= Y, emptied when a batch would take it past the cap.
_BOXES: dict[tuple[int, int], int] = {}
_BOXES_MAX = 200_000


def _batches(boxes):
    """Runs of consecutive boxes, sorted by XY, within _BATCH_POINTS."""
    batch = []
    for X, Y in boxes:
        if batch and (len(batch) + 1) * 2 * X * Y > _BATCH_POINTS:
            yield batch
            batch = []
        batch.append((X, Y))
    if batch:
        yield batch


def _check_xy(xy: int) -> None:
    if xy > M_FAST_MAX_XY:
        raise ResourceLimitError(f"m_fast FFT square capped at X*Y <= {M_FAST_MAX_XY}")


def _count_boxes(boxes) -> list[int]:
    """M(X, Y) for each box (X, Y) of ``boxes``, in order.

    Boxes with a zero side count 0.  Cached boxes are read first; the rest
    are counted smallest first, in batches whose r(0..XY) rows, filled in
    place by ``build_r_table``, are zero-padded rows of one forward
    transform (``_triple_sums``), and a batch is cached only when all its
    counts are known.  The counts
    returned do not depend on the cache keeping them, which a later batch
    may empty.  A box with XY > M_FAST_MAX_XY is refused before any work.
    """
    keys = [(X, Y) if X <= Y else (Y, X) for X, Y in boxes]
    known = {box: 0 if box[0] == 0 else _BOXES.get(box) for box in keys}
    todo = sorted((box for box, count in known.items() if count is None), key=lambda b: (b[0] * b[1], b))
    _check_xy(todo[-1][0] * todo[-1][1] if todo else 0)
    for batch in _batches(todo):
        rows = np.zeros((len(batch), 1 + max(X * Y for X, Y in batch)), dtype=np.int32)  # r(n) <= 2 min(X, Y)
        for row, (X, Y) in zip(rows, batch):
            build_r_table(X, Y, out=row[1:])
        counted = [_checked(6 * s) for s in _triple_sums(rows)]
        if len(_BOXES) + len(batch) > _BOXES_MAX:
            _BOXES.clear()
        _BOXES.update(zip(batch, counted))
        known.update(zip(batch, counted))
    return [known[box] for box in keys]


def m_fast(X, Y) -> int:
    """M(X, Y) via the coefficient identity (one exact Parseval sum of r).

    Real-valued bounds are floored: a box count only sees integer points.
    Results are memoised; X, Y enter symmetrically.  A box not yet cached
    is counted as a batch of one.
    """
    X, Y = math.floor(X), math.floor(Y)
    if X < 0 or Y < 0:
        raise ValueError("box bounds must be nonnegative")
    return _count_boxes([(X, Y)])[0]


def box_count(X: int, Y: int) -> BoxCount:
    return BoxCount(X=X, Y=Y, count=m_fast(X, Y))


# ---------------------------------------------------------------------------
# P(X): zeros allowed
# ---------------------------------------------------------------------------


def p_count(X) -> int:
    """P(X): every integer solution with |coordinates| <= X, zeros allowed,
    by the kernel of m_naive(X, X) under its cap: X <= 87.  A real bound is
    floored."""
    X = math.floor(X)
    if X < 1:
        raise ValueError("X must be >= 1")
    # plus x = 0 with every y, and y = 0 with every x != 0
    return _checked(_box_hist(X, X).sum() + 2 * (2 * X + 1) ** 3 - 1)


def p_count_tiny(X: int) -> int:
    """Independent pure-Python oracle for P(X); feasible only for X <= 3."""
    if X > 3:
        raise ResourceLimitError("p_count_tiny is for X <= 3")
    rng = range(-X, X + 1)
    total = 0
    for x0 in rng:
        for x1 in rng:
            for x2 in rng:
                for y0 in rng:
                    for y1 in rng:
                        s = x0 * y0 + x1 * y1
                        if x2 != 0:
                            if s % x2 == 0 and abs(s // x2) <= X:
                                total += 1
                        elif s == 0:
                            total += 2 * X + 1  # y2 free
    return total


# ---------------------------------------------------------------------------
# M'(B), 4N0(B), W-counts, 4N(B): fast paths
# ---------------------------------------------------------------------------


def _run_ends(n: int, top: int) -> list[int]:
    """The last d <= top of each run of 1 <= d <= n with n // d constant, ascending.

    With s = isqrt(n), every d <= s ends its own run: n / d - n / (d+1) >= 1
    for d < s, as d (d+1) < s^2 <= n, and n // s >= s > n // (s+1).  The
    runs past s end at n // q for the quotients q = n // (s+1), ..., 1;
    n // q <= top once q > n // (top+1).
    """
    s = math.isqrt(n)
    return [*range(1, min(s, top) + 1), *(n // q for q in range(n // (s + 1), n // (top + 1), -1))]


def _blocks(*ns) -> tuple[list[int], list[int]]:
    """The runs lo..hi of 1 <= d <= min(ns) on which every n // d is
    constant, as the ascending lists of their starts and of their ends.

    Each n // d takes at most 2 sqrt(n) values, so there are at most
    2 sum sqrt(n) runs (the floor-division blocks of Deleglise-Rivat,
    Exp. Math. 5, 1996).  A run of several n ends where any of them does.
    """
    top = min(ns)
    his = _run_ends(top, top) if len(ns) == 1 else sorted(set().union(*(_run_ends(n, top) for n in ns)))
    return [1, *(hi + 1 for hi in his[:-1])], his


def _block_sum(f, prefix: np.ndarray, *ns) -> int:
    """sum_{d <= min(ns)} g(d) f(n1 // d, n2 // d, ...), one term per block,
    for the g with prefix sums prefix[m] = g(1) + ... + g(m), prefix[0] = 0.

    The d of a block lo..hi share the arguments of f, so the block weighs f
    by prefix[hi] - prefix[lo - 1], all read at once; blocks of weight 0
    skip f.
    """
    los, his = _blocks(*ns)
    at_ends = prefix[[0, *his]]
    weights = (at_ends[1:] - at_ends[:-1]).tolist()
    args = ([n // lo for lo in los] for n in ns)
    return sum(w * f(*a) for w, *a in zip(weights, *args) if w)


def _moebius(f, *ns) -> int:
    """sum_{d <= min(ns)} mu(d) f(n1 // d, n2 // d, ...), weighted by the
    Mertens sums of the shared sieve."""
    return _block_sum(f, arith_table(max(ns)).mertens, *ns)


@lru_cache(maxsize=None)
def _mprime_z(z: int) -> int:
    """M'(B) for any B with isqrt(B) = z, by the hyperbola identity

        M'(z) = 2 sum_{k <= s} [M(k, z//k) - M(k-1, z//k)] - M(s, s),

    s = isqrt(z): the pairs with |x| <= s, those with |y| <= s (as many,
    M being symmetric), less those with both.  Its 2s + 1 boxes are
    counted in one call, which also counts the uncached ones; the widest,
    (1, z), refuses a z past the box cap before the list is built."""
    _check_xy(z)
    s = math.isqrt(z)
    q = [z // k for k in range(1, s + 1)]
    got = _count_boxes([*zip(range(1, s + 1), q), *zip(range(s), q), (s, s)])
    return _checked(2 * (sum(got[:s]) - sum(got[s : 2 * s])) - got[-1])


def mprime(B: int) -> int:
    """M'(B): nonzero-coordinate pairs with |x|^2 |y|^2 <= B.

    The height |x| |y| is a positive integer, so M' depends on B only
    through Z = isqrt(B) (computed by integer square root, never floats).
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    return _mprime_z(math.isqrt(B))


def n0_times4(B: int) -> int:
    """4*N0(B) by Moebius inversion over both primitivity conditions:

        4 N0(B) = sum_{n, m} mu(n) mu(m) M'(B / (nm)^2)
                = sum_{c <= z} (mu*mu)(c) M'(z // c),

    with M' a function of z = isqrt(B) alone and (z // n) // m = z // (nm).
    One block walk over c weighs each M'(z // c) by a difference of prefix
    sums of the Dirichlet square mu*mu.  Exact integer identity.  M'(z),
    the c = 1 term, is read first: a z past the box cap builds no sieve.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    z = math.isqrt(B)
    _mprime_z(z)
    return _checked(_block_sum(_mprime_z, arith_table(z).mu_square, z))


def w_counts(B: int) -> tuple[int, int, int, int]:
    """(W1, W2, W3, W4): primitive pairs with exactly j zero coordinates.

    Like M', a function of Z = isqrt(B) alone, cached by Z.

    Structural parametrizations (Z = isqrt(B), R = isqrt(Z) = floor(B^(1/4))):

      * W4: x = +-e_i, y = +-e_j with i != j -- always 24.
      * W3: the doubly-zero vector is +-e_i and forces a zero in the other
        vector; the free coprime pair ranges over [1, Z]^2 with 12 * 4
        sign/role choices: W3 = 48 * C2(Z, Z).
      * W2: both zeros share a coordinate slot and (x1, x2) = +-(y2, -y1);
        the bound becomes max(|x1|, |x2|) <= R: W2 = 24 * C2(R, R).
      * W1: with the zero in x0, rows are y2 = u x1, y1 = -u x2, y0 = y with
        gcd(x1, x2) = gcd(u, y) = 1, y x_i <= Z, u x_i^2 <= Z.  Splitting
        x1 = x2 = 1 from x1 < x2 gives W1 = 96 (C2(Z, Z) + 2 W1plus), where
        W1plus = sum_{2 <= x <= R} phi(x) C2(Z // x^2, Z // x).

    C2 is the coprime-pair count.  All counts are exact.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    return _w_counts_z(math.isqrt(B))


@lru_cache(maxsize=None)
def _w_counts_z(Z: int) -> tuple[int, int, int, int]:
    R = math.isqrt(Z)
    C2 = partial(_moebius, operator.mul)  # C2(a, b) = sum_d mu(d) (a // d) (b // d)
    c2 = C2(Z, Z)  # first: a Z above the sieve cap is refused before any sieve is built
    phi = arith_table(R).phi
    w1_plus = sum(int(phi[x]) * C2(Z // (x * x), Z // x) for x in range(2, R + 1))
    return _checked(96 * (c2 + 2 * w1_plus)), _checked(24 * C2(R, R)), _checked(48 * c2), 24


def height_counts(B: int) -> HeightCounts:
    """M', 4N0, the hyperplane counts W1..W4 and 4N = 4N0 + W1 + W2 + W3 + W4.

    4N0 comes first: a B past the box cap builds no sieve, and M'(B) is
    cached by the time it is read.
    """
    n0 = n0_times4(B)
    w1, w2, w3, w4 = w_counts(B)
    return HeightCounts(
        B=B,
        mprime=mprime(B),
        n0_times4=n0,
        n_times4=_checked(n0 + w1 + w2 + w3 + w4),
        W1=w1,
        W2=w2,
        W3=w3,
        W4=w4,
    )


def n_times4(B: int) -> int:
    """4*N(B): all primitive pairs of height <= B."""
    return height_counts(B).n_times4


# ---------------------------------------------------------------------------
# Naive oracles for the height-bounded counts
# ---------------------------------------------------------------------------

def _pair_columns(ym: int, mertens: np.ndarray):
    """Kernel columns for both rows of the pair table at |y| <= ym.

    Weight column 0 counts every y: the box |y| <= ym.  Column 1 counts
    the primitive y by Moebius inversion over the scale d of y = d y',
    |y'| <= ym // d; the d of one block lo..hi of ``_blocks(ym)`` share the
    box q = ym // lo, weighted by a difference of Mertens sums.
    """
    parts = []
    for lo, hi in zip(*_blocks(ym)):
        coeff = int(mertens[hi] - mertens[lo - 1])
        if coeff:
            q = ym // lo
            y0, box, w = _box_columns(q, range(q + 1))
            parts.append((y0, box, np.stack([w * (lo == 1), w * coeff], axis=1)))
    return tuple(np.concatenate(col) for col in zip(*parts))


@lru_cache(maxsize=None)
def _pair_table(Z: int) -> np.ndarray:
    """The hyperbola split of |x| |y| <= Z at s = isqrt(Z): min(|x|, |y|) <= s,
    and swapping x and y keeps x.y, the zero count and both gcds.  So the
    table is twice the shells k <= s at |y| <= Z // k, less the box
    |x|, |y| <= s that both halves count."""
    s = math.isqrt(Z)
    mertens = arith_table(Z).mertens
    shells = ((range(k, k + 1), _pair_columns(Z // k, mertens)) for k in range(1, s + 1))
    box = [(range(1, s + 1), _pair_columns(s, mertens))]
    hist = 2 * _kernel_hist(shells, s, primitive=True) - _kernel_hist(box, s, primitive=True)
    table = hist.T.copy()
    table.setflags(write=False)
    return table


def pair_zero_histogram(B: int) -> np.ndarray:
    """Enumeration oracle: pairs x, y != 0 on the cone with height <= B, as a
    read-only (2, 5) table: row 0 all pairs, row 1 the pairs with x and y
    both primitive, by how many of the six coordinates vanish (0..4).

    One walk of the hyperbola split fills both rows (``_pair_table``); it
    is cached, keyed by Z = isqrt(B), and refused by the cells of the box
    (isqrt(Z), Z) that holds it before any sieve is built.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    Z = math.isqrt(B)
    _check_cells(math.isqrt(Z), Z)
    return _pair_table(Z)


def mprime_naive(B: int) -> int:
    return _checked(pair_zero_histogram(B)[0, 0])


def n0_times4_naive(B: int) -> int:
    return _checked(pair_zero_histogram(B)[1, 0])


def n_w_naive(B: int) -> tuple[int, tuple[int, int, int, int]]:
    """(4N(B), (W1..W4)) from the primitive row of the pair table."""
    row = pair_zero_histogram(B)[1]
    return _checked(row.sum()), tuple(int(v) for v in row[1:5])
