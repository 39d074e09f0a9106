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

                 one self-convolution of r.  r(0) is never defined or used.
                 The square is a float64 FFT rounded to integers; a
                 rounding bound after Percival (Math. Comp. 72, 2003),
                 checked before rounding, proves every rounded value
                 exact, and the final int64 dot is checked against
                 overflow before it runs.
  * P(X)      -- all integer solutions with |coordinates| <= X, zeros
                 allowed.
  * M'(B)     -- nonzero-coordinate pairs with |x|^2 |y|^2 <= B, via the
                 shell sums M'(B) = sum_k [M(k, Z//k) - M(k-1, Z//k)],
                 Z = isqrt(B).  The k sharing q = Z//k form one block
                 lo..hi whose shells telescope to M(hi, q) - M(lo-1, q)
                 (the floor-division block trick of Deleglise-Rivat,
                 Exp. Math. 5, 1996): about 4 sqrt(Z) box counts.
  * 4*N0(B)   -- primitive nonzero-coordinate pairs, by Moebius inversion
                 4 N0(B) = sum_{nm <= sqrt(B)} mu(n) mu(m) M'(B/(nm)^2).
  * W1..W4    -- primitive pairs on coordinate hyperplanes with exactly j
                 of the six coordinates zero, via their structural
                 parametrizations (cross-checked by enumeration).
  * 4*N(B)    -- all primitive pairs of height <= B:
                 4N = 4N0 + W1 + W2 + W3 + W4.

Every fast path has a naive enumeration oracle in this module.  All
counters fit comfortably in checked 64-bit range at the configured
budgets; results are returned as Python ints and verified nonnegative
and < 2^63 (an OverflowError is raised rather than wrapping).  A failed
rounding bound raises FloatingPointError; there is no fallback path.

Counting functions are pure; the module-level caches are append-only and
safe for concurrent readers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import arith_table, build_r_table
from .errors import ResourceLimitError

# Cost caps: m_naive enumerates ~X^3 * Y^2 cells; m_fast squares a length-XY
# table by an FFT of length ~2XY, O(XY log XY).
M_NAIVE_MAX_COST = 10**9
M_FAST_MAX_XY = 200_000
_CHUNK_CELLS = 4_000_000  # max broadcast cells per numpy kernel call

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
# y-side kernel: count (or bucket by zero count) the y solutions for many x
# ---------------------------------------------------------------------------


def _count_y(x0, x1, x2, xz, Ym: int, *, nonzero: bool, primitive: bool) -> np.ndarray:
    """Histogram (by total zero coordinates) of solutions y of x.y = 0.

    ``x0, x1, x2`` are int64 arrays of x-triples with x2 != 0 everywhere,
    ``xz`` the per-triple count of zero x-coordinates.  y ranges over
    |y_i| <= Ym, with y_i != 0 enforced when ``nonzero`` and gcd(y) == 1
    when ``primitive``; y = 0 is never counted.  y2 is solved from the
    linear relation where x2 divides exactly.
    """
    if Ym < 1:
        return np.zeros(5, dtype=np.int64)
    if nonzero:
        side = np.concatenate([np.arange(-Ym, 0), np.arange(1, Ym + 1)])
    else:
        side = np.arange(-Ym, Ym + 1)
    y0 = side[:, None]
    y1 = side[None, :]
    g01 = np.gcd(np.abs(y0), np.abs(y1)) if primitive else None
    y0z = (y0 == 0).astype(np.int64) + (y1 == 0).astype(np.int64)

    hist = np.zeros(5, dtype=np.int64)
    n = x0.shape[0]
    rows = max(1, _CHUNK_CELLS // (side.size * side.size))
    for lo in range(0, n, rows):
        hi = min(n, lo + rows)
        a0 = x0[lo:hi, None, None]
        a1 = x1[lo:hi, None, None]
        a2 = x2[lo:hi, None, None]
        q = -(a0 * y0[None] + a1 * y1[None])
        ok = q % a2 == 0
        y2 = np.where(ok, q, 0) // a2
        ok &= np.abs(y2) <= Ym
        if nonzero:
            ok &= y2 != 0
        else:
            ok &= (y0[None] != 0) | (y1[None] != 0) | (y2 != 0)
        if primitive:
            ok &= np.gcd(g01[None], np.abs(y2)) == 1
        j = xz[lo:hi, None, None] + y0z[None] + (y2 == 0)
        hist += np.bincount(j[ok], minlength=5)[:5]
    return hist


# ---------------------------------------------------------------------------
# M(X, Y)
# ---------------------------------------------------------------------------


def m_naive(X, Y) -> int:
    """M(X, Y) by enumeration: x over the positive octant (an exact factor 8
    from flipping (x_i, y_i) jointly per coordinate), y0, y1 over the signed
    box, y2 solved from the relation when x2 divides exactly."""
    X, Y = math.floor(X), math.floor(Y)
    if X < 1 or Y < 1:
        raise ValueError("box bounds must be >= 1")
    if X**3 * Y**2 > M_NAIVE_MAX_COST:
        raise ResourceLimitError(f"m_naive cost X^3 Y^2 > {M_NAIVE_MAX_COST}")
    side = np.arange(1, X + 1, dtype=np.int64)
    g1, g2 = np.meshgrid(side, side, indexing="ij")
    x1 = g1.ravel()
    x2 = g2.ravel()
    xz = np.zeros_like(x1)
    total = 0
    for x0 in range(1, X + 1):
        a0 = np.full_like(x1, x0)
        total += int(_count_y(a0, x1, x2, xz, Y, nonzero=True, primitive=False).sum())
    return _checked(8 * total)


_EPS = 2.0**-53  # unit roundoff of float64


def _smooth_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: a length pocketfft transforms quickly."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _fft_error_bound(norm2: float, length: int) -> float:
    """Percival's bound on max |computed - exact| for the FFT square of a
    vector with squared 2-norm ``norm2`` at transform length ``length``:

        norm2 * ((1+e)^(3n) (1+e sqrt5)^(3n+1) (1+b)^(3n) - 1),

    n = ceil(log2 length), e the unit roundoff, and b = e the error of a
    twiddle factor (Percival, Math. Comp. 72 (2003)).  The bound is derived
    for radix-2 transforms; pocketfft's radix-3 and radix-5 passes are
    counted as n = ceil(log2 length) levels.
    """
    n = (length - 1).bit_length()
    log_growth = 6 * n * math.log1p(_EPS) + (3 * n + 1) * math.log1p(_EPS * math.sqrt(5))
    return norm2 * math.expm1(log_growth)


def _square_exact(v: np.ndarray) -> np.ndarray:
    """The linear self-convolution v*v of an integer vector, exactly, as int64.

    One float64 rfft of the smallest smooth length >= 2 len(v) - 1, squared
    in place and inverted, then rounded by np.rint.  Rounding is exact when
    the error bound is below 1/2; otherwise FloatingPointError is raised
    before any value is rounded.
    """
    size = 2 * v.size - 1
    length = _smooth_length(size)
    buf = np.zeros(length)
    buf[: v.size] = v
    # Integer squares summed in float64 are exact below 2^53; at or above
    # it the bound is far beyond 1/2 whatever the rounding of norm2.
    bound = _fft_error_bound(float(np.dot(buf, buf)), length)
    if bound >= 0.5:
        raise FloatingPointError(f"FFT rounding bound {bound:.3g} >= 1/2: the square would not be exact")
    spectrum = np.fft.rfft(buf)
    del buf
    spectrum *= spectrum
    square = np.fft.irfft(spectrum, length)[:size]
    del spectrum
    np.rint(square, out=square)
    return square.astype(np.int64)


def _triple_sum(pos: np.ndarray) -> int:
    """sum_{a, b >= 1, a+b <= N} r(a) r(b) r(a+b) for pos = r(1..N).

    Raises OverflowError when the int64 dot could wrap, before running it.
    """
    conv = _square_exact(pos)[: pos.size - 1]  # conv[i] = sum_{a+b=i+2} r(a) r(b)
    tail = pos[1:]  # r(c), c = 2..N
    if conv.size and int(conv.max()) * int(tail.sum()) >= _INT63:
        raise OverflowError("r-table triple sum could exceed the int64 range")
    return int(np.dot(conv, tail))


@lru_cache(maxsize=200_000)
def _m_fast_cached(X: int, Y: int) -> int:
    r = build_r_table(X, Y).r  # index 0..N, r[0] = 0
    return _checked(6 * _triple_sum(r[1:]))


def m_fast(X, Y) -> int:
    """M(X, Y) via the coefficient identity (one exact FFT square of r).

    Real-valued bounds are floored: a box count only sees integer points.
    Results are memoised; X, Y enter symmetrically.
    """
    X, Y = math.floor(X), math.floor(Y)
    if X < 0 or Y < 0:
        raise ValueError("box bounds must be nonnegative")
    if X == 0 or Y == 0:
        return 0
    if X * Y > M_FAST_MAX_XY:
        raise ResourceLimitError(f"m_fast FFT square capped at X*Y <= {M_FAST_MAX_XY}")
    if X > Y:
        X, Y = Y, X  # M is symmetric; normalise the cache key
    return _m_fast_cached(X, Y)


def box_count(X: int, Y: int) -> BoxCount:
    return BoxCount(X=X, Y=Y, count=m_fast(X, Y))


# ---------------------------------------------------------------------------
# P(X): zeros allowed
# ---------------------------------------------------------------------------

P_COUNT_MAX_X = 40


def _pivot_groups(triples: np.ndarray):
    """Split x-triples into groups with a nonzero last ("pivot") coordinate.

    Simultaneously permuting the coordinates of x and y preserves the
    relation and every count, so triples with x2 = 0 are re-slotted by
    swapping in a nonzero coordinate.
    """
    x0, x1, x2 = triples[:, 0], triples[:, 1], triples[:, 2]
    groups = []
    m_a = x2 != 0
    groups.append((x0[m_a], x1[m_a], x2[m_a]))
    m_b = ~m_a & (x1 != 0)
    groups.append((x0[m_b], x2[m_b], x1[m_b]))
    m_c = ~m_a & ~m_b
    groups.append((x2[m_c], x1[m_c], x0[m_c]))
    masks = (m_a, m_b, m_c)
    return groups, masks


def p_count(X: int) -> int:
    """P(X): every integer solution with |coordinates| <= X, zeros allowed."""
    if X < 1:
        raise ValueError("X must be >= 1")
    if X > P_COUNT_MAX_X:
        raise ResourceLimitError(f"p_count enumeration capped at X <= {P_COUNT_MAX_X}")
    side = np.arange(-X, X + 1, dtype=np.int64)
    total = (2 * X + 1) ** 3  # x = 0: every y solves the relation
    g0, g1, g2 = np.meshgrid(side, side, side, indexing="ij")
    triples = np.stack([g0.ravel(), g1.ravel(), g2.ravel()], axis=1)
    triples = triples[np.any(triples != 0, axis=1)]
    groups, _ = _pivot_groups(triples)
    for a0, a1, a2 in groups:
        xz = np.zeros(a0.size, dtype=np.int64)
        hist = _count_y(a0, a1, a2, xz, X, nonzero=False, primitive=False)
        total += int(hist.sum()) + a0.size  # plus y = 0, which _count_y never counts
    return _checked(total)


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


@lru_cache(maxsize=None)
def _mprime_z(z: int) -> int:
    """M'(B) for any B with isqrt(B) = z: shell sums over |x| = k exactly,
    in blocks of k sharing q = z // k, each telescoped to two box counts."""
    total = 0
    lo = 1
    while lo <= z:
        q = z // lo
        hi = z // q
        total += m_fast(hi, q) - m_fast(lo - 1, q)
        lo = hi + 1
    return _checked(total)


def mprime(B: int) -> int:
    """M'(B): nonzero-coordinate pairs with |x|^2 |y|^2 <= B.

    The height |x| |y| is a positive integer, so M' depends on B only
    through Z = isqrt(B) (computed by integer square root, never floats).
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    return _mprime_z(math.isqrt(B))


@lru_cache(maxsize=64)
def _mu_dirichlet_square(limit: int) -> np.ndarray:
    """(mu * mu)(c) for c <= limit (Dirichlet convolution square of mu)."""
    mu = arith_table(limit).mu
    acc = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        md = int(mu[d])
        if md:
            top = limit // d
            acc[d :: d][: top] += md * mu[1 : top + 1]
    return acc


def n0_times4(B: int) -> int:
    """4*N0(B) by Moebius inversion over both primitivity conditions:

        4 N0(B) = sum_{c <= sqrt(B)} (mu*mu)(c) M'(B / c^2),

    where (mu*mu) groups the pairs n*m = c.  Exact integer identity.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    z = math.isqrt(B)
    coeff = _mu_dirichlet_square(z)
    total = 0
    for c in range(1, z + 1):
        if coeff[c]:
            total += int(coeff[c]) * _mprime_z(z // c)
    return _checked(total)


@lru_cache(maxsize=None)
def _coprime_pair_count(Z: int) -> int:
    """#{1 <= a, b <= Z : gcd(a, b) = 1} by Moebius over the common divisor."""
    if Z < 1:
        return 0
    mu = arith_table(Z).mu
    total = 0
    for d in range(1, Z + 1):
        if mu[d]:
            q = Z // d
            total += int(mu[d]) * q * q
    return total


def _squarefree_divisors(u: int, spf: np.ndarray) -> list[int]:
    divs = [1]
    while u > 1:
        p = int(spf[u])
        divs += [d * p for d in divs]
        while u % p == 0:
            u //= p
    return divs


def _coprime_count_upto(m: int, u: int, table) -> int:
    """#{1 <= y <= m : gcd(y, u) = 1} via the squarefree divisors of u."""
    total = 0
    for d in _squarefree_divisors(u, table.spf):
        total += int(table.mu[d]) * (m // d)
    return total


def w_counts(B: int) -> tuple[int, int, int, int]:
    """(W1, W2, W3, W4): primitive pairs with exactly j zero coordinates.

    Structural parametrizations (Z = isqrt(B), R = isqrt(Z) = floor(B^(1/4))):

      * W4: x = +-e_i, y = +-e_j with i != j -- always 24.
      * W3: the doubly-zero vector is +-e_i and forces a zero in the other
        vector; the free coprime pair ranges over [1, Z]^2 with 12 * 4
        sign/role choices: W3 = 48 * C2(Z).
      * W2: both zeros share a coordinate slot and (x1, x2) = +-(y2, -y1);
        the bound becomes max(|x1|, |x2|) <= R: W2 = 24 * C2(R).
      * W1: with the zero in x0, rows are y2 = u x1, y1 = -u x2, y0 = y with
        gcd(x1, x2) = gcd(u, y) = 1, y x_i <= Z, u x_i^2 <= Z.  Splitting
        x1 = x2 = 1 from x1 < x2 gives W1 = 96 (C2(Z) + 2 W1plus).

    C2 is the coprime-pair count.  All counts are exact.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    Z = math.isqrt(B)
    R = math.isqrt(Z)
    w4 = 24
    w3 = 48 * _coprime_pair_count(Z)
    w2 = 24 * _coprime_pair_count(R)
    table = arith_table(Z)
    w1_plus = 0
    for x in range(2, R + 1):
        phi_x = table.phi_of(x)
        m = Z // x
        for u in range(1, Z // (x * x) + 1):
            w1_plus += phi_x * _coprime_count_upto(m, u, table)
    w1 = 96 * (_coprime_pair_count(Z) + 2 * w1_plus)
    return (_checked(w1), _checked(w2), _checked(w3), w4)


def n_times4(B: int) -> int:
    """4*N(B): all primitive pairs of height <= B, assembled from the
    interior count and the hyperplane counts."""
    return _checked(n0_times4(B) + sum(w_counts(B)))


def height_counts(B: int) -> HeightCounts:
    w1, w2, w3, w4 = w_counts(B)
    n0 = n0_times4(B)
    return HeightCounts(
        B=B,
        mprime=mprime(B),
        n0_times4=n0,
        n_times4=n0 + w1 + w2 + w3 + w4,
        W1=w1,
        W2=w2,
        W3=w3,
        W4=w4,
    )


# ---------------------------------------------------------------------------
# Naive oracles for the height-bounded counts
# ---------------------------------------------------------------------------

PAIR_ORACLE_MAX_B = 10**6  # enumeration cost grows like isqrt(B)^3


def _shell_triples(k: int, include_zero: bool) -> np.ndarray:
    """All x with max |x_i| = k, as an (n, 3) int64 array (x = 0 excluded)."""
    if include_zero:
        full = np.arange(-k, k + 1, dtype=np.int64)
        inner = np.arange(-(k - 1), k, dtype=np.int64)
    else:
        full = np.concatenate([np.arange(-k, 0), np.arange(1, k + 1)]).astype(np.int64)
        inner = np.concatenate([np.arange(-(k - 1), 0), np.arange(1, k)]).astype(np.int64)
    edge = np.array([-k, k], dtype=np.int64)
    faces = []
    a, b = np.meshgrid(full, full, indexing="ij")
    for e in edge:
        faces.append(np.stack([np.full(a.size, e, dtype=np.int64), a.ravel(), b.ravel()], axis=1))
    a, b = np.meshgrid(inner, full, indexing="ij")
    for e in edge:
        faces.append(np.stack([a.ravel(), np.full(a.size, e, dtype=np.int64), b.ravel()], axis=1))
    a, b = np.meshgrid(inner, inner, indexing="ij")
    for e in edge:
        faces.append(np.stack([a.ravel(), b.ravel(), np.full(a.size, e, dtype=np.int64)], axis=1))
    return np.concatenate(faces, axis=0)


def pair_zero_histogram(B: int, *, primitive: bool, nonzero_coords: bool) -> np.ndarray:
    """Enumeration oracle: pairs on the cone with height <= B, bucketed
    by how many of the six coordinates vanish (indices 0..4).

    x is enumerated shell by shell over |x| = k (signed, all sign patterns);
    for each x the admissible y are counted by the solve-for-pivot kernel
    with |y| <= isqrt(B) // k.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    if B > PAIR_ORACLE_MAX_B:
        raise ResourceLimitError(f"pair enumeration capped at B <= {PAIR_ORACLE_MAX_B}")
    Z = math.isqrt(B)
    hist = np.zeros(5, dtype=np.int64)
    for k in range(1, Z + 1):
        ym = Z // k
        triples = _shell_triples(k, include_zero=not nonzero_coords)
        if primitive:
            g = np.gcd(np.gcd(np.abs(triples[:, 0]), np.abs(triples[:, 1])), np.abs(triples[:, 2]))
            triples = triples[g == 1]
        xz_all = np.sum(triples == 0, axis=1).astype(np.int64)
        groups, masks = _pivot_groups(triples)
        for (a0, a1, a2), mask in zip(groups, masks):
            if a0.size == 0:
                continue
            hist += _count_y(a0, a1, a2, xz_all[mask], ym, nonzero=nonzero_coords, primitive=primitive)
    return hist


def mprime_naive(B: int) -> int:
    return _checked(pair_zero_histogram(B, primitive=False, nonzero_coords=True).sum())


def n0_times4_naive(B: int) -> int:
    return _checked(pair_zero_histogram(B, primitive=True, nonzero_coords=True).sum())


def n_w_naive(B: int) -> tuple[int, tuple[int, int, int, int]]:
    """(4N(B), (W1..W4)) from one primitive-pair enumeration."""
    hist = pair_zero_histogram(B, primitive=True, nonzero_coords=False)
    return _checked(hist.sum()), tuple(int(v) for v in hist[1:5])
