"""Exact rational evaluation of the harmonic-sum closed forms.

Everything here revolves around the partial sums

    A(n) = sum_{j<=n} 1/j,        B(n) = sum_{j<=n} 1/j^2,

the polynomial-harmonic combination

    F(n) = (33/2 - 3B(n)) n^2 - (21/2 + 3B(n)) n + 6 A(n),

and the weighted triple sum (Box(v) = v|v|)

    S(n) = sum_{1<=x1,x2,x3<=n} [(x1+x2+x3)^2 + 3 Box(x1-x2-x3)] / (x1 x2 x3),

which satisfies S(n) = F(n) identically.  Empty sums are 0, so F(0) = 0.

All identities are checked in exact rational arithmetic
(fractions.Fraction); at n = 60 the harmonic sums already lose ~1e-14 in
floating point, which is enough to blur an exactness claim.  Only G(t),
which mixes in pi^2, is evaluated in floating point, from F_rounded.

F_rounded, the one routine that turns F into a float, gives float(F_closed(n))
without rationals: the sums a, b of floor(2^128/j), floor(2^128/j^2) over j <= n
put F(n) 2^128 in (v - 3n^2(n+1), v + 6n), v = (33n^2 - 21n) 2^127 - 3(n^2+n) b
+ 6a.  If both ends round alike, so does F(n); else F_closed decides (Ziv, ACM
TOMS 17, 1991).  No n <= 10^4 needs that.

The brute-force sums are literal term-by-term summations of the integer
numerator over lcm(1..n)^d, done in int64 residues modulo fixed primes
below 2^31 (one matmul per x1 block) and rebuilt once by the Chinese
remainder theorem, behind guards that refuse any sum that could overflow.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import ResourceLimitError

# Caps keeping the brute sums interactive: s_parts(100) and s_brute_prefix(100)
# take ~50 ms each and tu_sums(200) ~10 ms on one core of an x86-64 host.
S_BRUTE_MAX_N = 100
TU_BRUTE_MAX_N = 200
# Cap on the exact harmonic sums, F_rounded and G_value: A(n), B(n) take ~1.1 n bytes,
# a cold F_closed(10**4) ~0.09 s (traced peak 0.25 MB), F_rounded(range(10**4 + 1))
# ~25 ms (2-core x86-64 host).  The suites ask for n <= 10**4 (the g_bound/log_grid row).
HARMONIC_EXACT_MAX_N = 10**4
_FIX_BITS = 128  # fraction bits of F_rounded's sums

#: Modes accepted by s_parts / tu_sums.
MODES = ("brute", "closed")


def _split(lo: int, hi: int, e: int) -> tuple[int, int]:
    """sum_{lo < j <= hi} 1/j^e as an unreduced (numerator, denominator) pair."""
    if hi - lo == 1:
        return 1, hi**e
    mid = (lo + hi) // 2
    p1, q1 = _split(lo, mid, e)
    p2, q2 = _split(mid, hi, e)
    return p1 * q2 + p2 * q1, q1 * q2


# (A(n), B(n)) at each n > 0 asked for.  A new n adds one binary split of (m, n]
# (Haible & Papanikolaou 1998) to the largest cached m < n, found in n - m steps
# down from n.  Threads need no lock: a racing miss stores an equal, immutable pair.
_SUMS: dict[int, tuple[Fraction, Fraction]] = {}


def check_harmonic_n(n: int) -> None:
    """Refuse an F argument past the cap; callers check their largest first."""
    if n > HARMONIC_EXACT_MAX_N:
        raise ResourceLimitError(f"exact harmonic sums capped at n <= {HARMONIC_EXACT_MAX_N}")


def _harmonic_exact(n: int) -> tuple[Fraction, Fraction]:
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    check_harmonic_n(n)
    if n == 0:
        return Fraction(0), Fraction(0)
    sums = _SUMS.get(n)
    if sums is None:
        m = next(filter(_SUMS.__contains__, range(n - 1, 0, -1)), 0)
        A, B = _harmonic_exact(m)
        sums = _SUMS[n] = A + Fraction(*_split(m, n, 1)), B + Fraction(*_split(m, n, 2))
    return sums


def harmonic_A(n: int) -> Fraction:
    """A(n) = sum_{j<=n} 1/j as an exact rational; A(0) = 0."""
    return _harmonic_exact(n)[0]


def harmonic_B(n: int) -> Fraction:
    """B(n) = sum_{j<=n} 1/j^2 as an exact rational; B(0) = 0."""
    return _harmonic_exact(n)[1]


# For callers that reset the cache between timed calls: both functions read
# one cache, so clearing either clears both.
harmonic_A.cache_clear = harmonic_B.cache_clear = _SUMS.clear


def F_closed(n: int) -> Fraction:
    """F(n) = (33/2 - 3B(n)) n^2 - (21/2 + 3B(n)) n + 6A(n), exactly."""
    A, B = _harmonic_exact(n)
    # grouped so that only one sum has two large denominators (those of A and B)
    return Fraction(33 * n * n - 21 * n, 2) - 3 * (n * n + n) * B + 6 * A


def F_rounded(ns) -> list[float]:
    """[float(F_closed(n)) for n in ns], bit for bit; an n that F_closed
    refuses is refused before any sum."""
    ns = list(ns)
    if min(ns, default=0) < 0:
        raise ValueError("n must be a nonnegative integer")
    top = max(ns, default=0)
    check_harmonic_n(top)
    want, one = set(ns), 1 << _FIX_BITS
    out, a, b = {0: 0.0}, 0, 0
    for n in range(1, top + 1):
        a += one // n
        b += one // (n * n)
        if n in want:
            lo, hi = (end / one for end in _F_interval(n, a, b, one))
            out[n] = lo if lo == hi else float(F_closed(n))
    return [out[n] for n in ns]


def _F_interval(n: int, a: int, b: int, one: int) -> tuple[int, int]:
    """lo < F(n) one < hi, if a, b fall short of one A(n), one B(n) by [0, n)."""
    v = (33 * n * n - 21 * n) * (one >> 1) - 3 * (n * n + n) * b + 6 * a
    return v - 3 * n * n * (n + 1), v + 6 * n


def G_value(t):
    """G(t) = F(floor(t)) - (33 - pi^2)/2 * t^2 for t > 0, F from F_rounded.

    ``t`` is a float, or a float array whose entries have the scalar call's
    bits.  A t >= HARMONIC_EXACT_MAX_N + 1 is refused before any walk.
    """
    u = np.asarray(t, dtype=float)
    if not u.min(initial=1.0) > 0:  # false for a NaN too
        raise ValueError("t must be positive")
    F = F_rounded(map(math.floor, np.minimum(u, HARMONIC_EXACT_MAX_N + 1).flat))  # refuses an infinite t too
    value = np.reshape(F, u.shape) - (33.0 - math.pi**2) / 2.0 * u * u
    return value if u.ndim else float(value)


def box_fn(v):
    """Box(v) = v |v|, the sign-preserving square (exact on integers)."""
    return v * abs(v)


# The 24 largest primes below 2^31, written out so that importing the module
# searches for none.  A residue is below 2^31, so the product of two fits int64.
_PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549, 2147483543, 2147483497,
    2147483489, 2147483477, 2147483423, 2147483399, 2147483353, 2147483323, 2147483269, 2147483249,
    2147483237, 2147483179, 2147483171, 2147483137, 2147483123, 2147483077, 2147483069, 2147483059,
)


# Rows of x1 in one (x1, x2) block of a d = 2 brute sum.  tu_sums(200, "brute")
# has a traced peak of 3.1 MB in one block of 200 rows, 0.81 MB at 32 rows
# and 0.43 MB at 16, all in 5-6 ms (best of 9, 2-core x86-64 host).
_ROWS_2D = 16


def _brute_sums(n: int, d: int, cmax: int, coeffs, combine=None) -> list[Fraction]:
    """Literal sums  sum_{x in [1, n]^d} c(x) / (x_1 ... x_d) = N / L^d  (d = 2 or 3), exactly.

    N = sum_x c(x) prod_i w(x_i), w(x) = L // x, L = lcm(1..n), is summed term
    by term in int64 modulo a prefix of _PRIMES and rebuilt by the Chinese
    remainder theorem in the symmetric range.  ``coeffs(x1, x2, x3)`` (x1 an
    int, x2 a column, x3 a row over 1..n) or ``coeffs(x1, x2)`` (x1 a column
    of up to _ROWS_2D values, x2 a row over 1..n) gives the coefficients of
    m sums on one block; the caller proves |c| <= cmax.  An int64 matmul against the residues of w sums the
    last coordinate; each product of two residues is reduced before anything
    sums it.  ``combine(R)``, given R[block, i, row, prime] (sum i with the
    block's x1 and the row fixed), sums it into the residues to rebuild;
    without it every block and row is summed.  Raises OverflowError, before
    any int64 work, if a matmul sum or a sum of n^2 reduced residues could
    pass 2^63, or if the primes cannot tell apart numerators within the
    proven bound |N| <= n^d cmax L^d.
    """
    L = math.lcm(*range(1, n + 1))
    bound, k, M = n**d * cmax * L**d, 0, 1
    while M <= 2 * bound:
        if k == len(_PRIMES):
            raise OverflowError(f"{k} primes cannot rebuild numerators up to {bound.bit_length()} bits")
        M, k = M * _PRIMES[k], k + 1
    primes = _PRIMES[:k]
    if max(cmax, 2 * n) * (max(primes) - 1) * n >= 2**63:
        raise OverflowError(f"coefficients up to {cmax} overflow an int64 sum of {n} residues")
    P = np.array(primes, dtype=np.int64)
    W = np.array([[L // x % p for p in primes] for x in range(1, n + 1)], dtype=np.int64)
    X = np.arange(1, n + 1, dtype=np.int64)
    # one (x2, x3) block per x1, weighted by w(x1) and w(x2), or, when d = 2,
    # (x1, x2) blocks of _ROWS_2D rows of x1, weighted by w(x1)
    if d == 3:
        blocks = [(W[x - 1], W, (x, X[:, None], X)) for x in range(1, n + 1)]
    else:
        blocks = [(1, W[i:i + _ROWS_2D], (X[i:i + _ROWS_2D, None], X)) for i in range(0, n, _ROWS_2D)]
    R = []
    for w1, w_rows, grids in blocks:
        C = np.stack(coeffs(*grids))
        r = (C @ W % P) * w_rows % P * w1 % P
        R.append(r if combine else r.sum(axis=1))
    R = np.stack(R)
    residues = (combine(R) if combine else R.sum(axis=0)) % P
    basis = [M // p * pow(M // p, -1, p) for p in primes]
    N = [sum(map(int.__mul__, row, basis)) % M for row in residues.reshape(-1, k).tolist()]
    return [Fraction(v - M if 2 * v > M else v, L**d) for v in N]


def s_brute_prefix(n_max: int) -> list[Fraction]:
    """[S(0), S(1), ..., S(n_max)], summed term by term over the cube once.

    For each x1 the (x2, x3) block is split by max(x2, x3) = j into the
    row x2 = j (x3 <= j) and the column x3 = j (x2 < j); cumulative sums of
    these shells over x1 and j give every S(k) = sum_{max x <= k}.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max > S_BRUTE_MAX_N:
        raise ResourceLimitError(f"brute triple sum capped at n <= {S_BRUTE_MAX_N}")
    if n_max == 0:
        return [Fraction(0)]

    def coeffs(x1, x2, x3):
        c = (x1 + x2 + x3) ** 2 + 3 * box_fn(x1 - x2 - x3)
        return (x3 <= x2) * c, ((x2 < x3) * c).T

    def combine(R):
        shells = R.sum(axis=1)  # [x1 - 1, max(x2, x3) - 1]: below 2p
        k = np.arange(n_max)
        return np.cumsum(np.cumsum(shells, axis=0), axis=1)[k, k]

    # |c| <= (3n)^2 + 3 (2n)^2
    return [Fraction(0)] + _brute_sums(n_max, 3, 21 * n_max**2, coeffs, combine)


def S_brute(n: int) -> Fraction:
    """The defining triple sum S(n), summed literally (cost O(n^3))."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return s_brute_prefix(n)[n]


def _s_parts_closed(n: int) -> tuple[Fraction, Fraction, Fraction]:
    A, B = _harmonic_exact(n)
    nn = Fraction(n)
    s1 = Fraction(3, 2) * n * (n + 1) * A * A + 6 * n * n * A
    s3 = Fraction(3, 2) * n * (n + 1) * A * A - 2 * n * n * A
    s2 = (
        Fraction(1, 2) * n * (n + 1) * (A * A - B)
        + (1 - 2 * n * n) * A
        + Fraction(11, 4) * nn * nn
        - Fraction(7, 4) * nn
    )
    return s1, s2, s3


def _s_parts_brute(n: int) -> tuple[Fraction, Fraction, Fraction]:
    def coeffs(x1, x2, x3):
        d = x1 - x2 - x3
        return (x1 + x2 + x3) ** 2, (d >= 0) * d * d, d * d

    return tuple(_brute_sums(n, 3, 9 * n * n, coeffs))


def s_parts(n: int, mode: str) -> tuple[Fraction, Fraction, Fraction]:
    """The three components (S1, S2, S3) of the split

        S(n) = S1(n) + 6 S2(n) - 3 S3(n),

    where S1/S3 run over the full cube and S2 over x2 + x3 <= x1 <= n:

        S1 = sum (x1+x2+x3)^2 / (x1 x2 x3),
        S2 = sum_{x2+x3<=x1} (x1-x2-x3)^2 / (x1 x2 x3),
        S3 = sum (x1-x2-x3)^2 / (x1 x2 x3).

    ``mode="brute"`` sums the defining sums directly; ``mode="closed"``
    evaluates the harmonic closed forms.  Both are exact rationals.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if mode == "closed":
        return _s_parts_closed(n)
    if mode == "brute":
        if n > S_BRUTE_MAX_N:
            raise ResourceLimitError(f"brute triple sum capped at n <= {S_BRUTE_MAX_N}")
        return _s_parts_brute(n)
    raise ValueError(f"mode must be one of {MODES}")


def _tu_closed(n: int) -> tuple[Fraction, ...]:
    A, B = _harmonic_exact(n)
    t1 = (n + 1) * A - 2 * n
    t2 = Fraction(1, 2) * n * (n + 1) * A - n * n
    u0 = A * A - B
    u1 = 2 * (n * A - n)
    u2 = n * (n + 1) * A - Fraction(n * n, 2) - Fraction(3 * n, 2)
    return t1, t2, u0, u1, u2


def _tu_brute(n: int) -> tuple[Fraction, ...]:
    def coeffs(x1, x2):
        d, s = x1 - x2, x1 + x2
        t, u = d >= 0, s <= n
        return t * d, t * d * d, u * 1, u * s, u * s * s

    return tuple(_brute_sums(n, 2, n * n, coeffs))


def tu_sums(n: int, mode: str) -> tuple[Fraction, ...]:
    """(T1, T2, U0, U1, U2) for

        T_j = sum_{x2<=x1<=n} (x1-x2)^j / (x1 x2),
        U_j = sum_{x+y<=n}    (x+y)^j  / (x y).

    Closed forms: T1 = (n+1)A - 2n, T2 = n(n+1)A/2 - n^2,
    U0 = A^2 - B, U1 = 2(nA - n), U2 = n(n+1)A - n^2/2 - 3n/2.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if mode == "closed":
        return _tu_closed(n)
    if mode == "brute":
        if n > TU_BRUTE_MAX_N:
            raise ResourceLimitError(f"brute double sums capped at n <= {TU_BRUTE_MAX_N}")
        return _tu_brute(n)
    raise ValueError(f"mode must be one of {MODES}")
