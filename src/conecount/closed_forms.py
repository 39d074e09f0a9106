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
which mixes in pi^2, is evaluated in floating point.

The brute-force sums are literal term-by-term summations.  They accumulate
an integer numerator over the common denominator lcm(1..n)^3 (products of
up to three harmonic weights), which keeps the cost at one big-int
multiply-add per term instead of a Fraction reduction per term.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

import numpy as np

from .errors import ResourceLimitError

# Caps keeping the O(n^3) brute sums in interactive territory.
S_BRUTE_MAX_N = 100
TU_BRUTE_MAX_N = 200
# Cap on the exact harmonic tables: A(j) and B(j) take ~1.1 j bytes together,
# so the table up to n holds ~0.54 n^2 bytes (54 MB at the cap).
HARMONIC_EXACT_MAX_N = 10**4

#: Modes accepted by s_parts / tu_sums.
MODES = ("brute", "closed")


# Exact cumulative tables: _EXACT_A[n] = A(n), _EXACT_B[n] = B(n).  They are
# extended iteratively (no recursion depth to run out of) under a lock, since
# suites evaluate closed forms from several threads.
_EXACT_A = [Fraction(0)]
_EXACT_B = [Fraction(0)]
_EXACT_LOCK = threading.Lock()


def _harmonic_exact(n: int) -> tuple[Fraction, Fraction]:
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    if n > HARMONIC_EXACT_MAX_N:
        raise ResourceLimitError(f"exact harmonic sums capped at n <= {HARMONIC_EXACT_MAX_N}")
    with _EXACT_LOCK:
        for j in range(len(_EXACT_A), n + 1):
            _EXACT_A.append(_EXACT_A[-1] + Fraction(1, j))
            _EXACT_B.append(_EXACT_B[-1] + Fraction(1, j * j))
        return _EXACT_A[n], _EXACT_B[n]


def _clear_exact_tables() -> None:
    """Drop the exact tables back to A(0), B(0), freeing their memory."""
    with _EXACT_LOCK:
        del _EXACT_A[1:], _EXACT_B[1:]


def harmonic_A(n: int) -> Fraction:
    """A(n) = sum_{j<=n} 1/j as an exact rational; A(0) = 0."""
    return _harmonic_exact(n)[0]


def harmonic_B(n: int) -> Fraction:
    """B(n) = sum_{j<=n} 1/j^2 as an exact rational; B(0) = 0."""
    return _harmonic_exact(n)[1]


# For callers that reset the tables between timed calls: both functions read
# one table, so clearing either clears both.
harmonic_A.cache_clear = harmonic_B.cache_clear = _clear_exact_tables


def F_closed(n: int) -> Fraction:
    """F(n) = (33/2 - 3B(n)) n^2 - (21/2 + 3B(n)) n + 6A(n), exactly."""
    A, B = _harmonic_exact(n)
    # grouped so that only one sum has two large denominators (those of A and B)
    return Fraction(33 * n * n - 21 * n, 2) - 3 * (n * n + n) * B + 6 * A


# Cumulative-sum table: _FLOAT_TABLE[:, n] = (A(n), B(n)) in floating point.
# A grown table replaces the old one in a single assignment, and each reader
# takes one reference to it, so a thread never pairs rows of two sizes.
_FLOAT_TABLE = np.zeros((2, 1))


def _harmonic_float(n: int) -> tuple[float, float]:
    """(A(n), B(n)) in floating point, from the cached cumulative-sum table."""
    global _FLOAT_TABLE
    table = _FLOAT_TABLE
    if n >= table.shape[1]:
        j = np.arange(1, max(2 * table.shape[1], n + 1, 1024), dtype=float)
        table = np.zeros((2, j.size + 1))
        np.cumsum(1.0 / j, out=table[0, 1:])
        np.cumsum(1.0 / (j * j), out=table[1, 1:])
        _FLOAT_TABLE = table
    return float(table[0, n]), float(table[1, n])


def F_float(n: int) -> float:
    """F(n) in floating point (for large n, where exact rationals are overkill)."""
    if n < 0:
        raise ValueError("n must be a nonnegative integer")
    A, B = _harmonic_float(n)
    return (16.5 - 3.0 * B) * n * n - (10.5 + 3.0 * B) * n + 6.0 * A


def G_value(t: float) -> float:
    """G(t) = F(floor(t)) - (33 - pi^2)/2 * t^2 for t > 0 (floating point)."""
    if t <= 0:
        raise ValueError("t must be positive")
    return F_float(math.floor(t)) - (33.0 - math.pi**2) / 2.0 * t * t


def box_fn(v):
    """Box(v) = v |v|, the sign-preserving square (exact on integers)."""
    return v * abs(v)


def _harmonic_weights(n: int) -> tuple[int, list[int]]:
    """Common denominator L = lcm(1..n) and the weights L//x for x = 0..n."""
    L = math.lcm(*range(1, n + 1)) if n >= 1 else 1
    return L, [0] + [L // x for x in range(1, n + 1)]


def s_brute_prefix(n_max: int) -> list[Fraction]:
    """[S(0), S(1), ..., S(n_max)] by summing shells max(x1,x2,x3) = k.

    Each shell is enumerated term by term, so the total work for the whole
    prefix equals one direct triple sum of size n_max^3.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max > S_BRUTE_MAX_N:
        raise ResourceLimitError(f"brute triple sum capped at n <= {S_BRUTE_MAX_N}")
    L, w = _harmonic_weights(n_max)
    D = L**3
    total = 0
    values = [Fraction(0)]
    for k in range(1, n_max + 1):
        total += _s_shell(k, w)
        values.append(Fraction(total, D))
    return values


def _s_shell(k: int, w: list[int]) -> int:
    """Numerator contribution of all triples with max(x1,x2,x3) = k."""
    acc = 0
    wk = w[k]
    # x1 = k
    for x2 in range(1, k + 1):
        s = k + x2
        d = k - x2
        w2 = wk * w[x2]
        for x3 in range(1, k + 1):
            acc += ((s + x3) ** 2 + 3 * box_fn(d - x3)) * w2 * w[x3]
    # x2 = k, x1 < k
    for x1 in range(1, k):
        s = x1 + k
        d = x1 - k
        w1 = w[x1] * wk
        for x3 in range(1, k + 1):
            acc += ((s + x3) ** 2 + 3 * box_fn(d - x3)) * w1 * w[x3]
    # x3 = k, x1 < k, x2 < k
    for x1 in range(1, k):
        for x2 in range(1, k):
            acc += ((x1 + x2 + k) ** 2 + 3 * box_fn(x1 - x2 - k)) * w[x1] * w[x2] * wk
    return acc


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
    L, w = _harmonic_weights(n)
    D = L**3
    acc1 = acc3 = 0
    for x1 in range(1, n + 1):
        for x2 in range(1, n + 1):
            w12 = w[x1] * w[x2]
            for x3 in range(1, n + 1):
                w123 = w12 * w[x3]
                acc1 += (x1 + x2 + x3) ** 2 * w123
                acc3 += (x1 - x2 - x3) ** 2 * w123
    acc2 = 0
    for x1 in range(1, n + 1):
        for x2 in range(1, x1):
            w12 = w[x1] * w[x2]
            for x3 in range(1, x1 - x2 + 1):
                acc2 += (x1 - x2 - x3) ** 2 * w12 * w[x3]
    return Fraction(acc1, D), Fraction(acc2, D), Fraction(acc3, D)


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
    L, w = _harmonic_weights(n)
    D = L * L
    a_t1 = a_t2 = a_u0 = a_u1 = a_u2 = 0
    for x1 in range(1, n + 1):
        for x2 in range(1, x1 + 1):
            ww = w[x1] * w[x2]
            d = x1 - x2
            a_t1 += d * ww
            a_t2 += d * d * ww
    for x in range(1, n + 1):
        for y in range(1, n - x + 1):
            ww = w[x] * w[y]
            s = x + y
            a_u0 += ww
            a_u1 += s * ww
            a_u2 += s * s * ww
    return (
        Fraction(a_t1, D),
        Fraction(a_t2, D),
        Fraction(a_u0, D),
        Fraction(a_u1, D),
        Fraction(a_u2, D),
    )


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
