"""Sieved arithmetic functions and the in-place divisor-pair row fill.

  * ArithTable -- Euler totient phi(n), Moebius mu(n) and the Mertens
    sums M(n) = mu(1) + ... + mu(n) for n <= limit, filled by a single
    linear sieve pass.  The Mertens sums weigh each floor-division block
    of a Moebius sum by one difference M(hi) - M(lo - 1); the prefix sums
    ``mu_square`` of the Dirichlet square mu*mu, filled from mu on first
    read (so every fill agrees), weigh the blocks of 4N0 the same way.
    ``arith_table`` is the one shared cache every module reads: it keeps
    one immutable table and regrows it to the next power of two (at least
    1024) when a request outgrows it.
  * r          -- ``build_r_table(X, Y, out)`` adds r(n) = #{(x, y) : xy = n,
    1 <= |x| <= X, 1 <= |y| <= Y} = 2 #{d | n : d <= X, n/d <= Y} (the
    factors share a sign) into out[n - 1], 1 <= n <= X*Y: the batched box
    counts fill their zeroed int32 rows that way, with no table per box.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ResourceLimitError

# Largest limit the shared sieve will cover.
SIEVE_MAX_LIMIT = 10**7


@dataclass(frozen=True)
class ArithTable:
    """Totient, Moebius, Mertens and mu*mu prefix values for 0..limit (index 0 holds 0)."""

    limit: int
    phi: np.ndarray = field(repr=False)
    mu: np.ndarray = field(repr=False)
    mertens: np.ndarray = field(repr=False)  # mertens[n] = mu[1] + ... + mu[n]

    @cached_property
    def mu_square(self) -> np.ndarray:
        """Prefix sums of the Dirichlet square (mu*mu)(c) = sum_{ab=c} mu(a) mu(b)
        for c = 0..limit.

        Each c = ab with a < b gets 2 mu(a) mu(b) and c = a^2 gets mu(a)^2,
        so one slice-add over mu per squarefree a <= sqrt(limit) fills it.
        """
        mu, limit = self.mu, self.limit
        g = np.zeros(limit + 1, dtype=np.int64)
        for a in range(1, math.isqrt(limit) + 1):
            if mu[a]:
                g[a * a] += 1
                g[a * (a + 1) :: a] += 2 * mu[a] * mu[a + 1 : limit // a + 1]
        prefix = np.cumsum(g)
        prefix.setflags(write=False)
        return prefix


def build_arith_tables(limit: int) -> ArithTable:
    """Fill phi, mu and their Mertens sums up to ``limit`` with a linear sieve.

    Every composite m is reached once, as m = n * p with p the smallest
    prime factor of m, before the pass gets to m; so the n still at
    phi[n] == 0 when the pass gets to them are the primes.
    Satisfies sum_{d|n} phi(d) = n and sum_{d|n} mu(d) = [n = 1] for every
    n <= limit; both functions are multiplicative on coprime arguments.
    """
    if limit < 1:
        raise ValueError("limit must be a positive integer")
    # machine-int arrays: fast scalar access, 8 bytes per entry, shared with numpy below
    phi, mu = (array("q", [0]) * (limit + 1) for _ in range(2))
    phi[1] = 1
    mu[1] = 1
    primes: list[int] = []
    for n in range(2, limit + 1):
        if phi[n] == 0:  # n is prime
            primes.append(n)
            phi[n] = n - 1
            mu[n] = -1
        for p in primes:
            m = n * p
            if m > limit:
                break
            if n % p == 0:
                phi[m] = phi[n] * p
                break
            phi[m] = phi[n] * (p - 1)
            mu[m] = -mu[n]
    phi, mu = (np.frombuffer(values, dtype=np.int64) for values in (phi, mu))
    arrays = (phi, mu, np.cumsum(mu))
    for a in arrays:
        a.setflags(write=False)
    return ArithTable(limit, *arrays)


_shared: ArithTable | None = None


def arith_table(limit: int) -> ArithTable:
    """The shared sieve, covering at least 1..limit.

    A request beyond the current table rebuilds it at the power of two at
    or above ``limit`` (at least 1024), so nearby requests reuse one sieve.
    Requests above SIEVE_MAX_LIMIT are refused before anything is built.
    """
    global _shared
    if limit > SIEVE_MAX_LIMIT:
        raise ResourceLimitError(f"sieve request {limit} exceeds the cap {SIEVE_MAX_LIMIT}")
    if _shared is None or _shared.limit < limit:
        _shared = build_arith_tables(1 << max(10, (limit - 1).bit_length()))
    return _shared


def r_direct(n: int, X: int, Y: int) -> int:
    """r(n) by divisor enumeration up to sqrt(n): 2 * #{d | n : d <= X, n/d <= Y}."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    count = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d:
            continue
        e = n // d
        if d <= X and e <= Y:
            count += 1
        if d != e and e <= X and d <= Y:
            count += 1
    return 2 * count


def build_r_table(X: int, Y: int, out: np.ndarray) -> None:
    """Add r(n) into out[n - 1] for 1 <= n <= X*Y, in place.

    Fast fill: for each d <= min(X, Y) one slice-add puts 2 at every
    multiple d*m with m <= max(X, Y) (r is symmetric in X, Y).  ``out`` must
    be zero on 0..XY-1, of an integer dtype wide enough for 2 min(X, Y).
    """
    if X < 1 or Y < 1:
        raise ValueError("box bounds must be positive integers")
    X, Y = min(X, Y), max(X, Y)
    two = out.dtype.type(2)  # a scalar of the row's own dtype adds faster than a Python int
    for d in range(1, X + 1):
        multiples = out[d - 1 : d * Y : d]
        multiples += two
