"""Explicit constants and main terms, compared against the exact counts.

Constants (zeta(2) = pi^2/6, zeta(3) summed with Euler-Maclaurin tail
corrections to well below 1e-12):

    c        = 66 - 2 pi^2
    C0       = c zeta(2)/zeta(3)                  (leading constant of M and P)
    kappa2   = (33 - 6 zeta(2)) / (2 zeta(2) zeta(3))
                                                  (B log B coefficient of N)
    boundary = 48/zeta(3) - 12/zeta(2)            (B coefficient of N - N0)

Main terms:

    M(X, Y) ~ 4 Y^2 sum_{q <= X} (phi(q)/q) F(floor(X/q))      (finite: F(0) = 0)
            ~ C0 (X Y)^2,
    N(B)    ~ kappa2 B log B + C B,
    N - N0  ~ boundary * B,

with deviations normalised by the error scales (XY)^(3/2) log X log Y,
B^(7/8) log^2 B and B^(3/4) log^2 B respectively (log X enters as
max(log X, 1) so the metric stays finite near X = e^0).

Floating accumulations below run in ascending index order through
math.fsum, or through exact Fraction sums rounded once, which give the
same correctly rounded value; given identical inputs the results are
bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .arith import arith_table
from .closed_forms import F_rounded, check_harmonic_n
from .counts import m_fast, n_times4, w_counts
from .errors import ResourceLimitError

_ZETA3_CUTOFF = 10_000


@lru_cache(maxsize=1)
def zeta3_value() -> float:
    """zeta(3) = sum n^-3, summed to N = 10^4 with the tail replaced by

        1/(2N^2) - 1/(2N^3) + 1/(4N^4) - 1/(12 N^6) + O(N^-8),

    leaving an error around 1e-26, far below the 1e-12 requirement.  Each
    term divides by an exact n^3 < 2^53, so it rounds once, with no libm pow.
    """
    N = _ZETA3_CUTOFF
    terms = [1.0 / (n * n * n) for n in range(1, N + 1)]
    tail = 0.5 / N**2 - 0.5 / N**3 + 0.25 / N**4 - 1 / (12 * N**6)
    return math.fsum(terms + [tail])


@dataclass(frozen=True)
class ConstantSet:
    zeta2: float
    zeta3: float
    c: float
    C0: float
    kappa2: float
    boundary: float


@lru_cache(maxsize=1)
def constants() -> ConstantSet:
    z2 = math.pi**2 / 6.0
    z3 = zeta3_value()
    c = 66.0 - 2.0 * math.pi**2
    return ConstantSet(
        zeta2=z2,
        zeta3=z3,
        c=c,
        C0=c * z2 / z3,
        kappa2=(33.0 - 6.0 * z2) / (2.0 * z2 * z3),
        boundary=48.0 / z3 - 12.0 / z2,
    )


@dataclass(frozen=True)
class DeviationRecord:
    """An exact count against its main term, on the matching error scale."""

    inputs: tuple
    exact: float
    main: float
    scale: float
    deviation: float


def singular_series_partial(Q: int) -> float:
    """sum_{q<=Q} phi(q)/q^3, ascending; converges to zeta(2)/zeta(3),
    with tail below 1/Q.  Q is capped by the shared sieve (SIEVE_MAX_LIMIT).
    """
    return math.fsum(_singular_series_terms(Q))


def singular_series_partials(Q: int) -> list[float]:
    """singular_series_partial(q) for q = 1..Q in one pass.

    The terms are added exactly and each prefix is rounded once, as
    math.fsum rounds it, so every partial is bit-identical to its
    singular_series_partial(q).
    """
    return [float(s) for s in accumulate(map(Fraction, _singular_series_terms(Q)))]


def _singular_series_terms(Q: int) -> list[float]:
    if Q < 1:
        raise ValueError("Q must be >= 1")
    phi = arith_table(Q).phi
    return [int(phi[q]) / q**3 for q in range(1, Q + 1)]


def main_term_thm1(X: float, Y: float) -> float:
    """4 Y^2 sum_{q>=1} (phi(q)/q) F(floor(X/q)); the sum stops at q = floor(X).

    For integer X, math.floor(X / q) equals X // q whenever X + q < 2^53,
    far beyond the sieve cap on X.  floor(X/q) takes fewer than 2 sqrt(X)
    distinct values, so one F_rounded call rounds F once per value.  The
    terms stream into math.fsum, which rounds their exact sum once, so no
    list of one term per q is held (at X = 2239 the call traces 17 kB,
    against 94 kB with one).
    """
    if Y < 0:
        raise ValueError("box bounds must be nonnegative")
    if X < 1.5:
        raise ValueError("the expansion needs X >= 3/2")
    top = math.floor(X)
    check_harmonic_n(top)
    phi = arith_table(top).phi
    ns = list({math.floor(X / q) for q in range(1, top + 1)})
    F = dict(zip(ns, F_rounded(ns)))
    return 4.0 * Y * Y * math.fsum(int(phi[q]) / q * F[math.floor(X / q)] for q in range(1, top + 1))


def _log_scale(x: float) -> float:
    return max(math.log(x), 1.0)


def deviation_thm1(X: int, Y: int) -> DeviationRecord:
    """|M(X,Y) - main term| over (XY)^(3/2) max(log X, 1) log Y."""
    if Y <= 1:
        raise ValueError("the deviation scale (XY)^(3/2) max(log X, 1) log Y needs Y > 1")
    exact = m_fast(X, Y)
    main = main_term_thm1(X, Y)
    scale = (X * Y) ** 1.5 * _log_scale(X) * math.log(Y)
    return DeviationRecord(
        inputs=(X, Y),
        exact=float(exact),
        main=main,
        scale=scale,
        deviation=abs(exact - main) / scale,
    )


def fit_theorem2(B_grid: list[int]) -> tuple[float, float]:
    """Least-squares fit of N(B) ~ kappa B log B + C B over the grid.

    Solved through the closed-form 2x2 normal equations (deterministic).
    A degenerate grid (fewer than two distinct points) raises ValueError.
    """
    if len(set(B_grid)) < 2:
        raise ValueError("fit needs at least two distinct B values")
    return solve_log_linear(B_grid, [n_times4(B) / 4.0 for B in B_grid])


def solve_log_linear(B_grid: list[int], values: list[float]) -> tuple[float, float]:
    """Least-squares (kappa, C) for values ~ kappa B log B + C B over the grid,
    through the 2x2 normal equations accumulated in grid order.

    Singular normal equations raise ValueError.
    """
    s11 = s12 = s22 = r1 = r2 = 0.0
    for B, nb in zip(B_grid, values):
        f1 = B * math.log(B)
        f2 = float(B)
        s11 += f1 * f1
        s12 += f1 * f2
        s22 += f2 * f2
        r1 += f1 * nb
        r2 += f2 * nb
    det = s11 * s22 - s12 * s12
    if det <= 0.0 or det < 1e-12 * s11 * s22:
        raise ValueError("normal equations are singular for this grid")
    kappa_hat = (r1 * s22 - r2 * s12) / det
    c_hat = (s11 * r2 - s12 * r1) / det
    return kappa_hat, c_hat


def fit_residual_trend(B_grid: list[int]) -> list[DeviationRecord]:
    """Residuals of the two-parameter fit on the B^(7/8) log^2 B scale."""
    if min(B_grid, default=2) <= 1:
        raise ValueError("the residual scale B^(7/8) log^2 B needs B > 1")
    kappa_hat, c_hat = fit_theorem2(B_grid)
    out = []
    for B in B_grid:
        exact = n_times4(B) / 4.0
        main = kappa_hat * B * math.log(B) + c_hat * B
        scale = B ** (7.0 / 8.0) * math.log(B) ** 2
        out.append(
            DeviationRecord(
                inputs=(B,), exact=exact, main=main, scale=scale,
                deviation=abs(exact - main) / scale,
            )
        )
    return out


def boundary_check(B: int) -> DeviationRecord:
    """|(N - N0) - boundary * B| over B^(3/4) log^2 B.

    N - N0 = (W1 + W2 + W3 + W4)/4 exactly, so only the hyperplane counts
    are needed.
    """
    w = w_counts(B)
    exact = sum(w) / 4.0
    k = constants()
    main = k.boundary * B
    scale = B**0.75 * max(math.log(B), 1.0) ** 2
    return DeviationRecord(
        inputs=(B,), exact=exact, main=main, scale=scale,
        deviation=abs(exact - main) / scale,
    )


HEIGHT_ZETA_MAX_CUTOFF = 400


def height_zeta_truncated(s: float, height_cutoff: int) -> float:
    """The primitive-pair height zeta series, truncated at |x||y| <= cutoff:

        sum_{h<=cutoff} (4N(h^2) - 4N((h-1)^2)) h^(-2s),

    summed in ascending h.  Requires s > 1 (abscissa of convergence)."""
    if not s > 1.0:
        raise ValueError("the series needs s > 1")
    if height_cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if height_cutoff > HEIGHT_ZETA_MAX_CUTOFF:
        raise ResourceLimitError(f"height cutoff capped at {HEIGHT_ZETA_MAX_CUTOFF}")
    terms = []
    prev = 0
    for h in range(1, height_cutoff + 1):
        cur = n_times4(h * h)
        terms.append((cur - prev) * h ** (-2.0 * s))
        prev = cur
    return math.fsum(terms)


def height_zeta_tail_bound(s: float, height_cutoff: int, horizon: int) -> float:
    """Bound on the series increment between cutoff and a larger horizon,
    from the counted pairs alone.  Requires s > 1 and
    1 <= cutoff < horizon <= HEIGHT_ZETA_MAX_CUTOFF."""
    if not s > 1.0:
        raise ValueError("the series needs s > 1")
    if not 1 <= height_cutoff < horizon <= HEIGHT_ZETA_MAX_CUTOFF:
        raise ValueError(f"need 1 <= cutoff < horizon <= {HEIGHT_ZETA_MAX_CUTOFF}")
    lo = n_times4(height_cutoff**2)
    hi = n_times4(horizon**2)
    return (hi - lo) * (height_cutoff + 1) ** (-2.0 * s)
