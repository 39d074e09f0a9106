"""The integral sine, the triple-sine integral, and their closed forms.

Closed forms implemented here:

  * For positive w1, w2, w3, with Box(v) = v|v| (``closed_forms.box_fn``),

        I(w1,w2,w3) = int_{-inf}^{inf} sin(w1 t) sin(w2 t) sin(w3 t) / t^3 dt
                    = (pi/8) [ (w1+w2+w3)^2 + Box(w1-w2-w3)
                               + Box(w2-w3-w1) + Box(w3-w1-w2) ].

  * int_0^inf (Si t)^3 / t^3 dt = 33 pi/32 - pi^3/32, where
    Si t = int_0^t sin(a)/a da.

  * J(q) = (2 floor(Y) + 1)^2 * F(floor(X/q)), the closed form of the
    cubed-kernel integral int v_q(g)^3 dg evaluated by the circle module.

Each improper integral is evaluated as (value over [eps, T]) plus an
analytic tail, and is reported as a QuadResult carrying the value and a
tail/residual bound.  The report's rows compare the value against the
fixed tolerances of ``Calibration`` (1e-6) and do not read the bound; at
the default truncation T = 1e4 it is 1/T^2 = 1e-8 for the triple sine and
about 1e-9 for the cubed Si, far inside those tolerances.

Quadrature is fixed-order Gauss-Legendre on panels.  Each panel is
integrated by the rules of order n and n + 1 from 2n + 1 integrand values,
taken in one integrand call (the embedded-rule idea of QUADPACK, Piessens
et al. 1983); a panel keeps the order n + 1 value when the two differ by
at most its share of the tolerance, and is bisected otherwise.  The order
follows what one panel holds: a panel spanning H half-periods pi/Omega of
its integrand's top frequency Omega is integrated at n = 6 + H
(``panel_order``).  The
triple-sine integrand (Omega = w1 + w2 + w3) and the cubed-Si integrand
(Omega = 3) are entire, so [eps, T] is cut into equal panels of
H = 16 half-periods each (``oscillatory_panels``), and the rare panel that
n = 22 does not resolve is bisected.  The J(q) integrand v_q(gamma)^3
(``circle.j_quadrature``) has its panels cut at the zeros
j/(2 floor(Y) + 1) of the outer sine, and each holds up to
H = 3 floor(X/q) half-periods of the cube: n = 6 + 3 floor(X/q).  A
panel's share is its length-proportional part of the tolerance, floored
at the panel's own rounding level 50 eps |G| (eps the float64 machine
epsilon, G the panel's order n + 1 value), as in QUADPACK: no panel is
asked to agree beyond what float64 can resolve, so whether a panel
converges does not depend on how the platform rounds.  One routine,
``_gl_sums``, applies every rule, here and in the sine integral below; it
sums each panel's weighted values by a numpy row sum, which rounds every
row alone (a BLAS product rounds by its kernel and the rows it is handed),
so the blocks a level is cut into cannot move a bit.  Panel results are
added by math.fsum, correctly rounded and so independent of their order.

The integrand protocol: ``_gl_sums`` calls the integrand once per block of
panels with a ``Panels``, the midpoints m and half-widths h as columns and
the reference nodes u of both rules as a row, and the integrand returns
its values at the points m + h u, one row per panel.  A plain integrand
(the cubed Si, the sinc of the Si table) forms t = m + h u in one line.
The triple-sine integrand reads the phases instead: by angle addition

    sin(w (m + h u)) = sin(w m) cos(w h u) + cos(w m) sin(w h u),

so it takes a sine and a cosine of w m once per panel and of w h u once
per distinct half-width of the block, a tenth of the sines of one per
point.  The equal panels of a level have few distinct half-widths (12 to
15 among the ~2,000 of a benchmark triple, which differ only in their last
bits), and bisection halves them all alike, so this holds at every level.
The points m + h u, and so the factor 1/t^3, are formed exactly as before;
only the sines round differently, by the rounding of w m against that of
w t (their panel sums agree to 1.1e-14 of the largest).  The J(q)
integrand's parity rows (``circle.j_quadrature``) use the same protocol.

The sine integral uses three regimes, each with truncation error below
1e-13:  the Maclaurin series for t <= 2 (terms fall below 1e-17 by k = 13);
cumulative panel quadrature between the breakpoints {2} u {k pi} for
2 < t <= 40 (order 32 on the table panels, which are shorter than pi, and
order 24 from the last breakpoint to t, where the fixed rule is exact to
rounding); and for t > 40 the asymptotic form

    Si t = pi/2 - cos(t) P(1/t) - sin(t) Q(1/t),
    P(u) ~ u (1 - 2! u^2 + 4! u^4 - ...),  Q(u) ~ u^2 (1 - 3! u^2 + 5! u^4 - ...),

truncated at 16 terms, past the smallest term at t = 40 (first omitted
term < 2e-16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .closed_forms import F_rounded, box_fn
from .errors import ConvergenceError, ResourceLimitError

_PI = math.pi
# a panel is never asked to agree beyond 50 ulps of its own size
_ROUNDING_FLOOR = 50.0 * np.finfo(float).eps
# absolute tolerance of every improper integral's panel quadrature
QUAD_TOLERANCE = 1.0e-9
# levels of panels integrate_panels may use, the given panels being the first
_MAX_DEPTH = 12
# half-periods of the top frequency on one equal oscillatory panel: 12 to
# 32 all run the triple-sine and cubed-Si integrals within 15% of the time
# at 16, but from 20 up the cubed-Si value moves 1.6e-14 to 3e-14 off its
# closed form (1.8e-15 at 16)
_HALF_PERIODS = 16

# integrand points per call of the integrand: the panels of one level run
# in blocks of at most this many points, so the integrand's temporaries stay
# at one block's size.  j_quadrature(1, 10, 100) has a traced peak of 23 MB
# unblocked, 0.95 MB at 8192 and 0.70 MB at 4096; at 8192 J(q), triple-sine
# and cubed-Si calls take the unblocked time (best of 10-30, 2-core x86-64
# host), at 4096 up to 15% more.
_BLOCK_POINTS = 8192
# Cap on the panels oscillatory_panels cuts, checked before any is made:
# triple_sine_quad(1, 1, 5024) cuts 999,891 in ~2.8 s with a traced peak of
# 51 MB, and si_cubed_quad at T = 1.6e7 cuts 954,930 in ~3.5 s (2-core
# x86-64 host).  The suites and the benchmark cut at most ~2,000.
MAX_PANELS = 10**6


@dataclass(frozen=True)
class QuadratureConfig:
    """Truncation point of the improper integrals."""

    truncation: float = 1.0e4

    def __post_init__(self):
        # a NaN fails the comparison too
        if not 1.0 <= self.truncation < math.inf:
            raise ValueError("truncation must be finite and >= 1")


class QuadResult(NamedTuple):
    """A quadrature value together with the bound on everything left out."""

    value: float
    tail_bound: float


# J(q) integrates at order 6 + 3 floor(X/q), so one order per floor(X/q)
# besides the fixed ones: a rule costs 0.1-0.5 ms to build up to order 37
@lru_cache(maxsize=128)
def _gl_nodes(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def panel_order(half_periods: int) -> int:
    """The Gauss-Legendre order of a panel that holds ``half_periods``
    half-periods of its integrand's top frequency: 6 + half_periods."""
    return 6 + half_periods


def oscillatory_panels(a: float, b: float, omega: float) -> tuple[np.ndarray, int]:
    """Equal panels over [a, b] of at most ``_HALF_PERIODS`` half-periods
    pi/omega each, and the order that resolves one of them.  More than
    ``MAX_PANELS`` panels raise ResourceLimitError before any is cut."""
    count = math.ceil((b - a) / (_HALF_PERIODS * _PI / omega))
    if count > MAX_PANELS:
        raise ResourceLimitError(f"oscillatory panels capped at {MAX_PANELS}")
    return np.linspace(a, b, count + 1), panel_order(_HALF_PERIODS)


class Panels(NamedTuple):
    """One block of panels as ``_gl_sums`` hands it to an integrand: the
    midpoints and half-widths as columns, the reference nodes in [-1, 1] as
    a row.  The integrand returns its values at mid + half * u, one row per
    panel."""

    mid: np.ndarray
    half: np.ndarray
    u: np.ndarray

    @property
    def size(self) -> int:
        """The number of points mid + half * u (the benchmark's tracer counts them)."""
        return self.mid.size * self.u.size


def _gl_sums(f: Callable[[Panels], np.ndarray], a: np.ndarray, b: np.ndarray, *orders: int) -> np.ndarray:
    """The Gauss-Legendre values of f on each panel [a[i], b[i]], one row
    per order in ``orders``: f is called once per block of about
    ``_BLOCK_POINTS`` points with the nodes of every order in one row, and
    each panel and order summed by a row sum, so the blocks cannot move a bit."""
    rules = [_gl_nodes(n) for n in orders]
    u = np.concatenate([x for x, _ in rules])
    cuts = np.cumsum(orders[:-1])
    half = ((b - a) / 2.0)[:, None]
    mid = ((a + b) / 2.0)[:, None]
    rows = max(1, _BLOCK_POINTS // u.size)
    sums = np.empty((len(orders), half.shape[0]))
    for lo in range(0, half.shape[0], rows):
        block = slice(lo, lo + rows)
        values = np.split(f(Panels(mid[block], half[block], u)), cuts, axis=1)
        for i, (v, (_, weights)) in enumerate(zip(values, rules)):
            sums[i, block] = (v * weights).sum(axis=1)
    return half[:, 0] * sums


def integrate_panels(
    f: Callable[[Panels], np.ndarray],
    breakpoints: np.ndarray,
    *,
    order: int,
) -> float:
    """Integrate a vectorised integrand over consecutive panels.

    Each panel gets two Gauss-Legendre estimates, orders ``order`` and
    ``order + 1``, from ``2 order + 1`` integrand values (the two rules
    share no node).  A panel whose two estimates differ by at most its
    share contributes the order ``order + 1`` value; any other panel is
    bisected and both rules run on each half, over at most ``_MAX_DEPTH``
    levels of panels (the given panels are the first).  A panel's share,
    ``QUAD_TOLERANCE * (b - a) / total_len`` read at each call, is floored
    at ``50 eps |G|``, the rounding level of its order ``order + 1`` value
    G.  The accepted panel values are added by ``math.fsum``, which rounds
    the exact sum once, so the result does not depend on the order the
    panels converge in.  The integrand is called with a ``Panels`` on
    blocks of ``max(1, _BLOCK_POINTS // (2 order + 1))`` panels, the nodes
    of both rules in one row, so its temporaries, and so peak memory, stay
    at one block's size however many panels a level holds; each panel's
    values are added by a numpy row sum, which rounds every row alone, so
    no block moves a bit.

    Raises ConvergenceError when some panel of the last level still misses
    its share.  Because of the floor this means the integrand is not
    resolved at this order and depth, never that the tolerance lies below
    float64 resolution.

    Precondition: the integrand is smooth on every given panel.  The two
    rules see it only at their nodes, so a kink (or jump) that lies beyond
    every node of both goes undetected: for |x - 0.123456789| on
    [0, 0.125] at order 2 the 2- and 3-point values agree to 9e-19 while
    the panel's true error is 2.4e-6.  The package's callers meet the
    precondition with integrands that are entire, so any panel will do:
    ``triple_sine_quad`` and ``si_cubed_quad`` integrate
    sin(w1 t) sin(w2 t) sin(w3 t)/t^3 and (Si t)^3/t^3 over [eps, T] on
    the equal panels of ``oscillatory_panels`` (the computed Si changes
    regime at t = 2 and 40 inside panels, where it steps by under 1e-15,
    far below a panel's share), and ``circle.j_quadrature``
    integrates v_q^3 on panels cut at the zeros j/(2 floor(Y) + 1) of its
    outer sine.
    """
    pts = np.asarray(breakpoints, dtype=float)
    if pts.size < 2:
        return 0.0
    total_len = float(pts[-1] - pts[0])

    a = pts[:-1]
    b = pts[1:]
    finished: list[np.ndarray] = []  # the accepted panel values of each depth
    depth = 0
    while a.size:
        if depth >= _MAX_DEPTH:
            raise ConvergenceError("panel bisection budget exhausted")
        lo, hi = _gl_sums(f, a, b, order, order + 1)
        share = np.maximum(
            QUAD_TOLERANCE * np.maximum((b - a) / total_len, 1e-300),
            _ROUNDING_FLOOR * np.abs(hi),
        )
        done = np.abs(hi - lo) <= share
        finished.append(hi[done])
        keep = ~done
        mid = (a + b) / 2.0
        a = np.concatenate([a[keep], mid[keep]])
        b = np.concatenate([mid[keep], b[keep]])
        depth += 1
    return math.fsum(np.concatenate(finished))


# ---------------------------------------------------------------------------
# Sine integral
# ---------------------------------------------------------------------------

_SI_SERIES_CUT = 2.0
_SI_ASYMPTOTIC_CUT = 40.0
_SI_SERIES_TERMS = 14
_SI_ASYMPTOTIC_TERMS = 16


def _si_series(t: np.ndarray) -> np.ndarray:
    # Si t = sum_k (-1)^k t^(2k+1) / ((2k+1) (2k+1)!)
    t2 = t * t
    acc = np.zeros_like(t)
    term = t.copy()
    fact = 1.0
    for k in range(_SI_SERIES_TERMS):
        n = 2 * k + 1
        acc = acc + term / (n * fact)
        term = -term * t2
        fact = fact * (n + 1) * (n + 2)
    return acc


def _si_asymptotic(t: np.ndarray) -> np.ndarray:
    u2 = 1.0 / (t * t)
    p = np.zeros_like(t)
    q = np.zeros_like(t)
    cp = 1.0  # (2k)!
    cq = 1.0  # (2k+1)!
    sgn = 1.0
    upow = np.ones_like(t)
    for k in range(_SI_ASYMPTOTIC_TERMS):
        p = p + sgn * cp * upow
        q = q + sgn * cq * upow
        cq_next = cq * (2 * k + 2) * (2 * k + 3)
        cp = cp * (2 * k + 1) * (2 * k + 2)
        cq = cq_next
        sgn = -sgn
        upow = upow * u2
    return _PI / 2.0 - np.cos(t) * p / t - np.sin(t) * q / (t * t)


def _sinc(p: Panels) -> np.ndarray:
    t = p.mid + p.half * p.u
    return np.sin(t) / t


@lru_cache(maxsize=1)
def _si_mid_table():
    """Cumulative Si at the mid-regime breakpoints {2} u {k pi <= 40}."""
    brk = [_SI_SERIES_CUT] + [k * _PI for k in range(1, 14) if k * _PI > _SI_SERIES_CUT]
    brk = np.asarray([b for b in brk if b <= _SI_ASYMPTOTIC_CUT] + [_SI_ASYMPTOTIC_CUT])
    panels = _gl_sums(_sinc, brk[:-1], brk[1:], 32)[0]
    return brk, np.cumsum(np.concatenate([_si_series(brk[:1]), panels]))


def _si_mid(t: np.ndarray) -> np.ndarray:
    # 2 < t <= 40, so every t lies on a table panel [brk[idx], brk[idx + 1])
    # or at its last breakpoint, and every node in [2, 40]
    brk, cum = _si_mid_table()
    idx = np.searchsorted(brk, t, side="right") - 1
    return cum[idx] + _gl_sums(_sinc, brk[idx], t, 24)[0]


def si(t):
    """Si t = int_0^t sin(a)/a da, accurate to better than 1e-12.

    Accepts a scalar or an ndarray; finite nonnegative arguments only.
    """
    arr = np.asarray(t, dtype=float)
    if not np.all((arr >= 0) & (arr < math.inf)):  # false for a NaN too
        raise ValueError("si is defined here for finite t >= 0")
    scalar = arr.ndim == 0
    x = np.atleast_1d(arr)
    out = np.empty_like(x)
    lo = x <= _SI_SERIES_CUT
    hi = x > _SI_ASYMPTOTIC_CUT
    mid = ~lo & ~hi
    if lo.any():
        out[lo] = _si_series(x[lo])
    if mid.any():
        out[mid] = _si_mid(x[mid])
    if hi.any():
        out[hi] = _si_asymptotic(x[hi])
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Triple sine integral
# ---------------------------------------------------------------------------


def _check_frequencies(*w: float) -> None:
    # a NaN fails the comparison too
    if not all(0 < x < math.inf for x in w):
        raise ValueError("frequencies must be positive and finite")


def triple_sine_closed(w1: float, w2: float, w3: float) -> float:
    """Closed form of int_{-inf}^{inf} sin(w1 t) sin(w2 t) sin(w3 t)/t^3 dt."""
    _check_frequencies(w1, w2, w3)
    s = w1 + w2 + w3
    return (_PI / 8.0) * (
        s * s + box_fn(w1 - w2 - w3) + box_fn(w2 - w3 - w1) + box_fn(w3 - w1 - w2)
    )


def _triple_sine_small_t(w: tuple[float, float, float], eps: float) -> float:
    # integrand = w1 w2 w3 (1 - (sum w^2) t^2/6 + c4 t^4 + ...) near t = 0
    w1, w2, w3 = w
    sq = w1 * w1 + w2 * w2 + w3 * w3
    c4 = (w1 * w1 * w2 * w2 + w1 * w1 * w3 * w3 + w2 * w2 * w3 * w3) / 36.0 + (
        w1**4 + w2**4 + w3**4
    ) / 120.0
    return w1 * w2 * w3 * (eps - sq * eps**3 / 18.0 + c4 * eps**5 / 5.0)


def triple_sine_quad(w1: float, w2: float, w3: float) -> QuadResult:
    """The triple-sine integral by panel quadrature.

    The integrand is even, so 2 * int_0^T is computed, T the default
    ``QuadratureConfig`` truncation, on the equal panels of
    ``oscillatory_panels`` for the top frequency Omega = w1 + w2 + w3;
    |t| < eps = min(1e-3, 0.03/Omega) uses the even Maclaurin branch, whose
    first dropped term is below w1 w2 w3 eps (Omega eps)^6 / 5040, and the
    tail beyond T is bounded by 2 int_T^inf t^-3 dt = 1/T^2.  A top
    frequency that needs more than ``MAX_PANELS`` panels raises
    ResourceLimitError.
    """
    _check_frequencies(w1, w2, w3)
    omega = w1 + w2 + w3
    eps = min(1.0e-3, 0.03 / omega)
    T = QuadratureConfig().truncation
    brk, order = oscillatory_panels(eps, T, omega)

    def integrand(p: Panels) -> np.ndarray:
        # a set, not np.unique, whose first call adds 0.38 MB to the peak RSS
        halves = np.array(sorted(set(p.half[:, 0].tolist())))
        row = halves.searchsorted(p.half[:, 0])
        hu = halves[:, None] * p.u

        def sine(w):  # sin(w (m + h u)) = sin(w m) cos(w h u) + cos(w m) sin(w h u)
            wm, whu = w * p.mid, w * hu
            s = np.cos(whu)[row]
            s *= np.sin(wm)
            c = np.sin(whu)[row]
            c *= np.cos(wm)
            s += c
            return s

        # in place, so a block holds at most four arrays of its points
        v = sine(w1)
        v *= sine(w2)
        v *= sine(w3)
        t = p.mid + p.half * p.u
        v /= t * t * t
        return v

    body = integrate_panels(integrand, brk, order=order)
    head = _triple_sine_small_t((w1, w2, w3), eps)
    tail_bound = 1.0 / (T * T)
    return QuadResult(value=2.0 * (head + body), tail_bound=tail_bound)


# ---------------------------------------------------------------------------
# The cubed sine integral
# ---------------------------------------------------------------------------


def si_cubed_closed() -> float:
    """33 pi/32 - pi^3/32, the closed form of int_0^inf (Si t)^3/t^3 dt."""
    return 33.0 * _PI / 32.0 - _PI**3 / 32.0


def si_cubed_quad(cfg: QuadratureConfig | None = None) -> QuadResult:
    """int_0^inf (Si t)^3 / t^3 dt by panel quadrature on [eps, T].

    The panels are those of ``oscillatory_panels`` for the top frequency 3
    of (Si t)^3 = (pi/2 - cos(t)/t - ...)^3, so a truncation that needs
    more than ``MAX_PANELS`` panels raises ResourceLimitError.

    Near zero (Si t)^3/t^3 -> 1; the branch below eps = 1e-3 integrates the
    even series (1 - t^2/6 + (77/5400) t^4).  Beyond T the expansion
    Si t = pi/2 - cos(t)/t - sin(t)/t^2 + O(t^-3) gives the analytic tail
    (pi/2)^3/(2 T^2); the oscillatory corrections are O(T^-3) and enter the
    reported residual bound instead of the value.
    """
    cfg = cfg or QuadratureConfig()
    if cfg.truncation < 100.0:
        raise ValueError("cubed-sine truncation below 100 cannot meet tolerance")
    eps = 1.0e-3
    T = cfg.truncation
    brk, order = oscillatory_panels(eps, T, 3.0)

    def integrand(p: Panels) -> np.ndarray:
        t = p.mid + p.half * p.u
        s = si(t)
        return s * s * s / (t * t * t)

    body = integrate_panels(integrand, brk, order=order)
    head = eps - eps**3 / 18.0 + (77.0 / 27000.0) * eps**5
    tail = (_PI / 2.0) ** 3 / (2.0 * T * T)
    # |Si t - pi/2| <= 1.1/t for t >= 100 bounds the dropped oscillatory part
    residual = 3.0 * (_PI / 2.0 + 1.1 / T) ** 2 * 1.1 * (2.0 / (3.0 * T**3)) + QUAD_TOLERANCE
    return QuadResult(value=head + body + tail, tail_bound=residual)


# ---------------------------------------------------------------------------
# The closed form of the cubed-kernel integral J(q)
# ---------------------------------------------------------------------------


def j_closed(q: int, X: float, Y: float) -> float:
    """J(q) = (2 floor(Y) + 1)^2 * F(floor(X/q)); zero whenever q > X."""
    if q < 1:
        raise ValueError("q must be a positive integer")
    if X < 0 or Y < 0:
        raise ValueError("box bounds must be nonnegative")
    n = math.floor(X / q)
    m = math.floor(Y)
    return (2 * m + 1) ** 2 * F_rounded([n])[0]
