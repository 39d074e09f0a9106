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

Each improper integral is evaluated as (value over [0, T]) plus an
analytic tail, and is reported as a QuadResult carrying the value and a
tail/residual bound.  The triple sine's tail past T = 200 is exact, four
integral sines by product to sum, so its bound is only that tail's own
error: Si's 1e-14 times the squared frequencies, and rounding, 4.1e-14 at
(1, 1, 1) and 4.9e-9 at (0.5, 0.5, 600).  The cubed Si's tail past its
default T = 1e4 is the leading term of an expansion, bounded by about
1e-9.  The report's rows compare the value against the fixed tolerances
of ``Calibration`` (1e-6) and do not read the bound.

Quadrature is fixed-order Gauss-Legendre on panels.  Each panel is
integrated by the rules of order n and n + 1 from 2n + 1 integrand values,
taken in one integrand call (the embedded-rule idea of QUADPACK, Piessens
et al. 1983); a panel keeps the order n + 1 value when the two differ by
at most its share of the tolerance, and is bisected otherwise.  The order
follows what one panel holds: a panel spanning H half-periods pi/Omega of
its integrand's top frequency Omega is integrated at n = 6 + H
(``panel_order``); the rules come from the Legendre recurrence
(``_gl_nodes``), without numpy.polynomial.  The triple-sine integrand
(Omega = w1 + w2 + w3) and the cubed-Si integrand (Omega = 3) are
entire, so [0, T] is cut into equal panels of H = 16 half-periods each
(``oscillatory_panels``), and the rare panel that n = 22 does not resolve
is bisected.  The nodes lie strictly inside each panel, so neither
integrand is taken at t = 0, where they are 0/0 with limits w1 w2 w3
and 1.  The J(q) integrand v_q(gamma)^3 (``circle.j_quadrature``) has
its panels cut at the zeros j/(2 floor(Y) + 1) of the outer sine, and
each holds up to H = 3 floor(X/q) half-periods of the cube:
n = 6 + 3 floor(X/q).  A panel's share is its length-proportional part
of the tolerance, floored at the panel's own rounding level 50 eps |G|
(eps the float64 machine epsilon, G the panel's order n + 1 value), as
in QUADPACK: no panel is asked to agree beyond what float64 can
resolve, so whether a panel converges does not depend on how the
platform rounds.  One routine, ``_gl_sums``, applies every rule, and
only for ``integrate_panels``; it sums each panel's weighted values by a
numpy row sum, which rounds every row alone (a BLAS product rounds by
its kernel and the rows it is handed), so the blocks a level is cut into
cannot move a bit.  Panel results are added by math.fsum, correctly
rounded and so independent of their order.

The integrand protocol: ``_gl_sums`` calls the integrand once per block of
panels with a ``Panels``, the midpoints m and half-widths h as columns and
the reference nodes u of both rules as a row, and the integrand returns
its values at the points m + h u, one row per panel.  A plain integrand
(the triple sine, the cubed Si) forms t = m + h u in one line; the J(q)
integrand's parity rows (``circle.j_quadrature``) read the nodes u alone.

The sine integral has two branches: the Maclaurin series for t <= 2
(terms fall below 1e-17 by k = 13), and beyond it

    Si t = pi/2 + Im E1(i t),
    E1(z) = e^-z / (z + 1 - 1^2/(z + 3 - 2^2/(z + 5 - ...))),

the continued fraction of Abramowitz and Stegun 5.1.22 taken bottom up
at depth 84 for 2 < t <= 60 and 6 beyond, both converged to rounding,
and the float pi/2 past t = 2^55.  Against 40-digit mpmath values the
error is at most 6.7e-16 over 80,000 t in (0, 1e7], as for scipy's sici.
"""

from __future__ import annotations

import math
import operator
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
# at 16, but from 20 up the cubed-Si value moves 4.4e-15 to 2.2e-14 off
# its closed form (0 at 16, 8.9e-16 at 12)
_HALF_PERIODS = 16

# integrand points per call of the integrand: the panels of one level run
# in blocks of at most this many points, so the integrand's temporaries stay
# at one block's size.  j_quadrature(1, 10, 100) has a traced peak of 23 MB
# unblocked, 0.95 MB at 8192 and 0.70 MB at 4096; at 8192 J(q), triple-sine
# and cubed-Si calls take the unblocked time (best of 10-30, 2-core x86-64
# host), at 4096 up to 15% more.
_BLOCK_POINTS = 8192
# where triple_sine_quad's panels end and its closed-form tail begins
_TRIPLE_SINE_TRUNCATION = 200.0
# Cap on the panels oscillatory_panels cuts, checked before any is made:
# triple_sine_quad(1, 1, 251298) cuts 999,887 in ~4.3 s with a traced peak
# of 57 MB, and si_cubed_quad at T = 1.6e7 cuts 954,930 in ~3.5 s (2-core
# x86-64 host).  The suites and the benchmark cut at most ~600.
MAX_PANELS = 10**6


@dataclass(frozen=True)
class QuadratureConfig:
    """Truncation point of the cubed-Si integral (``si_cubed_quad``), at
    least 100, where its residual bound starts to hold; the triple sine
    ends its panels at ``_TRIPLE_SINE_TRUNCATION`` and adds its tail past
    there exactly."""

    truncation: float = 1.0e4

    def __post_init__(self):
        # a NaN fails the comparison too
        if not 100.0 <= self.truncation < math.inf:
            raise ValueError("truncation must be finite and >= 100")


class QuadResult(NamedTuple):
    """A quadrature value together with the bound on everything left out."""

    value: float
    tail_bound: float


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_n(x), P_n'(x)) by the three-term recurrence
    (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1}, for x inside (-1, 1)."""
    prev, p = np.ones_like(x), x
    for k in range(1, n):
        prev, p = p, ((2 * k + 1) * x * p - k * prev) / (k + 1)
    return p, n * (prev - x * p) / (1.0 - x * x)


# J(q) integrates at order 6 + 3 floor(X/q), so one order per floor(X/q)
# besides the fixed ones: a rule takes 0.04 ms to build at order 6, 0.10 at
# 23 and 0.19 at 37, against 0.10, 0.27 and 0.44 for numpy's leggauss, whose
# first call also imports numpy.polynomial (best of 50, 2-core x86-64 host)
@lru_cache(maxsize=128)
def _gl_nodes(order: int):
    """The Gauss-Legendre rule of ``order`` points on [-1, 1] (Golub and
    Welsch, Math. Comp. 23, 1969): the nodes are the eigenvalues of the
    symmetric Jacobi matrix of the Legendre recurrence, off-diagonal
    k / sqrt(4k^2 - 1), polished by one Newton step on P_n; the weights are
    2 / ((1 - x^2) P_n'^2), P_n' from the same recurrence pass as the step
    (as numpy's ``leggauss`` takes it), and both are symmetrised about 0.
    Nodes and weights lie within 1e-14 of numpy's ``leggauss`` for orders
    1 to 64 (measured up to 5.2e-15)."""
    k = np.arange(1.0, order)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    p, dp = _legendre(order, x)
    x = x - p / dp
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0


def panel_order(half_periods: int) -> int:
    """The Gauss-Legendre order of a panel that holds ``half_periods``
    half-periods of its integrand's top frequency: 6 + half_periods."""
    return 6 + half_periods


def oscillatory_panels(b: float, omega: float) -> tuple[np.ndarray, int]:
    """Equal panels over [0, b] of at most ``_HALF_PERIODS`` half-periods
    pi/omega each, and the order that resolves one of them.  More than
    ``MAX_PANELS`` panels raise ResourceLimitError before any is cut."""
    count = math.ceil(b / (_HALF_PERIODS * _PI / omega))
    if count > MAX_PANELS:
        raise ResourceLimitError(f"oscillatory panels capped at {MAX_PANELS}")
    return np.linspace(0.0, b, count + 1), panel_order(_HALF_PERIODS)


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
    the panel's true error is 2.4e-6.  Every node lies strictly inside its
    panel, so an integrand need only be defined there, not at the
    breakpoints.  The package's callers meet the precondition with
    integrands that are entire, so any panel will do, and all three start
    at 0, where each is 0/0 with a finite limit: ``triple_sine_quad`` and
    ``si_cubed_quad`` integrate sin(w1 t) sin(w2 t) sin(w3 t)/t^3 over
    [0, 200] and (Si t)^3/t^3 over [0, T] on the equal panels of
    ``oscillatory_panels`` (the computed Si changes branch at t = 2 and
    depth at t = 60 inside panels, where it steps by under 1e-15, far
    below a panel's share), and ``circle.j_quadrature`` integrates v_q^3
    on panels cut at the zeros j/(2 floor(Y) + 1) of its outer sine.
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

# the absolute error bound of si, 15 times its largest measured error
# (6.7e-16, module docstring)
_SI_ERROR = 1.0e-14
_SI_SERIES_CUT = 2.0
_SI_SERIES_TERMS = 14
# (upper end of the band, depth of the continued fraction) above the series:
# at depth 84 the fraction is converged to 4.4e-16 just above t = 2 (1.6e-15
# at 80, 5e-14 at 60), and at depth 6 from t = 60 (4.4e-16 at depth 4)
_SI_FRACTION_BANDS = ((60.0, 84), (2.0**55, 6))


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


def _si_fraction(t: np.ndarray, depth: int) -> np.ndarray:
    # Si t = pi/2 + Im E1(i t), E1(z) = e^-z / d with the continued fraction
    # d = z + 1 - 1^2/(z + 3 - 2^2/(z + 5 - ...)) cut at ``depth`` and
    # taken bottom up, d = p + i q in real arithmetic
    p = np.full_like(t, 2.0 * depth + 1.0)
    q = t.copy()
    for k in range(depth, 0, -1):
        r = k * k / (p * p + q * q)
        p = (2 * k - 1) - r * p
        q = t + r * q
    return _PI / 2.0 - (p * np.sin(t) + q * np.cos(t)) / (p * p + q * q)


def si(t):
    """Si t = int_0^t sin(a)/a da, accurate to better than ``_SI_ERROR`` = 1e-14.

    The Maclaurin series for t <= 2, and Si t = pi/2 + Im E1(i t) beyond,
    E1 from its continued fraction (Abramowitz and Stegun 5.1.22; the
    ``cisi`` route of Numerical Recipes, section 6.8) at a fixed depth per
    band of t.  Past 2^55, |Si t - pi/2| <= 1/t <= 2.8e-17 and the float
    pi/2 lies 6.1e-17 from pi/2, so Si t is within half an ulp (1.1e-16)
    of the float pi/2, its correct rounding, which is returned (the
    fraction's p^2 + q^2 would overflow from t ~ 1.3e154).  Each element's
    branch and depth depend on its own t alone, so an array call gives the
    bits of the scalar calls.

    Accepts a scalar or an ndarray; finite nonnegative arguments only.
    """
    arr = np.asarray(t, dtype=float)
    if not np.all((arr >= 0) & (arr < math.inf)):  # false for a NaN too
        raise ValueError("si is defined here for finite t >= 0")
    scalar = arr.ndim == 0
    x = np.atleast_1d(arr)
    out = np.full_like(x, _PI / 2.0)
    lo = _SI_SERIES_CUT
    band = x <= lo
    if band.any():
        out[band] = _si_series(x[band])
    for hi, depth in _SI_FRACTION_BANDS:
        band = (x > lo) & (x <= hi)
        if band.any():
            out[band] = _si_fraction(x[band], depth)
        lo = hi
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


def _triple_sine_tail(w: tuple[float, float, float], T: float) -> QuadResult:
    """2 int_T^inf sin(w1 t) sin(w2 t) sin(w3 t)/t^3 dt in closed form, and
    a bound on its error.

    By product to sum, sin a sin b sin c = (1/4) [sin(a+b-c) + sin(a-b+c)
    + sin(-a+b+c) - sin(a+b+c)], and for omega > 0, by parts twice,

        int_T^inf sin(omega t)/t^3 dt = sin(omega T)/(2 T^2)
            + omega cos(omega T)/(2 T) - (omega^2/2) (pi/2 - Si(omega T));

    a negative omega flips its term's sign, and omega = 0 gives 0.  The
    four Si come from one ``si`` call.

    The bound: each Si is within ``_SI_ERROR`` (``si``), which the factor
    omega^2/2, times 1/4 and 2, turns into omega^2 _SI_ERROR / 4 per term.
    The rest is rounding, eps the float64 machine epsilon.  Rounding omega T
    moves sin and cos by at most eps |omega| T and Si by at most eps
    (|Si'(x)| x <= 1), so the three parts by at most eps |omega|/(2T),
    eps omega^2/2 and eps omega^2/2; each operation adds at most 4 eps of
    the parts' sizes 1/(2T^2), |omega|/(2T) and omega^2 pi/4; and the
    rounding eps (w1 + w2 + w3) of omega itself moves the tail, whose
    derivative in omega is at most 1/T, by eps (w1 + w2 + w3)/T.  Half of
    all this is below 4 eps (1/T^2 + (|omega| + w1 + w2 + w3)/T + omega^2)
    per term.
    """
    w1, w2, w3 = w
    omega = np.array([w1 + w2 - w3, w1 - w2 + w3, -w1 + w2 + w3, w1 + w2 + w3])
    sign = np.sign(omega) * np.array([1.0, 1.0, 1.0, -1.0])
    a = np.abs(omega)
    aT = a * T
    parts = np.sin(aT) / (2.0 * T * T) + a * np.cos(aT) / (2.0 * T) - (a * a / 2.0) * (_PI / 2.0 - si(aT))
    eps = np.finfo(float).eps
    bound = a * a * _SI_ERROR / 4.0 + 4.0 * eps * (1.0 / (T * T) + (a + (w1 + w2 + w3)) / T + a * a)
    return QuadResult(value=math.fsum(sign * parts) / 2.0, tail_bound=math.fsum(bound))


def triple_sine_quad(w1: float, w2: float, w3: float) -> QuadResult:
    """The triple-sine integral by panel quadrature and a closed-form tail.

    The integrand is even, so 2 int_0^inf is computed: over
    [0, ``_TRIPLE_SINE_TRUNCATION``] on the equal panels of
    ``oscillatory_panels`` for the top frequency Omega = w1 + w2 + w3,
    point by point (the Gauss-Legendre nodes lie inside each panel, so
    the integrand is never taken at t = 0, where it tends to w1 w2 w3);
    and the tail past the truncation exactly, in Si
    (``_triple_sine_tail``), whose error bound is the ``tail_bound``
    reported.  A top frequency that needs more than ``MAX_PANELS`` panels
    raises ResourceLimitError.
    """
    _check_frequencies(w1, w2, w3)
    T = _TRIPLE_SINE_TRUNCATION
    brk, order = oscillatory_panels(T, w1 + w2 + w3)

    def integrand(p: Panels) -> np.ndarray:
        t = p.mid + p.half * p.u
        # in place, so a block holds at most three arrays of its points
        v = np.sin(w1 * t)
        v *= np.sin(w2 * t)
        v *= np.sin(w3 * t)
        v /= t * t * t
        return v

    body = integrate_panels(integrand, brk, order=order)
    tail = _triple_sine_tail((w1, w2, w3), T)
    return QuadResult(value=2.0 * body + tail.value, tail_bound=tail.tail_bound)


# ---------------------------------------------------------------------------
# The cubed sine integral
# ---------------------------------------------------------------------------


def si_cubed_closed() -> float:
    """33 pi/32 - pi^3/32, the closed form of int_0^inf (Si t)^3/t^3 dt."""
    return 33.0 * _PI / 32.0 - _PI**3 / 32.0


def si_cubed_quad(cfg: QuadratureConfig | None = None) -> QuadResult:
    """int_0^inf (Si t)^3 / t^3 dt by panel quadrature on [0, T].

    The panels are those of ``oscillatory_panels`` for the top frequency 3
    of (Si t)^3 = (pi/2 - cos(t)/t - ...)^3, so a truncation that needs
    more than ``MAX_PANELS`` panels raises ResourceLimitError.  The
    integrand tends to 1 as t -> 0+ and is never taken at t = 0, where
    no Gauss-Legendre node lies.  Beyond T the expansion
    Si t = pi/2 - cos(t)/t - sin(t)/t^2 + O(t^-3) gives the analytic tail
    (pi/2)^3/(2 T^2); the oscillatory corrections are O(T^-3) and enter the
    reported residual bound instead of the value.
    """
    T = (cfg or QuadratureConfig()).truncation
    brk, order = oscillatory_panels(T, 3.0)

    def integrand(p: Panels) -> np.ndarray:
        t = p.mid + p.half * p.u
        s = si(t)
        return s * s * s / (t * t * t)

    body = integrate_panels(integrand, brk, order=order)
    tail = (_PI / 2.0) ** 3 / (2.0 * T * T)
    # |Si t - pi/2| <= 1.1/t for t >= 100 bounds the dropped oscillatory part
    residual = 3.0 * (_PI / 2.0 + 1.1 / T) ** 2 * 1.1 * (2.0 / (3.0 * T**3)) + QUAD_TOLERANCE
    return QuadResult(value=body + tail, tail_bound=residual)


# ---------------------------------------------------------------------------
# The closed form of the cubed-kernel integral J(q)
# ---------------------------------------------------------------------------


def check_q(q: int) -> None:
    """Refuse a q that is not a positive integer; numpy integers pass, as
    Python ints do."""
    try:
        positive = operator.index(q) >= 1
    except TypeError:  # a float, 2.0 included
        positive = False
    if not positive:
        raise ValueError("q must be a positive integer")


def j_closed(q: int, X: float, Y: float) -> float:
    """J(q) = (2 floor(Y) + 1)^2 * F(floor(X/q)); zero whenever q > X."""
    check_q(q)
    if X < 0 or Y < 0:
        raise ValueError("box bounds must be nonnegative")
    n = math.floor(X / q)
    m = math.floor(Y)
    return (2 * m + 1) ** 2 * F_rounded([n])[0]
