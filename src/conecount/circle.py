"""Exponential-sum kernels and the major/minor arc dissection.

The generating sum of the box count is

    f(alpha) = sum_{1<=|x|<=X} sum_{1<=|y|<=Y} e(alpha x y),

with e(t) = exp(2 pi i t); summing the inner geometric sum gives the real
Dirichlet-kernel form

    D_m(theta) = sum_{|y|<=m} e(theta y) = sin(pi (2m + 1) theta) / sin(pi theta),

so f and its major-arc companions are evaluated through that kernel:

    f*_q(beta)  = sum_{0<|x|<=X/q} sum_{|y|<=Y} e(beta q x y)   (y = 0 row kept),
    g_q(alpha)  = sum_{0<|x|<=X, q !| x} sum_{0<|y|<=Y} e(alpha x y),
    w_q(gamma)  = sum_{0<|x|<=X/q} sin(pi(2 floor(Y)+1) gamma x) / sin(pi gamma x),
    v_q(gamma)  = sum_{0<|x|<=X/q} sin(pi(2 floor(Y)+1) gamma x) / (pi gamma x),

with f*_q(beta) = w_q(q beta).  All five are real (each sum is closed
under x -> -x).  ``kernel_sum`` evaluates 2 sum_{x<=n} (D_m(alpha x) - drop)
for f, w_q (hence f*_q), the minor-arc scan and the single kernel of
``sym_kernel``; g_q is the sum over x <= X less the sum over x' <= X/q
at q alpha.  v_q has its own sinc sum.  Each sum also has a literal
term-by-term oracle (``*_naive``) that shares no code with the kernels;
the f, g_q, f*_q and w_q oracles return the complex sum as written, whose
imaginary part is rounding.

The dissection places, for Q = sqrt(X Y)/2, an arc of half-width
Q/(q X Y) around every fraction a/q with 1 <= a <= q <= Q, gcd(a, q) = 1,
inside the window [Q/(XY), 1 + Q/(XY)]; the arcs are pairwise disjoint
and the minor arcs are the complement.  ``dissect`` holds the arcs as
arrays (q, a, centre, half-width) sorted by a/q, and ``minor_intervals``
gives the complement as arrays of interval starts and ends.

``kernel_sum`` reduces alpha to a = alpha - round(alpha) and k a to
b = k a - 2 round(k a / 2) (k = 2m + 1 is odd, so D_m(a x) =
sin(pi b x) / sin(pi a x)), takes e(a/2) and e(b/2) once per alpha and
walks x by complex multiplication, whose error grows like x eps at any
angle.  Where the rotated |sin(pi a x)| < 1e-3 the term is evaluated
from d = a x - round(a x) instead, and below |sin(pi d)| < 1e-8 by the
second-order Taylor branch (the exact limit at d = 0).  Near rationals
a/q with 2 <= q <= X, alpha = a/q + delta, 1e-13 <= |delta| <= 1e-4, at
(X, Y) = (40, 40), (20, 80) and (60, 25), the worst error against
50-digit values, relative to max(1, |value|), over 294 seeded alpha was
1.4e-11 for f (a quotient of two sines of the unreduced alpha x lost up
to 1.4e-5), 8.7e-13 for w_q and 1.1e-10 for g_q, whose two sums cancel
the near-integer terms; at uniform alpha it was 4.4e-12 at (40, 40) and
6.9e-10 at (400, 400), where the rounding of k a, carried x times, dominates.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
from typing import NamedTuple

import numpy as np

from .arith import arith_table
from .calibration import Calibration
from .errors import ResourceLimitError
from .integrals import QuadResult, integrate_panels, panel_order

_SIN_EPS = 1.0e-8
_NEAR_SIN = 1.0e-3  # a rotated |sin(pi a x)| below this takes the term from its reduced argument


def kernel_sum(alpha, n: int, m: int, drop: float):
    """2 sum_{x=1..n} (D_m(alpha x) - drop), D_m the Dirichlet kernel with
    k = 2m + 1, for a scalar alpha or an array of them (one sum per alpha,
    in alpha's shape); drop = 1 removes the y = 0 term of each kernel,
    drop = 0 keeps it.  The reduction, the rotation and the near-integer
    terms are as in the module docstring.  The terms left out of the walk
    are evaluated in one batch, into a second sum in ascending x, once
    they reach max(samples, n) and at the end, so memory stays
    O(samples + n).  A scalar alpha runs as a one-element array, and no
    product is taken in place: numpy's complex scalar product, and its
    in-place product on one element, round differently from its array loop.
    """
    a = np.array(alpha, dtype=float).ravel()
    a -= np.round(a)
    k = 2 * m + 1
    b = k * a
    b -= 2.0 * np.round(b / 2.0)
    z = np.exp(1j * np.pi * np.stack([a, b]))  # rows z_1 and z_k
    p = np.ones_like(z)
    far, near = np.zeros(a.shape), np.zeros(a.shape)
    rows, args = [], []
    deferred = 0
    with np.errstate(divide="ignore", invalid="ignore"):  # Im p_1 = 0 only in deferred terms
        for x in range(1, n + 1):
            p = p * z
            s = p[0].imag
            term = p[1].imag / s
            close = (abs(s) < _NEAR_SIN).nonzero()[0]
            if close.size:
                term[close] = 0.0
                rows.append(close)
                args.append(a[close] * x)
                deferred += close.size
            far += term
            if rows and (deferred >= max(a.size, n) or x == n):
                t = np.concatenate(args)
                d = t - np.round(t)
                sd = np.sin(np.pi * d)
                tiny = np.abs(sd) < _SIN_EPS
                vals = np.sin(np.pi * (k * d)) / np.where(tiny, 1.0, sd)
                if tiny.any():
                    vals = np.where(tiny, k * (1.0 - (k * k - 1.0) * (np.pi * d) ** 2 / 6.0), vals)
                np.add.at(near, np.concatenate(rows), vals)
                rows, args = [], []
                deferred = 0
    return (2.0 * (far + near - n * drop)).reshape(np.shape(alpha))


def sym_kernel(theta: float, Y: float) -> float:
    """sum_{1<=|y|<=Y} e(theta y), i.e. the Dirichlet kernel minus the y = 0 term."""
    _check_box(Y)
    return float(kernel_sum(theta, 1, math.floor(Y), 1.0)) / 2.0


def f_eval(alpha: float, X: float, Y: float) -> float:
    """f(alpha) over the box |x| <= X, |y| <= Y (a kernel walk of floor(X) steps)."""
    _check_box(X, Y)
    m = math.floor(Y)
    if m < 1:
        return 0.0
    return float(kernel_sum(alpha, math.floor(X), m, 1.0))


def _check_q(q: int) -> None:
    if q < 1:
        raise ValueError("q must be a positive integer")


def _check_box(*bounds: float) -> None:
    if min(bounds) < 0:
        raise ValueError("box bounds must be nonnegative")


def g_q_eval(alpha: float, q: int, X: float, Y: float) -> float:
    """The part of f(alpha) with q not dividing x: the sum over x <= X less
    the sum over the multiples x = q x' at (q alpha) x' (exactly 0 for q = 1)."""
    _check_q(q)
    _check_box(X, Y)
    m = math.floor(Y)
    return float(kernel_sum(alpha, math.floor(X), m, 1.0) - kernel_sum(q * alpha, math.floor(X / q), m, 1.0))


def f_star_eval(beta: float, q: int, X: float, Y: float) -> float:
    """f*_q(beta): x restricted to multiples of q (rescaled), y = 0 row kept."""
    return w_q_eval(q * beta, q, X, Y)


def w_q_eval(gamma: float, q: int, X: float, Y: float) -> float:
    """w_q(gamma) = sum over 0 < |x| <= X/q of the full Dirichlet kernel at gamma x."""
    _check_q(q)
    _check_box(X, Y)
    return float(kernel_sum(gamma, math.floor(X / q), math.floor(Y), 0.0))


def _sinc_sum(gamma: float | np.ndarray, n: int, m: int) -> float | np.ndarray:
    """v_q at a float or an array of gamma: 2 sum_{x<=n} sin(pi(2m+1) gamma x)/(pi gamma x).

    One sine and one cosine per gamma: with theta = pi (2m+1) gamma, the
    values s_x = sin(x theta), x = 1..n, follow from the three-term
    recurrence s_x = 2 cos(theta) s_{x-1} - s_{x-2} (s_0 = 0), and the sum
    of s_x / x is divided by pi gamma once.  Measured over m <= 30 and
    gamma in (0, 3), including gamma = j/(2m+1) +- 1e-9 where
    sin(theta) ~ 0, the worst difference from the term-by-term
    ``v_q_naive``, relative to max(1, |v|), was 2.7e-13 at n = 10,
    1.1e-12 at n = 40 and 5.3e-12 at n = 200.  Against a 40-digit
    evaluation it was 2.5e-13, 1.0e-12 and 5.0e-12, and the oracle's own
    1.2e-13, 5.0e-13 and 2.7e-12: both carry the rounding of theta, which
    the term at x multiplies by x.

    Where |pi gamma| n < 1e-8 every term takes the Taylor branch
    k (1 - (pi k gamma x)^2 / 6), k = 2m + 1, summed in closed form;
    gamma = 0 gives the exact limit 2 k n.
    """
    if n < 1:
        return np.zeros_like(gamma, dtype=float)
    k = 2 * m + 1
    pg = np.pi * gamma
    theta = k * pg
    prev, s = 0.0, np.sin(theta)
    total = s
    if n > 1:
        c2 = 2.0 * np.cos(theta)
        for x in range(2, n + 1):
            prev, s = s, c2 * s - prev
            total = total + s / x
    tiny = np.abs(pg) * n < _SIN_EPS
    if not np.any(tiny):
        return 2.0 * total / pg
    taylor = 2.0 * k * (n - (k * pg) ** 2 * (n * (n + 1) * (2 * n + 1) / 36.0))
    return np.where(tiny, taylor, 2.0 * total / np.where(tiny, 1.0, pg))


def v_q_eval(gamma: float, q: int, X: float, Y: float) -> float:
    """v_q(gamma): the w_q sum with sin(pi gamma x) replaced by pi gamma x."""
    _check_q(q)
    _check_box(X, Y)
    return float(_sinc_sum(float(gamma), math.floor(X / q), math.floor(Y)))


# ---------------------------------------------------------------------------
# Arc dissection
# ---------------------------------------------------------------------------


class Dissection(NamedTuple):
    """Major arcs around a/q for q <= Q = sqrt(XY)/2, sorted by centre: arc i
    has centre a[i]/q[i] and half-width delta/q[i], delta = Q/(XY)."""

    Q: float
    delta: float
    q: np.ndarray
    a: np.ndarray
    center: np.ndarray
    half_width: np.ndarray


def dissect(X: float, Y: float) -> Dissection:
    """Every coprime a/q, 1 <= a <= q <= Q, with its arc, as arrays sorted by
    a/q, verified pairwise disjoint and inside the window [delta, 1 + delta]."""
    if X * Y < 4:
        raise ValueError("dissection needs X*Y >= 4 so that Q >= 1")
    Q = 0.5 * math.sqrt(X * Y)
    delta = Q / (X * Y)
    q, a = (i + 1 for i in np.tril_indices(math.floor(Q)))  # 1 <= a <= q <= Q, q-major
    coprime = np.gcd(a, q) == 1
    q, a = q[coprime], a[coprime]
    center = a / q
    order = np.argsort(center, kind="stable")
    q, a, center = q[order], a[order], center[order]
    half_width = delta / q
    left, right = center - half_width, center + half_width
    if np.any(right[:-1] >= left[1:]):
        raise AssertionError("major arcs overlap")
    if np.any(left < delta - 1e-15) or np.any(right > 1.0 + delta + 1e-15):
        raise AssertionError("arc leaves the unit window")
    return Dissection(Q=Q, delta=delta, q=q, a=a, center=center, half_width=half_width)


def minor_intervals(d: Dissection) -> tuple[np.ndarray, np.ndarray]:
    """The complement of the arcs inside the window, as (starts, ends) in
    ascending order: each gap runs from one arc's right end (or the window's
    left end) to the next arc's left end (or the window's right end), and
    the empty gaps are dropped."""
    starts = np.concatenate(([d.delta], d.center + d.half_width))
    ends = np.concatenate((d.center - d.half_width, [1.0 + d.delta]))
    keep = ends > starts
    return starts[keep], ends[keep]


# ---------------------------------------------------------------------------
# Mean square of f by gcd blocks
# ---------------------------------------------------------------------------


def l2_via_r(X: int, Y: int) -> int:
    """int_0^1 |f|^2 = #{xy = uv in the box} = 2 sum_{n>=1} r(n)^2, exactly:
    8 sum_{m<=n} c(m) floor(X/m) floor(Y/m), n = min(X, Y), c(1) = 1 and
    c(m) = 2 phi(m) (8 sign choices; x = g a, u = g c with gcd(a, c) = 1
    force y = c t, v = a t, and 2 phi(m) coprime (a, c) have max m > 1).
    Each int64 term is at most 2XY/m, so the sum stays below 2XY(1 + ln n);
    a box where 2XY(1 + n.bit_length()) reaches 2^63 is refused first."""
    _check_box(X, Y)
    X, Y = operator.index(X), operator.index(Y)  # numpy ints too, as Python ints
    n = min(X, Y)
    if 2 * X * Y * (1 + n.bit_length()) >= 2**63:
        raise OverflowError(f"the int64 sum of l2_via_r({X}, {Y}) could wrap")
    phi = arith_table(n).phi[1 : n + 1]
    m = np.arange(1, n + 1)
    return 8 * (int((2 * phi * (X // m) * (Y // m)).sum()) - X * Y)


# ---------------------------------------------------------------------------
# Literal oracles: every sum term by term, sharing no code with the kernels
# ---------------------------------------------------------------------------


def _nonzero(n: int) -> list[int]:
    return [x for x in range(-n, n + 1) if x]


def l2_naive(X: int, Y: int) -> int:
    """Quadruple-loop count of xy = uv in the box (tiny boxes only)."""
    if X * X * Y > 10**6:
        raise ResourceLimitError("l2_naive is for tiny boxes")
    xs = _nonzero(X)
    count = 0
    for x in xs:
        for y in _nonzero(Y):
            p = x * y
            for u in xs:
                if p % u == 0 and 1 <= abs(p // u) <= Y:
                    count += 1
    return count


def _exp_double_sum(alpha: float, xs, ys) -> complex:
    """sum_{x in xs} sum_{y in ys} e(alpha x y), one cmath.exp per term, complex as
    written: f, g_q, f*_q and w_q are real, so its imaginary part is rounding."""
    return sum(cmath.exp(2j * math.pi * alpha * x * y) for x in xs for y in ys)


def f_naive(alpha: float, X: int, Y: int) -> complex:
    """f(alpha) as its literal double sum."""
    return _exp_double_sum(alpha, _nonzero(X), _nonzero(Y))


def g_q_naive(alpha: float, q: int, X: int, Y: int) -> complex:
    """g_q(alpha) as its literal double sum over q !| x."""
    _check_q(q)
    return _exp_double_sum(alpha, [x for x in _nonzero(X) if x % q], _nonzero(Y))


def f_star_naive(beta: float, q: int, X: int, Y: int) -> complex:
    """f*_q(beta) as its literal double sum, y = 0 row included."""
    _check_q(q)
    return _exp_double_sum(beta * q, _nonzero(X // q), range(-Y, Y + 1))


def w_q_naive(gamma: float, q: int, X: int, Y: int) -> complex:
    """w_q(gamma) as its literal double sum, y = 0 row included.  A
    quotient of sines per term loses about |x| eps / |sin(pi gamma x)| of
    it near an integer gamma x: 1.5e-3 of w_1(13/19 - 1e-13) at X = 20,
    Y = 80, against 50-digit values."""
    _check_q(q)
    return _exp_double_sum(gamma, _nonzero(X // q), range(-Y, Y + 1))


def v_q_naive(gamma: float, q: int, X: int, Y: int) -> float:
    """v_q(gamma) term by term; a term whose denominator vanishes takes its
    limit 2Y + 1."""
    _check_q(q)
    k = 2 * Y + 1

    def term(x: int) -> float:
        d = math.pi * gamma * x
        return math.sin(math.pi * k * gamma * x) / d if abs(d) > 1e-12 else k

    return 2 * math.fsum(term(x) for x in range(1, X // q + 1))


# ---------------------------------------------------------------------------
# Minor arc scan
# ---------------------------------------------------------------------------


class MinorArcScan(NamedTuple):
    X: float
    Y: float
    n_samples: int
    seed: int
    max_abs_f: float
    scale: float  # (XY/Q) log Y
    ratio: float


def minor_arc_scan(X: float, Y: float, n_samples: int, seed: int) -> MinorArcScan:
    """Sample |f| on the minor arcs (seeded, reproducible) and report the
    largest value against the scale (XY/Q) log Y.

    The samples are uniform on the minor intervals, by inverse CDF: one
    ``searchsorted`` in the cumulative interval lengths, and f at all of
    them is one ``kernel_sum`` call, whose memory is O(n_samples + X).
    """
    if Y <= 1:
        raise ValueError("the minor-arc scale (XY/Q) log Y needs Y > 1")
    if n_samples < 1:
        raise ValueError("the minor-arc scan needs n_samples >= 1")
    diss = dissect(X, Y)
    starts, ends = minor_intervals(diss)
    cum = np.cumsum(ends - starts)
    rng = random.Random(seed)
    u = np.array([rng.random() for _ in range(n_samples)]) * cum[-1]
    # a draw on cum[j] takes interval j's right end; a draw below 1 gives
    # u <= cum[-1] (rounding is monotone), so every draw lands in an interval
    j = cum.searchsorted(u)
    alphas = np.minimum(starts[j] + (u - np.append(0.0, cum)[j]), ends[j])
    m = float(np.abs(kernel_sum(alphas, math.floor(X), math.floor(Y), 1.0)).max())
    scale = (X * Y / diss.Q) * math.log(Y)
    return MinorArcScan(
        X=X, Y=Y, n_samples=n_samples, seed=seed, max_abs_f=m, scale=scale, ratio=m / scale
    )


# ---------------------------------------------------------------------------
# Numerical J(q)
# ---------------------------------------------------------------------------


_J_TRUNCATION = 50.0  # the truncation point T of j_quadrature


def j_quadrature(q: int, X: float, Y: float) -> QuadResult:
    """int_{-T}^{T} v_q(gamma)^3 dgamma, T = ``_J_TRUNCATION``, plus a tail bound.

    v_q is even, so 2 int_0^T is computed on panels cut at the zeros
    gamma = j/(2 floor(Y) + 1); the tail uses |v_q| <= C log X / gamma
    (C = ``Calibration.v_decay_constant``, the empirical constant that the
    ``v/decay_bound`` check verifies):

        |tail| <= 2 (C log X)^3 / (2 T^2).

    The panels share ``QUAD_TOLERANCE`` over [0, T] by length, each share
    floored at the panel's float64 rounding level, so a ConvergenceError
    means the panels did not resolve v_q^3, not that the tolerance is finer
    than float64 can resolve.

    The Gauss-Legendre order is ``panel_order(3 n)`` = 6 + 3 n,
    n = floor(X/q): v_q^3 has frequencies up to 3 pi (2 floor(Y) + 1) n,
    so a panel of length 1/(2 floor(Y) + 1) holds up to 3n of its
    half-periods.  Timed over n = 1..10 and Y in {1, 3, 5, 8, 10}, the
    fastest even order for each n lay within 4 of 6 + 3n (8-10 at n = 1,
    36 at n = 10); the fixed order 16 took 1.5 times as long, bisecting
    most panels at n >= 5.

    On a level-0 panel [j/k, (j+1)/k], k = 2 floor(Y) + 1, the node
    gamma = m + h u has k pi gamma = pi (j + (1 + u)/2), so

        sin(x k pi gamma) = (-1)^(x j) sin(x pi (1 + u)/2):

    the numerator sum_{x<=n} sin(x k pi gamma)/x is one of two rows of the
    nodes, sum_x sin(x pi (1 + u)/2)/x for even j and the same sum with the
    signs (-1)^x for odd j, and v_q = 2 row / (pi gamma) at the point
    gamma = m + h u.  The rows take n sines per node of a block, where the
    recurrence of ``_sinc_sum`` takes a sine and a cosine per point and n
    steps over three arrays.  The bisected panels, at most 7% as many as
    those of level 0 over q <= 3, X <= 10 and Y <= 10 or Y = 100, keep the
    recurrence.  On those boxes the rows and the recurrence agree on each
    panel sum to 5.8e-15 of the largest.
    """
    _check_q(q)
    _check_box(X, Y)
    if q > X:
        return QuadResult(value=0.0, tail_bound=0.0)
    n = math.floor(X / q)
    m = math.floor(Y)
    k = 2 * m + 1
    T = _J_TRUNCATION
    # T k is an integer, so the last zero is T itself: j / k is exact at j = T k
    brk = np.arange(int(T * k) + 1) / k

    x = np.arange(1, n + 1)[:, None]
    sign = np.where(x % 2, -1.0, 1.0)

    def v_cubed(p):
        g = p.mid + p.half * p.u
        s = np.sin(x * (np.pi / 2.0) * (1.0 + p.u)) / x
        rows = np.stack([s.sum(axis=0), (sign * s).sum(axis=0)])
        v = rows[np.floor(p.mid[:, 0] * k).astype(int) % 2]
        v *= 2.0
        v /= np.pi * g
        # level-0 panels have half-width 1/(2k), bisected ones at most 1/(4k)
        bisected = p.half[:, 0] < 0.375 / k
        if bisected.any():
            v[bisected] = _sinc_sum(g[bisected], n, m)
        # cubed by multiplication: v_q changes sign, and numpy 2.4's float64
        # pow costs 70 ns per element on mixed signs and 116 ns on negative
        # bases, against about 1 ns for the two products (8,192 elements)
        c = v * v
        c *= v
        return c

    body = integrate_panels(v_cubed, brk, order=panel_order(3 * n))
    c_log = Calibration.v_decay_constant * max(math.log(X), 1.0)
    tail = c_log**3 / (T * T)
    return QuadResult(value=2.0 * body, tail_bound=tail)
