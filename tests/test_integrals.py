import math
import random
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import sici

from conecount import circle, integrals
from conecount.errors import ConvergenceError, ResourceLimitError
from conecount.integrals import (
    QuadratureConfig,
    box_fn,
    integrate_panels,
    j_closed,
    si,
    si_cubed_closed,
    si_cubed_quad,
    triple_sine_closed,
    triple_sine_quad,
)


def test_si_endpoints():
    assert si(0.0) == 0.0
    assert si(math.pi) == pytest.approx(1.8519370519824, abs=1e-12)


def test_si_against_reference_all_regimes():
    # the series (t <= 2), the fraction at depth 84 (2 < t <= 60) and at
    # depth 6 (60 < t <= 2^55), each edge from both sides, and pi/2 past
    # 2^55; measured 6.7e-16 at most on this grid
    edges = [2.0, 60.0, 2.0**55]
    ts = np.concatenate(
        [
            np.linspace(1e-9, 2.0, 300),
            np.linspace(2.0, 2.5, 200),
            np.linspace(2.5, 60.0, 400),
            np.linspace(55.0, 65.0, 200),
            np.geomspace(60.0, 1e7, 400),
            [np.nextafter(e, 0.0) for e in edges] + [np.nextafter(e, math.inf) for e in edges],
            [2.0**55 * 2, 1e20, 1e160, 1e300, math.pi, 100.0],
        ]
    )
    ref = sici(ts)[0]
    assert np.max(np.abs(si(ts) - ref)) < integrals._SI_ERROR


def test_si_past_two_to_the_55_is_pi_over_two():
    # the fraction's squares would overflow from t ~ 1.3e154
    for t in (2.0**55 * (1 + 2**-52), 1e160, 1e300, sys.float_info.max):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert si(t) == math.pi / 2
            assert si(np.array([t, 3.0]))[0] == math.pi / 2


def test_si_monotone_up_to_pi():
    ts = np.linspace(0, math.pi, 500)
    vals = si(ts)
    assert np.all(np.diff(vals) > 0)
    assert np.all((vals[1:] > 0) & (vals[1:] < 1.8520))


def test_si_asymptotic_remainder():
    ts = np.linspace(40, 5000, 800)
    assert np.max(np.abs(si(ts) - math.pi / 2) * ts) <= 2.0


def test_si_rejects_negatives():
    # and NaN and infinite t: si(nan) used to return nan, and si(inf) nan
    # with two RuntimeWarnings
    for t in (-1.0, math.nan, math.inf, np.array([1.0, math.nan, 2.0])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite t >= 0"):
                si(t)


@given(st.floats(-50, 50, allow_nan=False))
@settings(max_examples=60)
def test_box_fn(v):
    assert box_fn(v) == pytest.approx(v * abs(v))
    assert box_fn(-v) == pytest.approx(-box_fn(v))


def test_triple_sine_closed_values():
    assert triple_sine_closed(1, 1, 1) == pytest.approx(3 * math.pi / 4, abs=1e-12)
    assert triple_sine_closed(2, 1, 1) == pytest.approx(math.pi, abs=1e-12)
    assert triple_sine_closed(1, 1, 2e-9) == pytest.approx(0.0, abs=1e-7)
    with pytest.raises(ValueError):
        triple_sine_closed(1.0, 0.0, 1.0)


@pytest.mark.parametrize("ws", [(1, 1, math.nan), (math.inf, 1, 1), (1, -math.inf, 1)])
def test_triple_sine_rejects_non_finite_frequencies(ws, monkeypatch):
    # NaN used to reach int() of the panel count, inf a division by zero;
    # both are refused before any panel is cut
    monkeypatch.setattr(integrals, "oscillatory_panels", None)
    for fn in (triple_sine_closed, triple_sine_quad):
        with pytest.raises(ValueError, match="positive and finite"):
            fn(*ws)


@given(st.permutations([0.7, 1.3, 2.9]))
@settings(max_examples=6)
def test_triple_sine_symmetric(ws):
    assert triple_sine_closed(*ws) == pytest.approx(triple_sine_closed(0.7, 1.3, 2.9), rel=1e-14)


def test_triple_sine_quad_matches_closed():
    # the two fixed thm3 suite triples, one frequency far above the others
    # (the benchmark's extreme split) and two near-equal ones
    cases = [(1, 1, 1), (2, 1, 1), (0.2, 0.2, 9.6), (9.6, 0.2, 0.2), (3.3, 3.3, 3.4)]
    for ws in cases:
        assert abs(triple_sine_quad(*ws).value - triple_sine_closed(*ws)) < 1e-10, ws


def test_triple_sine_quad_random_suite():
    # the 20 seeded thm3 suite triples
    rng = random.Random(20)
    for _ in range(20):
        ws = [rng.uniform(0.5, 3.0) for _ in range(3)]
        assert abs(triple_sine_quad(*ws).value - triple_sine_closed(*ws)) < 1e-10, ws


@pytest.mark.parametrize("order", range(1, 65))
def test_gauss_legendre_rule_matches_numpy(order):
    # numpy's leggauss only as the oracle: nodes and weights within 1e-14
    # (measured up to 5.2e-15), and the rule exact on every monomial up to
    # degree 2n - 1
    x, w = integrals._gl_nodes(order)
    ref_x, ref_w = np.polynomial.legendre.leggauss(order)
    assert np.max(np.abs(x - ref_x)) <= 1e-14 and np.max(np.abs(w - ref_w)) <= 1e-14
    for d in range(2 * order):
        assert abs(math.fsum(w * x**d) - (0.0 if d % 2 else 2.0 / (d + 1))) <= 1e-14, d


def _at_points(f):
    """f of the points mid + half * u, as an integrand of ``integrate_panels``."""
    return lambda p: f(p.mid + p.half * p.u)


def _quad_call(module, quad, *args):
    """(integrand, breakpoints, order) that ``quad(*args)`` hands integrate_panels."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "integrate_panels", lambda f, brk, *, order: calls.append((f, brk, order)) or 0.0)
        quad(*args)
    return calls[0]


def _points(monkeypatch, module, quad, *args):
    """(integrand points, breakpoint panels) of one ``quad(*args)`` call."""
    points, panels = [], []

    def counting(f, breakpoints, *rest, **kwargs):
        panels.append(len(breakpoints) - 1)

        def counted(x):
            points.append(x.size)
            return f(x)

        return integrate_panels(counted, breakpoints, *rest, **kwargs)

    monkeypatch.setattr(module, "integrate_panels", counting)
    quad(*args)
    return sum(points), sum(panels)


@pytest.mark.parametrize("ws", [(1, 2, 7), (0.2, 0.2, 9.6)])
def test_triple_sine_quad_evaluation_budget(monkeypatch, ws):
    # 40 equal panels of 16 half-periods of the top frequency
    # w1 + w2 + w3 = 10 over [0, 200], at orders 22 and 23 (45 points),
    # four of them bisected: measured 1,980 points per call for both,
    # against about 90,000 when the panels ran to T = 1e4
    assert _points(monkeypatch, integrals, triple_sine_quad, *ws)[0] <= 2_000


def test_si_cubed_quad_evaluation_budget(monkeypatch):
    # 597 panels of 16 half-periods of the top frequency 3 at orders 22
    # and 23, none bisected: measured 26,865 points per call, against
    # 41,574 on panels cut at every k pi
    assert _points(monkeypatch, integrals, si_cubed_quad)[0] <= 30_000


@pytest.mark.parametrize(
    "ws",
    [(0.05, 0.05, 0.05), (0.001, 1, 1), (0.01, 0.5, 0.5), (50, 0.5, 0.5), (20, 20, 20), (5, 5, 9.9),
     (100, 100, 100), (0.5, 0.5, 600)],
)
def test_triple_sine_quad_extremes(ws):
    # a top frequency of 0.15 puts [0, 200] on one panel, longer than
    # the whole region where the integrand is large; 60 puts it on 239
    # short panels and 601 on 2,392.  The panels start at t = 0, where no
    # node lies; a Maclaurin head cut off at t = 1e-3 whatever the
    # frequency missed the closed form by 3.9e-6 at 300 and 4.0e-7 at 601
    res = triple_sine_quad(*ws)
    assert abs(res.value - triple_sine_closed(*ws)) <= res.tail_bound + integrals.QUAD_TOLERANCE


@pytest.mark.parametrize("quad", [lambda: triple_sine_quad(1, 1, 1e6),
                                  lambda: si_cubed_quad(QuadratureConfig(truncation=1e12))])
def test_oscillatory_panels_capped(quad, monkeypatch):
    # ~4.0e6 and ~6e10 panels, refused before a breakpoint is made; the
    # triple sine's panels end at its truncation 200, which still asks for
    # more than the cap (at 50 it would ask for 994,721, which the cap admits)
    omega = 1 + 1 + 1e6
    T = integrals._TRIPLE_SINE_TRUNCATION
    assert T / (integrals._HALF_PERIODS * math.pi / omega) > integrals.MAX_PANELS
    monkeypatch.setattr(integrals, "integrate_panels", None)
    monkeypatch.setattr(np, "linspace", None)
    with pytest.raises(ResourceLimitError, match="panels capped"):
        quad()


# a panel holds up to 3 floor(X/q)/2 periods of v_q^3, and the order
# n = 6 + 3 floor(X/q) grows with them, so an unbisected panel costs
# 2n + 1 = 13 + 6 floor(X/q) points; measured 20.09, 33.07, 44.72, 44.72
# and 73.42 points per panel
_J_POINTS_PER_PANEL = {(1, 1, 10): 21, (3, 10, 10): 34, (2, 10, 10): 46, (1, 5, 5): 46, (1, 10, 10): 77}


@pytest.mark.parametrize("q,X,Y", list(_J_POINTS_PER_PANEL))
def test_j_quadrature_evaluation_budget(monkeypatch, q, X, Y):
    points, panels = _points(monkeypatch, circle, circle.j_quadrature, q, X, Y)
    assert points / panels <= _J_POINTS_PER_PANEL[q, X, Y]


@pytest.mark.parametrize("quad", [lambda: triple_sine_quad(1.3, 2.2, 0.7), si_cubed_quad],
                         ids=["triple_sine", "si_cubed"])
def test_oscillatory_quadratures_start_at_zero_off_the_nodes(quad, monkeypatch):
    # both improper integrals run their panels from t = 0, where the
    # integrand is 0/0: the Gauss-Legendre nodes lie strictly inside each
    # panel, bisected ones included, so no point handed to it is 0
    first, smallest = [], []

    def watching(f, breakpoints, **kwargs):
        first.append(breakpoints[0])

        def watched(p):
            smallest.append(float((p.mid + p.half * p.u).min()))
            return f(p)

        return integrate_panels(watched, breakpoints, **kwargs)

    monkeypatch.setattr(integrals, "integrate_panels", watching)
    quad()
    assert first == [0.0]
    assert min(smallest) > 0.0


def test_si_cubed_integrand_limit():
    # (Si t)^3 / t^3 -> 1 as t -> 0+
    for t in (1e-5, 1e-4, 1e-3):
        assert si(t) ** 3 / t**3 == pytest.approx(1.0, abs=1e-5)


def test_si_cubed_identity():
    res = si_cubed_quad()
    closed = si_cubed_closed()
    assert closed == pytest.approx(2.2708212777551047, abs=1e-12)
    assert closed == pytest.approx((33 - math.pi**2) * math.pi / 32, abs=1e-13)
    assert closed > 0
    assert abs(res.value - closed) < 1e-6
    assert abs(res.value - closed) <= res.tail_bound + 1e-9


def test_si_cubed_truncation_consistency():
    # shrinking T moves the value by no more than the reported bounds
    full = si_cubed_quad(QuadratureConfig(truncation=1e4))
    short = si_cubed_quad(QuadratureConfig(truncation=1e3))
    assert abs(full.value - short.value) <= short.tail_bound + full.tail_bound


def test_si_cubed_config_validation():
    # below 100 the residual bound of si_cubed_quad does not hold; inf and
    # NaN used to reach math.ceil of the panel count.  All are refused when
    # the config is built
    for bad in (0.5, 50.0, np.nextafter(100.0, 0.0), math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and >= 100"):
            QuadratureConfig(truncation=bad)
    assert QuadratureConfig(truncation=100.0).truncation == 100.0


def test_integrate_panels_budget(monkeypatch):
    # a kink far from any breakpoint forces endless bisection
    monkeypatch.setattr(integrals, "_MAX_DEPTH", 3)
    monkeypatch.setattr(integrals, "QUAD_TOLERANCE", 1e-12)
    with pytest.raises(ConvergenceError):
        integrate_panels(_at_points(lambda x: np.abs(x - 0.123456789)), np.array([0.0, 1.0]), order=2)


def test_integrate_panels_tolerance_below_rounding():
    # the 16- and 17-point rules are exact for a quadratic, so every
    # panel's difference between them is pure rounding; the absolute
    # tolerance 1e-9 split over 850 panels asks ~1e-12 of panels worth up
    # to ~1.5e6, below one ulp of their value, and must not make
    # convergence a matter of how the platform rounds
    val = integrate_panels(_at_points(lambda x: 1e4 * (1 + x * x)), np.linspace(0, 50, 851), order=16)
    assert val == pytest.approx(1e4 * (50 + 50**3 / 3), rel=1e-14)


def test_integrate_panels_bisects_a_narrow_bump():
    # a peak of height 1e4 and width 1e-2 at 0.3: the 4- and 5-point rules
    # disagree on every panel near it until bisection has shrunk the panel
    # to the width of the peak
    calls = []

    def bump(p):
        calls.append(p.size)
        return 1.0 / (1e-4 + (p.mid + p.half * p.u - 0.3) ** 2)

    val = integrate_panels(bump, np.array([0.0, 1.0]), order=4)
    exact = 100.0 * (math.atan(70.0) + math.atan(30.0))
    assert abs(val - exact) <= integrals.QUAD_TOLERANCE
    assert len(calls) > 2  # one integrand call per level


def _panel_values(monkeypatch, block_points, f, brk, order):
    """The accepted panel values of ``integrate_panels(f, brk)`` with the
    integrand called on blocks of ``block_points`` points."""
    accepted = []
    fsum = math.fsum
    monkeypatch.setattr(integrals, "_BLOCK_POINTS", block_points)
    monkeypatch.setattr(math, "fsum", lambda v: accepted.append(list(v)) or fsum(v))
    integrate_panels(f, brk, order=order)
    monkeypatch.undo()
    return accepted[0]


@pytest.mark.parametrize("block_points", [1, 512, 1100])
def test_integrate_panels_blocks_keep_the_bits(monkeypatch, block_points):
    # blocks of one panel (block_points 1), of 30 (512) and of 64 (1100)
    # for a per-point triple sine at orders 8 and 9 (17 points a panel), the
    # last block of a level taking the rest, give every panel the bits of
    # one block per level (10**6); a BLAS product in place of the row sum
    # failed at 1 and 1100.  The J(q) integrand builds its parity rows per
    # block, from the half-widths and nodes alone.
    for f, brk, order in [
        (_at_points(lambda t: np.sin(1.3 * t) * np.sin(2.1 * t) * np.sin(0.7 * t) / t**3),
         np.linspace(1e-3, 400.0, 601), integrals.panel_order(2)),
        _quad_call(integrals, triple_sine_quad, 1.3, 2.1, 0.7),
        _quad_call(circle, circle.j_quadrature, 1, 10, 10),
    ]:
        assert _panel_values(monkeypatch, block_points, f, brk, order) == \
            _panel_values(monkeypatch, 10**6, f, brk, order)


def _phase_gap(f, per_point, brk, order):
    """The largest gap between the order-n and order-(n + 1) panel sums of
    the parity-row integrand f and of the per-point one, on the panels of
    ``brk`` and on their halves, relative to the largest per-point sum."""
    a, b = brk[:-1], brk[1:]
    mid = (a + b) / 2.0
    a, b = np.concatenate([a, a, mid]), np.concatenate([b, mid, b])
    phase = integrals._gl_sums(f, a, b, order, order + 1)
    point = integrals._gl_sums(_at_points(per_point), a, b, order, order + 1)
    return float((np.abs(phase - point).max(axis=1) / np.abs(point).max(axis=1)).max())


def _triple_sine_body(ws, a, b):
    """2 int_a^b sin(w1 t) sin(w2 t) sin(w3 t)/t^3 dt, point by point, on
    panels of 4 half-periods of the top frequency at the order that
    ``oscillatory_panels`` gives 16: on its own panels the order-23 values
    are off by up to 1e-8 of the integrand's size, 1.2e-12 over [20, 50]
    at (0.2, 0.2, 9.6), each within its share of the tolerance."""
    w1, w2, w3 = ws
    omega = w1 + w2 + w3
    brk = np.linspace(a, b, math.ceil((b - a) / (4 * math.pi / omega)) + 1)
    order = integrals.panel_order(integrals._HALF_PERIODS)
    return 2.0 * integrate_panels(
        _at_points(lambda t: np.sin(w1 * t) * np.sin(w2 * t) * np.sin(w3 * t) / (t * t * t)), brk, order=order)


@pytest.mark.parametrize("ws", [(1, 1, 1), (2, 1, 1), (1, 1, 2), (1, 1, 2.01), (1.5, 1.8, 6.6), (0.2, 0.2, 9.6)])
def test_triple_sine_tail_joins_any_truncation(ws):
    # quad[0, T1] + tail(T1) = quad[0, T1] + quad[T1, T2] + tail(T2) =
    # quad[0, T2] + tail(T2): the closed-form tail is exact at every T, a
    # zero frequency (1, 1, 2) included, and (1, 1, 2.01) puts |omega| T of
    # its smallest frequency on Si's series and its depth-84 fraction; measured
    # gaps up to 8.3e-15
    for T1, T2 in [(20.0, 50.0), (20.0, 1000.0), (50.0, 200.0), (200.0, 1000.0)]:
        near = integrals._triple_sine_tail(ws, T1).value
        far = _triple_sine_body(ws, T1, T2) + integrals._triple_sine_tail(ws, T2).value
        assert abs(near - far) <= 1e-12, (ws, T1, T2)


def test_triple_sine_quad_reads_its_truncation(monkeypatch):
    # the whole call at another truncation moves only by the panel
    # quadrature's own error, whose tolerance is shared by length over
    # [0, T]: measured up to 6.9e-12 over T = 20..1000
    ws = (0.2, 0.2, 9.6)
    values = []
    for T in (20.0, 50.0, 200.0, 1000.0):
        monkeypatch.setattr(integrals, "_TRIPLE_SINE_TRUNCATION", T)
        values.append(triple_sine_quad(*ws).value)
    assert max(values) - min(values) <= 4 * integrals.QUAD_TOLERANCE


@pytest.mark.parametrize("ws", [(1, 1, 2), (3.3, 3.3, 3.4), (0.01, 0.5, 0.5), (100, 100, 100), (0.5, 0.5, 600)])
def test_triple_sine_tail_bound_covers_the_tail(ws):
    # the same product-to-sum tail with scipy's Si in place of si: the gap
    # is si's error and the rounding that tail_bound bounds.  Measured gaps
    # up to 1.7e-12 at (100, 100, 100) and 2.0e-11 at (0.5, 0.5, 600),
    # against bounds of 4.1e-10 and 4.9e-9 that triple_sine_quad reports
    # (3.0e-8 and 3.6e-7 when each Si was charged 1e-12)
    T = integrals._TRIPLE_SINE_TRUNCATION
    w1, w2, w3 = ws
    terms = []
    for sign, omega in [(1, w1 + w2 - w3), (1, w1 - w2 + w3), (1, -w1 + w2 + w3), (-1, w1 + w2 + w3)]:
        a = abs(omega)
        part = (math.sin(a * T) / (2 * T * T) + a * math.cos(a * T) / (2 * T)
                - a * a / 2 * (math.pi / 2 - sici(a * T)[0]))
        terms.append(sign * math.copysign(1.0, omega) * part if omega else 0.0)
    tail = integrals._triple_sine_tail(ws, T)
    assert abs(tail.value - math.fsum(terms) / 2) <= tail.tail_bound < 1e-8
    assert triple_sine_quad(*ws).tail_bound == tail.tail_bound


def test_triple_sine_integrand_is_the_per_point_product():
    # the 22 thm3 suite triples and three of the benchmark's range, whose
    # frequencies split 10: the integrand handed to the panels is
    # sin(w1 t) sin(w2 t) sin(w3 t)/t^3 at each point, bit for bit
    rng = random.Random(20)
    triples = [(1, 1, 1), (2, 1, 1)] + [tuple(rng.uniform(0.5, 3.0) for _ in range(3)) for _ in range(20)]
    for w1, w2, w3 in triples + [(0.2, 0.2, 9.6), (1.5, 1.8, 6.6), (3.3, 3.3, 3.4)]:
        f, brk, order = _quad_call(integrals, triple_sine_quad, w1, w2, w3)
        a, b = brk[:-1], brk[1:]
        p = integrals.Panels(((a + b) / 2.0)[:, None], ((b - a) / 2.0)[:, None], integrals._gl_nodes(order)[0])
        t = p.mid + p.half * p.u
        assert np.array_equal(f(p), np.sin(w1 * t) * np.sin(w2 * t) * np.sin(w3 * t) / (t * t * t)), (w1, w2, w3)


def test_j_quadrature_parity_rows_equal_the_per_point_sums():
    # the level-0 panels take the parity rows, their halves the per-point
    # recurrence of circle._sinc_sum; measured gaps up to 5.8e-15
    boxes = [(q, X, Y) for q in (1, 2, 3) for X in range(q, 11) for Y in range(1, 11)] + [(1, 10, 100)]
    for q, X, Y in boxes:
        f, brk, order = _quad_call(circle, circle.j_quadrature, q, X, Y)
        n = X // q

        def per_point(g):
            v = circle._sinc_sum(g, n, Y)
            return v * v * v

        assert _phase_gap(f, per_point, brk, order) <= 1e-13, (q, X, Y)


# sine and cosine elements per call with a sine per point: a sine and a
# cosine at each of the 77,088 points of j_quadrature(1, 10, 10)
@pytest.mark.parametrize("module,quad,args,per_point", [
    (circle, circle.j_quadrature, (1, 10, 10), 154_176),
], ids=["j_quadrature"])
def test_phase_tables_take_a_tenth_of_the_sines(monkeypatch, module, quad, args, per_point):
    # measured 8,906: n sines per node for each block's parity rows, and a
    # sine and a cosine per point of the bisected panels
    counted = []

    def counting(fn):
        def call(x, *rest, **kwargs):
            counted.append(np.size(x))
            return fn(x, *rest, **kwargs)

        return call

    monkeypatch.setattr(np, "sin", counting(np.sin))
    monkeypatch.setattr(np, "cos", counting(np.cos))
    quad(*args)
    assert sum(counted) < per_point / 10


def test_si_of_an_array_is_si_of_each_element():
    # the series (t <= 2), the continued fraction at depth 84 (2 < t <= 60)
    # and at depth 6 (60 < t <= 2^55), and pi/2 beyond: each element's
    # branch and depth follow from its own t, so no element's bits depend
    # on the others
    ts = np.concatenate([np.linspace(0.0, 2.0, 37), np.linspace(2.0, 60.0, 401)[1:],
                         np.geomspace(60.0, 1e6, 50)[1:], [math.pi, 7 * math.pi, 40.0, 2.0**55, 1e20]])
    assert si(ts).tolist() == [si(t) for t in ts]


def test_j_closed_values():
    assert j_closed(1, 2, 2) == 787.5
    assert j_closed(2, 2, 2) == 150.0
    assert j_closed(3, 2, 2) == 0.0
    assert j_closed(np.int64(2), 2, 2) == 150.0
    # q = 1.5 used to give 1543.5, the F of floor(4/1.5)
    for q in (0, 1.5, 2.0):
        with pytest.raises(ValueError, match="q must be a positive integer"):
            j_closed(q, 4, 3)
