import math
import random
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
    ts = np.concatenate(
        [
            np.linspace(1e-9, 2.0, 300),
            np.linspace(2.0 + 1e-9, 40.0, 400),
            np.linspace(40.0 + 1e-9, 1e5, 400),
            [2.0, 40.0, math.pi, 100.0],
        ]
    )
    ref = sici(ts)[0]
    assert np.max(np.abs(si(ts) - ref)) < 1e-12


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
    # ~2,000 equal panels of 16 half-periods of the top frequency
    # w1 + w2 + w3 = 10, at orders 22 and 23 (45 points) with few
    # bisections: measured 90,090 and 90,180 points per call, against
    # 256,437 and 297,225 on panels cut at every zero of each sine
    assert _points(monkeypatch, integrals, triple_sine_quad, *ws)[0] <= 100_000


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
    # a top frequency of 0.15 puts [eps, T] on 30 panels, the first ones
    # longer than the whole region where the integrand is large; 60 puts
    # it on ~12,000 short panels and 601 on ~120,000; with the small-t
    # branch cut at 1e-3 whatever the frequency, 300 and 601 missed the
    # closed form by 3.9e-6 and 4.0e-7
    res = triple_sine_quad(*ws)
    assert abs(res.value - triple_sine_closed(*ws)) <= res.tail_bound + integrals.QUAD_TOLERANCE


@pytest.mark.parametrize("quad", [lambda: triple_sine_quad(1, 1, 1e6),
                                  lambda: si_cubed_quad(QuadratureConfig(truncation=1e12))])
def test_oscillatory_panels_capped(quad, monkeypatch):
    # ~2e8 and ~6e10 panels, refused before a breakpoint is made
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
    with pytest.raises(ValueError):
        si_cubed_quad(QuadratureConfig(truncation=50.0))
    for bad in (0.5, math.inf, math.nan):
        # inf and NaN used to reach math.ceil of the panel count
        with pytest.raises(ValueError, match="finite and >= 1"):
            QuadratureConfig(truncation=bad)


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
    # failed at 1 and 1100.  The triple-sine and J(q) integrands of the
    # quadratures build their phase tables per block, from the half-widths
    # and nodes alone.
    triple = _quad_call(integrals, triple_sine_quad, 1.3, 2.1, 0.7)
    for f, brk, order in [
        (_at_points(lambda t: np.sin(1.3 * t) * np.sin(2.1 * t) * np.sin(0.7 * t) / t**3),
         np.linspace(1e-3, 400.0, 601), integrals.panel_order(2)),
        (triple[0], triple[1][:601], triple[2]),
        _quad_call(circle, circle.j_quadrature, 1, 10, 10),
    ]:
        assert _panel_values(monkeypatch, block_points, f, brk, order) == \
            _panel_values(monkeypatch, 10**6, f, brk, order)


def _phase_gap(f, per_point, brk, order):
    """The largest gap between the order-n and order-(n + 1) panel sums of
    the phase-table integrand f and of the per-point one, on the panels of
    ``brk`` and on their halves, relative to the largest per-point sum."""
    a, b = brk[:-1], brk[1:]
    mid = (a + b) / 2.0
    a, b = np.concatenate([a, a, mid]), np.concatenate([b, mid, b])
    phase = integrals._gl_sums(f, a, b, order, order + 1)
    point = integrals._gl_sums(_at_points(per_point), a, b, order, order + 1)
    return float((np.abs(phase - point).max(axis=1) / np.abs(point).max(axis=1)).max())


def test_triple_sine_phase_tables_equal_the_per_point_sines():
    # the 22 thm3 suite triples and three of the benchmark's range, whose
    # frequencies split 10; measured gaps up to 1.1e-14
    rng = random.Random(20)
    triples = [(1, 1, 1), (2, 1, 1)] + [tuple(rng.uniform(0.5, 3.0) for _ in range(3)) for _ in range(20)]
    for w1, w2, w3 in triples + [(0.2, 0.2, 9.6), (1.5, 1.8, 6.6), (3.3, 3.3, 3.4)]:
        f, brk, order = _quad_call(integrals, triple_sine_quad, w1, w2, w3)

        def per_point(t):
            return np.sin(w1 * t) * np.sin(w2 * t) * np.sin(w3 * t) / (t * t * t)

        assert _phase_gap(f, per_point, brk, order) <= 1e-13, (w1, w2, w3)


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


# sine and cosine elements per call with a sine per point: three sines at
# each of the 89,190 points of triple_sine_quad(1.5, 1.8, 6.6), and a sine
# and a cosine at each of the 77,088 points of j_quadrature(1, 10, 10)
@pytest.mark.parametrize("module,quad,args,per_point", [
    (integrals, triple_sine_quad, (1.5, 1.8, 6.6), 267_570),
    (circle, circle.j_quadrature, (1, 10, 10), 154_176),
], ids=["triple_sine", "j_quadrature"])
def test_phase_tables_take_a_tenth_of_the_sines(monkeypatch, module, quad, args, per_point):
    # measured 22,152 and 8,906: for the triple sine a sine and a cosine of
    # w m per panel and of w h u per distinct half-width h of a block; for
    # J(q) n sines per node for each block's parity rows, and a sine and a
    # cosine per point of the bisected panels
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
    # the series (t <= 2), the panel rule on a table panel (2 < t <= 40)
    # and the asymptotic form (t > 40), each row of the panel rule summed
    # alone, so no element's bits depend on the others
    ts = np.concatenate([np.linspace(0.0, 2.0, 37), np.linspace(2.0, 40.0, 401)[1:],
                         np.geomspace(40.0, 1e6, 50)[1:], [math.pi, 7 * math.pi, 40.0]])
    assert si(ts).tolist() == [si(t) for t in ts]


def test_j_closed_values():
    assert j_closed(1, 2, 2) == 787.5
    assert j_closed(2, 2, 2) == 150.0
    assert j_closed(3, 2, 2) == 0.0
    with pytest.raises(ValueError):
        j_closed(0, 2, 2)
