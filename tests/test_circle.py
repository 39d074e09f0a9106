import bisect
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conecount import arith, circle, integrals, report
from conecount.arith import build_arith_tables
from conecount.asymptotics import main_term_thm1
from conecount.calibration import Calibration
from conecount.counts import m_fast
from conecount.errors import ResourceLimitError
from conecount.integrals import integrate_panels, j_closed, panel_order
from conftest import r_row

SRC = Path(circle.__file__).resolve().parents[1]

ALPHAS = [0.0, 0.5, 1.0 / 3.0, 0.123456, 0.987, -0.377, 2.345]


def real(total):
    assert abs(total.imag) < 1e-9  # the literal sums of f, g_q and f*_q are real
    return total.real


def test_sym_kernel_examples():
    assert circle.sym_kernel(0.0, 2) == 4.0
    assert circle.sym_kernel(0.5, 2) == pytest.approx(0.0, abs=1e-12)
    assert circle.sym_kernel(1.0 / 3.0, 1) == pytest.approx(-1.0, abs=1e-12)


def test_sym_kernel_near_singularity():
    # direct cosine sum has no cancellation problem and serves as the oracle
    for theta in (1e-10, 1 - 1e-10, 2 + 1e-9, -3e-10):
        m = 50
        direct = math.fsum(2 * math.cos(2 * math.pi * theta * y) for y in range(1, m + 1))
        assert circle.sym_kernel(theta, m) == pytest.approx(direct, abs=1e-8)


def test_f_examples_and_periodicity():
    assert circle.f_eval(0.0, 2, 2) == 16.0
    for a in (0.1234, 0.777):
        assert circle.f_eval(a, 5, 7) == pytest.approx(circle.f_eval(a + 1.0, 5, 7), abs=1e-9)


@pytest.mark.parametrize("X,Y", [(2, 2), (3, 5), (8, 8), (5, 8)])
def test_f_matches_brute(X, Y):
    for a in ALPHAS:
        assert circle.f_eval(a, X, Y) == pytest.approx(real(circle.f_naive(a, X, Y)), abs=1e-9)


def test_kernel_sum_on_an_array_is_f_eval_bit_for_bit():
    # the minor-arc scan evaluates f on an array of alpha through the same routine
    alphas = np.array(ALPHAS + [0.0123, 0.5 + 1e-12, 1e-10, 7.75])
    for X, Y in [(1, 1), (2, 2), (5, 8), (40, 40), (20, 80)]:
        many = circle.kernel_sum(alphas, X, Y, 1.0)
        assert [float(v) for v in many] == [circle.f_eval(a, X, Y) for a in alphas]


@pytest.mark.parametrize("X,Y", [(40, 40), (20, 80), (60, 25)])
def test_kernels_near_rationals_match_the_literal_oracles(X, Y):
    # at alpha = a/q + delta, q <= X, the kernel's denominator sin(pi alpha x)
    # nearly vanishes at the multiples of q, where a quotient of sines taken
    # at the unreduced alpha x lost up to 1.4e-5 of f (X = 60, Y = 25) against
    # 50-digit values
    rng = random.Random(X * Y)
    for i, delta in enumerate([1e-13, -1e-13, 1e-11, 1e-9, 1e-7, 3e-6, 1e-4] * 4):
        q = rng.randint(2, X)
        a = rng.choice([a for a in range(1, q) if math.gcd(a, q) == 1])
        alpha, qw = a / q + delta, 1 + i % 3
        for fast, oracle in [(circle.f_eval(alpha, X, Y), circle.f_naive(alpha, X, Y)),
                             (circle.g_q_eval(alpha, q, X, Y), circle.g_q_naive(alpha, q, X, Y)),
                             (circle.w_q_eval(alpha, qw, X, Y), circle.w_q_naive(alpha, qw, X, Y))]:
            assert abs(fast - real(oracle)) <= 1e-9 * max(1.0, abs(oracle)), (alpha, q, qw)


@pytest.mark.parametrize("X,Y,q", [(2, 2, 1), (3, 5, 2), (8, 8, 3), (7, 4, 5), (5, 8, 7)])
def test_oracles_count_points_at_zero(X, Y, q):
    # at alpha = 0 each oracle counts its index set, independently of the kernels
    assert circle.f_naive(0.0, X, Y) == 4 * X * Y
    assert circle.g_q_naive(0.0, q, X, Y) == 4 * (X - X // q) * Y
    for oracle in (circle.f_star_naive, circle.w_q_naive, circle.v_q_naive):
        assert oracle(0.0, q, X, Y) == 2 * (X // q) * (2 * Y + 1)


def test_g_q():
    assert all(circle.g_q_eval(a, 1, 6, 6) == 0.0 for a in ALPHAS)
    assert circle.g_q_eval(0.0, 2, 3, 5) == 4 * 2 * 5  # x in {+-1, +-3}
    for (q, X, Y) in [(3, 7, 6), (2, 2, 2), (2, 3, 5), (2, 8, 8), (2, 5, 8)]:
        for a in ALPHAS:
            assert circle.g_q_eval(a, q, X, Y) == pytest.approx(real(circle.g_q_naive(a, q, X, Y)), abs=1e-9)


def test_f_star():
    assert circle.f_star_eval(0.0, 1, 2, 2) == 20.0
    assert circle.f_star_eval(0.3, 3, 2, 2) == 0.0  # q > X
    for b in ALPHAS:
        for q in (1, 2, 3):
            assert circle.f_star_eval(b, q, 8, 6) == pytest.approx(
                circle.w_q_eval(q * b, q, 8, 6), abs=1e-12
            )
            assert circle.f_star_eval(b, q, 8, 6) == pytest.approx(real(circle.f_star_naive(b, q, 8, 6)), abs=1e-9)


def test_w_v_at_zero_and_brute():
    assert circle.w_q_eval(0.0, 1, 2, 2) == 20.0
    assert circle.v_q_eval(0.0, 1, 2, 2) == 20.0
    for g in (0.013, 0.21, -0.37):
        for (q, X, Y) in [(1, 8, 8), (2, 8, 6), (3, 7, 9), (2, 2, 2), (2, 3, 5), (2, 8, 8), (2, 5, 8)]:
            assert circle.w_q_eval(g, q, X, Y) == pytest.approx(circle.w_q_naive(g, q, X, Y), abs=1e-9)
            assert circle.v_q_eval(g, q, X, Y) == pytest.approx(circle.v_q_naive(g, q, X, Y), abs=1e-9)


@pytest.mark.parametrize("kernel", [circle.g_q_eval, circle.w_q_eval, circle.f_star_eval, circle.v_q_eval])
@pytest.mark.parametrize("q", [0, -1])
def test_kernels_reject_q_below_one(kernel, q):
    # q = 0 used to return 0.0 after a divide-by-zero warning, or raise ZeroDivisionError
    with pytest.raises(ValueError, match="q must be a positive integer"):
        kernel(0.1, q, 5, 5)


@pytest.mark.parametrize("oracle", [circle.g_q_naive, circle.w_q_naive, circle.f_star_naive, circle.v_q_naive])
@pytest.mark.parametrize("q", [0, -1])
def test_oracles_reject_q_below_one(oracle, q):
    # q = 0 used to raise ZeroDivisionError and q = -1 to return 0, while the
    # kernels the oracles check refuse both
    with pytest.raises(ValueError, match="q must be a positive integer"):
        oracle(0.1, q, 5, 5)


@pytest.mark.parametrize("n", [1, 2, 10, 40, 200])
def test_v_recurrence_matches_oracle(n):
    # the recurrence is least stable where sin(theta) ~ 0, i.e. at the zeros
    # j/(2m+1) of the outer sine; the oracle evaluates every sine itself
    rng = random.Random(n)
    for m in (0, 1, 3, 10):
        k = 2 * m + 1
        gammas = [1e-10] + [j / k + e for j in range(1, 2 * k + 1) for e in (-1e-9, 1e-9)]
        gammas += [rng.uniform(0.0, 3.0) for _ in range(10)]
        for g in gammas:
            v = circle.v_q_eval(g, 1, n, m)
            assert abs(v - circle.v_q_naive(g, 1, n, m)) <= 1e-10 * max(1.0, abs(v)), (n, m, g)


def test_v_on_an_array_is_v_q_eval_bit_for_bit():
    gammas = np.array([0.0, 1e-10, 1 / 7 + 1e-9, 0.3, 2.9])
    for n in (0, 1, 2, 10):
        assert circle._sinc_sum(gammas, n, 3).tolist() == [circle.v_q_eval(g, 1, n, 3) for g in gammas]


def _dissect_oracle(X, Y):
    """The dissection as a per-fraction loop: Python sort, pairwise check and
    complement walk.  Returns Q, the (q, a, centre, half-width) of each arc in
    order, and the minor intervals as (start, end) pairs."""
    Q = 0.5 * math.sqrt(X * Y)
    delta = Q / (X * Y)
    arcs = [(q, a, a / q, delta / q)
            for q in range(1, math.floor(Q) + 1) for a in range(1, q + 1) if math.gcd(a, q) == 1]
    arcs.sort(key=lambda arc: arc[2])
    for left, right in zip(arcs, arcs[1:]):
        assert left[2] + left[3] < right[2] - right[3]
    lo, hi = delta, 1.0 + delta
    assert all(lo - 1e-15 <= c - h and c + h <= hi + 1e-15 for _, _, c, h in arcs)
    intervals, cur = [], lo
    for _, _, c, h in arcs:
        if c - h > cur:
            intervals.append((cur, c - h))
        cur = max(cur, c + h)
    if cur < hi:
        intervals.append((cur, hi))
    return Q, arcs, intervals


@pytest.mark.parametrize("X,Y", [(4, 4), (10, 10), (30, 30), (20, 80), (31, 117), (110, 100), (2.5, 1.7), (400, 400)])
def test_dissect_matches_per_fraction_oracle_bit_for_bit(X, Y):
    Q, arcs, intervals = _dissect_oracle(X, Y)
    d = circle.dissect(X, Y)
    assert d.Q == Q
    assert list(zip(d.q.tolist(), d.a.tolist(), d.center.tolist(), d.half_width.tolist())) == arcs
    starts, ends = circle.minor_intervals(d)
    assert list(zip(starts.tolist(), ends.tolist())) == intervals
    # one arc per coprime a/q, so sum_{q <= Q} phi(q) of them
    assert len(d.q) == int(build_arith_tables(math.floor(Q)).phi[1:].sum())


def test_dissect_examples():
    d = circle.dissect(4, 4)
    assert d.Q == 2.0
    assert sorted(zip(d.q.tolist(), d.a.tolist(), d.half_width.tolist())) == [(1, 1, 0.125), (2, 1, 0.0625)]
    assert len(circle.dissect(10, 10).q) == 10  # sum of phi(q), q <= 5
    circle.dissect(30, 30)  # disjointness asserted inside
    with pytest.raises(ValueError):
        circle.dissect(1, 2)


def test_minor_intervals_cover_complement():
    d = circle.dissect(10, 10)
    starts, ends = circle.minor_intervals(d)
    assert float(np.sum(2 * d.half_width) + np.sum(ends - starts)) == pytest.approx(1.0, abs=1e-12)


def test_l2(suite_rows):
    rows = suite_rows("circle")
    assert [rows[i].status for i in ("l2/example_1x1", "l2/naive_equal", "l2/bound_40")] == ["pass"] * 3
    # the suite's oracle sweep leaves out y = 5
    for x in (1, 2, 3, 5):
        assert circle.l2_via_r(x, 5) == circle.l2_naive(x, 5)


@given(st.integers(1, 200), st.integers(1, 200))
@example(1, 10**4)
@example(447, 447)
@example(300, 3333)
@example(np.int64(30), np.int64(40))
@settings(max_examples=60, deadline=None)
def test_l2_blocks_match_the_r_table_dot(X, Y):
    # the gcd blocks of l2_via_r against 2 sum r(n)^2 of an in-place-filled row
    r = r_row(X, Y)
    assert circle.l2_via_r(X, Y) == 2 * int(np.dot(r, r))


def test_l2_via_r_traced_peak(traced_peak):
    # O(min(X, Y)) arrays: 8.0 MB with the int64 table r(0..XY)
    assert traced_peak(lambda: circle.l2_via_r(1000, 1000)) < 0.5


@pytest.mark.parametrize("X, Y, error", [(10**9, 10**10, OverflowError), (2 * 10**7, 2 * 10**7, ResourceLimitError)])
def test_l2_via_r_refuses_before_any_sieve(X, Y, error, monkeypatch):
    # a sum that could wrap int64, and a min(X, Y) past the sieve cap
    monkeypatch.setattr(arith, "_shared", None)
    monkeypatch.setattr(arith, "build_arith_tables", lambda limit: pytest.fail("built a sieve"))
    with pytest.raises(error):
        circle.l2_via_r(X, Y)


@pytest.mark.parametrize("call", [
    lambda: circle.w_q_eval(0.1, 1, 5, -1),
    lambda: circle.f_star_eval(0.1, 1, 5, -2),
    lambda: circle.f_eval(0.1, -3, 4),
    lambda: circle.g_q_eval(0.1, 2, 5, -2),
    lambda: circle.sym_kernel(0.2, -1),
    lambda: circle.v_q_eval(0.1, 1, 5, -1),
    lambda: j_closed(1, 3, -1),
    lambda: circle.j_quadrature(1, 3, -1),
    lambda: main_term_thm1(3, -2),
], ids=["w_q", "f_star", "f", "g_q", "sym_kernel", "v_q", "j_closed", "j_quadrature", "main_term_thm1"])
def test_negative_box_bounds_are_refused(call):
    # each used to return a value its literal oracle contradicts (an empty
    # box, or the Y of a squared or odd kernel read with its sign)
    with pytest.raises(ValueError, match="box bounds must be nonnegative"):
        call()


def test_minor_arc_scan_deterministic():
    a = circle.minor_arc_scan(40, 40, 300, 7)
    b = circle.minor_arc_scan(40, 40, 300, 7)
    assert a == b
    c = circle.minor_arc_scan(20, 80, 300, 7)
    assert math.isfinite(c.max_abs_f) and c.ratio > 0


def _scan_per_sample(X, Y, n_samples, seed):
    """The minor-arc scan as a scalar loop, each sample placed by bisection
    in the running sums of the interval lengths; returns the scan and its
    samples."""
    Q, _, intervals = _dissect_oracle(X, Y)
    cum = list(itertools.accumulate(b - a for a, b in intervals))
    rng = random.Random(seed)
    alphas = np.empty(n_samples)
    for k in range(n_samples):
        u = rng.random() * cum[-1]
        i = bisect.bisect_left(cum, u)
        a, b = intervals[i]
        alphas[k] = min(a + (u - (cum[i - 1] if i else 0.0)), b)
    vals = np.abs(circle.kernel_sum(alphas, math.floor(X), math.floor(Y), 1.0))
    scale = (X * Y / Q) * math.log(Y)
    m = float(vals.max())
    scan = circle.MinorArcScan(
        X=X, Y=Y, n_samples=n_samples, seed=seed, max_abs_f=m, scale=scale, ratio=m / scale
    )
    return scan, alphas.tolist()


def _scan_recording_samples(monkeypatch, X, Y, n_samples, seed):
    """minor_arc_scan(X, Y, n_samples, seed) and the samples it evaluates f at, in order."""
    seen = []
    kernel_sum = circle.kernel_sum

    def recording(alpha, *args):
        seen.extend(alpha.tolist())
        return kernel_sum(alpha, *args)

    with monkeypatch.context() as mp:
        mp.setattr(circle, "kernel_sum", recording)
        return circle.minor_arc_scan(X, Y, n_samples, seed), seen


@pytest.mark.parametrize("X,Y,n,seed", [
    (40, 40, 1000, report.RunConfig().seed), (40, 40, 1000, 7), (40, 40, 1000, 12345),
    (40, 40, 1000, 2**31 - 5), (110, 100, 2000, 1), (200, 37, 500, 3),
])
def test_minor_arc_scan_matches_scalar_loop_bit_for_bit(X, Y, n, seed, monkeypatch):
    # every sample is compared, not only the one that gives the max
    assert _scan_recording_samples(monkeypatch, X, Y, n, seed) == _scan_per_sample(X, Y, n, seed)


def _draws(values):
    """A Random whose every instance returns ``values`` in turn."""

    class Draws(random.Random):
        def seed(self, *args, **kwargs):
            self._next = iter(values).__next__

        def random(self):
            return self._next()

    return Draws


@pytest.mark.parametrize("values", [
    [0.5] * 7,  # all tied
    [0.0, 0.3, 0.3, 0.9, 0.3, 0.0, 0.9],  # ties, and draws on the first start
    [i / 64 for i in range(63, 0, -1)],  # descending
    [1.0 - 2.0**-53],  # the largest draw
    [0.25, 1.0 - 2.0**-53, 0.75, 1.0 - 2.0**-53, 1e-17],
])
@pytest.mark.parametrize("X,Y", [(40, 40), (31, 117)])
def test_minor_arc_scan_sorted_walk_on_chosen_draws(X, Y, values, monkeypatch):
    # the scan places all its draws by one lookup; each must land where the
    # scalar bisection puts it
    monkeypatch.setattr(circle.random, "Random", _draws(values))
    n = len(values)
    assert _scan_recording_samples(monkeypatch, X, Y, n, 1) == _scan_per_sample(X, Y, n, 1)


@pytest.mark.parametrize("X,Y", [(40, 40), (110, 100)])
def test_minor_arc_scan_draw_on_an_interval_end(X, Y, monkeypatch):
    # a draw equal to the first interval's length lands on its right end,
    # not in the next interval
    _, _, intervals = _dissect_oracle(X, Y)
    lengths = [b - a for a, b in intervals]
    v = lengths[0] / sum(lengths)
    assert v * sum(lengths) == lengths[0]
    monkeypatch.setattr(circle.random, "Random", _draws([v, 0.6, v, v]))
    scan, alphas = _scan_recording_samples(monkeypatch, X, Y, 4, 1)
    assert (scan, alphas) == _scan_per_sample(X, Y, 4, 1)
    assert alphas[0] == intervals[0][0] + lengths[0]


@pytest.mark.parametrize("X,Y", [(36, 36), (110, 100)])
def test_minor_arc_scan_clamps_to_the_interval_end(X, Y, monkeypatch):
    # start + (cum[j] - cum[j-1]) rounds past end for some j here; a draw on
    # cum[j] is clamped to that end
    starts, ends = circle.minor_intervals(circle.dissect(X, Y))
    cum = np.cumsum(ends - starts)
    over = [j for j in range(1, len(cum)) if starts[j] + (cum[j] - cum[j - 1]) > ends[j]
            and cum[j] / cum[-1] * cum[-1] == cum[j]]
    assert over
    monkeypatch.setattr(circle.random, "Random", _draws([cum[j] / cum[-1] for j in over]))
    scan, alphas = _scan_recording_samples(monkeypatch, X, Y, len(over), 1)
    assert (scan, alphas) == _scan_per_sample(X, Y, len(over), 1)
    assert alphas == ends[over].tolist()


def test_minor_arc_scan_largest_draw_lands_in_the_last_interval(monkeypatch):
    # 1 - 2^-53 times the total length rounds to at most the total, so the
    # largest draw lands in the last interval, at most on its right end
    class LargestDraw(random.Random):
        def random(self):
            return 1.0 - 2.0**-53

    monkeypatch.setattr(circle.random, "Random", LargestDraw)
    _, alphas = _scan_recording_samples(monkeypatch, 40, 40, 5, 1)
    starts, ends = circle.minor_intervals(circle.dissect(40, 40))
    assert all(starts[-1] < a <= ends[-1] for a in alphas)


@pytest.mark.parametrize("X,Y", [(30, 30), (36, 36), (50, 50), (71, 71), (101, 101), (120, 120), (36, 101), (120, 30)])
def test_minor_arc_samples_lie_in_their_intervals(X, Y, monkeypatch):
    # at the benchmark's sizes every sample lies in [start, end] of an
    # interval (the first end at or above it)
    _, alphas = _scan_recording_samples(monkeypatch, X, Y, 2000, X + Y)
    starts, ends = circle.minor_intervals(circle.dissect(X, Y))
    i = np.searchsorted(ends, alphas)
    assert np.all((starts[i] <= alphas) & (alphas <= ends[i]))


@pytest.mark.parametrize("X,Y", [(4, 1), (40, 1), (40, 0.5)])
def test_minor_arc_scan_rejects_y_at_most_one(X, Y, monkeypatch):
    # log Y <= 0: the scale would divide by zero or flip the ratio's sign;
    # the check comes before the dissection is built
    monkeypatch.setattr(circle, "dissect", None)
    with pytest.raises(ValueError, match="Y > 1"):
        circle.minor_arc_scan(X, Y, 10, 1)


@pytest.mark.parametrize("n", [0, -3])
def test_minor_arc_scan_rejects_no_samples(n, monkeypatch):
    monkeypatch.setattr(circle, "dissect", None)
    with pytest.raises(ValueError, match="n_samples >= 1"):
        circle.minor_arc_scan(40, 40, n, 1)


def test_minor_arc_scan_traced_peak(traced_peak):
    # 1.0 MB over seeds 1..7, 0.76 MB of it the dissection; the kernel sum
    # holds a few arrays of one entry per sample, where the 2000 x 400 kernel
    # grid in one array traced 32.0 MB
    assert traced_peak(lambda: circle.minor_arc_scan(400, 400, 2000, report.RunConfig().seed)) < 1.25


def test_kernel_sum_with_every_term_deferred_traced_peak(traced_peak):
    # at alpha = 0 every term is evaluated from its reduced argument: the
    # deferred terms are settled in batches of max(samples, n), 0.34 MB here;
    # settling all 2000 x 400 of them at the end traced 50 MB
    alphas = np.zeros(2000)
    assert traced_peak(lambda: circle.kernel_sum(alphas, 400, 400, 1.0)) < 1.0
    assert circle.kernel_sum(alphas, 400, 400, 1.0).tolist() == [2.0 * 400 * 800] * 2000


def test_j_quadrature_traced_peak(traced_peak):
    # 10,050 panels at orders 36 and 37: 24.9 MB with a level in one
    # integrand call, 2.6 MB (cold) in blocks of about 8,192 points
    assert traced_peak(lambda: circle.j_quadrature(1, 10, 100)) < 8.0


def test_j_quadrature_even_split(monkeypatch):
    # the integrand is even, so the quadrature of v^3 over [0, T] doubles up;
    # compare against an explicit two-sided panel integration
    from conecount.integrals import integrate_panels
    from conecount.circle import _sinc_sum

    n, m, T = 2, 2, 8.0
    monkeypatch.setattr(circle, "_J_TRUNCATION", T)
    k = 2 * m + 1
    brk = np.unique(np.concatenate([np.arange(-int(T * k), int(T * k) + 1) / k, [-T, T]]))
    with monkeypatch.context() as mp:
        mp.setattr(integrals, "QUAD_TOLERANCE", 1e-10)
        two_sided = integrate_panels(lambda p: _sinc_sum(p.mid + p.half * p.u, n, m) ** 3, brk, order=16)
    res = circle.j_quadrature(1, 2, 2)
    assert res.value == pytest.approx(two_sided, rel=1e-9)


def test_j_quadrature_breakpoints(monkeypatch):
    # the zeros j / (2m + 1) of v_q on [0, T], with no sort: the same floats
    # as sorting them together with 0 and T and keeping those <= T
    seen = []
    monkeypatch.setattr(circle, "integrate_panels", lambda f, brk, order: seen.append(brk) or 0.0)
    T = circle._J_TRUNCATION
    for m in range(201):
        circle.j_quadrature(1, 2, m)
        k = 2 * m + 1
        old = np.unique(np.concatenate([[0.0], np.arange(1, int(T * k) + 1) / k, [T]]))
        assert np.array_equal(seen[-1], old[old <= T]), m
        assert seen[-1][0] == 0.0 and seen[-1][-1] == T, m


def test_j_quadrature_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, 11-13 ms of a cold process
    code = ("import sys; from conecount import circle; circle.j_quadrature(1, 2, 2); "
            "print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("q,X,Y", [(1, 10, 10), (2, 7, 3), (3, 10, 10), (1, 1, 10)])
def test_j_quadrature_cube_by_multiplication(q, X, Y):
    # v^3 as v * v * v, with v from the parity rows on the level-0 panels,
    # rounds differently from v ** 3 of the per-point recurrence, but by far
    # less than the quadrature's tolerance
    n, m = X // q, Y
    k = 2 * m + 1
    T = circle._J_TRUNCATION
    brk = np.unique(np.concatenate([[0.0], np.arange(1, int(T * k) + 1) / k, [T]]))
    pow_cubed = 2.0 * integrate_panels(lambda p: circle._sinc_sum(p.mid + p.half * p.u, n, m) ** 3, brk[brk <= T],
                                       order=panel_order(3 * n))
    assert circle.j_quadrature(q, X, Y).value == pytest.approx(pow_cubed, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("q", [0, -1])
def test_j_quadrature_rejects_q_below_one(q, monkeypatch):
    # q = 0 used to divide by zero, q = -1 to reach numpy's Gauss-Legendre
    # nodes with a negative order; both are refused before any work
    monkeypatch.setattr(circle, "integrate_panels", None)
    with pytest.raises(ValueError, match="q must be a positive integer"):
        circle.j_quadrature(q, 5, 5)


@pytest.mark.parametrize("q,X,Y", [(1, 2, 2), (2, 2, 2), (1, 4, 4), (2, 6, 8)])
def test_j_quadrature_matches_closed(suite_rows, q, X, Y):
    assert suite_rows("circle")[f"j_bridge/q={q},X={X},Y={Y}"].status == "pass"
    # the suite bounds the quadrature's gap to the closed form, not its tail
    assert circle.j_quadrature(q, X, Y).tail_bound < Calibration().j_bridge_rel_tol * j_closed(q, X, Y)


def test_wv_proximity_and_v_bounds(suite_rows):
    rows = suite_rows("circle")
    assert [rows[i].status for i in ("wv/proximity", "v/sup_bound", "v/decay_bound")] == ["pass"] * 3
    # the suite's decay sweep, scaled by log X, leaves out the box (q, X, Y) = (1, 2, 2)
    bound = Calibration().v_decay_constant * math.log(2)
    for g in np.linspace(1e-7, 0.5, 80):
        assert abs(circle.v_q_eval(g, 1, 2, 2)) * g <= bound


def test_qsum_bridge_at_tiny_scale():
    # sum_q (phi(q)/q) J(q) tracks M(X, Y) on the (XY)^(3/2) log^2 scale;
    # the sharper (2Y+1)^2 prefactor makes the empirical constant ~17 here
    from conecount.arith import build_arith_tables

    table = build_arith_tables(64)
    for X in (20, 40):
        s = math.fsum(
            int(table.phi[q]) / q * j_closed(q, X, X) for q in range(1, X + 1)
        )
        scale = (X * X) ** 1.5 * max(math.log(X), 1.0) ** 2
        assert abs(s - m_fast(X, X)) <= 20.0 * scale
