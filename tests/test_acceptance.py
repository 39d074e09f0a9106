"""Acceptance gate: one test per criterion, one printed line per criterion.

Each criterion is pinned to its stated tolerance.  Criterion 5 is known to
fail at desk scale: the deviation metric
|M - main term| / ((XY)^(3/2) max(log X, 1) log Y) measures 3.24..10.88 at
the four required pairs, so the bound of 3 is not attained; the test
reports the honest numbers and fails.  M lies below the main term at all
four pairs (signed -10.88, -3.24, -9.08, -8.07), and the exact prefactor
(2 floor(Y)+1)^2 in place of 4Y^2 widens the gap (-17.13, -5.04, -13.42,
-11.66), so that replacement does not explain it; the cause is open.
"""

import math
import random
import time

import pytest

from conecount import circle, counts, hyperbola, integrals
from conecount.asymptotics import (
    constants,
    deviation_thm1,
    fit_residual_trend,
    fit_theorem2,
    main_term_thm1,
    singular_series_partial,
)
from conecount.calibration import default_calibration
from conecount.closed_forms import F_closed, s_brute_prefix, s_parts, tu_sums
from conecount.report import _random_m_pairs

CAL = default_calibration()


def report(num: int, label: str, ok: bool, t0: float, detail: str = ""):
    elapsed = time.time() - t0
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} [{label}]: {status} ({elapsed:.1f}s)"
    if detail:
        line += f"  {detail}"
    print(line)
    assert ok, line


def test_criterion_01_triple_sum_exactness():
    t0 = time.time()
    prefix = s_brute_prefix(60)
    ok = all(prefix[n] == F_closed(n) for n in range(1, 61))
    ok = ok and (time.time() - t0) < 10.0
    report(1, "triple-sum closed form, n <= 60, exact", ok, t0)


def test_criterion_02_part_sums_exact():
    t0 = time.time()
    ok = True
    for n in range(1, 41):
        sb = s_parts(n, "brute")
        ok = ok and sb == s_parts(n, "closed")
        ok = ok and sb[0] + 6 * sb[1] - 3 * sb[2] == F_closed(n)
        ok = ok and tu_sums(n, "brute") == tu_sums(n, "closed")
    ok = ok and (time.time() - t0) < 10.0
    report(2, "component sums brute == closed, n <= 40, exact", ok, t0)


B_ORACLE_GRID = [1, 4, 16, 100, 1234, 10**4]


def test_criterion_03_oracle_equivalence():
    t0 = time.time()
    ok = all(
        counts.m_fast(x, y) == counts.m_naive(x, y)
        for x in range(1, 11)
        for y in range(x, 11)
    )
    for (x, y) in _random_m_pairs(1):
        ok = ok and counts.m_fast(x, y) == counts.m_naive(x, y)
    for b in B_ORACLE_GRID:
        ok = ok and counts.mprime(b) == counts.mprime_naive(b)
        ok = ok and counts.n0_times4(b) == counts.n0_times4_naive(b)
        n4, w = counts.n_w_naive(b)
        h = counts.height_counts(b)
        ok = ok and h.n_times4 == n4 and (h.W1, h.W2, h.W3, h.W4) == w
    elapsed_ok = (time.time() - t0) < 120.0
    report(3, "fast counts == enumeration oracles", ok and elapsed_ok, t0)


def test_criterion_04_structural_identities():
    t0 = time.time()
    ok = all(counts.m_fast(x, y) % 16 == 0 for x in range(1, 11) for y in range(1, 11))
    for b in (1, 50, 500, 5000, 10**5):
        h = counts.height_counts(b)
        ok = ok and h.n_times4 - h.n0_times4 == h.W1 + h.W2 + h.W3 + h.W4
        ok = ok and h.W4 == 24
    for b in B_ORACLE_GRID:  # Moebius identity against enumeration
        ok = ok and counts.n0_times4(b) == counts.n0_times4_naive(b)
    report(4, "16 | M, boundary decomposition, Moebius identity", ok, t0)


def test_criterion_05_thm1_deviation():
    t0 = time.time()
    bound = CAL.thm1_deviation_bound
    devs = {}
    for (x, y) in [(20, 20), (20, 100), (40, 40), (60, 60)]:
        devs[(x, y)] = deviation_thm1(x, y).deviation
    detail = "  ".join(f"({x},{y})={d:.3f}" for (x, y), d in devs.items())
    ok = all(d <= bound for d in devs.values()) and (time.time() - t0) < 120.0
    report(5, f"box-count expansion deviation <= {bound}", ok, t0, detail)


def test_criterion_06_cubed_sine_identity():
    t0 = time.time()
    res = integrals.si_cubed_quad()
    closed = integrals.si_cubed_closed()
    ok = abs(res.value - closed) < CAL.si_cubed_tol and (time.time() - t0) < 10.0
    report(6, "cubed sine integral = 33pi/32 - pi^3/32", ok, t0,
           f"|quad-closed|={abs(res.value - closed):.2e}")


def test_criterion_07_triple_sine():
    t0 = time.time()
    ok = abs(integrals.triple_sine_quad(1, 1, 1).value - 3 * math.pi / 4) < CAL.triple_sine_tol
    ok = ok and abs(integrals.triple_sine_quad(2, 1, 1).value - math.pi) < CAL.triple_sine_tol
    rng = random.Random(20)
    for _ in range(20):
        ws = [rng.uniform(0.5, 3.0) for _ in range(3)]
        gap = abs(integrals.triple_sine_quad(*ws).value - integrals.triple_sine_closed(*ws))
        ok = ok and gap < CAL.triple_sine_tol
    report(7, "triple-sine quadrature vs closed form", ok, t0)


def test_criterion_08_j_bridge():
    t0 = time.time()
    ok = True
    worst = 0.0
    for (q, x, y) in [(1, 2, 2), (2, 2, 2), (1, 4, 4), (2, 6, 8)]:
        closed = integrals.j_closed(q, x, y)
        rel = abs(circle.j_quadrature(q, x, y).value - closed) / closed
        worst = max(worst, rel)
        ok = ok and rel < CAL.j_bridge_rel_tol
    report(8, "J(q) quadrature within 1% of closed form", ok, t0, f"worst rel={worst:.2e}")


def test_criterion_09_singular_series():
    t0 = time.time()
    k = constants()
    gap = abs(singular_series_partial(10**4) - k.zeta2 / k.zeta3)
    ok = gap < CAL.singular_series_tol
    report(9, "totient series partial sum vs zeta(2)/zeta(3)", ok, t0, f"gap={gap:.2e}")


def test_criterion_10_sandwich():
    t0 = time.time()
    ok = True
    for b in (16, 10**4, 10**5, 10**6):
        s = hyperbola.sandwich(b)
        ok = ok and s.lower <= s.exact <= s.upper
    report(10, "quadratic-sample sandwich bounds", ok, t0)


def test_criterion_11_boundary_constants():
    t0 = time.time()
    k = constants()
    nm = sum(counts.w_counts(10**6)) / 4.0
    rel1 = abs(nm / 10**6 - k.boundary) / k.boundary
    w3 = counts.w_counts(10**6)[2]
    rel2 = abs(w3 / 10**6 - 48.0 / k.zeta2) / (48.0 / k.zeta2)
    ok = rel1 < CAL.boundary_rel_tol and rel2 < CAL.w3_rel_tol
    report(11, "hyperplane-count leading constants", ok, t0,
           f"(N-N0)/B rel={rel1:.3%}, W3/Z^2 rel={rel2:.3%}")


def test_criterion_12_height_fit():
    t0 = time.time()
    grid = [i * 10**5 for i in range(1, 11)]
    kh, _ = fit_theorem2(grid)
    k = constants()
    rel = abs(kh - k.kappa2) / k.kappa2
    resid = max(r.deviation for r in fit_residual_trend(grid))
    ok = rel < CAL.thm2_kappa_rel_tol and resid <= CAL.thm2_residual_bound
    report(12, "height-count fit and residual trend", ok, t0,
           f"kappa_hat={kh:.4f} (rel {rel:.2%}), max resid={resid:.3f}")


def test_criterion_13_circle_micro_suite():
    t0 = time.time()
    import cmath

    tol = CAL.kernel_oracle_tol
    ok = True
    for (X, Y) in [(2, 2), (3, 5), (8, 8), (5, 8)]:
        for a in (0.0, 0.5, 1.0 / 3.0, 0.123456, 0.987):
            brute = sum(
                cmath.exp(2j * math.pi * a * x * y)
                for x in range(-X, X + 1) if x
                for y in range(-Y, Y + 1) if y
            ).real
            ok = ok and abs(circle.f_eval(a, X, Y) - brute) <= tol
            q = 2
            brute_g = sum(
                cmath.exp(2j * math.pi * a * x * y)
                for x in range(-X, X + 1) if x and x % q
                for y in range(-Y, Y + 1) if y
            ).real
            ok = ok and abs(circle.g_q_eval(a, q, X, Y) - brute_g) <= tol
            brute_fs = sum(
                cmath.exp(2j * math.pi * a * q * x * y)
                for x in range(-(X // q), X // q + 1) if x
                for y in range(-Y, Y + 1)
            ).real
            ok = ok and abs(circle.f_star_eval(a, q, X, Y) - brute_fs) <= tol
            g = a if a else 0.013
            n, m = X // q, Y
            w_brute = 2 * math.fsum(
                math.sin(math.pi * (2 * m + 1) * g * x) / math.sin(math.pi * g * x)
                if abs(math.sin(math.pi * g * x)) > 1e-12 else (2 * m + 1)
                for x in range(1, n + 1)
            )
            v_brute = 2 * math.fsum(
                math.sin(math.pi * (2 * m + 1) * g * x) / (math.pi * g * x)
                if abs(g * x) > 1e-12 else (2 * m + 1)
                for x in range(1, n + 1)
            )
            ok = ok and abs(circle.w_q_eval(g, q, X, Y) - w_brute) <= tol
            ok = ok and abs(circle.v_q_eval(g, q, X, Y) - v_brute) <= tol
    ok = ok and all(
        circle.l2_via_r(x, y) == circle.l2_naive(x, y) for x in (1, 2, 3) for y in (2, 5, 8)
    )
    circle.dissect(30, 30)  # disjointness asserted inside
    scan = circle.minor_arc_scan(40, 40, 1000, seed=1)
    ok = ok and scan.ratio <= CAL.minor_arc_ratio_bound
    report(13, "circle-method micro-suite", ok, t0, f"minor-arc ratio={scan.ratio:.3f}")
