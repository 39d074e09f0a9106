"""Verification suites and machine-readable reports.

A suite is a list of independent checks; each check records its inputs,
the expected and actual values, the tolerance used, pass or fail, and
its runtime.  Reports serialise to CSV (columns exactly
``suite,check_id,input,expected,actual,tolerance,status,runtime_ms``)
and to JSON carrying the same records plus the calibration and seed
blocks.  Every suite reads the one calibration block ``CAL``, the
``Calibration`` defaults; a run's only inputs are its seed and grid, and
apart from runtime_ms two runs with the same seed and grid produce
identical bytes.

Every check runs; the size guards sit in the engine, whose
``ResourceLimitError`` caps turn an oversized input into a ``fail`` row.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import time
from dataclasses import asdict, astuple, dataclass, fields
from fractions import Fraction
from functools import cache, partial
from typing import Callable

import numpy as np

from . import asymptotics, circle, closed_forms, counts, hyperbola, integrals
from .calibration import Calibration

CAL = Calibration()  # the calibration block of every suite and report


@dataclass(frozen=True)
class RunConfig:
    seed: int = 1
    grid: tuple[str, ...] | None = None  # raw --grid items, suite-interpreted

    def _read_grid(self, default: list, read: Callable[[str], object], form: str) -> list:
        """The grid items read one by one, or default; ValueError names a malformed item."""
        if not self.grid:
            return default
        out = []
        for item in self.grid:
            try:
                out.append(read(item))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"bad --grid item {item!r}: expected {form}") from None
        return out

    def pair_grid(self, default: list[tuple[int, int]]) -> list[tuple[int, int]]:
        return self._read_grid(default, _read_pair, "XxY")

    def b_grid(self, default: list[int]) -> list[int]:
        return self._read_grid(default, _read_b, "an integer B")


def _read_pair(item: str) -> tuple[int, int]:
    x, y = item.split("x")  # ValueError unless exactly one x
    return int(x), int(y)


def _read_b(item: str) -> int:
    """B read exactly: 1e5 and integers of any length pass; 16.9, inf and nan raise ValueError."""
    mantissa, e, exponent = item.lower().partition("e")
    # Fraction builds 10**exponent before it could fail, and a B of more than
    # 4300 digits (Python's int-to-text limit) could not label its row anyway
    if e and len(mantissa) + abs(int(exponent)) > 4300:
        raise ValueError(item)
    b = Fraction(item)  # ZeroDivisionError for "1/0"
    if b.denominator != 1:
        raise ValueError(item)
    return b.numerator


@dataclass(frozen=True)
class CheckRecord:
    suite: str
    check_id: str
    input: str
    expected: str
    actual: str
    tolerance: str
    status: str
    runtime_ms: float


CSV_HEADER = [f.name for f in fields(CheckRecord)]


@dataclass(frozen=True)
class Check:
    check_id: str
    input: str
    run: Callable[[], tuple[object, object, object, bool]]


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    records: tuple[CheckRecord, ...]
    seeds: dict

    @property
    def counts_by_status(self) -> dict:
        out = {"pass": 0, "fail": 0}
        for r in self.records:
            out[r.status] += 1
        return out

    @property
    def all_passed(self) -> bool:
        return self.counts_by_status["fail"] == 0


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (int, Fraction, str)):
        return str(v)
    return repr(v)


def exact_check(check_id: str, inp: str, expected, actual_fn: Callable[[], object]) -> Check:
    def run():
        want = expected() if callable(expected) else expected
        actual = actual_fn()
        return want, actual, "exact", actual == want

    return Check(check_id=check_id, input=inp, run=run)


def tol_check(check_id: str, inp: str, expected_fn, actual_fn, tol) -> Check:
    def run():
        expected = float(expected_fn() if callable(expected_fn) else expected_fn)
        actual = float(actual_fn())
        bound = tol() if callable(tol) else tol
        return expected, actual, bound, abs(expected - actual) <= bound

    return Check(check_id=check_id, input=inp, run=run)


def bound_check(check_id: str, inp: str, value_fn, bound: float) -> Check:
    def run():
        value = float(value_fn())
        return f"<= {_fmt(bound)}", value, bound, value <= bound

    return Check(check_id=check_id, input=inp, run=run)


def true_check(check_id: str, inp: str, predicate: Callable[[], bool]) -> Check:
    def run():
        ok = bool(predicate())
        return True, ok, "exact", ok

    return Check(check_id=check_id, input=inp, run=run)


# ---------------------------------------------------------------------------
# Suite builders
# ---------------------------------------------------------------------------


def _suite_identities(cfg: RunConfig) -> list[Check]:
    checks: list[Check] = []
    # the brute prefix is summed once, by whichever check needs it first, so
    # its cost lands in that check's runtime_ms
    @cache
    def prefix():
        return closed_forms.s_brute_prefix(60)

    for n in range(1, 61):
        checks.append(
            exact_check(f"triple_sum_closed_form/n={n:02d}", f"n={n}", lambda n=n: closed_forms.F_closed(n),
                        lambda n=n: prefix()[n])
        )
    for n in range(1, 41):
        def run_parts(n=n):
            brute = closed_forms.s_parts(n, "brute")
            closed = closed_forms.s_parts(n, "closed")
            recombined = brute[0] + 6 * brute[1] - 3 * brute[2]
            ok = brute == closed and recombined == closed_forms.F_closed(n)
            return "brute == closed == recombination", "ok" if ok else f"{brute} vs {closed}", "exact", ok

        checks.append(Check(check_id=f"s_parts/n={n:02d}", input=f"n={n}", run=run_parts))
    for n in range(1, 41):
        def run_tu(n=n):
            brute = closed_forms.tu_sums(n, "brute")
            closed = closed_forms.tu_sums(n, "closed")
            return "brute == closed", "ok" if brute == closed else f"{brute} vs {closed}", "exact", brute == closed

        checks.append(Check(check_id=f"tu_sums/n={n:02d}", input=f"n={n}", run=run_tu))

    def g_ratio():
        ts = np.concatenate(
            [np.logspace(-6, 4, 2000), np.arange(1, 10001) - 1e-9, np.arange(1, 10001) + 1e-9]
        )
        ts = ts[(ts > 0) & (ts <= 1e4)]
        return np.max(np.abs(closed_forms.G_value(ts)) / np.minimum(ts, ts * ts))

    checks.append(
        bound_check("g_bound/log_grid", "t in (0, 1e4]", g_ratio, CAL.g_bound_constant)
    )
    checks.append(
        exact_check("f_values/small", "n=0,1,2", (Fraction(0), Fraction(6), Fraction(63, 2)),
                    lambda: (closed_forms.F_closed(0), closed_forms.F_closed(1), closed_forms.F_closed(2)))
    )
    return checks


_RANDOM_PAIRS = 10  # seeded pairs in the counts suite's m/oracle_random rows


def _random_m_pairs(seed: int) -> list[tuple[int, int]]:
    """Seeded rectangular pairs with XY <= 5000, enumeration-friendly cost."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < _RANDOM_PAIRS:
        x = rng.randint(1, 18)
        y_cap = min(5000 // x, int(math.sqrt(2e8 / x**3)))
        if y_cap < 1:
            continue
        pairs.append((x, rng.randint(1, y_cap)))
    return pairs


def _suite_counts(cfg: RunConfig) -> list[Check]:
    checks: list[Check] = []

    def run_grid():
        bad = [
            (x, y)
            for x in range(1, 11)
            for y in range(x, 11)
            if counts.m_fast(x, y) != counts.m_naive(x, y)
        ]
        return "all equal", "all equal" if not bad else f"mismatch at {bad}", "exact", not bad

    checks.append(Check(check_id="m/oracle_grid", input="1<=X<=Y<=10", run=run_grid))
    random_pairs = _random_m_pairs(cfg.seed)
    for i, (x, y) in enumerate(random_pairs):
        checks.append(
            true_check(f"m/oracle_random_{i:02d}", f"X={x},Y={y}",
                       lambda x=x, y=y: counts.m_fast(x, y) == counts.m_naive(x, y))
        )
    checks.append(
        true_check("m/divisible_by_16", "grid + random pairs",
                   lambda: all(counts.m_fast(x, y) % 16 == 0
                               for x, y in [(x, y) for x in range(1, 11) for y in range(1, 11)] + random_pairs))
    )
    checks.append(exact_check("p/example_1", "X=1", 245, lambda: counts.p_count(1)))
    checks.append(
        true_check("p/tiny_oracle", "X=1..3",
                   lambda: all(counts.p_count(x) == counts.p_count_tiny(x) for x in (1, 2, 3)))
    )
    checks.append(
        true_check("p/contains_m", "X=1..8",
                   lambda: all(counts.p_count(x) >= counts.m_fast(x, x) for x in range(1, 9)))
    )
    for b in (1, 4, 16, 100, 1234, 10**4):
        checks.append(
            true_check(f"mprime/oracle_B={b}", f"B={b}", lambda b=b: counts.mprime(b) == counts.mprime_naive(b))
        )
        checks.append(
            true_check(f"n0/oracle_B={b}", f"B={b}", lambda b=b: counts.n0_times4(b) == counts.n0_times4_naive(b))
        )

        def run_nw(b=b):
            n4, w = counts.n_w_naive(b)
            h = counts.height_counts(b)
            ok = h.n_times4 == n4 and (h.W1, h.W2, h.W3, h.W4) == w
            return f"4N={n4}, W={w}", f"4N={h.n_times4}, W={(h.W1, h.W2, h.W3, h.W4)}", "exact", ok

        checks.append(Check(check_id=f"n_w/oracle_B={b}", input=f"B={b}", run=run_nw))
    for b in (1, 50, 500, 5000, 10**5):
        def run_decomp(b=b):
            h = counts.height_counts(b)
            ok = h.n_times4 - h.n0_times4 == h.W1 + h.W2 + h.W3 + h.W4 and h.W4 == 24
            return "4(N-N0) = W1+W2+W3+W4, W4 = 24", "ok" if ok else "violated", "exact", ok

        checks.append(Check(check_id=f"decomposition/B={b}", input=f"B={b}", run=run_decomp))
    checks.append(
        true_check("mprime/nondecreasing", "B=1..300",
                   lambda: all(counts.mprime(b) <= counts.mprime(b + 1) for b in range(1, 300)))
    )
    return checks


def _suite_thm1(cfg: RunConfig) -> list[Check]:
    checks = [
        tol_check("main_term/example_a", "X=1.6,Y=10", 2400.0,
                  lambda: asymptotics.main_term_thm1(1.6, 10), 1e-9),
        tol_check("main_term/example_b", "X=2,Y=2", 552.0,
                  lambda: asymptotics.main_term_thm1(2, 2), 1e-9),
        tol_check("singular_series/partial_1e4", "Q=1e4",
                  lambda: asymptotics.constants().zeta2 / asymptotics.constants().zeta3,
                  lambda: asymptotics.singular_series_partial(10**4),
                  CAL.singular_series_tol),
        true_check("singular_series/monotone_bounded", "Q<=2000",
                   _singular_series_monotone),
    ]
    pairs = cfg.pair_grid([(20, 20), (20, 100), (40, 40), (60, 60)])
    for (x, y) in pairs:
        checks.append(
            bound_check(f"deviation/X={x},Y={y}", f"X={x},Y={y}",
                        lambda x=x, y=y: asymptotics.deviation_thm1(x, y).deviation,
                        CAL.thm1_deviation_bound)
        )

    def trend():
        devs = [asymptotics.deviation_thm1(s, s).deviation for s in (20, 40, 60)]
        return max(b / a for a, b in zip(devs, devs[1:]))

    checks.append(bound_check("deviation/trend_factor", "(20,20)->(40,40)->(60,60)", trend, 2.0))
    return checks


def _singular_series_monotone() -> bool:
    limit = asymptotics.constants().zeta2 / asymptotics.constants().zeta3
    prev = 0.0
    for q, cur in enumerate(asymptotics.singular_series_partials(2000), start=1):
        if cur < prev or cur > limit + 1.0 / q:
            return False
        prev = cur
    return True


def _suite_thm2(cfg: RunConfig) -> list[Check]:
    grid = cfg.b_grid([i * 10**5 for i in range(1, 11)])
    k = asymptotics.constants  # evaluated inside the checks, so their runtime_ms sees it
    checks = [
        tol_check("constants/kappa2_consistency", "33 - 6 zeta(2) = c/2",
                  lambda: k().kappa2, lambda: k().c / (4 * k().zeta2 * k().zeta3), 1e-12),
        true_check("constants/zeta3_bracket", "1.2020 < zeta3 < 1.2021",
                   lambda: 1.2020 < k().zeta3 < 1.2021),
        tol_check("fit/kappa_hat", f"grid={grid[0]}..{grid[-1]}", lambda: k().kappa2,
                  lambda: asymptotics.fit_theorem2(grid)[0], lambda: CAL.thm2_kappa_rel_tol * k().kappa2),
        bound_check("fit/residual_trend", f"grid={grid[0]}..{grid[-1]}",
                    lambda: max(r.deviation for r in asymptotics.fit_residual_trend(grid)),
                    CAL.thm2_residual_bound),
        true_check("fit/synthetic_recovery", "kappa=5.8,C=-3.2", _fit_synthetic),
        true_check("fit/two_point_interpolation", "B={1e4,1e6-ish}", _fit_two_point),
    ]
    return checks


def _fit_synthetic() -> bool:
    kap, c = 5.8, -3.2
    grid = [10, 100, 1000, 10**4]
    kh, ch = asymptotics.solve_log_linear(grid, [kap * B * math.log(B) + c * B for B in grid])
    return abs(kh - kap) < 1e-9 and abs(ch - c) < 1e-9


def _fit_two_point() -> bool:
    grid = [10**4, 9 * 10**4]
    kh, ch = asymptotics.fit_theorem2(grid)
    for B in grid:
        if abs(kh * B * math.log(B) + ch * B - counts.n_times4(B) / 4.0) > 1e-6 * counts.n_times4(B):
            return False
    return True


def _suite_thm3(cfg: RunConfig) -> list[Check]:
    checks = [
        tol_check("si_cubed/quad_vs_closed", "default config (T=1e4)",
                  integrals.si_cubed_closed, lambda: integrals.si_cubed_quad().value,
                  CAL.si_cubed_tol),
    ]
    rng = random.Random(20)
    cases = [("w=1,1,1", (1, 1, 1), 3 * math.pi / 4), ("w=2,1,1", (2, 1, 1), math.pi)]
    for i in range(20):
        ws = tuple(rng.uniform(0.5, 3.0) for _ in range(3))
        cases.append((f"random_{i:02d}", ws, lambda ws=ws: integrals.triple_sine_closed(*ws)))
    for name, ws, expected in cases:
        checks.append(
            tol_check(f"triple_sine/{name}", "w=" + ",".join(_fmt(w) for w in ws), expected,
                      lambda ws=ws: integrals.triple_sine_quad(*ws).value, CAL.triple_sine_tol)
        )
    return checks


def _suite_circle(cfg: RunConfig) -> list[Check]:
    alphas = [0.0, 0.5, 1.0 / 3.0, 0.123456, 0.987, -0.377, 2.345]
    checks = [
        bound_check(f"kernels/{name}_vs_brute", "X,Y<=8",
                    lambda fast=fast, oracle=oracle: _kernel_worst(fast, oracle, alphas), CAL.kernel_oracle_tol)
        for name, fast, oracle in _KERNEL_PAIRS
    ] + [
        true_check("kernels/g1_zero", "q=1", lambda: all(circle.g_q_eval(a, 1, 6, 6) == 0.0 for a in alphas)),
        bound_check("decomposition/restored_row", "major-arc samples, X,Y<=8",
                    _decomposition_slack, 0.0),
        exact_check("arcs/example_4x4", "X=Y=4", ((1, 0.125), (2, 0.0625)),
                    lambda: tuple(sorted((q, half_width) for q, _, half_width in _major_arcs(4, 4)))),
        exact_check("arcs/count_10x10", "X=Y=10", 10, lambda: len(circle.dissect(10, 10).q)),
        true_check("arcs/disjoint_30x30", "X=Y=30", lambda: circle.dissect(30, 30) is not None),
        exact_check("l2/example_1x1", "X=Y=1", 8, lambda: circle.l2_via_r(1, 1)),
        true_check("l2/naive_equal", "X,Y<=8",
                   lambda: all(circle.l2_via_r(x, y) == circle.l2_naive(x, y)
                               for x in (1, 2, 3, 5) for y in (1, 2, 4, 8))),
        true_check("l2/bound_40", "X<=Y<=100",
                   lambda: all(circle.l2_via_r(x, y) <= CAL.l2_bound_constant * x * y * max(math.log(x), 1.0)
                               for x in (1, 2, 5, 10, 30, 60, 100) for y in (x, 100))),
        bound_check("wv/proximity", "|gamma| <= 1/(2X) sampled",
                    lambda: max(abs(circle.w_q_eval(g, q, X, Y) - circle.v_q_eval(g, q, X, Y))
                                / (CAL.wv_proximity_constant * g * X * X / (q * q))
                                for (q, X, Y) in _SWEEP_BOXES for g in np.linspace(1e-9, 1 / (2 * X), 120)),
                    1.0),
        bound_check("v/sup_bound", "gamma sampled",
                    lambda: max(abs(circle.v_q_eval(g, q, X, Y)) / (CAL.v_sup_constant * X * Y / q)
                                for (q, X, Y) in _SWEEP_BOXES for g in np.linspace(1e-7, 0.5, 150)),
                    1.0),
        bound_check("v/decay_bound", "gamma sampled",
                    lambda: max(abs(circle.v_q_eval(g, q, X, Y)) * g / (CAL.v_decay_constant * math.log(X))
                                for (q, X, Y) in _DECAY_BOXES for g in np.logspace(-6, -0.31, 150)),
                    1.0),
        bound_check("minor_arcs/ratio", f"X=Y=40, n=1000, seed={cfg.seed}",
                    lambda: circle.minor_arc_scan(40, 40, 1000, cfg.seed).ratio,
                    CAL.minor_arc_ratio_bound),
        true_check("minor_arcs/deterministic", f"seed={cfg.seed}",
                   lambda: circle.minor_arc_scan(40, 40, 200, cfg.seed)
                   == circle.minor_arc_scan(40, 40, 200, cfg.seed)),
    ]
    for (q, x, y) in [(1, 2, 2), (2, 2, 2), (1, 4, 4), (2, 6, 8)]:
        def rel(q=q, x=x, y=y):
            quad = circle.j_quadrature(q, x, y).value
            closed = integrals.j_closed(q, x, y)
            return abs(quad - closed) / closed

        checks.append(bound_check(f"j_bridge/q={q},X={x},Y={y}", f"q={q},X={x},Y={y}",
                                  rel, CAL.j_bridge_rel_tol))
    return checks


# (name, fast kernel, literal oracle), both called as (alpha, X=X, Y=Y)
_KERNEL_PAIRS = (
    ("f", circle.f_eval, circle.f_naive),
    ("g", partial(circle.g_q_eval, q=3), partial(circle.g_q_naive, q=3)),
    ("fstar", partial(circle.f_star_eval, q=2), partial(circle.f_star_naive, q=2)),
    ("w", partial(circle.w_q_eval, q=2), partial(circle.w_q_naive, q=2)),
    ("v", partial(circle.v_q_eval, q=2), partial(circle.v_q_naive, q=2)),
)


def _kernel_worst(fast, oracle, alphas) -> float:
    """max |Re oracle - fast| over four boxes with X, Y <= 8 and the given alphas."""
    return max(abs(oracle(a, X=X, Y=Y).real - fast(a, X=X, Y=Y))
               for (X, Y) in [(2, 2), (3, 5), (8, 8), (5, 8)] for a in alphas)


def _decomposition_slack() -> float:
    """max of |f(a/q + b) - f*_q(b) - g_q(a/q + b)| - (2X + 1) over major-arc samples."""
    return max(
        abs(circle.f_eval(center + beta, X, Y) - circle.f_star_eval(beta, q, X, Y)
            - circle.g_q_eval(center + beta, q, X, Y)) - (2 * X + 1)
        for (X, Y) in [(6, 8), (8, 8)] for q, center, half_width in _major_arcs(X, Y)
        for beta in (t * half_width for t in (-0.7, 0.0, 0.9)))


def _major_arcs(X: float, Y: float):
    """(q, centre, half-width) of each major arc, in order, as Python numbers."""
    d = circle.dissect(X, Y)
    return zip(d.q.tolist(), d.center.tolist(), d.half_width.tolist())


# (q, X, Y) of the sampled w_q / v_q sweeps; the decay bound, scaled by log X, leaves out X = 2
_SWEEP_BOXES = ((1, 2, 2), (1, 8, 8), (2, 8, 6), (3, 7, 9), (1, 20, 30), (5, 17, 23))
_DECAY_BOXES = ((1, 8, 8), (2, 8, 6), (3, 7, 9), (1, 20, 30), (5, 17, 23))


def _suite_hyperbola(cfg: RunConfig) -> list[Check]:
    checks = [
        exact_check("partition/examples", "B=1e8,16,1", (10, 2, 1),
                    lambda: tuple(hyperbola.quadratic_partition(b) for b in (10**8, 16, 1))),
        true_check("partition/eighth_powers", "B sampled",
                   lambda: all(
                       (hyperbola.quadratic_partition(b) - 1) ** 8 < b <= hyperbola.quadratic_partition(b) ** 8
                       for b in list(range(1, 300)) + [255, 256, 257, 6560, 6561, 6562, 10**6]
                   )),
        exact_check("xi/example_16", "B=16", lambda: counts.m_fast(1, 4) - counts.m_fast(1, 1),
                    lambda: hyperbola.xi_sum(16)),
        true_check("xi/resummation", "B in {1e4, 5e4}", _xi_resummation),
        tol_check("telescope/L2", "L=2", 15.0 / 16.0 - 4.0 * math.log(2.0),
                  lambda: hyperbola.telescope_constant(2), 1e-12),
        bound_check("telescope/cauchy", "L=1e3 vs 1e4",
                    lambda: abs(hyperbola.telescope_constant(1000) - hyperbola.telescope_constant(10**4))
                    / (1.0 / 1000 - 1.0 / 10**4),
                    CAL.telescope_cauchy_coefficient),
        tol_check("xi_main/example_16", "B=16", 360.0, lambda: hyperbola.xi_main_term(16).direct, 1e-9),
    ]
    for b in cfg.b_grid([16, 10**4, 10**5, 10**6]):
        def run_sandwich(b=b):
            s = hyperbola.sandwich(b)
            ok = s.lower <= s.exact <= s.upper
            return "lower <= exact <= upper", f"{s.lower} <= {s.exact} <= {s.upper}", "exact", ok

        checks.append(Check(check_id=f"sandwich/B={b}", input=f"B={b}", run=run_sandwich))
    for b in (10**4, 10**6):
        checks.append(bound_check(f"xi_main/split_gap_B={b}", f"B={b}",
                                  lambda b=b: _xi_split_gap(b), CAL.xi_split_rel_tol))
        checks.append(bound_check(f"xi_main/vs_xi_B={b}", f"B={b}",
                                  lambda b=b: _xi_vs_main(b), CAL.xi_main_deviation_bound))
    return checks


def _xi_resummation() -> bool:
    for b in (10**4, 5 * 10**4):
        L = hyperbola.quadratic_partition(b)
        Z = math.isqrt(b)
        first = sum(counts.m_fast(l * l, Z // (l * l)) for l in range(1, L))
        second = sum(counts.m_fast(l * l, Z // ((l + 1) * (l + 1))) for l in range(1, L))
        if hyperbola.xi_sum(b) != first - second:
            return False
    return True


def _xi_split_gap(b: int) -> float:
    m = hyperbola.xi_main_term(b)
    return abs(m.direct - m.split) / abs(m.direct)


def _xi_vs_main(b: int) -> float:
    xi2 = 2.0 * hyperbola.xi_sum(b)
    mt2 = 2.0 * hyperbola.xi_main_term(b).direct
    return abs(xi2 - mt2) / (b ** (7.0 / 8.0) * math.log(b) ** 2)


def _suite_boundary(cfg: RunConfig) -> list[Check]:
    k = asymptotics.constants  # evaluated inside the checks, so their runtime_ms sees it

    def rel_boundary():
        rec = asymptotics.boundary_check(10**6)
        return abs(rec.exact / 10**6 - k().boundary) / k().boundary

    checks = [
        bound_check("boundary/leading_1e6", "B=1e6", rel_boundary, CAL.boundary_rel_tol),
        bound_check("w3/leading_Z=1e3", "B=1e6",
                    lambda: abs(counts.w_counts(10**6)[2] / (10**3) ** 2 - 48.0 / k().zeta2) / (48.0 / k().zeta2),
                    CAL.w3_rel_tol),
        true_check("boundary/identity_B=1", "B=1",
                   lambda: asymptotics.boundary_check(1).exact == sum(counts.w_counts(1)) / 4.0),
        true_check("boundary/finite_1e4", "B=1e4",
                   lambda: math.isfinite(asymptotics.boundary_check(10**4).deviation)),
        exact_check("height_zeta/cutoff_1", "s=2, cutoff=1", 192.0,
                    lambda: asymptotics.height_zeta_truncated(2.0, 1)),
        true_check("height_zeta/monotone", "s=2, cutoffs 1..40", _hz_monotone),
        true_check("height_zeta/tail_bound", "s=2, 100 vs 200", _hz_tail),
    ]
    return checks


def _hz_monotone() -> bool:
    vals = [asymptotics.height_zeta_truncated(2.0, c) for c in range(1, 41)]
    return all(a <= b for a, b in zip(vals, vals[1:]))


def _hz_tail() -> bool:
    v100 = asymptotics.height_zeta_truncated(2.0, 100)
    v200 = asymptotics.height_zeta_truncated(2.0, 200)
    bound = asymptotics.height_zeta_tail_bound(2.0, 100, 200)
    return 0.0 <= v200 - v100 <= bound


_SUITES: dict[str, Callable[[RunConfig], list[Check]]] = {
    "identities": _suite_identities,
    "counts": _suite_counts,
    "thm1": _suite_thm1,
    "thm2": _suite_thm2,
    "thm3": _suite_thm3,
    "circle": _suite_circle,
    "hyperbola": _suite_hyperbola,
    "boundary": _suite_boundary,
}
SUITE_NAMES = (*_SUITES, "all")
_GRID_SUITES = ("thm1", "thm2", "hyperbola")  # the builders that read cfg.grid


def run_suite(suite: str, config: RunConfig | None = None) -> VerificationReport:
    """Run one suite (or ``all``); partial failures never abort the rest.

    A grid item the suite cannot read, or a grid given to a suite that reads
    none, raises ValueError before any check runs.
    """
    config = config or RunConfig()
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    if config.grid and suite not in _GRID_SUITES:
        raise ValueError(f"suite {suite!r} reads no --grid, got {config.grid[0]!r}")
    names = list(_SUITES) if suite == "all" else [suite]
    plans = [(name, _SUITES[name](config)) for name in names]
    records: list[CheckRecord] = []
    for name, checks in plans:
        for check in checks:
            t0 = time.perf_counter()
            try:
                expected, actual, tolerance, passed = check.run()
                status = "pass" if passed else "fail"
            except Exception as exc:  # one broken check must not sink the suite
                expected, actual, tolerance, status = "", f"error: {type(exc).__name__}: {exc}", "", "fail"
            ms = (time.perf_counter() - t0) * 1000.0
            records.append(CheckRecord(suite=name, check_id=check.check_id, input=check.input,
                                       expected=_fmt(expected), actual=_fmt(actual),
                                       tolerance=_fmt(tolerance), status=status, runtime_ms=ms))
    records.sort(key=lambda r: (r.suite, r.check_id))
    return VerificationReport(
        suite=suite,
        records=tuple(records),
        seeds={"seed": config.seed, "summation": "ascending-index math.fsum"},
    )


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------


def to_csv_text(report: VerificationReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")  # writes floats by repr
    writer.writerow(CSV_HEADER)
    writer.writerows(astuple(r) for r in report.records)
    return buf.getvalue()


def parse_csv_text(text: str) -> list[CheckRecord]:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != CSV_HEADER:
        raise ValueError("unexpected CSV header")
    return [CheckRecord(*row[:7], float(row[7])) for row in rows[1:]]


def to_json_text(report: VerificationReport) -> str:
    payload = {
        "suite": report.suite,
        "records": [asdict(r) for r in report.records],
        "calibration": asdict(CAL),
        "seeds": report.seeds,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit(report: VerificationReport, format: str, path: str) -> None:
    """Write the report as CSV or JSON (UTF-8, LF); OSError propagates."""
    if format == "csv":
        text = to_csv_text(report)
    elif format == "json":
        text = to_json_text(report)
    else:
        raise ValueError(f"unknown format {format!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
