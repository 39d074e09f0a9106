"""Seeded inputs, operations and correctness checks of the four workloads.

A workload is a list of operations.  Each operation calls the package's
public API on inputs drawn from the seed, and carries a check that
compares the result with its reference: a value recorded from the package
in ``reference.json``, its fast or closed-form counterpart, or a bound from
``calibration.json``.  An operation whose input raised when the references
were recorded also carries that exception type (``Op.raises``).

The inputs are stratified: each workload splits its input range into
log-spaced strata and draws one input near each stratum centre.  The seed
changes every input, while the work per seed stays level, so run-to-run
figures of different seeds can be compared.  Every draw comes from a finite
pool (``reference_domain`` lists it), so the recorded references cover
every seed.

This module imports the package; import it only after
``rep.use_checkout_src`` has put the checkout's ``src`` on the path.
"""

from __future__ import annotations

import math
import random
from typing import Callable, NamedTuple

from conecount import asymptotics, circle, closed_forms, counts, hyperbola, integrals
from conecount.calibration import default_calibration

# Relative half-width (in log space) of the window drawn around a stratum centre.
_JITTER = 0.03
# The same for the inputs whose size sets most of a workload's time (heights,
# the oracle's B), where the work grows as a power of the input.
_WORK_JITTER = 0.01
# Float results that have no closed form are compared with the recorded value.
_RECORDED_REL_TOL = 1e-9


class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    # the exception type the operation raised when the references were
    # recorded (a known defect), or None if it returned a value
    raises: str | None = None


def _centres(lo: float, hi: float, n: int) -> list[float]:
    """Centres of n strata of equal width in log space covering [lo, hi]."""
    return [lo * (hi / lo) ** ((i + 0.5) / n) for i in range(n)]


def _window(c: float, jitter: float = _JITTER) -> tuple[int, int]:
    """The integers in [c e^-j, c e^j], j = jitter."""
    return math.ceil(c * math.exp(-jitter)), math.floor(c * math.exp(jitter))


def _windows(lo: float, hi: float, n: int, jitter: float = _JITTER) -> list[tuple[int, int]]:
    return [_window(c, jitter) for c in _centres(lo, hi, n)]


def _draw(rng: random.Random, window: tuple[int, int]) -> int:
    """Log-uniform integer in the window."""
    lo, hi = window
    v = round(math.exp(rng.uniform(math.log(lo), math.log(hi))))
    return min(max(v, lo), hi)


def _take(seq, tiny: bool, n: int = 1):
    """The first n items for a tiny run, else all of them."""
    return seq[:n] if tiny else seq


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def eighth_root_ceil(B: int) -> int:
    """Smallest L with L^8 >= B (the quadratic-partition size)."""
    L = max(1, math.isqrt(math.isqrt(math.isqrt(B))))
    while L**8 < B:
        L += 1
    return L


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------

HEIGHT_WINDOWS = _windows(1e5, 1.5e6, 10, _WORK_JITTER)
# Box shapes: X = a * sqrt(XY) for each a, Y = XY / X, so every shape of a
# stratum does the same convolution work.
_BOX_SHAPES = (1.0, 0.8, 0.6, 0.45, 0.33, 0.24, 0.17, 0.12)
BOX_TARGETS = [round(c) for c in _centres(5e3, 4e4, 6)]
# m_naive pairs: X = b * cost^(1/5), Y = sqrt(cost / X^3) keeps X^3 Y^2 near the target.
# Thinner shapes (b < 0.8: small X, large Y) take 20-40% longer per cell, so they
# would make the oracle's time a property of the seed.
_NAIVE_SHAPES = (0.8, 0.9, 1.0, 1.1, 1.25, 1.4)
NAIVE_COSTS = _centres(1e5, 3e6, 6)
ORACLE_B = 1500
# p_count runs at the top of its range on every seed: its time and peak memory
# grow in steps with X, so a drawn X would make both a property of the seed.
P_COUNT_X = 12
P_COUNT_X_TINY = 8
# A cold main_term_thm1(X, X) raises RecursionError above X of about 490
# (harmonic_A recurses once per integer).  Seven strata keep every window
# well clear of that edge, so the outcome of each X does not depend on the
# few stack frames the tracer adds.
MAIN_TERM_WINDOWS = _windows(50, 3000, 7)
_J_Q = (1, 2, 3)
_J_X_BANDS = ((1, 4), (5, 7), (8, 10))
_J_Y_MAX = 10
# Y is drawn from each half in turn: the quadrature's work grows with X * Y,
# so a fully random Y made the workload's time a property of the seed.
_J_Y_HALVES = ((1, 5), (6, _J_Y_MAX))


def box_pool(target: int) -> list[tuple[int, int]]:
    out = []
    for a in _BOX_SHAPES:
        X = max(1, round(math.sqrt(target) * a))
        out.append((X, round(target / X)))
    return out


def naive_pool(cost: float) -> list[tuple[int, int]]:
    out = []
    for b in _NAIVE_SHAPES:
        X = max(1, round(cost ** 0.2 * b))
        out.append((X, max(1, round(math.sqrt(cost / X**3)))))
    return out


def reference_domain() -> dict:
    """Every input whose result is compared with a recorded value."""
    zs: set[int] = set()
    sandwich_keys: set[tuple[int, int]] = set()
    for lo, hi in HEIGHT_WINDOWS:
        for z in range(math.isqrt(lo), math.isqrt(hi) + 1):
            zs.add(z)
            b_lo, b_hi = max(lo, z * z), min(hi, (z + 1) ** 2 - 1)
            for B in (b_lo, b_hi):
                sandwich_keys.add((z, eighth_root_ceil(B)))
    return {
        "height": sorted(zs),
        "sandwich": sorted(sandwich_keys),
        "boxes": sorted({box for t in BOX_TARGETS for box in box_pool(t)}),
        "p_count": [P_COUNT_X_TINY, P_COUNT_X],
        "main_term": sorted({x for lo, hi in MAIN_TERM_WINDOWS for x in range(lo, hi + 1)}),
        "j_quadrature": [(q, X, Y) for q in _J_Q for X in range(q, _J_X_BANDS[-1][1] + 1)
                         for Y in range(1, _J_Y_MAX + 1)],
    }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def height(rng: random.Random, ref: dict, tiny: bool) -> list[Op]:
    """Exact height counts, sandwich bounds and the theorem-2 fit."""
    cal = default_calibration()
    grid = [_draw(rng, w) for w in _take(HEIGHT_WINDOWS, tiny, 2)]
    ops = []
    for B in grid:
        z = math.isqrt(B)
        want = ref["height"][str(z)]

        def check_h(h, want=want):
            return [h.mprime, h.n0_times4, h.W1, h.W2, h.W3] == want and h.W4 == 24

        def check_s(s, want=ref["sandwich"][f"{z}/{eighth_root_ceil(B)}"], exact=want[0]):
            return [s.lower, s.upper] == want and s.exact == exact and s.lower <= s.exact <= s.upper

        ops.append(Op(f"counts.height_counts B={B}", lambda B=B: counts.height_counts(B), check_h))
        ops.append(Op(f"hyperbola.sandwich B={B}", lambda B=B: hyperbola.sandwich(B), check_s))
    if tiny:  # two nearby heights cannot pin the fit
        return ops
    kappa2 = asymptotics.constants().kappa2
    ops.append(Op(f"asymptotics.fit_theorem2 n={len(grid)}",
                  lambda: asymptotics.fit_theorem2(grid),
                  lambda fit: abs(fit[0] - kappa2) <= cal.thm2_kappa_rel_tol * kappa2))
    return ops


def boxes(rng: random.Random, ref: dict, tiny: bool) -> list[Op]:
    """Box counts M(X, Y) and their theorem-1 deviation records."""
    ops = []
    for target in _take(BOX_TARGETS, tiny):
        X, Y = rng.choice(box_pool(target))
        m_ref, main_ref = ref["boxes"][f"{X},{Y}"]

        def check_dev(rec, m_ref=m_ref, main_ref=main_ref):
            return (rec.exact == m_ref and _rel(rec.main, main_ref) <= _RECORDED_REL_TOL
                    and _rel(rec.deviation, abs(rec.exact - rec.main) / rec.scale) <= _RECORDED_REL_TOL)

        ops.append(Op(f"counts.box_count X={X} Y={Y}", lambda X=X, Y=Y: counts.box_count(X, Y),
                      lambda b, m_ref=m_ref: b.count == m_ref))
        ops.append(Op(f"asymptotics.deviation_thm1 X={X} Y={Y}",
                      lambda X=X, Y=Y: asymptotics.deviation_thm1(X, Y), check_dev))
    return ops


def oracle(rng: random.Random, ref: dict, tiny: bool) -> list[Op]:
    """Brute-force enumeration oracles against their fast paths."""
    ops = []
    for cost in _take(NAIVE_COSTS, tiny):
        X, Y = rng.choice(naive_pool(cost))
        ops.append(Op(f"counts.m_naive X={X} Y={Y}",
                      lambda X=X, Y=Y: (counts.m_naive(X, Y), counts.m_fast(X, Y)),
                      lambda pair: pair[0] == pair[1]))
    B = _draw(rng, _window(ORACLE_B / 8 if tiny else ORACLE_B, _WORK_JITTER))
    ops.append(Op(f"counts.mprime_naive B={B}",
                  lambda: (counts.mprime_naive(B), counts.mprime(B)), lambda p: p[0] == p[1]))
    ops.append(Op(f"counts.n0_times4_naive B={B}",
                  lambda: (counts.n0_times4_naive(B), counts.n0_times4(B)), lambda p: p[0] == p[1]))

    def n_w(B=B):
        h = counts.height_counts(B)
        return counts.n_w_naive(B), (h.n_times4, (h.W1, h.W2, h.W3, h.W4))

    ops.append(Op(f"counts.n_w_naive B={B}", n_w, lambda p: p[0] == p[1]))
    X = P_COUNT_X_TINY if tiny else P_COUNT_X
    ops.append(Op(f"counts.p_count X={X}", lambda: counts.p_count(X),
                  lambda p, want=ref["p_count"][str(X)]: p == want))
    return ops


def analytic(rng: random.Random, ref: dict, tiny: bool) -> list[Op]:
    """Quadratures, closed forms, main terms and kernels; no exact counting."""
    cal = default_calibration()
    ops = []
    for _ in _take(range(8), tiny):
        # frequencies split a fixed total, so every call cuts the same number of panels
        e = [rng.expovariate(1.0) for _ in range(3)]
        w = tuple(0.2 + 9.4 * x / sum(e) for x in e)
        ops.append(Op("integrals.triple_sine_quad w=(%.4f,%.4f,%.4f)" % w,
                      lambda w=w: integrals.triple_sine_quad(*w),
                      lambda r, w=w: abs(r.value - integrals.triple_sine_closed(*w)) <= cal.triple_sine_tol))
    for _ in _take(range(2), tiny):
        T = 1e4 * math.exp(rng.uniform(-0.05, 0.0))
        ops.append(Op(f"integrals.si_cubed_quad T={T:.1f}",
                      lambda T=T: integrals.si_cubed_quad(integrals.QuadratureConfig(truncation=T)),
                      lambda r: abs(r.value - integrals.si_cubed_closed()) <= cal.si_cubed_tol))
    strata = [(q, band, ys) for ys in _J_Y_HALVES for q in _J_Q for band in _J_X_BANDS if band[1] >= q]
    for q, (x_lo, x_hi), (y_lo, y_hi) in _take(strata, tiny):
        X, Y = rng.randint(max(q, x_lo), x_hi), rng.randint(y_lo, y_hi)
        ops.append(Op(f"circle.j_quadrature q={q} X={X} Y={Y}",
                      lambda q=q, X=X, Y=Y: circle.j_quadrature(q, X, Y),
                      lambda r, q=q, X=X, Y=Y: _rel(r.value, integrals.j_closed(q, X, Y)) <= cal.j_bridge_rel_tol,
                      ref["raises"]["j_quadrature"].get(f"{q},{X},{Y}")))
    # largest first, so each call meets the F_closed cache as cold as a fresh invocation does
    for X in sorted((_draw(rng, w) for w in _take(MAIN_TERM_WINDOWS, tiny)), reverse=True):
        ops.append(Op(f"asymptotics.main_term_thm1 X=Y={X}", lambda X=X: asymptotics.main_term_thm1(X, X),
                      lambda v, want=ref["main_term"][str(X)]: _rel(v, want) <= _RECORDED_REL_TOL,
                      ref["raises"]["main_term"].get(str(X))))
    for w in _take(_windows(1e4, 1e8, 4), tiny):
        B = _draw(rng, w)
        ops.append(Op(f"hyperbola.xi_main_term B={B}", lambda B=B: hyperbola.xi_main_term(B),
                      lambda m: _rel(m.split, m.direct) <= cal.xi_split_rel_tol))
    for w in _take(_windows(20, 60, 4), tiny):
        n = _draw(rng, w)
        ops.append(Op(f"closed_forms.s_parts n={n}",
                      lambda n=n: (closed_forms.s_parts(n, "brute"), closed_forms.s_parts(n, "closed")),
                      lambda p, n=n: p[0] == p[1]
                      and p[0][0] + 6 * p[0][1] - 3 * p[0][2] == closed_forms.F_closed(n)))
    for w in _take(_windows(50, 200, 4), tiny):
        n = _draw(rng, w)
        ops.append(Op(f"closed_forms.tu_sums n={n}",
                      lambda n=n: (closed_forms.tu_sums(n, "brute"), closed_forms.tu_sums(n, "closed")),
                      lambda p: p[0] == p[1]))
    for w in _take(_windows(30, 120, 4), tiny):
        X, Y, s = _draw(rng, w), _draw(rng, w), rng.randrange(2**31)
        ops.append(Op(f"circle.minor_arc_scan X={X} Y={Y} seed={s}",
                      lambda X=X, Y=Y, s=s: circle.minor_arc_scan(X, Y, 2000, s),
                      lambda m: m.ratio <= cal.minor_arc_ratio_bound))
    return ops


BUILDERS = {"height": height, "boxes": boxes, "oracle": oracle, "analytic": analytic}


def build(workload: str, seed: int, ref: dict, tiny: bool = False) -> list[Op]:
    """The workload's operations for this seed; the same seed gives the same inputs."""
    return BUILDERS[workload](random.Random(f"{workload}/{seed}"), ref, tiny)
