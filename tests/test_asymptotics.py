import itertools
import math

import pytest
from scipy.special import zeta as scipy_zeta

from conecount import arith, asymptotics, circle, closed_forms, counts
from conecount.asymptotics import (
    boundary_check,
    constants,
    deviation_parts_thm1,
    deviation_thm1,
    fit_residual_trend,
    fit_theorem2,
    height_zeta_tail_bound,
    height_zeta_truncated,
    main_term_thm1,
    singular_series_partial,
    singular_series_partials,
    zeta3_value,
)
from conecount.errors import ResourceLimitError


def test_zeta3():
    assert abs(zeta3_value() - float(scipy_zeta(3.0))) < 1e-12
    assert 1.2020 < zeta3_value() < 1.2021
    assert zeta3_value().hex() == "0x1.33ba004f00621p+0"  # the correctly rounded zeta(3)
    k = constants()
    assert k.zeta2 / k.zeta3 == pytest.approx(1.3684327776, abs=1e-9)


def test_constant_consistency():
    k = constants()
    # 33 - 6 zeta(2) = (66 - 2 pi^2)/2, evaluated through independent routes
    assert abs(k.kappa2 - k.c / (4 * k.zeta2 * k.zeta3)) < 1e-12
    assert k.C0 == pytest.approx(63.3048, abs=5e-4)
    assert k.kappa2 == pytest.approx(5.8491, abs=5e-4)
    assert k.boundary == pytest.approx(32.6365, abs=5e-4)


def test_singular_series():
    assert singular_series_partial(1) == 1.0
    assert singular_series_partial(2) == 1.125
    k = constants()
    assert abs(singular_series_partial(10**4) - k.zeta2 / k.zeta3) < 2e-4


def _refuse_sieve(limit):
    raise AssertionError(f"a sieve of {limit} was built")


def test_sieve_cap_refuses_before_building(monkeypatch):
    monkeypatch.setattr(arith, "build_arith_tables", _refuse_sieve)
    with pytest.raises(ResourceLimitError):
        singular_series_partial(arith.SIEVE_MAX_LIMIT + 1)
    with pytest.raises(ResourceLimitError):  # isqrt(B) just above the cap
        counts.w_counts((arith.SIEVE_MAX_LIMIT + 1) ** 2)


def test_main_term_refused_past_the_harmonic_cap_before_any_sieve(monkeypatch):
    # the largest F argument is floor(X); main_term_thm1(5 * 10**6, 3) ran
    # 3.5 s before F_rounded refused it
    assert asymptotics.main_term_thm1(10**4, 3) > 0
    monkeypatch.setattr(asymptotics, "arith_table", _refuse_sieve)
    for X in (10**4 + 1, 5 * 10**6):
        with pytest.raises(ResourceLimitError, match="capped at n <= 10000"):
            asymptotics.main_term_thm1(X, 3)


def test_singular_series_monotone_bounded():
    k = constants()
    prev = 0.0
    for q in (1, 2, 3, 10, 50, 200, 1000):
        cur = singular_series_partial(q)
        assert prev <= cur <= k.zeta2 / k.zeta3 + 1.0 / q
        prev = cur


def test_singular_series_partials_match_fsum():
    partials = singular_series_partials(2000)
    assert len(partials) == 2000
    for q in list(range(1, 60)) + list(range(60, 2001, 97)) + [2000]:
        assert partials[q - 1] == singular_series_partial(q), q


def test_main_term_examples(monkeypatch):
    assert main_term_thm1(1.6, 10) == pytest.approx(2400.0, abs=1e-9)
    assert main_term_thm1(2, 2) == pytest.approx(552.0, abs=1e-9)
    with pytest.raises(ValueError):
        main_term_thm1(1.2, 10)
    # an infinite Y used to return inf and a NaN Y nan; a NaN X failed in
    # math.floor and an infinite X overflowed there.  All are refused
    # before any F or sieve
    monkeypatch.setattr(asymptotics, "arith_table", _refuse_sieve)
    monkeypatch.setattr(asymptotics, "F_rounded", _refuse_sieve)
    for X, Y in [(3, math.inf), (3, math.nan), (math.nan, 3), (math.inf, 3), (3, -math.inf)]:
        with pytest.raises(ValueError, match="box bounds must be finite"):
            main_term_thm1(X, Y)


# float.hex(main_term_thm1(X, X)) before the exact F was shared between
# the q with equal floor(X/q) and rounded from fixed-point sums: neither
# may move a bit
_MAIN_TERM_HEX = {
    50: "0x1.60b0b903ed8c9p+28",
    491: "0x1.a74b54c2e95d6p+41",
    1500: "0x1.2252bc72881ebp+48",
    2999: "0x1.2256b33911372p+52",
}


@pytest.mark.parametrize("X", sorted(_MAIN_TERM_HEX))
def test_main_term_bit_for_bit_with_one_F_per_quotient(monkeypatch, X):
    rounded, exact, F_closed = [], [], closed_forms.F_closed

    def counted_rounded(ns):
        rounded.append(list(ns))
        return closed_forms.F_rounded(ns)

    monkeypatch.setattr(asymptotics, "F_rounded", counted_rounded)
    monkeypatch.setattr(closed_forms, "F_closed", lambda n: exact.append(n) or F_closed(n))
    assert float.hex(main_term_thm1(X, X)) == _MAIN_TERM_HEX[X]
    assert len(rounded) == 1  # one F_rounded call per main term
    assert sorted(rounded[0]) == sorted({X // q for q in range(1, X + 1)})
    assert exact == []  # the fixed-point interval settles every value


def test_deviation_records():
    rec = deviation_thm1(20, 20)
    assert rec.exact == counts.m_fast(20, 20)
    assert math.isfinite(rec.deviation) and rec.scale > 0
    # measured desk-scale deviations: the metric sits near 11 at (20,20)
    assert 8.0 < rec.deviation < 13.0
    assert 2.5 < deviation_thm1(20, 100).deviation < 4.0


def test_deviation_scale_needs_y_above_one():
    # log Y = 0 at Y = 1 would divide by zero
    with pytest.raises(ValueError, match="Y > 1"):
        deviation_thm1(5, 1)


def _closed_box_literal(X, Y):
    """#{x zero-free, |x_i| <= X; |y_i| <= Y; x.y = 0}, every y, by a literal loop."""
    xs = [v for v in range(-X, X + 1) if v]
    ys = range(-Y, Y + 1)
    return sum(1 for x in itertools.product(xs, repeat=3) for y in itertools.product(ys, repeat=3)
               if x[0] * y[0] + x[1] * y[1] + x[2] * y[2] == 0)


@pytest.mark.parametrize("X,Y", [(2, 2), (3, 2), (2, 4), (3, 3)])
def test_deviation_parts_count_the_closed_box(X, Y):
    # A = M + E1 + E0 is every y of the closed box, and H half of what the
    # faces max |y_i| = Y add to it
    p = deviation_parts_thm1(X, Y)
    s = p.scale
    assert p.E0 * s == pytest.approx(8 * X**3, rel=1e-15)
    assert (p.deviation * s + main_term_thm1(X, Y) + p.E1 * s + p.E0 * s) == pytest.approx(
        _closed_box_literal(X, Y), rel=1e-13)
    assert 2 * p.H * s == pytest.approx(_closed_box_literal(X, Y) - _closed_box_literal(X, Y - 1), rel=1e-13)


# (M - main)/s, E1/s, E0/s, H/s, R/s to three places, as measured when the
# parts were first split out (``l2_via_r`` for E1)
_PARTS = {
    (20, 20): (-10.877, 18.185, 0.891, 7.635, 0.564),
    (20, 100): (-3.238, 5.636, 0.052, 2.221, 0.229),
    (40, 40): (-9.084, 14.780, 0.588, 5.430, 0.854),
    (60, 60): (-8.071, 13.299, 0.477, 5.231, 0.474),
    (100, 100): (-7.735, 11.806, 0.377, 3.500, 0.948),
}


@pytest.mark.parametrize("X,Y", list(_PARTS))
def test_deviation_parts_values(X, Y):
    p = deviation_parts_thm1(X, Y)
    assert [round(v, 3) for v in (p.deviation, p.E1, p.E0, p.H, p.R)] == list(_PARTS[X, Y])
    assert abs(p.deviation) == deviation_thm1(X, Y).deviation
    assert p.E1 == 6 * X * circle.l2_via_r(X, Y) / p.scale
    assert abs(p.H - p.E1 - p.E0 + p.R - p.deviation) <= 1e-13


def test_deviation_parts_rows(suite_rows):
    # one record row per box, the four criterion pairs and X = Y up to 400,
    # and one pass/fail row for the sum; criterion 05's rows keep failing
    rows = suite_rows("thm1")
    boxes = [(20, 20), (20, 100), (40, 40), (60, 60), (100, 100), (200, 200), (400, 400)]
    parts = {i: r for i, r in rows.items() if i.startswith("deviation_parts/X=")}
    assert sorted(parts) == sorted(f"deviation_parts/X={x},Y={y}" for x, y in boxes)
    assert {r.status for r in parts.values()} == {"pass"}
    assert parts["deviation_parts/X=20,Y=20"].actual.startswith("E0/s=0.891")
    assert parts["deviation_parts/X=20,Y=20"].expected.startswith("(M-main)/s=-10.877")
    assert rows["deviation_parts/sum"].status == "pass"
    assert {rows[f"deviation/X={x},Y={y}"].status for x, y in boxes[:4]} == {"fail"}


def test_deviation_parts_need_y_above_one():
    with pytest.raises(ValueError, match="Y > 1"):
        deviation_parts_thm1(5, 1)


def test_fit_two_points_interpolates():
    grid = [10**4, 9 * 10**4]
    kh, ch = fit_theorem2(grid)
    for B in grid:
        n = counts.n_times4(B) / 4.0
        assert kh * B * math.log(B) + ch * B == pytest.approx(n, rel=1e-9)


def test_fit_rejects_degenerate_grid():
    with pytest.raises(ValueError):
        fit_theorem2([10**4])
    with pytest.raises(ValueError):
        fit_theorem2([10**4, 10**4])


def test_residual_scale_needs_b_above_one():
    # log B = 0 at B = 1 would divide by zero; the fit itself is regular on this grid
    fit_theorem2([1, 100])
    with pytest.raises(ValueError, match="B > 1"):
        fit_residual_trend([1, 100])


def test_boundary_check():
    k = constants()
    rec = boundary_check(10**6)
    assert abs(rec.exact / 10**6 - k.boundary) / k.boundary < 0.10
    rec1 = boundary_check(1)
    assert rec1.exact == sum(counts.w_counts(1)) / 4.0 == 48.0
    assert math.isfinite(boundary_check(10**4).deviation)


def test_height_zeta():
    assert height_zeta_truncated(2.0, 1) == 192.0
    vals = [height_zeta_truncated(2.0, c) for c in range(1, 30)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    v100 = height_zeta_truncated(2.0, 100)
    v200 = height_zeta_truncated(2.0, 200)
    assert 0.0 <= v200 - v100 <= height_zeta_tail_bound(2.0, 100, 200)
    for s in (1.0, math.nan):
        with pytest.raises(ValueError):
            height_zeta_truncated(s, 10)
    with pytest.raises(ResourceLimitError):
        height_zeta_truncated(2.0, 10**6)


@pytest.mark.parametrize("s, cutoff, horizon", [
    (2.0, 100, 50),  # horizon below the cutoff: the bound came out negative
    (2.0, 100, 100),
    (0.5, 10, 20),  # a divergent series: the bound came out finite
    (1.0, 10, 20),
    (math.nan, 10, 20),  # NaN used to pass the s > 1 check and return nan
    (2.0, 0, 20),
    (2.0, 10, asymptotics.HEIGHT_ZETA_MAX_CUTOFF + 1),
])
def test_height_zeta_tail_bound_rejects_bad_inputs(s, cutoff, horizon):
    with pytest.raises(ValueError):
        height_zeta_tail_bound(s, cutoff, horizon)
