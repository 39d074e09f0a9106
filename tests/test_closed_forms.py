import itertools
import math
import random
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecount import closed_forms
from conecount.closed_forms import (
    F_closed,
    G_value,
    S_brute,
    harmonic_A,
    harmonic_B,
    s_brute_prefix,
    s_parts,
    tu_sums,
)
from conecount.errors import ResourceLimitError


def test_harmonic_values():
    assert harmonic_A(0) == 0
    assert harmonic_A(1) == 1
    assert harmonic_A(3) == Fraction(11, 6)
    assert harmonic_B(0) == 0
    assert harmonic_B(2) == Fraction(5, 4)
    assert harmonic_B(3) == Fraction(49, 36)


@given(st.integers(1, 400))
@settings(max_examples=50, deadline=None)
def test_harmonic_recurrences(n):
    assert harmonic_A(n) - harmonic_A(n - 1) == Fraction(1, n)
    assert harmonic_B(n) - harmonic_B(n - 1) == Fraction(1, n * n)


def test_f_closed_cold_at_large_n():
    # a cold call at the cap splits (0, 10**4] once and keeps only A and B
    # at 10**4, ~11 kB of rationals; clearing either sum clears both
    harmonic_A.cache_clear()
    F_closed(10**4)
    assert list(closed_forms._SUMS) == [10**4]
    harmonic_B.cache_clear()
    assert not closed_forms._SUMS
    with pytest.raises(ResourceLimitError):
        F_closed(10**4 + 1)


def _frame_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_f_closed_cold_within_shallow_recursion():
    # the binary split recurses log2(10**4) ~ 14 frames deep, so a cold call
    # at the cap returns with 50 frames to spare (a sum recursing once per
    # integer once raised RecursionError far below the cap)
    harmonic_A.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 50)
    try:
        value = F_closed(10**4)
    finally:
        sys.setrecursionlimit(limit)
        harmonic_A.cache_clear()
    assert value == F_closed(10**4)


def test_harmonic_sums_equal_sequential_fraction_sums():
    # A and B summed term by term up to 10**4, kept for every n <= 300; the
    # n <= 300 are asked for in random order, so each split starts from
    # whichever smaller n happens to be cached
    A = B = Fraction(0)
    sums = [(A, B)]
    for j in range(1, 10**4 + 1):
        A, B = A + Fraction(1, j), B + Fraction(1, j * j)
        if j <= 300:
            sums.append((A, B))
    order = list(range(301))
    random.Random(15).shuffle(order)
    harmonic_A.cache_clear()
    try:
        for n in order:
            assert (harmonic_A(n), harmonic_B(n)) == sums[n], n
        assert (harmonic_A(10**4), harmonic_B(10**4)) == (A, B)
    finally:
        harmonic_A.cache_clear()


def test_f_closed_cold_traced_peak(traced_peak):
    # one binary split of (0, 10**4] peaks at 0.25 MB; keeping A(j), B(j) for
    # every j <= n would take ~57 MB
    harmonic_A.cache_clear()
    try:
        assert traced_peak(lambda: F_closed(10**4)) < 4.0
    finally:
        harmonic_A.cache_clear()


def test_tu_sums_brute_traced_peak(traced_peak):
    # 3.1 MB in one (x1, x2) block of 200 rows, 0.43 MB in blocks of 16 rows
    assert traced_peak(lambda: tu_sums(200, "brute")) < 1.5


def test_exact_table_grows_correctly_under_concurrent_requests():
    targets = [25 * (i % 16 + 1) for i in range(64)]
    harmonic_A.cache_clear()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(F_closed, targets, timeout=60))
    finally:
        sys.setswitchinterval(switch)
    assert all(harmonic_A(n) - harmonic_A(n - 1) == Fraction(1, n) for n in range(1, 401))
    assert all(harmonic_B(n) - harmonic_B(n - 1) == Fraction(1, n * n) for n in range(1, 401))
    harmonic_A.cache_clear()
    assert got == [F_closed(n) for n in targets]


# every n <= 3000, then a stride up to the cap, the cap included
_ROUNDED_NS = list(range(3001)) + list(range(3001, 10**4, 97)) + [10**4]


def test_f_rounded_equals_the_rounded_exact_value():
    harmonic_A.cache_clear()
    try:
        assert closed_forms.F_rounded(_ROUNDED_NS) == [float(F_closed(n)) for n in _ROUNDED_NS]
    finally:
        harmonic_A.cache_clear()


def test_f_rounded_falls_back_when_the_interval_straddles(monkeypatch):
    # at 64 fraction bits 392 of the n <= 3000 straddle a rounding boundary
    calls = []
    monkeypatch.setattr(closed_forms, "_FIX_BITS", 64)
    monkeypatch.setattr(closed_forms, "F_closed", lambda n: calls.append(n) or F_closed(n))
    try:
        assert closed_forms.F_rounded(range(3001)) == [float(F_closed(n)) for n in range(3001)]
    finally:
        harmonic_A.cache_clear()
    assert len(calls) > 100


def test_f_rounded_interval_holds_the_extreme_floor_losses():
    # each of a, b may fall short of one A(n), one B(n) by anything in [0, n)
    one = 1 << closed_forms._FIX_BITS
    for n in (1, 2, 3, 7, 60, 1000):
        A, B = one * harmonic_A(n), one * harmonic_B(n)
        target = one * F_closed(n)
        for a in (math.floor(A), math.floor(A - n) + 1):
            for b in (math.floor(B), math.floor(B - n) + 1):
                lo, hi = closed_forms._F_interval(n, a, b, one)
                assert lo < target < hi, (n, a, b)


def test_f_rounded_keeps_order_and_duplicates(monkeypatch):
    # each distinct n > 0 is rounded once
    interval, rounded = closed_forms._F_interval, []
    monkeypatch.setattr(closed_forms, "_F_interval", lambda n, *rest: rounded.append(n) or interval(n, *rest))
    got = closed_forms.F_rounded([5, 2, 5, 0, 2])
    assert got == [float(F_closed(n)) for n in (5, 2, 5, 0, 2)]
    assert rounded == [2, 5]
    assert closed_forms.F_rounded([]) == []


def test_f_rounded_refuses_before_any_walk(monkeypatch):
    # a walk would shift by None and raise TypeError
    monkeypatch.setattr(closed_forms, "_FIX_BITS", None)
    with pytest.raises(ResourceLimitError, match="capped at n <= 10000"):
        closed_forms.F_rounded([3, 10**4 + 1])
    with pytest.raises(ValueError, match="nonnegative"):
        closed_forms.F_rounded([3, -1])


def test_g_values():
    assert G_value(0.5) == pytest.approx(-(33 - math.pi**2) / 8, abs=1e-12)
    assert G_value(1.0) == pytest.approx(6 - (33 - math.pi**2) / 2, abs=1e-12)
    assert G_value(1e-7) == pytest.approx(0.0, abs=1e-12)  # t -> 0+ limit
    with pytest.raises(ValueError):
        G_value(0.0)


@pytest.mark.parametrize("t", [math.nan, np.array([2.0, math.nan, 3.0])])
def test_g_value_rejects_nan(t):
    # nan <= 0 is false, so a NaN used to reach the int64 cast (RuntimeWarning)
    # and fail as "n must be a nonnegative integer"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="t must be positive"):
            G_value(t)


def test_float_forms_on_arrays_match_scalar_calls_bit_for_bit():
    ts = np.concatenate([np.logspace(-6, 4, 500), np.arange(1, 3001) - 1e-9, np.arange(1, 3001) + 1e-9])
    assert G_value(ts).tolist() == [G_value(float(t)) for t in ts]
    with pytest.raises(ValueError):
        G_value(np.array([1.0, 0.0]))


def test_g_value_is_the_rounded_exact_f_minus_the_square():
    # the report's g_bound/log_grid grid; F(n) = N(n) / L^2 exactly, with
    # L = lcm(1..10**4) and integer sums of L^2/j and L^2/j^2 in N(n), so
    # each quotient is float(F_closed(n)), the exact value rounded once
    ts = np.concatenate([np.logspace(-6, 4, 2000), np.arange(1, 10001) - 1e-9, np.arange(1, 10001) + 1e-9])
    ts = ts[(ts > 0) & (ts <= 1e4)]
    L2 = math.lcm(*range(1, 10**4 + 1)) ** 2
    a = b = 0
    F = [0.0]
    for n in range(1, 10**4 + 1):
        a, b = a + L2 // n, b + L2 // (n * n)
        F.append(((33 * n * n - 21 * n) * (L2 >> 1) - 3 * (n * n + n) * b + 6 * a) / L2)
    assert F[60] == float(F_closed(60))
    want = [F[math.floor(t)] - (33 - math.pi**2) / 2 * t * t for t in ts.tolist()]
    assert G_value(ts).tolist() == want


def test_g_value_refuses_before_any_walk(monkeypatch):
    # a walk would shift by None and raise TypeError
    monkeypatch.setattr(closed_forms, "_FIX_BITS", None)
    for t in (10**4 + 1.0, 1e300, np.array([3.0, 10**4 + 1.0])):
        with pytest.raises(ResourceLimitError, match="capped at n <= 10000"):
            G_value(t)


def test_s_brute_small():
    assert S_brute(1) == 6
    assert S_brute(2) == Fraction(63, 2)
    assert S_brute(5) == F_closed(5)


def test_s_brute_cap():
    with pytest.raises(ResourceLimitError):
        S_brute(101)


def test_s_parts_n1():
    assert s_parts(1, "closed") == (9, 0, 1)
    assert s_parts(1, "brute") == (9, 0, 1)


def test_tu_n1_all_zero():
    assert tu_sums(1, "closed") == (0, 0, 0, 0, 0)
    assert tu_sums(1, "brute") == (0, 0, 0, 0, 0)


def _literal(n, d, c, keep=lambda *x: True):
    """sum over x in [1, n]^d with keep(x) of c(x) / (x_1 ... x_d), one Fraction per term."""
    return sum((Fraction(c(*x), math.prod(x)) for x in itertools.product(range(1, n + 1), repeat=d) if keep(*x)),
               Fraction(0))


@pytest.mark.parametrize("n", range(1, 7))
def test_brute_sums_equal_term_by_term_fractions(n):
    assert s_parts(n, "brute") == (
        _literal(n, 3, lambda a, b, c: (a + b + c) ** 2),
        _literal(n, 3, lambda a, b, c: (a - b - c) ** 2, lambda a, b, c: b + c <= a),
        _literal(n, 3, lambda a, b, c: (a - b - c) ** 2),
    )
    assert tu_sums(n, "brute") == (
        _literal(n, 2, lambda a, b: a - b, lambda a, b: b <= a),
        _literal(n, 2, lambda a, b: (a - b) ** 2, lambda a, b: b <= a),
        *(_literal(n, 2, lambda a, b, j=j: (a + b) ** j, lambda a, b: a + b <= n) for j in range(3)),
    )
    assert s_brute_prefix(n) == [
        _literal(k, 3, lambda a, b, c: (a + b + c) ** 2 + 3 * (a - b - c) * abs(a - b - c)) for k in range(n + 1)
    ]


def test_brute_sums_at_their_caps():
    assert s_parts(100, "brute") == s_parts(100, "closed")
    assert s_brute_prefix(100) == [F_closed(n) for n in range(101)]
    assert tu_sums(200, "brute") == tu_sums(200, "closed")


def test_residue_primes_are_distinct_primes_below_2_31():
    primes = closed_forms._PRIMES
    assert len(set(primes)) == len(primes)
    for p in primes:
        assert 2 < p < 2**31
        assert all(p % f for f in range(2, math.isqrt(p) + 1)), p


def test_residue_primes_cover_both_caps():
    # twice the bound n^d max|c| lcm(1..n)^d on a numerator, at each cap with
    # the largest coefficient bound its callers use: (3n)^2 + 3 (2n)^2 for the
    # triple sums, n^2 for the double sums
    for n, d, cmax in ((100, 3, 21 * 100**2), (200, 2, 200**2)):
        need = 2 * n**d * cmax * math.lcm(*range(1, n + 1)) ** d
        assert math.prod(closed_forms._PRIMES) > need, (n, d)


def _never_called(*grids):
    raise AssertionError("a guard must refuse before any block is built")


def test_residue_guards_refuse_before_any_work():
    # lcm(1..200)^3 alone has 893 bits; the 24 primes give 744
    with pytest.raises(OverflowError, match="primes"):
        closed_forms._brute_sums(200, 3, 1, _never_called)
    # a coefficient bound of 2^40 lets one matmul sum of residues pass 2^63
    with pytest.raises(OverflowError, match="int64"):
        closed_forms._brute_sums(2, 2, 2**40, _never_called)


def test_mode_validation():
    with pytest.raises(ValueError):
        s_parts(3, "fast")
    with pytest.raises(ValueError):
        tu_sums(3, "fast")
    with pytest.raises(ResourceLimitError):
        tu_sums(201, "brute")
    with pytest.raises(ResourceLimitError):
        s_parts(101, "brute")


def test_g_bound_on_log_grid(suite_rows):
    # |G(t)| <= 36 min(t, t^2); the ratio tends to about 35.57 just below
    # integers, so the empirical constant has only a little slack.
    row = suite_rows("identities")["g_bound/log_grid"]
    assert row.status == "pass"
    assert float(row.actual) > 30.0  # the constant really is of this size
