import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecount.arith import build_arith_tables, build_r_table, r_direct
from conftest import r_row

TABLE = build_arith_tables(10**5)


def test_sieve_examples():
    assert TABLE.phi[10] == 4
    assert TABLE.mu[10] == 1
    assert TABLE.mu[12] == 0
    assert TABLE.mu[30] == -1


def test_mertens_is_cumsum_of_mu():
    total = 0
    for n in range(TABLE.limit + 1):
        total += int(TABLE.mu[n])
        assert TABLE.mertens[n] == total, n
    assert [int(TABLE.mertens[n]) for n in (1, 10, 100, 1000)] == [1, -1, 1, 2]
    assert not TABLE.mertens.flags.writeable


def test_zero_limit_rejected():
    with pytest.raises(ValueError):
        build_arith_tables(0)


def test_divisor_sum_identities():
    # sum_{d|n} phi(d) = n and sum_{d|n} mu(d) = [n = 1], for every n <= limit
    limit = TABLE.limit
    phi_acc = np.zeros(limit + 1, dtype=np.int64)
    mu_acc = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, limit + 1):
        phi_acc[d::d] += TABLE.phi[d]
        mu_acc[d::d] += TABLE.mu[d]
    assert np.array_equal(phi_acc[1:], np.arange(1, limit + 1))
    assert mu_acc[1] == 1 and not mu_acc[2:].any()


@given(st.integers(2, 300), st.integers(2, 300))
@settings(max_examples=60, deadline=None)
def test_multiplicative_on_coprime_pairs(a, b):
    if math.gcd(a, b) == 1:
        assert TABLE.phi[a * b] == TABLE.phi[a] * TABLE.phi[b]
        assert TABLE.mu[a * b] == TABLE.mu[a] * TABLE.mu[b]


def test_r_direct_examples():
    assert r_direct(6, 2, 3) == 2
    assert r_direct(1, 1, 1) == 2
    assert r_direct(1, 7, 9) == 2
    assert r_direct(12, 3, 4) == 2


def test_r_table_examples():
    assert r_row(2, 3)[6] == 2
    assert r_row(1, 1).tolist() == [0, 2]
    assert r_row(3, 4)[12] == 2


@given(st.integers(1, 60), st.integers(1, 60), st.data())
@settings(max_examples=80, deadline=None)
def test_r_table_matches_direct(X, Y, data):
    n = data.draw(st.integers(1, X * Y))
    assert r_row(X, Y)[n] == r_direct(n, X, Y)


@pytest.mark.parametrize("X, Y", [(1, 1), (3, 7), (7, 3), (12, 12), (5, 40)])
def test_r_row_filled_in_place(X, Y):
    # the batched box counts fill int32 rows wider than XY; the padding stays zero
    row = np.zeros(X * Y + 5, dtype=np.int32)
    assert build_r_table(X, Y, out=row) is None
    assert row[: X * Y].tolist() == [r_direct(n, X, Y) for n in range(1, X * Y + 1)]
    assert not row[X * Y :].any()


@given(st.integers(1, 40), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_r_table_total_mass(X, Y):
    # each of the 2*X*Y sign-paired boxes (x, y) contributes to exactly one n
    assert int(r_row(X, Y).sum()) == 2 * X * Y
    assert int(r_row(Y, X).sum()) == 2 * X * Y
