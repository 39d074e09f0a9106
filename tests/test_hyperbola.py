import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conecount import closed_forms, hyperbola
from conecount.counts import m_fast, mprime
from conecount.errors import ResourceLimitError
from conecount.hyperbola import (
    quadratic_partition,
    sandwich,
    telescope_constant,
    xi_main_term,
    xi_sum,
)


@given(st.integers(1, 10**12))
@settings(max_examples=200, deadline=None)
def test_partition_eighth_power_bracketing(B):
    L = quadratic_partition(B)
    assert (L - 1) ** 8 < B <= L**8


def test_xi_examples():
    assert xi_sum(1) == 0  # L = 1: empty sum
    assert xi_sum(16) == m_fast(1, 4) - m_fast(1, 1)


@pytest.mark.parametrize("B", [16, 10**4, 10**5])
def test_sandwich(B):
    s = sandwich(B)
    assert s.lower <= s.exact <= s.upper
    assert s.exact == mprime(B)


@given(st.integers(16, 30000))
@settings(max_examples=30, deadline=None)
def test_sandwich_random(B):
    s = sandwich(B)
    assert s.lower <= s.exact <= s.upper


def test_sandwich_tiny_b():
    for B in range(1, 16):
        s = sandwich(B)
        assert s.lower <= s.exact <= s.upper


def test_telescope():
    assert telescope_constant(2) == pytest.approx(15.0 / 16.0 - 4.0 * math.log(2.0), abs=1e-14)
    with pytest.raises(ValueError):
        telescope_constant(1)


def test_telescope_cauchy():
    # telescope(L) = c1 + 8/L + O(1/L^2), so consecutive decades move by ~8/L
    t3 = telescope_constant(1000)
    t4 = telescope_constant(10**4)
    gap = 1.0 / 1000 - 1.0 / 10**4
    assert abs(t3 - t4) <= 9.0 * gap
    assert abs(t3 - t4) >= 7.0 * gap  # the O(1/L) rate is really there
    assert math.isfinite(telescope_constant(10**4))


def test_xi_main_term_example():
    m = xi_main_term(16)
    assert m.direct == pytest.approx(360.0, abs=1e-9)
    assert m.split == pytest.approx(360.0, abs=1e-9)
    z = xi_main_term(1)
    assert z.direct == 0.0


# float.hex of (direct, c_part, g_part).  direct and c_part are the bits
# from before the exact F was shared between the (l, q) with equal
# floor(l^2/q) and rounded from fixed-point sums: neither may move a bit.
# Each g_part is the 50-digit mpmath value of the exact sum rounded to
# float; G(t) from correctly rounded F moved each by 1-2 ulp to it.
_XI_MAIN_HEX = {
    10**4: ("0x1.bbdddcd66ca92p+19", "0x1.3e26fd122e1e1p+20", "-0x1.80e03a9bdf260p+18"),
    10**6: ("0x1.22767c73d26ffp+27", "0x1.7b52647b795f7p+27", "-0x1.636fa01e9bbe0p+25"),
    10**8: ("0x1.6ff361f4e56fap+34", "0x1.bd5f68de3b639p+34", "-0x1.35b01ba557cfap+32"),
}


@pytest.mark.parametrize("B", sorted(_XI_MAIN_HEX))
def test_xi_main_term_bit_for_bit_with_one_F_per_quotient(monkeypatch, B):
    rounded, exact, F_closed = [], [], closed_forms.F_closed

    def counted_rounded(ns):
        rounded.append(list(ns))
        return closed_forms.F_rounded(ns)

    monkeypatch.setattr(hyperbola, "F_rounded", counted_rounded)
    monkeypatch.setattr(closed_forms, "F_closed", lambda n: exact.append(n) or F_closed(n))
    m = xi_main_term(B)
    assert tuple(map(float.hex, (m.direct, m.c_part, m.g_part))) == _XI_MAIN_HEX[B]
    L = quadratic_partition(B)
    distinct = {l * l // q for l in range(1, L) for q in range(1, l * l + 1)}
    assert len(rounded) == 1  # one F_rounded call per main term
    assert sorted(rounded[0]) == sorted(distinct)
    assert exact == []  # the fixed-point interval settles every value


def test_xi_main_term_refused_past_the_harmonic_cap_before_any_sieve(monkeypatch):
    # the largest F argument is (L - 1)^2; xi_main_term(10**22) (L = 563)
    # ran 63 s before F_rounded refused it
    assert xi_main_term(101**8).split > 0  # L = 101: (L - 1)^2 = 10^4
    monkeypatch.setattr(hyperbola, "arith_table", lambda n: pytest.fail("a sieve was built"))
    for B in (101**8 + 1, 10**20, 10**22):
        with pytest.raises(ResourceLimitError, match="capped at n <= 10000"):
            xi_main_term(B)
