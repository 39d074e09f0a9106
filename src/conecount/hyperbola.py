"""The quadratic-sample hyperbola method for M'(B).

The classical divisor-style decomposition of M'(B) over the shells
|x| = k is too fine: every differenced box count imports its own error
term.  Sampling at the squares l^2 for 1 <= l <= L, where L is fixed by

    (L - 1)^2 < B^(1/4) <= L^2        (equivalently (L-1)^8 < B <= L^8),

keeps only ~B^(1/8) terms.  With Z = isqrt(B):

    lower:  M(Z // L^2, Z // L^2) + 2 Xi,
            Xi = sum_{l=1}^{L-1} [ M(l^2, Z // l^2) - M(l^2, Z // (l+1)^2) ],
    upper:  M(R, R) + 2 sum_{l=2}^{L} [ M(l^2, Z // (l-1)^2) - M(l^2, Z // l^2) ],
            R = floor(B^(1/4)),

and lower <= M'(B) <= upper as exact integers.  The second box-count
arguments are real numbers B^(1/2)/l^2 in the underlying derivation; a
box count only sees integer points, so they are floored once,
consistently, via integer division (the nested-floor identity
floor(floor(sqrt(B))/m) = floor(sqrt(B)/m) makes this canonical).

The main term of Xi is

    4B sum_{l<L} sum_q (phi(q)/q) F(floor(l^2/q)) (l^-4 - (l+1)^-4),

which splits, via F(floor(t)) = G(t) + (33 - pi^2)/2 t^2 and
c = 66 - 2 pi^2, into the telescoping part

    c B sum_{l<L} sum_q (phi(q)/q^3) (1 - l^4/(l+1)^4)

plus the bounded-G part 4B sum (phi(q)/q) G(l^2/q) (l^-4 - (l+1)^-4).
The split is an exact term-by-term rearrangement, so both evaluations of
the finite double sum agree to rounding.  The telescoping factor satisfies

    sum_{l<L} (1 - l^4/(l+1)^4) = 4 log L + c1 + O(1/L),

which pins down the B log B coefficient of M'(B).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import arith_table
from .closed_forms import F_rounded, check_harmonic_n
from .counts import m_fast, mprime


def quadratic_partition(B: int) -> int:
    """The number L of sample points l^2: the smallest L with L^8 >= B,
    in pure integer arithmetic.

    The eighth root is taken by three nested integer square roots plus a
    correction, so perfect powers land exactly.
    """
    if B < 1:
        raise ValueError("B must be >= 1")
    r = math.isqrt(math.isqrt(math.isqrt(B)))
    L = r if r**8 >= B else r + 1
    assert (L - 1) ** 8 < B <= L**8
    return L


def xi_sum(B: int) -> int:
    """Xi = sum_{l=1}^{L-1} [M(l^2, Z//l^2) - M(l^2, Z//(l+1)^2)], exactly."""
    L = quadratic_partition(B)
    Z = math.isqrt(B)
    total = 0
    for l in range(1, L):
        total += m_fast(l * l, Z // (l * l)) - m_fast(l * l, Z // ((l + 1) * (l + 1)))
    return total


class Sandwich(NamedTuple):
    lower: int
    exact: int
    upper: int


def sandwich(B: int) -> Sandwich:
    """Quadratic-sample lower and upper bounds around the exact M'(B)."""
    L = quadratic_partition(B)
    Z = math.isqrt(B)
    b0 = Z // (L * L)
    lower = m_fast(b0, b0) + 2 * xi_sum(B)
    R = math.isqrt(Z)  # floor(B^(1/4))
    upper = m_fast(R, R)
    for l in range(2, L + 1):
        upper += 2 * (
            m_fast(l * l, Z // ((l - 1) * (l - 1))) - m_fast(l * l, Z // (l * l))
        )
    return Sandwich(lower=lower, exact=mprime(B), upper=upper)


def telescope_constant(L: int) -> float:
    """sum_{l=1}^{L-1} (1 - l^4/(l+1)^4) - 4 log L; converges at rate O(1/L)."""
    if L < 2:
        raise ValueError("L must be >= 2")
    terms = [1.0 - (l / (l + 1.0)) ** 4 for l in range(1, L)]
    return math.fsum(terms) - 4.0 * math.log(L)


class XiMainTerm(NamedTuple):
    """The Xi main term, evaluated directly and through the exact split."""

    direct: float
    c_part: float
    g_part: float

    @property
    def split(self) -> float:
        return self.c_part + self.g_part


def xi_main_term(B: int) -> XiMainTerm:
    """The double sum 4B sum_{l<L} sum_{q<=l^2} (phi(q)/q) F(floor(l^2/q))
    (l^-4 - (l+1)^-4), plus its telescoping/bounded split.

    Both the direct evaluation and the split run over the same finite q
    range (terms with q > l^2 have F = 0, and in the split they cancel
    exactly between the two parts), so direct and split agree to rounding;
    callers assert a 1e-9 relative gap.  floor(l^2/q) repeats across the
    (l, q) terms, so F is rounded once per distinct value, by one
    F_rounded call, and G(l^2/q) = F(floor(l^2/q)) - (33 - pi^2)/2 (l^2/q)^2
    reads the same table with ``G_value``'s operations, so every term has
    the bits of a term-by-term loop.
    """
    L = quadratic_partition(B)
    if L < 2:
        return XiMainTerm(direct=0.0, c_part=0.0, g_part=0.0)
    check_harmonic_n((L - 1) ** 2)
    table = arith_table((L - 1) ** 2)
    c = 66.0 - 2.0 * math.pi**2
    direct_terms = []
    c_terms = []
    g_terms = []
    ns = list({l * l // q for l in range(1, L) for q in range(1, l * l + 1)})
    F = dict(zip(ns, F_rounded(ns)))
    for l in range(1, L):
        weight = 1.0 / l**4 - 1.0 / (l + 1.0) ** 4
        tele = 1.0 - (l / (l + 1.0)) ** 4
        for q in range(1, l * l + 1):
            phi_q = int(table.phi[q])
            f, t = F[l * l // q], l * l / q
            direct_terms.append(4.0 * B * (phi_q / q) * f * weight)
            c_terms.append(c * B * (phi_q / q**3) * tele)
            g_terms.append(4.0 * B * (phi_q / q) * (f - (33.0 - math.pi**2) / 2.0 * t * t) * weight)
    return XiMainTerm(
        direct=math.fsum(direct_terms),
        c_part=math.fsum(c_terms),
        g_part=math.fsum(g_terms),
    )
