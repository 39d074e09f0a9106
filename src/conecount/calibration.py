"""Empirical calibration constants for the verification suites.

Every number here is an artifact constant obtained by measuring the
implemented quantities at desk scale; none of them is a theoretical
claim (the theory gives only O(.) statements for these error terms).
They are the ``Calibration`` field defaults below.  No flag, file or
environment variable sets them: every suite and report reads one block
of the defaults, so a bound that fails stays failing until the program
is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Calibration:
    # deviation of the box-count expansion on the (XY)^(3/2) log X log Y scale
    thm1_deviation_bound: float = 3.0
    # residuals of the two-parameter height-count fit on B^(7/8) log^2 B
    thm2_residual_bound: float = 5.0
    thm2_kappa_rel_tol: float = 0.25
    # boundary leading constants
    boundary_rel_tol: float = 0.10
    w3_rel_tol: float = 0.05
    # circle-method micro-suite
    kernel_oracle_tol: float = 1.0e-9
    minor_arc_ratio_bound: float = 10.0
    l2_bound_constant: float = 40.0
    wv_proximity_constant: float = 5.0
    v_sup_constant: float = 6.0
    v_decay_constant: float = 10.0
    j_bridge_rel_tol: float = 0.01
    # |G(t)| <= g_bound_constant * min(t, t^2)
    g_bound_constant: float = 36.0
    # quadratic-sample main term
    xi_main_deviation_bound: float = 5.0
    xi_split_rel_tol: float = 1.0e-9
    # |telescope(L1) - telescope(L2)| <= coeff * |1/L1 - 1/L2|
    telescope_cauchy_coefficient: float = 9.0
    # special integrals
    si_cubed_tol: float = 1.0e-6
    triple_sine_tol: float = 1.0e-6
    singular_series_tol: float = 2.0e-4


def default_calibration() -> Calibration:
    """The calibration block the suites read: the field defaults."""
    return Calibration()

