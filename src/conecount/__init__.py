"""conecount: exact point counts on the cone x0*y0 + x1*y1 + x2*y2 = 0.

The package pairs a fast exact-counting engine (divisor-pair convolutions,
shell sums, Moebius inversion, structural hyperplane counts) with the
closed forms, constants and asymptotic main terms that describe those
counts, and ships verification suites that compare the two sides at desk
scale.  Every fast path has an independent brute-force oracle.
"""

from .arith import ArithTable, build_arith_tables, build_r_table, r_direct
from .asymptotics import (
    ConstantSet,
    DeviationParts,
    DeviationRecord,
    boundary_check,
    constants,
    deviation_parts_thm1,
    deviation_thm1,
    fit_theorem2,
    height_zeta_truncated,
    main_term_thm1,
    singular_series_partial,
    zeta3_value,
)
from .calibration import Calibration, default_calibration
from .circle import (
    dissect,
    f_eval,
    f_star_eval,
    g_q_eval,
    j_quadrature,
    l2_via_r,
    minor_arc_scan,
    sym_kernel,
    v_q_eval,
    w_q_eval,
)
from .closed_forms import F_closed, G_value, S_brute, harmonic_A, harmonic_B, s_parts, tu_sums
from .counts import (
    BoxCount,
    HeightCounts,
    box_count,
    height_counts,
    m_fast,
    m_naive,
    mprime,
    n0_times4,
    n_times4,
    p_count,
    w_counts,
)
from .errors import ConvergenceError, ResourceLimitError
from .hyperbola import (
    quadratic_partition,
    sandwich,
    telescope_constant,
    xi_main_term,
    xi_sum,
)
from .integrals import (
    QuadratureConfig,
    QuadResult,
    box_fn,
    j_closed,
    si,
    si_cubed_closed,
    si_cubed_quad,
    triple_sine_closed,
    triple_sine_quad,
)
from .report import RunConfig, VerificationReport, emit, run_suite

__version__ = "0.1.0"
