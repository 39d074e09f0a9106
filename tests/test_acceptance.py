"""Acceptance gate: one test per criterion, one printed line per criterion,
and one test that the whole report is there.

No criterion computes anything itself: each one asserts over its rows of a
verification suite's records (``report.run_suite``), selected by check_id, so
every check has one definition shared with the CLI.  Each suite runs once per
test session: the records come from the session cache in ``conftest.py``,
which the other test modules read too.  A criterion passes when

- every selected row has status ``pass`` (the suite applies the criterion's
  tolerance from the package's one calibration block),
- the number of selected rows is exactly the number expected, so a
  mistyped check_id prefix cannot pass on zero rows, and
- where a time gate is stated, the sum of the rows' runtime_ms is below it.

Criterion 5 is known to fail at desk scale: the deviation metric
|M - main term| / ((XY)^(3/2) max(log X, 1) log Y) measures 3.24..10.88 at
the four required pairs, so the bound of 3 is not attained; the test
reports the honest numbers and fails.  M lies below the main term at all
four pairs (signed -10.88, -3.24, -9.08, -8.07), and the exact prefactor
(2 floor(Y)+1)^2 in place of 4Y^2 widens the gap (-17.13, -5.04, -13.42,
-11.66), so that replacement does not explain it.  The deviation splits
exactly into counted parts, M - main = H - E1 - E0 + R (y = 0, y with one
zero coordinate, half the boundary faces, and a remainder): the README
section "Calibration constants" defines the parts and gives their
measured sizes.
"""

import math

import pytest

from conecount.calibration import default_calibration
from conecount.report import SUITE_NAMES, CheckRecord

CAL = default_calibration()  # the one calibration block every suite reads


@pytest.fixture
def rows(suite_records):
    """(suite, *prefixes) -> the suite's records whose check_id starts with one of the prefixes."""

    def select(suite: str, *prefixes: str) -> dict[str, CheckRecord]:
        return {r.check_id: r for r in suite_records(suite) if r.check_id.startswith(prefixes)}

    return select


def report(num: int, label: str, selected: dict[str, CheckRecord], count: int,
           time_gate: float | None = None, detail: str = ""):
    elapsed = sum(r.runtime_ms for r in selected.values()) / 1000.0
    failing = [i for i, r in selected.items() if r.status != "pass"]
    ok = len(selected) == count and not failing
    if time_gate is not None:
        ok = ok and elapsed < time_gate
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} [{label}]: {status} ({elapsed:.1f}s)"
    if detail:
        line += f"  {detail}"
    if len(selected) != count:
        line += f"  ({len(selected)} rows, expected {count})"
    print(line)
    assert ok, f"{line}  failing rows: {failing}"


def value(sel: dict[str, CheckRecord], check_id: str, field: str = "actual") -> float:
    """A numeric field of one selected row; nan if the row is missing or records an error."""
    try:
        return float(getattr(sel[check_id], field))
    except (KeyError, ValueError):
        return math.nan


def gap(sel: dict[str, CheckRecord], check_id: str) -> float:
    return abs(value(sel, check_id) - value(sel, check_id, "expected"))


def test_criterion_01_triple_sum_exactness(rows):
    sel = rows("identities", "triple_sum_closed_form/")
    report(1, "triple-sum closed form, n <= 60, exact", sel, 60, time_gate=10.0)


def test_criterion_02_part_sums_exact(rows):
    sel = rows("identities", "s_parts/", "tu_sums/")
    report(2, "component sums brute == closed, n <= 40, exact", sel, 80, time_gate=10.0)


def test_criterion_03_oracle_equivalence(rows):
    sel = rows("counts", "m/oracle_", "mprime/oracle_B=", "n0/oracle_B=", "n_w/oracle_B=")
    report(3, "fast counts == enumeration oracles", sel, 29, time_gate=120.0)


def test_criterion_04_structural_identities(rows):
    sel = rows("counts", "m/divisible_by_16", "decomposition/B=", "n0/oracle_B=")
    report(4, "16 | M, boundary decomposition, Moebius identity", sel, 12)


def test_criterion_05_thm1_deviation(rows):
    sel = rows("thm1", "deviation/X=")
    detail = "  ".join(f"({x},{y})={value(sel, f'deviation/X={x},Y={y}'):.3f}"
                       for x, y in ((20, 20), (20, 100), (40, 40), (60, 60)))
    report(5, f"box-count expansion deviation <= {CAL.thm1_deviation_bound}", sel, 4,
           time_gate=120.0, detail=detail)


def test_criterion_06_cubed_sine_identity(rows):
    sel = rows("thm3", "si_cubed/quad_vs_closed")
    report(6, "cubed sine integral = 33pi/32 - pi^3/32", sel, 1, time_gate=10.0,
           detail=f"|quad-closed|={gap(sel, 'si_cubed/quad_vs_closed'):.2e}")


def test_criterion_07_triple_sine(rows):
    report(7, "triple-sine quadrature vs closed form", rows("thm3", "triple_sine/"), 22)


def test_criterion_08_j_bridge(rows):
    sel = rows("circle", "j_bridge/")
    worst = max((value(sel, i) for i in sel), default=math.nan)
    report(8, "J(q) quadrature within 1% of closed form", sel, 4, detail=f"worst rel={worst:.2e}")


def test_criterion_09_singular_series(rows):
    sel = rows("thm1", "singular_series/partial_1e4")
    report(9, "totient series partial sum vs zeta(2)/zeta(3)", sel, 1,
           detail=f"gap={gap(sel, 'singular_series/partial_1e4'):.2e}")


def test_criterion_10_sandwich(rows):
    report(10, "quadratic-sample sandwich bounds", rows("hyperbola", "sandwich/B="), 4)


def test_criterion_11_boundary_constants(rows):
    sel = rows("boundary", "boundary/leading_1e6", "w3/leading_Z=1e3")
    report(11, "hyperplane-count leading constants", sel, 2,
           detail=f"(N-N0)/B rel={value(sel, 'boundary/leading_1e6'):.3%}, "
                  f"W3/Z^2 rel={value(sel, 'w3/leading_Z=1e3'):.3%}")


def test_criterion_12_height_fit(rows):
    sel = rows("thm2", "fit/kappa_hat", "fit/residual_trend")
    kappa_rel = gap(sel, "fit/kappa_hat") / value(sel, "fit/kappa_hat", "expected")
    report(12, "height-count fit and residual trend", sel, 2,
           detail=f"kappa_hat={value(sel, 'fit/kappa_hat'):.4f} (rel {kappa_rel:.2%}), "
                  f"max resid={value(sel, 'fit/residual_trend'):.3f}")


def test_criterion_13_circle_micro_suite(rows):
    sel = rows("circle", "kernels/", "l2/naive_equal", "arcs/disjoint_30x30", "minor_arcs/ratio")
    report(13, "circle-method micro-suite", sel, 9,
           detail=f"minor-arc ratio={value(sel, 'minor_arcs/ratio'):.3f}")


# the rows that fail at desk scale: criterion 5's four deviations, no other
KNOWN_FAILURES = {("thm1", f"deviation/X={x},Y={y}") for x, y in ((20, 20), (20, 100), (40, 40), (60, 60))}


def test_whole_report_every_row_once(suite_records):
    # every check runs, so no row can drop out of the report unnoticed, and
    # a row outside every criterion cannot turn ``fail`` unnoticed either
    records = [r for suite in SUITE_NAMES if suite != "all" for r in suite_records(suite)]
    assert len(records) == 263
    assert len({(r.suite, r.check_id) for r in records}) == len(records)
    assert {r.status for r in records} <= {"pass", "fail"}
    assert {(r.suite, r.check_id) for r in records if r.status == "fail"} == KNOWN_FAILURES
