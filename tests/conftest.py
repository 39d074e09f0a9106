import functools
import tracemalloc

import numpy as np
import pytest

from conecount.arith import build_r_table
from conecount.report import CheckRecord, run_suite


def r_row(X: int, Y: int) -> np.ndarray:
    """r(0..XY) as a zeroed int64 row filled in place by ``build_r_table`` (r(0) stays 0)."""
    row = np.zeros(X * Y + 1, dtype=np.int64)
    build_r_table(X, Y, out=row[1:])
    return row


@pytest.fixture(scope="session")
def suite_records():
    """suite name -> the records of one default run, computed once per session."""

    @functools.cache
    def records(suite: str) -> tuple[CheckRecord, ...]:
        return run_suite(suite).records

    return records


@pytest.fixture(scope="session")
def suite_rows(suite_records):
    """suite name -> {check_id: record} of the session's one run of that suite."""
    return lambda suite: {r.check_id: r for r in suite_records(suite)}


@pytest.fixture(scope="session")
def traced_peak():
    """fn -> the peak memory, in MB, that tracemalloc traces while fn() runs."""

    def peak(fn) -> float:
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    return peak
