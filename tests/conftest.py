import functools

import pytest

from conecount.report import CheckRecord, run_suite


@pytest.fixture(scope="session")
def suite_rows():
    """suite name -> {check_id: record} of one default run, computed once per session."""

    @functools.cache
    def rows(suite: str) -> dict[str, CheckRecord]:
        return {r.check_id: r for r in run_suite(suite).records}

    return rows
