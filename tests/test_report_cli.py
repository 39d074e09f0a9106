import json
import os
import re
import shlex
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from conecount import report
from conecount.cli import build_parser, main
from conecount.report import (
    CSV_HEADER,
    RunConfig,
    emit,
    parse_csv_text,
    run_suite,
    to_csv_text,
    to_json_text,
)


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_thm3_suite_passes():
    rep = run_suite("thm3")
    assert rep.counts_by_status == {"pass": 23, "fail": 0}


def test_identities_suite_all_pass():
    rep = run_suite("identities")
    assert rep.counts_by_status["fail"] == 0
    assert any(r.check_id == "triple_sum_closed_form/n=60" for r in rep.records)


def test_partial_failure_does_not_abort():
    # the expansion-deviation checks fail at the default bound while the rest
    # of the suite passes; all checks must still be reported
    rep = run_suite("thm1")
    c = rep.counts_by_status
    assert c["fail"] >= 1 and c["pass"] >= 1
    assert c["fail"] + c["pass"] == len(rep.records)
    assert not rep.all_passed


def test_csv_roundtrip_and_determinism():
    cfg = RunConfig(seed=3)
    rep1 = run_suite("hyperbola", cfg)
    rep2 = run_suite("hyperbola", cfg)
    txt1, txt2 = to_csv_text(rep1), to_csv_text(rep2)
    assert parse_csv_text(txt1) == list(rep1.records)

    def strip_runtime(text):
        return [line.rsplit(",", 1)[0] for line in text.splitlines()]

    assert strip_runtime(txt1) == strip_runtime(txt2)
    assert txt1.splitlines()[0] == ",".join(CSV_HEADER)
    assert "\r" not in txt1


def test_json_structure():
    rep = run_suite("thm3")
    data = json.loads(to_json_text(rep))
    assert set(data) == {"suite", "records", "calibration", "seeds"}
    assert data["seeds"] == {"seed": 1, "summation": "ascending-index math.fsum"}
    assert data["records"][0]["status"] in ("pass", "fail")
    assert "thm1_deviation_bound" in data["calibration"]


def test_emit_and_cli(tmp_path):
    out = tmp_path / "r.csv"
    code = main(["--suite", "thm3", "--format", "csv", "--out", str(out)])
    assert code == 0
    assert parse_csv_text(out.read_text())[0].suite == "thm3"

    out_json = tmp_path / "r.json"
    assert main(["--suite", "thm3", "--format", "json", "--out", str(out_json)]) == 0
    data = json.loads(out_json.read_text())
    assert all(r["status"] == "pass" for r in data["records"])


def test_cli_grid_override():
    assert main(["--suite", "hyperbola", "--grid", "16,10000"]) == 0


def test_cli_pair_grid_override():
    # a near-square pair keeps the deviation metric under its default bound
    rep = run_suite("thm1", RunConfig(grid=("20x100",)))
    dev_rows = [r for r in rep.records if r.check_id.startswith("deviation/X=")]
    assert [r.input for r in dev_rows] == ["X=20,Y=100"]
    # the deviation parts follow the same grid
    part_rows = [r for r in rep.records if r.check_id.startswith("deviation_parts/X=")]
    assert [r.input for r in part_rows] == ["X=20,Y=100"]


@pytest.mark.parametrize("suite,grid,item", [
    ("thm1", "20", "'20'"),          # thm1 reads XxY pairs
    ("hyperbola", "abc", "'abc'"),   # hyperbola reads B values
    ("all", "16,10000", "'16'"),     # thm1 and hyperbola read the grid differently
    ("all", "20x100", "'20x100'"),
    ("counts", "garbage", "'garbage'"),  # counts and identities read no grid at all
    ("identities", "16,20x20", "'16'"),
    ("hyperbola", "16,16.9", "'16.9'"),  # B values are read exactly, never through a float
    ("thm2", "inf", "'inf'"),
    ("hyperbola", "nan", "'nan'"),
    ("hyperbola", "1e999999999", "'1e999999999'"),  # refused before 10**999999999 is built
    ("hyperbola", "12345e4299", "'12345e4299'"),  # too many digits to label its row
    ("hyperbola", "1/0", "'1/0'"),
])
def test_cli_bad_grid_is_usage_error(tmp_path, capsys, suite, grid, item):
    out = tmp_path / "r.csv"
    assert main(["--suite", suite, "--grid", grid, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and item in err[0]
    if suite not in report._GRID_SUITES:
        assert f"suite {suite!r} reads no --grid" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("suite,grid,condition", [
    ("thm1", "5x1", "Y > 1"),     # the deviation scale has a factor log Y
    ("thm2", "1,100", "B > 1"),   # the residual scale has a factor log^2 B
])
def test_grid_at_one_fails_its_row_by_name(suite, grid, condition):
    rep = run_suite(suite, RunConfig(grid=tuple(grid.split(","))))
    errors = [r.actual for r in rep.records if r.actual.startswith("error:")]
    assert errors and all(e.startswith("error: ValueError:") and condition in e for e in errors)


def test_grid_suites_match_builders():
    # exactly the builders that read the grid reject a malformed one, so the
    # list run_suite checks a grid against cannot drift from them
    bad = RunConfig(grid=("garbage",))
    raising = set()
    for name, build in report._SUITES.items():
        try:
            build(bad)
        except ValueError:
            raising.add(name)
    assert raising == set(report._GRID_SUITES) == {"thm1", "thm2", "hyperbola"}


def test_b_grid_is_read_exactly():
    assert RunConfig(grid=("1e5", "16", "90071992547409931")).b_grid([]) == [10**5, 16, 90071992547409931]
    # a 17-digit B above 2**53 keeps every digit in its row (run_suite copies
    # check_id and input from the check unchanged)
    checks = report._suite_hyperbola(RunConfig(grid=("90071992547409931",)))
    row = next(c for c in checks if c.check_id.startswith("sandwich/"))
    assert (row.check_id, row.input) == ("sandwich/B=90071992547409931", "B=90071992547409931")


def test_cli_exit_codes(tmp_path):
    # failure -> 1 (the deviation checks exceed the default bound)
    assert main(["--suite", "thm1"]) == 1
    # unusable output path -> 3
    assert main(["--suite", "thm3", "--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 3
    # argparse rejects unknown suites with SystemExit(2)
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "bogus"])
    assert exc.value.code == 2
    # every check runs: there is no work cap to set
    with pytest.raises(SystemExit) as exc:
        main(["--budget", "1e8"])
    assert exc.value.code == 2
    # checks run one after another: there is no job count to set
    with pytest.raises(SystemExit) as exc:
        main(["--jobs", "2"])
    assert exc.value.code == 2
    # the calibration constants are the package's own: no file can loosen a bound
    cal = tmp_path / "cal.json"
    cal.write_text(json.dumps({"thm1_deviation_bound": 11.0}))
    with pytest.raises(SystemExit) as exc:
        main(["--suite", "thm1", "--calibration", str(cal)])
    assert exc.value.code == 2


def test_emit_readonly_target(tmp_path):
    rep = run_suite("thm3")
    # no user, root included, can open a directory for writing
    with pytest.raises(IsADirectoryError):
        emit(rep, "csv", str(tmp_path))
    target = tmp_path / "locked.csv"
    target.write_text("x")
    target.chmod(stat.S_IRUSR)
    if not os.access(target, os.W_OK):  # root may write a file whatever its permission bits
        with pytest.raises(PermissionError):
            emit(rep, "csv", str(target))


def _readme_cli_lines() -> list[str]:
    """The ``conecount ...`` lines of the README's ``## CLI`` code block, comments dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", readme, re.S | re.M).group(1)
    return [line.split("#")[0] for line in block.splitlines() if line.startswith("conecount ")]


def test_readme_cli_lines_parse():
    # a flag the README documents must still exist
    lines = _readme_cli_lines()
    assert len(lines) >= 4
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "conecount.cli", "--suite", "thm3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "23 pass" in proc.stdout
