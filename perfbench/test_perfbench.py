"""Tests of the benchmark itself: run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess

import pytest

import rep
import run
from run import END_TO_END, PER_LAYER, WORKLOADS

ROOT = rep.HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + list(args)
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def test_spec_lists_the_metrics_the_benchmark_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_the_spec_metrics(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _copy_checkout(dest):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for name in (rep.HERE.name, "src"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))


def _tiny_result(workload, cwd) -> dict:
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0", "--tiny", cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_corrupted_reference_makes_the_run_incorrect(tmp_path):
    _copy_checkout(tmp_path)
    path = tmp_path / rep.HERE.name / "reference.json"
    ref = json.loads(path.read_text())
    ref["p_count"]["8"] += 1
    path.write_text(json.dumps(ref))
    result = _tiny_result("oracle", tmp_path)
    assert result["correct"] is False and result["failed"] == 1


def test_unrecorded_exception_makes_the_run_incorrect(tmp_path):
    _copy_checkout(tmp_path)
    with open(tmp_path / "src" / "conecount" / "hyperbola.py", "a") as fh:
        fh.write("\n\ndef sandwich(B):\n    raise OverflowError('forced')\n")
    result = _tiny_result("height", tmp_path)
    assert result["correct"] is False and result["failed"] == 2


def test_bare_benchmark_directory_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(rep.HERE, tmp_path / rep.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "boxes", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def workloads():
    rep.use_checkout_src()
    import workloads

    return workloads


def test_inputs_follow_the_seed_and_have_references(workloads):
    ref = rep.load_reference()
    for name in WORKLOADS:
        labels = [op.label for op in workloads.build(name, 7, ref)]
        assert labels == [op.label for op in workloads.build(name, 7, ref)]
        assert labels != [op.label for op in workloads.build(name, 8, ref)]
        for seed in range(100):  # every draw has its recorded reference
            workloads.build(name, seed, ref)


def test_only_the_recorded_exception_is_a_known_defect(workloads):
    def op(label, value=None, exc=None, raises=None):
        def run():
            if exc is not None:
                raise exc
            return value

        return workloads.Op(label, run, lambda r: r == 1, raises)

    out = rep.run_ops([
        op("ok", value=1),
        op("recorded", exc=RecursionError(), raises="RecursionError"),
        op("fixed since recorded", value=1, raises="RecursionError"),
        op("other exception", exc=ValueError(), raises="RecursionError"),
        op("unrecorded", exc=OverflowError()),
        op("wrong value", value=2),
    ])
    assert out["attempted"] == 6 and out["failed"] == 3
    assert out["defects"] == {"RecursionError": ["recorded"]}
    assert out["failures"] == {"ValueError": ["other exception"], "OverflowError": ["unrecorded"],
                               "mismatch": ["wrong value"]}


def test_times_are_scaled_by_the_probe():
    def rep_(wall, probe):
        return {"attempted": 1, "failed": 0, "failures": {}, "defects": {}, "digest": "d", "wall_s": wall,
                "cpu_s": wall, "probe_wall_s": probe, "probe_cpu_s": probe, "setup_s": wall / 10,
                "peak_rss_mb": 40.0}

    # a host running at half speed doubles both the workload's and the probe's time
    slow = run.summarize("boxes", [rep_(4.0, 2 * run.PROBE_REF_S), rep_(4.4, 2 * run.PROBE_REF_S)], [])
    fast = run.summarize("boxes", [rep_(2.0, run.PROBE_REF_S), rep_(2.2, run.PROBE_REF_S)], [])
    assert slow["correct"] and slow["metrics"] == fast["metrics"]
    assert fast["metrics"]["wall_norm_s"]["value"] == fast["metrics"]["cpu_norm_s"]["value"] == 2.1


def test_tracing_rebinds_every_importer_and_restores_them(workloads):
    import tracing

    modules = tracing.package_modules()

    def functions():  # module data such as grown lookup tables may change; functions must not
        return {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}

    before = functions()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from conecount import asymptotics, counts, hyperbola

        assert counts.m_fast is hyperbola.m_fast is asymptotics.m_fast
        assert counts.m_fast.perfbench_span == "counts.m_fast"
        ref = rep.load_reference()
        for name in WORKLOADS:
            assert rep.run_ops(workloads.build(name, 1, ref, tiny=True))["failed"] == 0
    finally:
        tracer.uninstall()
    after = functions()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not [key for key, v in after.items() if hasattr(v, "perfbench_span")]

    names = {span[0] for span in tracer.spans}
    assert names == set(tracing.TRACED)
    # m_fast calls made inside hyperbola.sandwich are caught as its children
    parents = {tracer.spans[s[3]][0] for s in tracer.spans if s[0] == "counts.m_fast" and s[3] >= 0}
    assert "hyperbola.sandwich" in parents
    metrics = tracer.metrics()
    assert metrics["counts.m_fast.calls"] >= metrics["counts.m_fast.misses"] > 0
    assert metrics["integrals.integrate_panels.evals"] > 0
