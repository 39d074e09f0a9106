"""The benchmark: seeded workloads through the package's public API.

    python3 perfbench/run.py --workload height --seed 1 --seconds 28 --trace 0

Each repetition runs the whole workload in a fresh interpreter
(``rep.py``), so every cache starts cold as it does for each ``conecount``
invocation.  Repetitions are started while the next one is expected to end
within ``--seconds``; each metric is the median over the repetitions.
Every result is checked; the failed operations and the known defects
reproduced are printed grouped by exception type.

The shared host runs the same code faster or slower from one second to
the next.  Each repetition therefore also times slices of a fixed probe
kernel that does not use the package between its operations
(``rep.HostProbe``).  The reported wall, CPU and set-up times are the
run's medians scaled to a host on which the probe's median takes
``PROBE_REF_S``: a change to the package moves them, a change in the
host's speed moves the probe too and mostly cancels.  The raw medians are
printed as well.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones, plus the tracing overhead: the median, over adjacent pairs,
of the traced minus the untraced wall time.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from rep import HERE
from tracing import LAYER_METRICS

WORKLOADS = ("height", "boxes", "oracle", "analytic")
END_TO_END = (
    ("wall_norm_s", "s"),
    ("setup_s", "s"),
    ("cpu_norm_s", "s"),
    ("peak_rss_mb", "MB"),
)
# The probe-slice time the scaled times refer to: about what a slice takes on a 2-core x86-64 host.
PROBE_REF_S = 0.015
PER_LAYER = tuple((name, unit) for name, unit, _ in LAYER_METRICS) + (("trace_overhead_s", "s"),)
REP_TIMEOUT_S = 120


class RepError(RuntimeError):
    pass


def spawn(workload: str, seed: int, tiny: bool, traced: bool) -> dict:
    """Run one repetition in a new interpreter; set-up time runs from the spawn to the first operation."""
    cmd = [sys.executable, str(HERE / "rep.py"), workload, str(seed)]
    cmd += ["--tiny"] * tiny + ["--trace"] * traced
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S, cwd=HERE.parent)
    if proc.returncode != 0:
        raise RepError(f"repetition exited with {proc.returncode}:\n{proc.stderr}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep["t_first"] - t_spawn
    return rep


def probe_scaled(reps: list[dict], key: str, probe_key: str) -> float:
    """The median of ``key``, scaled to a host on which the median probe time is PROBE_REF_S."""
    return statistics.median(r[key] for r in reps) * PROBE_REF_S / statistics.median(r[probe_key] for r in reps)


def _grouped(reps: list[dict], key: str) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for r in reps:
        for kind, labels in r[key].items():
            out.setdefault(kind, set()).update(labels)
    return out


def summarize(workload: str, plain: list[dict], traced: list[dict]) -> dict:
    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    # every operation must pass, and results must repeat exactly between repetitions of one mode
    correct = failed == 0 and all(len({r["digest"] for r in group}) <= 1 for group in (plain, traced))
    print(f"workload {workload}: {len(plain)} untraced and {len(traced)} traced repetitions, "
          f"{plain[0]['attempted']} operations each; ops_failed_frac {failed / attempted:.4f} "
          f"({failed} of {attempted})")
    for kind, labels in sorted(_grouped(reps, "failures").items()):
        print(f"  failed {kind} x{len(labels)}: {'; '.join(sorted(labels))}")
    for kind, labels in sorted(_grouped(reps, "defects").items()):
        print(f"  known defect reproduced, {kind} x{len(labels)}: {'; '.join(sorted(labels))}")
    metrics = {}
    if traced:
        # each traced repetition runs right after an untraced one: pairing them cancels slow drift
        overhead = statistics.median(t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
        for name, unit in PER_LAYER:
            value = overhead if name == "trace_overhead_s" else statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:40s} {value:.6g} {unit}  (median of {len(traced)})")
        return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    for name in ("wall_s", "cpu_s", "probe_wall_s", "probe_cpu_s", "setup_s", "peak_rss_mb"):
        v, unit = [r[name] for r in plain], "MB" if name == "peak_rss_mb" else "s"
        print(f"  raw {name:12s} median {statistics.median(v):.6g} {unit}  "
              f"min {min(v):.6g}  max {max(v):.6g}  n={len(v)}")
    values = {
        "wall_norm_s": probe_scaled(plain, "wall_s", "probe_wall_s"),
        "cpu_norm_s": probe_scaled(plain, "cpu_s", "probe_cpu_s"),
        "setup_s": probe_scaled(plain, "setup_s", "probe_wall_s"),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    for name, unit in END_TO_END:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:12s} {values[name]:.6g} {unit}  (median of {len(plain)})")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true", help="smallest inputs only (for the benchmark's own tests)")
    args = ap.parse_args(argv)
    modes = (False, True) if args.trace else (False,)
    try:
        for traced in modes:  # untimed warm-up: byte-compiles the sources and fills the page cache
            spawn(args.workload, args.seed, True, traced)
        runs: dict[bool, list[dict]] = {False: [], True: []}
        start = time.monotonic()
        took: list[float] = []
        while True:
            t0 = time.monotonic()
            for traced in modes:
                runs[traced].append(spawn(args.workload, args.seed, args.tiny, traced))
            took.append(time.monotonic() - t0)
            if time.monotonic() - start + statistics.median(took) > args.seconds:
                break
    except (RepError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = summarize(args.workload, runs[False], runs[True])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
