"""Measure a baseline: every workload over several seeds, plus one traced run each.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 10 --out /tmp/again.json --against perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json --drift height --drift-seconds 420

For each workload and end-to-end metric it records the median over the
seeds, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  ``--against`` compares the medians with an earlier
file and prints, per metric, how much worse they are as a share of the
earlier median.  ``--drift`` repeats one fixed input of a workload for
``--drift-seconds`` and records each repetition and the spread of the
medians of consecutive 10, 20 and 40 s windows: what the host alone adds
to a run's figures.  Machine facts (cores, Python and numpy versions) go in
the file, since the figures hold only for the machine that took them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from rep import HERE
from run import probe_scaled, spawn

ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# the times kept for each drift repetition, and the figures taken over each window of them
DRIFT_RAW = ("wall_s", "cpu_s", "probe_wall_s", "probe_cpu_s", "setup_s")
DRIFT_KEYS = ("wall_s", "cpu_s", "wall_norm_s", "cpu_norm_s", "setup_s", "probe_wall_s")


def window_value(reps: list[dict], key: str) -> float:
    """A window's median of ``key``; the ``_norm_`` keys are scaled by the probe as ``run.py`` does."""
    if key.endswith("_norm_s"):
        raw = key.replace("_norm", "")
        return probe_scaled(reps, raw, "probe_" + raw)
    return statistics.median(r[key] for r in reps)


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(spec: dict, old: float, new: float) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old`` (negative: better)."""
    return (new - old) / old if spec["better"] == "lower" else (old - new) / old


def measure(seeds: list[int], names: list[str]) -> dict:
    out = {}
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(bench(name, seed, 0))
            print(name, seed, {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()}, flush=True)
        metrics = {}
        for m in SPEC["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            metrics[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                                  "bound": m["bound"], "unit": m["unit"], "values": values}
        traced = bench(name, seeds[0], 1)
        out[name] = {
            "seeds": seeds,
            "correct": all(r["correct"] for r in runs),
            "ops_per_run": [r["attempted"] for r in runs],
            "failed_per_run": [r["failed"] for r in runs],
            "end_to_end": metrics,
            "per_layer_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    return out


def drift(workload: str, seconds: float, seed: int = 1) -> dict:
    """One fixed input, repeated: the spread of window medians is host noise, not input noise."""
    reps = []
    start = time.monotonic()
    while time.monotonic() - start < seconds:
        r = spawn(workload, seed, False, False)
        reps.append({"t": time.monotonic() - start, **{k: r[k] for k in DRIFT_RAW}})
    windows = {}
    for width in (10, 20, 40):
        groups: dict[int, list[dict]] = {}
        for r in reps:
            groups.setdefault(int(r["t"] // width), []).append(r)
        full = [g for i, g in sorted(groups.items()) if (i + 1) * width <= reps[-1]["t"]]
        if len(full) < 2:
            continue
        windows[f"{width}s"] = {"windows": len(full)}
        for key in DRIFT_KEYS:
            medians = [window_value(g, key) for g in full]
            q1, _, q3 = statistics.quantiles(medians, n=4)
            windows[f"{width}s"][key] = {"median": statistics.median(medians),
                                         "spread": (q3 - q1) / statistics.median(medians)}
    return {"workload": workload, "seed": seed, "seconds": seconds, "windows": windows, "reps": reps}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", required=True)
    ap.add_argument("--against")
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in SPEC["workloads"]],
                    help="measure only this workload (repeatable; default: all)")
    ap.add_argument("--drift", choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--drift-seconds", type=float, default=420)
    args = ap.parse_args()
    if args.seeds < 2:
        ap.error("quartiles need at least two seeds")
    import numpy

    result = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "platform": platform.platform()},
        "taken": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "run_seconds": SPEC["run_seconds"],
        "workloads": measure(list(range(args.first_seed, args.first_seed + args.seeds)),
                             args.workload or [w["name"] for w in SPEC["workloads"]]),
    }
    if args.drift:
        result["drift"] = drift(args.drift, args.drift_seconds)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for name, w in result["workloads"].items():
        for metric, s in w["end_to_end"].items():
            print(f"{name:9s} {metric:12s} median {s['median']:.5g} {s['unit']}  "
                  f"spread {s['spread']:.3f} (bound {s['bound']})")
    for width, w in result.get("drift", {}).get("windows", {}).items():
        print(f"drift {result['drift']['workload']} {width} windows (n={w['windows']}): "
              + ", ".join(f"{k} spread {w[k]['spread']:.3f}" for k in DRIFT_KEYS))
    if args.against:
        old = json.loads(open(args.against).read())["workloads"]
        specs = {m["name"]: m for m in SPEC["end_to_end"]}
        for name, w in result["workloads"].items():
            for metric, s in w["end_to_end"].items():
                d = worse_by(specs[metric], old[name]["end_to_end"][metric]["median"], s["median"])
                print(f"{name:9s} {metric:12s} worse by {d:+.3f} of the earlier median (bound {s['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
