"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/rep.py WORKLOAD SEED [--tiny] [--trace]

Imports the package from the checkout's ``src``, builds the seeded
operations, runs and checks them, and prints one JSON object: the
monotonic clock at the end of set-up (the parent subtracts its spawn
time to get the set-up time), the wall and CPU time of the operations,
the wall and CPU time of the host-speed probe (``HostProbe``) while they
ran, the peak resident memory, the failed operations and the known
defects reproduced, grouped by exception type, and, with ``--trace``, the
per-layer numbers.  Every ``lru_cache`` of the package
starts cold, as it does for each ``conecount`` invocation.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Work of one probe slice: about 15 ms on a 2-core x86-64 host.
PROBE_LOOP = 15_000
PROBE_VECTOR = 50_000
# Operations that together take less than this run without a probe slice between them.
PROBE_GAP_S = 0.1


def use_checkout_src() -> None:
    """Put the checkout's ``src`` first on the path and refuse any other copy of the package."""
    if not (SRC / "conecount" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import conecount

    if Path(conecount.__file__).resolve().parent != SRC / "conecount":
        raise SystemExit(f"perfbench: imported conecount from {conecount.__file__}, not from {SRC}")


def load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def probe_slice() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed mix of interpreter and numpy integer work.

    The mix resembles the package's (Python integer loops, numpy gcd and
    convolution) but calls none of it, so a change to the package leaves
    the slice's work unchanged: its time measures only how fast the host
    runs this process at the moment.
    """
    import numpy as np

    cpu0, w0 = _cpu_s(), time.perf_counter()
    acc, table = 0, {}
    for i in range(PROBE_LOOP):
        acc += (i * i) % 7
        table[i & 1023] = acc
    a = np.arange(1, PROBE_VECTOR + 1, dtype=np.int64)
    for _ in range(2):
        np.gcd(a, a[::-1])
        np.convolve(a[:1200] % 13, a[:1200] % 11)
    return time.perf_counter() - w0, _cpu_s() - cpu0


class HostProbe:
    """The host's speed while the operations run, from probe slices taken between them.

    The shared host runs the same code up to a third slower or faster from
    one repetition to the next.  ``tick`` runs before each operation and once
    after the last; it times a probe slice when at least ``PROBE_GAP_S`` of
    operations ran since the previous one.  The operations' wall and CPU
    times exclude the slices.  The probe time of the repetition weights each
    slice by half the operation time on either side of it, so it follows
    the host over the same seconds the operations took.
    """

    def __init__(self):
        self.slices: list[tuple[float, float]] = []
        self.segments: list[tuple[float, float]] = []  # operation time between consecutive slices
        self._mark = None

    def tick(self, last: bool = False) -> None:
        if self._mark is not None:
            seg = (time.perf_counter() - self._mark[0], _cpu_s() - self._mark[1])
            if seg[0] < PROBE_GAP_S and not last:
                return
            self.segments.append(seg)
        self.slices.append(probe_slice())
        self._mark = (time.perf_counter(), _cpu_s())

    def times(self) -> dict[str, float]:
        out = {}
        for i, kind in enumerate(("wall", "cpu")):
            seg = [s[i] for s in self.segments]
            near = [(a[i] + b[i]) / 2 for a, b in zip(self.slices, self.slices[1:])]
            total = sum(seg)
            out[f"{kind}_s"] = total
            out[f"probe_{kind}_s"] = sum(d * p for d, p in zip(seg, near)) / total if total > 0 else near[0]
        return out


def run_ops(ops, probe: HostProbe | None = None) -> dict:
    """Run and check every operation.

    An operation fails when its check fails or when it raises anything
    other than the exception recorded for its input (``op.raises``, a known
    defect of the package).  Raising the recorded exception reproduces the
    known defect: it is listed under ``defects``, not failed.  An operation
    recorded as raising that now returns a value passing its check is fine.
    """
    failures: dict[str, list[str]] = {}
    defects: dict[str, list[str]] = {}
    digest = hashlib.sha256()
    for op in ops:
        if probe is not None:
            probe.tick()
        try:
            result = op.run()
        except Exception as exc:  # a raising operation is recorded, and the workload goes on
            kind = type(exc).__name__
            digest.update(f"{op.label}!{kind}\n".encode())
            if kind == op.raises:
                defects.setdefault(kind, []).append(op.label)
            else:
                failures.setdefault(kind, []).append(op.label)
            continue
        digest.update(f"{op.label}={result!r}\n".encode())
        if not op.check(result):
            failures.setdefault("mismatch", []).append(op.label)
    if probe is not None:
        probe.tick(last=True)
    return {
        "attempted": len(ops),
        "failed": sum(len(v) for v in failures.values()),
        "failures": failures,
        "defects": defects,
        "digest": digest.hexdigest(),
    }


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    tiny, traced = "--tiny" in argv, "--trace" in argv
    use_checkout_src()
    import workloads

    ops = workloads.build(workload, seed, load_reference(), tiny)
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    t_first = time.monotonic()
    probe = HostProbe()
    try:
        out = run_ops(ops, probe)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out.update(
        t_first=t_first,
        **probe.times(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        out["layers"] = tracer.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
