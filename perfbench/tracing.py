"""Spans around the calls into the package's layers, taken from outside the package.

``Tracer.install`` rebinds each traced public function in every package
module that holds it (``counts.m_fast`` and also ``hyperbola.m_fast`` and
``asymptotics.m_fast``), so calls between modules are caught too.  Each
call records a span (name, start, end, parent, failed) in memory;
``uninstall`` puts the original functions back.  ``metrics`` derives the
per-layer numbers from the spans: calls, inclusive time of the outermost
spans, self time (a span's duration minus that of its child spans),
failures, and a few work counters taken from the call arguments.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

TRACED = (
    "arith.build_r_table",
    "arith.build_arith_tables",
    "counts.m_fast",
    "counts.mprime",
    "counts.n0_times4",
    "counts.w_counts",
    "counts.m_naive",
    "counts.pair_zero_histogram",
    "counts.p_count",
    "hyperbola.sandwich",
    "hyperbola.xi_main_term",
    "asymptotics.main_term_thm1",
    "closed_forms.F_closed",
    "closed_forms.s_parts",
    "closed_forms.tu_sums",
    "integrals.integrate_panels",
    "circle.j_quadrature",
    "circle.minor_arc_scan",
)

# (metric, unit, better): every per-layer metric the traced run reports.
LAYER_METRICS = (
    ("arith.build_r_table.calls", "count", "lower"),
    ("arith.build_r_table.s", "s", "lower"),
    ("arith.build_r_table.entries", "count", "lower"),
    ("arith.build_arith_tables.calls", "count", "lower"),
    ("arith.build_arith_tables.s", "s", "lower"),
    ("arith.build_arith_tables.limit_sum", "count", "lower"),
    ("counts.m_fast.calls", "count", "lower"),
    ("counts.m_fast.misses", "count", "lower"),
    ("counts.m_fast.hit_ratio", "fraction", "higher"),
    ("counts.m_fast.self_s", "s", "lower"),
    ("counts.m_fast.conv_len_sum", "count", "lower"),
    ("counts.mprime.self_s", "s", "lower"),
    ("counts.n0_times4.self_s", "s", "lower"),
    ("counts.w_counts.s", "s", "lower"),
    ("hyperbola.sandwich.self_s", "s", "lower"),
    ("counts.m_naive.calls", "count", "lower"),
    ("counts.m_naive.s", "s", "lower"),
    ("counts.m_naive.cells", "count", "lower"),
    ("counts.pair_zero_histogram.calls", "count", "lower"),
    ("counts.pair_zero_histogram.s", "s", "lower"),
    ("counts.p_count.s", "s", "lower"),
    ("integrals.integrate_panels.calls", "count", "lower"),
    ("integrals.integrate_panels.s", "s", "lower"),
    ("integrals.integrate_panels.evals", "count", "lower"),
    ("integrals.integrate_panels.failures", "count", "lower"),
    ("circle.j_quadrature.calls", "count", "lower"),
    ("circle.j_quadrature.s", "s", "lower"),
    ("circle.j_quadrature.failures", "count", "lower"),
    ("closed_forms.F_closed.calls", "count", "lower"),
    ("closed_forms.F_closed.s", "s", "lower"),
    ("closed_forms.F_closed.failures", "count", "lower"),
    ("asymptotics.main_term_thm1.calls", "count", "lower"),
    ("asymptotics.main_term_thm1.s", "s", "lower"),
    ("closed_forms.s_parts.s", "s", "lower"),
    ("closed_forms.tu_sums.s", "s", "lower"),
    ("hyperbola.xi_main_term.s", "s", "lower"),
    ("circle.minor_arc_scan.s", "s", "lower"),
)


def package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "conecount" or n.startswith("conecount.")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, failed]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._boxes: set[tuple[int, int]] = set()
        self._rebound: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = package_modules()
        by_name = {m.__name__: m for m in modules}
        for target in TRACED:
            mod_name, attr = target.split(".")
            original = getattr(by_name["conecount." + mod_name], attr)
            wrapper = self._wrap(target, original)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    self._rebound.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._rebound):
            setattr(mod, key, original)
        self._rebound.clear()

    def _count(self, name: str, args: tuple) -> tuple:
        """Work counters read from the call arguments; may wrap the integrand to count evaluations."""
        c = self.counters
        if name == "counts.m_fast":
            X, Y = math.floor(args[0]), math.floor(args[1])
            key = (min(X, Y), max(X, Y))
            if X >= 1 and Y >= 1 and key not in self._boxes:  # the first call of a box computes it
                self._boxes.add(key)
                c["counts.m_fast.misses"] += 1
                c["counts.m_fast.conv_len_sum"] += X * Y
        elif name == "arith.build_r_table":
            c["arith.build_r_table.entries"] += args[0] * args[1]
        elif name == "arith.build_arith_tables":
            c["arith.build_arith_tables.limit_sum"] += args[0]
        elif name == "counts.m_naive":
            X, Y = math.floor(args[0]), math.floor(args[1])
            c["counts.m_naive.cells"] += X**3 * (2 * Y) ** 2
        elif name == "integrals.integrate_panels":
            f = args[0]

            def counted(x):
                c["integrals.integrate_panels.evals"] += x.size
                return f(x)

            args = (counted,) + args[1:]
        return args

    def _wrap(self, name: str, fn):
        spans, stack, count = self.spans, self._stack, self._count

        def traced(*args, **kwargs):
            args = count(name, args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                span[4] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()

        traced.perfbench_span = name
        return traced

    def metrics(self) -> dict[str, float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for _, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, failures = Counter(), Counter()
        inclusive, self_time = defaultdict(float), defaultdict(float)
        for i, (name, t0, t1, parent, failed) in enumerate(spans):
            calls[name] += 1
            failures[name] += failed
            self_time[name] += (t1 - t0) - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:  # outermost span of this name: count its time once
                inclusive[name] += t1 - t0
        values = dict(self.counters)
        for name in TRACED:
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.s"] = inclusive[name]
            values[f"{name}.self_s"] = self_time[name]
            values[f"{name}.failures"] = failures[name]
        n = calls["counts.m_fast"]
        values["counts.m_fast.hit_ratio"] = 1.0 - values.get("counts.m_fast.misses", 0) / n if n else 0.0
        return {metric: values.get(metric, 0) for metric, _, _ in LAYER_METRICS}
