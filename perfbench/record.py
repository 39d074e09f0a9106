"""Record the reference values that the workload checks compare with.

    python3 perfbench/record.py

Computes, with the package in the checkout's ``src``, the result for every
input in ``workloads.reference_domain()`` and writes ``reference.json``
next to this file.  Where an operation raises, it records the exception
type under ``raises``: the workload counts that exception as a failed
operation, and any other exception as a wrong result.  The recorded values
pin the package's results at the commit that recorded them; run it again
only when an input pool changes.
"""

from __future__ import annotations

import json
import sys

from rep import HERE, use_checkout_src


def record() -> dict:
    import workloads
    from conecount import asymptotics, circle, closed_forms, counts, hyperbola

    domain = workloads.reference_domain()
    ref: dict = {"height": {}, "sandwich": {}, "boxes": {}, "p_count": {}, "main_term": {},
                 "raises": {"j_quadrature": {}, "main_term": {}}}
    for z in domain["height"]:
        h = counts.height_counts(z * z)  # every height count depends on B only through isqrt(B)
        ref["height"][str(z)] = [h.mprime, h.n0_times4, h.W1, h.W2, h.W3]
    for z, L in domain["sandwich"]:
        B = next(b for b in (z * z, z * z + 2 * z) if workloads.eighth_root_ceil(b) == L)
        s = hyperbola.sandwich(B)
        ref["sandwich"][f"{z}/{L}"] = [s.lower, s.upper]
    for X, Y in domain["boxes"]:
        rec = asymptotics.deviation_thm1(X, Y)
        ref["boxes"][f"{X},{Y}"] = [counts.m_fast(X, Y), rec.main]
    for X in domain["p_count"]:
        ref["p_count"][str(X)] = counts.p_count(X)
    for q, X, Y in domain["j_quadrature"]:
        try:
            circle.j_quadrature(q, X, Y)
        except Exception as exc:
            ref["raises"]["j_quadrature"][f"{q},{X},{Y}"] = type(exc).__name__
    # The workload calls main_term_thm1 largest X first in a fresh process, so
    # each call either meets a cold harmonic-number cache or follows a call
    # with a larger X that succeeded: its outcome is that of a cold call.
    for X in domain["main_term"]:
        closed_forms.harmonic_A.cache_clear()
        closed_forms.harmonic_B.cache_clear()
        try:
            asymptotics.main_term_thm1(X, X)
        except Exception as exc:
            ref["raises"]["main_term"][str(X)] = type(exc).__name__
    # warm the harmonic-number cache in small steps so that its recursion stays shallow
    for n in range(0, max(domain["main_term"]) + 1, 100):
        closed_forms.F_closed(n)
    for X in domain["main_term"]:
        ref["main_term"][str(X)] = asymptotics.main_term_thm1(X, X)
    return ref


def main() -> int:
    use_checkout_src()
    ref = record()
    with open(HERE / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print({k: len(v) for k, v in ref.items()}, {k: len(v) for k, v in ref["raises"].items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
