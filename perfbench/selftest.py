"""Self-test of the trace arithmetic on a synthetic trace.

Run it with ``python3 perfbench/selftest.py`` from the repository root; the
traced benchmark run also runs it first and refuses to report on failure.
"""

from __future__ import annotations

import math
import os
import sys

#: (name, start, end, parent, request); the second "b" overlaps the first
#: and "d" runs past its parent's end, so only a union clipped to the parent
#: gives a's self time of 10 - 5 - 1 = 4
SYNTHETIC = [
    ["extension.extend_body", 0.0, 10.0, -1, 0],
    ["geometry.relative_boundary", 1.0, 4.0, 0, 0],
    ["geometry.pieces", 2.0, 3.0, 1, 0],
    ["geometry.relative_boundary", 3.5, 6.0, 0, 0],
    ["geometry.prune_halfplanes", 9.0, 12.0, 0, 0],
    ["extension.extend_body", 20.0, 22.0, -1, 1],
]
WANT_SELF = [4.0, 2.0, 1.0, 2.5, 3.0, 2.0]

#: (values, q, expected) with linear interpolation between order statistics
PERCENTILES = [
    ([1.0, 2.0, 3.0, 4.0], 50, 2.5),
    ([5.0], 90, 5.0),
    ([float(i) for i in range(1, 11)], 90, 9.1),
    ([3.0, 1.0, 2.0], 0, 1.0),
    ([3.0, 1.0, 2.0], 100, 3.0),
]


def failures() -> list:
    from tracing import Tracer, percentile, self_times

    out = []
    got = self_times(SYNTHETIC)
    if not all(math.isclose(g, w, abs_tol=1e-12) for g, w in zip(got, WANT_SELF)):
        out.append(f"self_times: got {got}, want {WANT_SELF}")
    for values, q, want in PERCENTILES:
        p = percentile(values, q)
        if not math.isclose(p, want, abs_tol=1e-12):
            out.append(f"percentile({values}, {q}) = {p}, want {want}")
    tr = Tracer()
    tr.spans = [list(s) for s in SYNTHETIC]
    m = tr.layer_metrics()
    want = {"extension.extend_body.calls": 2, "extension.extend_body.self_s": 6.0,
            "geometry.relative_boundary.self_s": 4.5,
            "extension.extend_body.p50_ms": 6000.0}
    for k, v in want.items():
        if not math.isclose(m[k], v, abs_tol=1e-9):
            out.append(f"layer_metrics[{k}] = {m[k]}, want {v}")
    return out


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
    bad = failures()
    for line in bad:
        print("FAIL", line)
    print("selftest:", "FAIL" if bad else "ok")
    sys.exit(1 if bad else 0)
