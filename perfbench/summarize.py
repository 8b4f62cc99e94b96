"""Fold the result files in .bench_out/ into one trajectory point.

    python3 perfbench/summarize.py [LABEL] > point.json

For every workload, each end-to-end metric of the untraced runs gets its
median and quartiles over the runs with the run count; the per-layer metrics
are those of the traced run (one per workload is expected).
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def point(label: str) -> dict:
    runs, traced, prov = {}, {}, None
    for path in sorted(glob.glob(os.path.join(ROOT, ".bench_out", "*-trace[01].json"))):
        with open(path) as fh:
            res = json.load(fh)
        prov = prov or res["provenance"]
        if path.endswith("-trace1.json"):
            traced[res["workload"]] = res["metrics"]
        else:
            runs.setdefault(res["workload"], []).append(res)
    end_to_end = {}
    for wl, rs in sorted(runs.items()):
        end_to_end[wl] = {}
        for name in sorted({k for r in rs for k in r["metrics"]}):
            vals = [r["metrics"][name] for r in rs if name in r["metrics"]]
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
            end_to_end[wl][name] = {"median": statistics.median(vals), "q1": q[0],
                                    "q3": q[2], "runs": len(vals),
                                    "unit": rs[0]["units"][name]}
    return {"label": label, "git_commit": prov and prov["git_commit"],
            "machine": prov and {k: prov[k] for k in ("nproc", "cpu_model", "python",
                                                      "numpy", "scipy", "threads")},
            "seeds": sorted({r["provenance"]["seed"] for rs in runs.values() for r in rs}),
            "run_seconds": sorted({r["seconds"] for rs in runs.values() for r in rs}),
            "end_to_end": end_to_end, "per_layer": traced}


if __name__ == "__main__":
    print(json.dumps(point(sys.argv[1] if len(sys.argv) > 1 else ""), indent=1))
