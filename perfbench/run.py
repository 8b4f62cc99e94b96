"""qcext benchmark: one workload as a single-client closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` of
that root and nowhere else.  The seed fixes a set of distinct requests; the
timed phase makes passes over that set, and ends at the first pass boundary
after S seconds of request time.  Each request starts when the previous one
has finished and its outputs have been checked; only the program calls of a
request are timed.  Each latency is also divided by the time of a fixed
reference kernel that uses no qcext code, sampled around it: the mean of
those ratios (req_mean_ref) follows the program, not the momentary speed of
a shared host.  Set-up time (setup_s) is the import plus the median of
SETUPS fresh set-ups of the workload, scaled by the run's median reference
time to a fixed nominal host speed.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` sets up once, makes one pass, each request
once plain and once under the tracer, and reports the per-layer metrics
(``--seconds`` may be left out).
Human-readable lines come first; the last stdout line is one JSON object.
Results, with their provenance, and the spans of a traced run are written
to ``.bench_out/`` under the root.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread: the loop has one client and must not contend
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: workload set-ups per untraced run; setup_s takes their median
SETUPS = 3
#: setup_s is reported in seconds at the host speed where the reference
#: kernel takes this long, so that it follows the program and not the host
#: (the run's median reference time stands for the host's speed)
REF_NOMINAL_S = 0.005
#: the host's current speed is sampled at least this often in the timed phase
REF_EVERY_S = 0.25
#: wall-clock cap of the timed phase, so a run always ends in time
WALL_CAP_S = 80.0
#: units of the reported metrics that BENCHMARK.json does not gate
EXTRA_UNITS = {"run_s": "s", "req_per_s": "1/s", "req_p50_ms": "ms", "req_p90_ms": "ms",
               "points_per_s": "1/s", "reference_ms": "ms", "fail_ratio": "ratio"}


class BenchError(RuntimeError):
    """The benchmark cannot run here; nothing is reported."""


def import_program():
    if not os.path.isfile(os.path.join(SRC, "qcext", "__init__.py")):
        raise BenchError(f"no qcext sources under {SRC}")
    sys.path.insert(0, SRC)
    import qcext

    if os.path.dirname(os.path.dirname(os.path.abspath(qcext.__file__))) != SRC:
        raise BenchError(f"qcext was imported from {qcext.__file__}, not {SRC}")


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e


def check_layer_map(spec: dict, workloads: dict):
    """Every per-layer metric is mapped, and only onto workloads and
    end-to-end metrics that the benchmark has and reports."""
    path = os.path.join(HERE, "layer_map.json")
    try:
        with open(path) as fh:
            layer_map = json.load(fh)["map"]
    except (OSError, ValueError, KeyError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e
    reported = {m["name"] for m in spec["end_to_end"]} | set(EXTRA_UNITS)
    bad = sorted(set(layer_map) ^ {m["name"] for m in spec["per_layer"]})
    for name, entry in layer_map.items():
        for wl, metrics in entry["moves"].items():
            if wl not in workloads:
                bad.append(f"{name} -> workload {wl}")
            bad.extend(f"{name} -> {m}" for m in metrics if m not in reported)
    if bad:
        raise BenchError(f"layer_map.json does not match the benchmark: {bad}")


def git_commit() -> str:
    """HEAD of the root's own git repository; "unknown" outside one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"seed": seed, "git_commit": git_commit(), "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_ENV},
            "client": "closed loop, one client, one process"}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def one_request(wl, inp, tracer=None):
    """(latency s, failed check names) of one request; the tracer, if any,
    is installed around the program calls only, not around the checks."""
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        out, error = wl.run(inp), None
    except Exception as e:  # a raising request counts as failed, the loop goes on
        out, error = None, e
    finally:
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if error is not None:
        traceback.print_exception(error, file=sys.stderr)
        return dt, [f"raised {type(error).__name__}"]
    return dt, wl.check(inp, out)


def reference_time() -> float:
    """Fastest of three runs of a fixed kernel that does not use the program:
    small NumPy operations in a Python loop, the mix of the program's inner
    loops.  Its time follows how fast the shared host runs at the moment."""
    import numpy as np

    pts = np.linspace(-1.0, 1.0, 128).reshape(64, 2)
    mat = np.array([[1.0, 0.5], [-0.5, 1.0]])
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(600):
            q = pts @ mat + 1e-3 * i
            acc += float(np.max(np.hypot(q[:, 0], q[:, 1])))
            acc += sum(j * j for j in range(40)) * 1e-9
        best = min(best, time.perf_counter() - t0)
    return best


def timed_phase(wl, inputs, seconds: float) -> dict:
    """Passes over the request set until `seconds` of request time is spent.

    The reference kernel is timed before the first request, after the last,
    and between requests whenever REF_EVERY_S has passed; each latency is
    also taken relative to the mean of the samples just before and after it.
    """
    lat, sample_before, failed, points = [], [], {}, 0
    refs = [(time.perf_counter(), reference_time())]
    wall0 = refs[0][0]
    while ((sum(lat) < seconds or len(lat) % len(inputs))
           and time.perf_counter() - wall0 < WALL_CAP_S):
        if time.perf_counter() - refs[-1][0] >= REF_EVERY_S:
            refs.append((time.perf_counter(), reference_time()))
        inp = inputs[len(lat) % len(inputs)]
        dt, bad = one_request(wl, inp)
        if bad:
            failed[len(lat)] = bad
        lat.append(dt)
        sample_before.append(len(refs) - 1)
        points += wl.points(inp)
    refs.append((time.perf_counter(), reference_time()))
    ref_s = [r for _, r in refs]
    # sample j + 1 is the first one taken after a request that followed sample j
    rel = [dt / (0.5 * (ref_s[j] + ref_s[j + 1])) for dt, j in zip(lat, sample_before)]
    return {"latencies_s": lat, "relative": rel, "failed": failed, "points": points,
            "reference_s": ref_s}


def set_up(make, n: int, tracer=None) -> tuple:
    """(workload, inputs, set-up times in s): n fresh set-ups of the
    workload, the last one kept; the tracer, if any, is installed around
    ``setup``."""
    setups = []
    for _ in range(n):
        t0 = time.perf_counter()
        wl = make()
        if tracer is not None:
            tracer.request = "setup"
            tracer.install()
        try:
            wl.setup()
        finally:
            if tracer is not None:
                tracer.uninstall()
        inputs = [wl.make_input(i) for i in range(wl.requests)]
        setups.append(time.perf_counter() - t0)
    return wl, inputs, setups


def end_to_end(wl, inputs, args, import_s: float, setups: list) -> tuple:
    """setup_s is the import plus the median set-up, scaled from the run's
    median reference time to REF_NOMINAL_S."""
    ph = timed_phase(wl, inputs, args.seconds)
    from tracing import percentile

    ref_med = statistics.median(ph["reference_s"])
    n, run_s = len(ph["latencies_s"]), sum(ph["latencies_s"])
    lat_ms = [1e3 * x for x in ph["latencies_s"]]
    values = {
        "setup_s": REF_NOMINAL_S * (import_s + statistics.median(setups)) / ref_med,
        "req_per_s": n / run_s,
        "req_mean_ref": statistics.mean(ph["relative"]),
        "peak_rss_mb": peak_rss_mb(),
        "run_s": run_s,
        "req_p50_ms": percentile(lat_ms, 50),
        "reference_ms": 1e3 * ref_med,
        "fail_ratio": len(ph["failed"]) / n,
    }
    # the p90 needs ten samples beyond it; points only where they are the unit
    if n >= 100:
        values["req_p90_ms"] = percentile(lat_ms, 90)
    if ph["points"]:
        values["points_per_s"] = ph["points"] / run_s
    detail = {"requests": n, "distinct_requests": len(inputs),
              "import_s": import_s, "setup_samples_s": setups,
              "latency_quartiles_ms": [percentile(lat_ms, q) for q in (25, 50, 75)],
              "latencies_ms": lat_ms, "relative_latencies": ph["relative"],
              "reference_ms": [1e3 * r for r in ph["reference_s"]],
              "failed_checks": ph["failed"]}
    return values, n, len(ph["failed"]), detail


def traced(wl, inputs, tracer) -> tuple:
    """One pass over the request set, each request once plain and once
    traced; the fixed pass makes the counts repeat exactly."""
    import selftest

    bad = selftest.failures()
    if bad:
        raise BenchError("trace self-test failed: " + "; ".join(bad))
    plain, under, failed = 0.0, 0.0, {}
    for i, inp in enumerate(inputs):
        # alternate which side goes first, so warm caches favour neither
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            tracer.request = i
            dt, bad = one_request(wl, inp, tracer if side else None)
            if side:
                under += dt
            else:
                plain += dt
            if bad:
                failed.setdefault(i, []).extend(bad)
    values = tracer.layer_metrics()
    values["bench.trace_overhead"] = under / plain
    detail = {"requests": len(inputs), "plain_s": plain, "traced_s": under,
              "failed_checks": failed, "counts": dict(tracer.counts)}
    return values, len(inputs), len(failed), detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float,
                    help="request time to measure; required with --trace 0")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.trace and (args.seconds is None or args.seconds <= 0):
        ap.error("--trace 0 needs --seconds > 0")

    spec = load_spec()
    import_program()
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T_START
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    check_layer_map(spec, WORKLOADS)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    # a traced run sets up once, under the tracer, so its counts repeat
    wl, inputs, setups = set_up(lambda: WORKLOADS[args.workload](args.seed),
                                1 if args.trace else SETUPS, tracer)

    if args.trace:
        values, attempted, failed, detail = traced(wl, inputs, tracer)
        wanted = spec["per_layer"]
    else:
        values, attempted, failed, detail = end_to_end(wl, inputs, args, import_s, setups)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    units = dict(EXTRA_UNITS)
    units.update((m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds,
                   "provenance": provenance(args.seed), "metrics": values,
                   "units": {k: units.get(k) for k in values}, "detail": detail},
                  fh, indent=1)
    if tracer is not None:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(tracer.dump(), fh)

    print(f"workload {args.workload}  seed {args.seed}  requests {attempted}  "
          f"failed {failed}")
    for name in sorted(values):
        # the only metrics without a declared unit are span call counts
        print(f"  {name:44s} {values[name]:>16.6g} {units.get(name, 'count')}")
    print(f"results: {os.path.relpath(stem, ROOT)}.json")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        sys.exit(2)
