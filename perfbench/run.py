#!/usr/bin/env python3
"""Benchmark of the haldane toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload (see ``workloads.py``) until ``--seconds``
have elapsed, checks every estimate, and prints as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``attempted``
and ``failed`` count correctness checks, so their ratio is the workload's
fail ratio.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
several fresh-process imports plus model construction, ``setup_probe.py``),
``wall_s`` (the time of one pass, as the sum over its library calls of
each call's median time across passes, so that a burst of host noise
during one call of one pass does not move it), ``reps_per_s`` (replicates
or draws per second over all passes) and ``peak_rss_mb``.  No library
function is wrapped, and the benchmark checks that before and after the
passes.

``--trace 1`` spends half the time on untraced passes, then repeats the
same passes with the tracer installed and reports the per-layer metrics
of ``tracing.LAYER_METRICS``; ``trace.overhead_s`` is the traced pass
time minus the untraced one, both taken as for ``wall_s``.  Spans are
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 5
SETUP_PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def host_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")},
    }


def measure_setup(name: str) -> float:
    """Median over fresh processes of importing the library and building
    the workload's models."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), name],
            capture_output=True, text=True, check=True, timeout=SETUP_PROBE_TIMEOUT_S,
        )
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def run_passes(next_pass, reference: dict, *, budget_s: float | None = None,
               count: int | None = None, label: str = "pass"):
    """Run ``next_pass(index)`` until ``budget_s`` has elapsed (at least one
    pass) or exactly ``count`` times; returns (PassResult, checks) each."""
    passes = []
    start = time.perf_counter()
    while (len(passes) < count) if count is not None else (
            not passes or time.perf_counter() - start < budget_s):
        index = len(passes)
        result = next_pass(index)
        checks = list(result.checks)
        for key, (estimate, std_error) in result.estimates.items():
            ref = reference.get(key)
            checks.append((f"{key} matches reference",
                           ref is not None and workloads.within_band(estimate, std_error, *ref)))
        passes.append((result, checks))
        print(json.dumps({
            label: index, "seconds": result.seconds, "seeds": result.seeds, "work": result.work,
            "estimates": result.estimates, "call_seconds": result.call_seconds,
            "failed_checks": [name for name, ok in checks if not ok],
        }), flush=True)
    return passes


def pass_seconds(results) -> float:
    """Sum over the library calls of a pass of each call's median time."""
    keys = dict.fromkeys(key for r in results for key in r.call_seconds)
    return sum(statistics.median(r.call_seconds[key] for r in results if key in r.call_seconds)
               for key in keys)


def untraced_run(workload, next_pass, reference: dict, seconds: float):
    setup_s = measure_setup(workload.name)
    tracing.assert_unpatched()
    passes = run_passes(next_pass, reference, budget_s=seconds)
    tracing.assert_unpatched()
    results = [p[0] for p in passes]
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": pass_seconds(results), "unit": "s"},
        "reps_per_s": {"value": sum(r.work for r in results) / sum(r.seconds for r in results),
                       "unit": "1/s"},
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }
    return metrics, passes


def traced_run(workload, next_pass, reference: dict, seconds: float, seed: int):
    plain = run_passes(next_pass, reference, budget_s=seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_passes(next_pass, reference, count=len(plain), label="traced pass")
    finally:
        tracer.uninstall()
    plain_results, traced_results = [p[0] for p in plain], [p[0] for p in traced]
    extra = workloads.uniform_over_two_point(plain_results)
    extra["trace.overhead_s"] = pass_seconds(traced_results) - pass_seconds(plain_results)
    metrics, unmeasured = tracer.layer_metrics(len(traced), extra)
    tracer.write_spans(BENCH_DIR / "out" / f"spans-{workload.name}-seed{seed}.jsonl")
    for name, reason in unmeasured.items():
        print(f"unmeasured: {name}: {reason}")
    for line in tracing.baseline_findings(metrics):
        print(f"baseline: {line}")
    return metrics, plain + traced


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    reference = json.loads((BENCH_DIR / "reference.json").read_text())["estimates"][workload.name]
    print("host: " + json.dumps(host_facts()), flush=True)
    state = workload.build()

    def next_pass(index):
        return workloads.measure_pass(workload, state, args.seed, index)

    if args.trace:
        metrics, passes = traced_run(workload, next_pass, reference, args.seconds, args.seed)
    else:
        metrics, passes = untraced_run(workload, next_pass, reference, args.seconds)
    checks = [ok for p in passes for _, ok in p[1]]
    failed = checks.count(False)
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        import tracing
        import workloads
    except ImportError as exc:
        sys.exit(f"error: {exc}")
    sys.exit(main())
