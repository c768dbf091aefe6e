"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that ``BENCHMARK.json`` lists exactly the workloads of
``workloads.py`` and the per-layer metrics of ``tracing.LAYER_METRICS``,
then, for every workload, that two invocations of ``run.py`` with the same
seed hand the library the same seeds and get identical estimates, while an
invocation with another seed hands it different seeds and gets different
estimates.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys

import tracing
import workloads

ROOT = workloads.BENCH_DIR.parent
SEEDS = (101, 101, 202)


def check_manifest() -> None:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in manifest["workloads"]]
    if names != list(workloads.WORKLOADS):
        sys.exit(f"BENCHMARK.json workloads {names} != {list(workloads.WORKLOADS)}")
    layers = [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]]
    expected = [row[:3] for row in tracing.LAYER_METRICS]
    if layers != expected:
        sys.exit("BENCHMARK.json per_layer differs from tracing.LAYER_METRICS")


def first_pass(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(workloads.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    lines = done.stdout.splitlines()
    if not json.loads(lines[-1])["correct"]:
        sys.exit(f"{workload} seed {seed}: a correctness check failed")
    return next(json.loads(line) for line in lines if line.startswith('{"pass"'))


def main() -> None:
    check_manifest()
    for name in workloads.WORKLOADS:
        first, again, other = (first_pass(name, seed) for seed in SEEDS)
        if (first["seeds"], first["estimates"]) != (again["seeds"], again["estimates"]):
            sys.exit(f"{name}: the same seed gave different inputs or estimates")
        if set(first["seeds"]) & set(other["seeds"]):
            sys.exit(f"{name}: another seed reused library seeds")
        if any(first["estimates"][key] == value for key, value in other["estimates"].items()):
            sys.exit(f"{name}: another seed reproduced an estimate")
        print(f"{name}: deterministic per seed, distinct across seeds", flush=True)


if __name__ == "__main__":
    main()
