"""Record the reference table that every benchmark run checks against.

    python3 perfbench/record_reference.py

Runs ``PASSES`` passes of each workload at library seeds whose top bit is
clear (timed runs always set it, so no timed run reuses them), pools each
estimate over the passes and writes ``perfbench/reference.json``.  Record
it once, from a version of the library trusted to be correct; a later
change must not re-record it to make its own estimates pass.
"""

from __future__ import annotations

import json
import math
import sys

import workloads

PASSES = 4
REFERENCE_SEED = 0


def record() -> dict:
    table = {}
    for name, workload in workloads.WORKLOADS.items():
        state = workload.build()
        samples: dict[str, list[tuple[float, float]]] = {}
        for index in range(PASSES):
            result = workload.run_pass(state, workload.pass_seeds(REFERENCE_SEED, index, timed=False))
            failed = [check for check, ok in result.checks if not ok]
            if failed:
                sys.exit(f"{name}: reference pass {index} failed {failed}")
            for key, value in result.estimates.items():
                samples.setdefault(key, []).append(value)
        # mean of equal-size independent estimates, with its standard error
        table[name] = {
            key: [math.fsum(e for e, _ in values) / len(values),
                  math.sqrt(math.fsum(s * s for _, s in values)) / len(values)]
            for key, values in samples.items()
        }
        print(name, json.dumps(table[name]), flush=True)
    return table


def main() -> None:
    document = {
        "passes": PASSES,
        "reference_seed": REFERENCE_SEED,
        "estimates": record(),
    }
    (workloads.BENCH_DIR / "reference.json").write_text(json.dumps(document, indent=2) + "\n")


if __name__ == "__main__":
    main()
