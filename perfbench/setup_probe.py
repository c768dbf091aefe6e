"""Time one set-up of a workload in a fresh process: importing the library
and building the workload's models.  Prints the seconds it took.

    python3 perfbench/setup_probe.py WORKLOAD
"""

import sys
import time


def main(name: str) -> None:
    start = time.perf_counter()
    import workloads  # the import is part of what is timed

    workloads.WORKLOADS[name].build()
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1])
