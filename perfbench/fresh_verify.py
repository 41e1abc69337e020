"""One fresh verify process, as a ``pcretract verify`` user runs it.

Usage: python3 perfbench/fresh_verify.py <workload> <case index> <suite seed> <samples>

Imports pcretract and prints its peak RSS so far in KiB, from ``getrusage``:
the floor that any case's memory adds to.  Then it builds every map of the
workload and prints the ``time.monotonic()`` reading (the end of set-up).
Then it runs the one case and prints its peak RSS in KiB.  ``run.py``
starts these processes to measure ``setup_s`` and ``peak_rss_mb``; the
verdict is checked by the main run, so only the memory counts here.
"""

import resource
import sys
import time

import paths  # noqa: F401  (puts the checkout's src/ on sys.path)
from workloads import WORKLOADS, case_budget, enforce_budget, run_case

if __name__ == "__main__":
    name, index, seed, samples = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
    workload = WORKLOADS[name]
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)
    built = [case.build() for case in workload.cases]
    print(time.monotonic(), flush=True)
    enforce_budget()
    try:
        with case_budget():
            run_case(workload, workload.cases[index], built[index], seed, samples)
    except Exception:  # a wrong or over-budget case still used its memory
        pass
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
