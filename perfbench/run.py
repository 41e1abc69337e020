"""pcretract benchmark: verify latency, throughput and verdict accuracy.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload diagonal-cover --seed 7 --seconds 36 --trace 0

One process drives pcretract through its public API (and, for operator-cli,
the in-process ``pcretract.cli.main``).  Load is a closed loop: one client,
one case at a time.  The run makes whole passes over the workload's fixed
pool of (case, suite seed) pairs (``workloads.case_pool``), each pass in an
order shuffled by ``--seed``, so a seed fixes the inputs and their order,
and every run attempts and fails the same share of cases.  A pass starts
only while the previous one would still fit in ``--seconds``; the first
always runs.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced replay (see replay.py).  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The lines before
it list failed cases and the provenance; the full record, spans included,
goes to perfbench/out/<workload>-seed<seed>-trace<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

import paths

import numpy as np
import pcretract
import replay
from calibrate import SETUP_REFERENCE_S, Calibration, interpreter_seconds
from workloads import (
    ADDRESS_SPACE_BUDGET,
    CASE_BUDGET_S,
    WORKLOADS,
    CaseBudgetExceeded,
    case_budget,
    case_pool,
    enforce_budget,
    known_defect,
    run_case,
    verdict_error,
)

FRESH_PROCESSES = 7
OUT_DIR = paths.ROOT / "perfbench" / "out"


@dataclass
class CaseRecord:
    label: str
    seed: int
    seconds: float
    checks: list  # (check, status, samples, max_violation, tolerance) per report
    error: str | None  # why the outcome is wrong; None when the verdict is right
    known_defect: bool  # the wrong outcome is a defect listed in workloads.py
    over_budget: bool
    start: float  # time.perf_counter() at the start of the case
    scale: float = 1.0  # machine-speed factor at the time of the case (calibrate.py)

    @property
    def excused(self) -> bool:
        """Failed, but not a sign of incorrect output."""
        return self.known_defect or self.over_budget


def run_one(workload, case, built, seed) -> CaseRecord:
    t0 = time.perf_counter()
    checks, error, over_budget = [], None, False
    try:
        with case_budget():
            checks = run_case(workload, case, built, seed, workload.samples)
        error = verdict_error(case, checks)
    except (CaseBudgetExceeded, MemoryError) as exc:
        error, over_budget = f"over budget: {type(exc).__name__}: {exc}", True
    except Exception as exc:  # a raising case is a wrong verdict; keep measuring
        error = f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    known = error is not None and known_defect(case, checks)
    return CaseRecord(case.label, seed, seconds, checks, error, known, over_budget, t0)


def passes(pool, seed, seconds):
    """Shuffled whole passes over the pool, as lists of (case index, suite
    seed): the first pass always, each later one only if it would end within
    ``seconds`` of the start, judged by the time of the pass before."""
    rng = random.Random(seed)
    start = last = time.perf_counter()
    while True:
        yield rng.sample(pool, len(pool))
        now = time.perf_counter()
        if now + (now - last) > start + seconds:
            return
        last = now


def measure_fresh(workload, pool):
    """(set-up seconds, reference seconds), peak RSS and import-time RSS of
    fresh verify processes (fresh_verify.py), each running one case of the
    pool, the same evenly spaced cases in every run, because peak RSS
    differs between cases.  The first process warms the bytecode cache and
    is dropped."""
    setup, rss_mb, import_rss_mb = [], [], []
    for i in range(FRESH_PROCESSES + 1):
        reference = interpreter_seconds()
        index, case_seed = pool[max(0, i - 1) * len(pool) // FRESH_PROCESSES]
        cmd = [sys.executable, str(paths.ROOT / "perfbench" / "fresh_verify.py"), workload.name,
               str(index), str(case_seed), str(workload.samples)]
        t0 = time.monotonic()
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, stdin=subprocess.DEVNULL,
                             timeout=120)
        import_rss_kib, ready, maxrss_kib = out.stdout.split()
        if i:
            setup.append((float(ready) - t0, reference))
            rss_mb.append(int(maxrss_kib) / 1024.0)
            import_rss_mb.append(int(import_rss_kib) / 1024.0)
    return setup, rss_mb, import_rss_mb


def percentile(values, q):
    """Nearest-rank percentile and the number of values beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def replay_verdict(record, problem) -> None:
    """Book a traced replay's disagreement with the untraced run on the case.
    A replay that no longer reports what pcretract reports measures code
    that does not run, so a mismatch is a wrong outcome that nothing excuses.
    A replay over the case budget is booked like an untraced case over it."""
    if problem == replay.OVER_BUDGET:
        record.error = record.error or problem
        record.over_budget = True
    elif problem is not None:
        record.error, record.known_defect, record.over_budget = problem, False, False


def end_to_end_metrics(records, setup, rss_mb, scaled=True) -> dict:
    """Distribution of cases: a case is what one ``pcretract verify`` does.
    Durations are in reference seconds unless ``scaled`` is false."""
    times = [r.seconds * (r.scale if scaled else 1.0) for r in records]
    reports = [c for r in records for c in r.checks]
    inconclusive = sum(1 for c in reports if c[1] == "inconclusive")
    return {
        "verify_s.p50": (statistics.median(times), "s"),
        "verify_s.p90": (percentile(times, 0.9)[0], "s"),
        "checked_points_per_s": (
            statistics.median(sum(c[2] for c in r.checks) / t for r, t in zip(records, times)), "1/s"),
        "peak_rss_mb": (statistics.median(rss_mb), "MB"),
        "setup_s": (statistics.median(t * (SETUP_REFERENCE_S / ref if scaled else 1.0) for t, ref in setup), "s"),
        "correct_verdict_ratio": (1.0 - sum(r.error is not None for r in records) / len(records), "1"),
        "conclusive_ratio": (1.0 - inconclusive / max(1, len(reports)), "1"),
    }


def git_commit():
    """HEAD of the checkout, or None outside a git work tree of its own."""
    if not (paths.ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=paths.ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(workload, seed, seconds, trace, records, import_rss_mb, pool, rounds) -> dict:
    times = [r.seconds for r in records]
    counts = {}
    for r in records:
        counts[r.label] = counts.get(r.label, 0) + 1
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "samples": workload.samples,
        "pcretract": pcretract.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "pool_size": len(pool),
        "passes": rounds,
        "cases": len(records),
        "case_counts": counts,
        "beyond_p50": percentile(times, 0.5)[1],
        "beyond_p90": percentile(times, 0.9)[1],
        # RSS of the fresh processes once numpy and pcretract are imported,
        # before any map is built: the floor under peak_rss_mb.
        "import_rss_mb": statistics.median(import_rss_mb) if import_rss_mb else None,
        "case_budget_s": CASE_BUDGET_S,
        "address_space_budget_bytes": ADDRESS_SPACE_BUDGET,
    }


def run(workload_name, seed, seconds, trace) -> dict:
    """Run one workload; return the full record, whose "result" is the
    result line."""
    workload = WORKLOADS[workload_name]
    calibration = Calibration(workload.reference)
    pool = case_pool(workload)
    setup, rss_mb, import_rss_mb = ([], [], []) if trace else measure_fresh(workload, pool)
    enforce_budget()
    if trace:
        tracer = replay.Tracer()
        built = replay.build_maps(tracer, workload)
    else:
        built = [case.build() for case in workload.cases] if workload.mode == "suite" else None
    records, rounds = [], 0
    for order in passes(pool, seed, seconds):
        rounds += 1
        for index, case_seed in order:
            case, case_map = workload.cases[index], built[index] if built else None
            if not trace:
                calibration.sample()
            records.append(run_one(workload, case, case_map, case_seed))
            if trace and not records[-1].over_budget:
                replay_verdict(records[-1],
                               replay.replay_case(tracer, workload, case, case_map, case_seed, records[-1]))
    if trace:
        metrics, raw = replay.layer_metrics(tracer, seed), None
    else:
        calibration.sample(force=True)
        for r in records:
            r.scale = calibration.scale(r.start)
        metrics = end_to_end_metrics(records, setup, rss_mb)
        raw = end_to_end_metrics(records, setup, rss_mb, scaled=False)
    return {
        "provenance": provenance(workload, seed, seconds, trace, records, import_rss_mb, pool, rounds),
        "result": {
            "correct": all(r.error is None or r.excused for r in records),
            "attempted": len(records),
            "failed": sum(r.error is not None for r in records),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
        "unscaled_metrics": raw,
        "calibration_s": calibration.samples,
        "case_seeds": [r.seed for r in records],
        "fresh_processes": {"setup_s_and_reference_s": setup, "peak_rss_mb": rss_mb, "import_rss_mb": import_rss_mb},
        "cases": [asdict(r) for r in records],
        "spans": tracer.spans if trace else [],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, allow_nan=False))
    for c in [c for c in record["cases"] if c["error"] is not None][:5]:
        print(f"failed case {c['label']} seed {c['seed']}: {c['error']}")
    print("provenance: " + json.dumps(record["provenance"]))
    print(json.dumps(record["result"], allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
