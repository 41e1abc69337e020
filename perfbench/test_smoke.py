"""Smoke test of the benchmark itself, at a tiny size.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs one pass over its pool with a few hundred samples,
traced and untraced, and must print every metric that BENCHMARK.json names,
with its unit.  Two seeds must fail the same share of cases.  A
deliberately wrong expected verdict, and a traced replay that deliberately
drifts from the checks, must each show up as failed cases and an incorrect
run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# Runs run.main in a fresh interpreter with every workload shrunk to a few
# hundred samples; ``patch`` is more Python to run before it.
SMALL = (
    "import dataclasses, sys; sys.path.insert(0, 'perfbench'); import run, workloads; "
    "workloads.WORKLOADS.update({n: dataclasses.replace(w, samples=300) for n, w in workloads.WORKLOADS.items()}); "
)


def bench(*args, patch="pass", seed=1):
    """Run the benchmark at a tiny size and return its result line."""
    code = f"{SMALL}{patch}; sys.exit(run.main(sys.argv[1:]))"
    cmd = [sys.executable, "-c", code, "--seed", str(seed), "--seconds", "0.5", *args]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = bench("--workload", workload, "--trace", str(trace))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace:
        assert result["correct"] is True
        assert result["metrics"]["trace.replay_mismatches"]["value"] == 0


def test_every_seed_fails_the_same_share_of_cases():
    # Runs make whole passes over a fixed pool, so the verdicts do not depend
    # on the seed; the pool's rounding witness fails in every pass.
    first, second = (bench("--workload", "diagonal-cover", "--trace", "0", seed=s) for s in (1, 2))
    assert first["failed"] >= 1
    assert first["failed"] * second["attempted"] == second["failed"] * first["attempted"]
    assert first["correct"] is True and second["correct"] is True


def test_wrong_expected_verdict_counts_as_failed():
    patch = "workloads.EXPECTED_FAILURE['halved'] = 'operator-linearity'"
    result = bench("--workload", "diagonal-cover", "--trace", "0", patch=patch)
    assert result["failed"] >= 1
    assert result["correct"] is False
    assert result["metrics"]["correct_verdict_ratio"]["value"] < 1.0


def test_replay_that_drifts_from_the_checks_makes_the_run_incorrect():
    # A replay that skips the last piece-continuity check no longer reports
    # what run_suite reports.
    result = bench("--workload", "radial-norms", "--trace", "1", patch="import replay; replay.MAX_PIECE_INDEX = 9")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["trace.replay_mismatches"]["value"] >= 1
