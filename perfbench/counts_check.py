"""The benchmark's own checks (not part of the repository's test suite).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/counts_check.py

* count metrics repeat exactly across two traced runs with one seed;
* self time is a span's duration minus the union of its children.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from spans import accounting, self_times  # noqa: E402

#: Counts that must not depend on timing (named by the benchmark's spec).
REPEATING = {
    "snapshot-online": ("sgns.pairs", "sgns.step_calls", "partition.full_calls"),
    "stream-flush": (
        "sgns.pairs", "sgns.step_calls", "partition.full_calls",
        "serving.publishes", "streaming.events",
    ),
    "serve-mixed": ("serving.publishes",),
}


def traced_counts(workload: str, seed: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=300,
        check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"], completed.stdout
    return {
        name: entry["value"] for name, entry in result["metrics"].items()
        if entry["unit"] == "count"
    }


@pytest.mark.parametrize("workload", sorted(REPEATING))
def test_counts_repeat_exactly_under_one_seed(workload):
    first = traced_counts(workload, seed=7)
    second = traced_counts(workload, seed=7)
    for name in REPEATING[workload]:
        assert first[name] > 0, name
        assert first[name] == second[name], name


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["step", 0.0, 10.0, -1, "r", None],
        ["a", 1.0, 4.0, 0, "r", None],
        ["b", 3.0, 6.0, 0, "r", None],   # overlaps a: union is 1..6
        ["c", 2.0, 3.0, 1, "r", None],
    ]
    assert self_times(spans) == [5.0, 2.0, 3.0, 1.0]


def test_accounting_splits_step_time_into_explained_and_residual():
    spans = [
        ["core.update", 0.0, 10.0, -1, "r", None],
        ["pipeline.train", 0.0, 8.0, 0, "r", None],
        ["sgns.step", 1.0, 7.0, 1, "r", None],
        ["core.glue", 8.0, 9.0, 0, "r", None],
    ]
    wall, explained, residual = accounting(spans, {0})
    assert (wall, explained, residual) == (10.0, 8.0, 2.0)
