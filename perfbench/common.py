"""Shared helpers: percentiles, memory, the work directory, result lines."""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Scratch output (trace files, the serve workload's version file). It
#: lives inside the checkout and is listed in the root .gitignore.
WORK_DIR = BENCH_DIR / "out"


def median(values) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_report(values, q: float) -> str:
    """``p50 .. / pQ .. (n=.., beyond pQ=..)`` for the human-readable lines.

    The benchmark fixes ``q`` per workload as the highest standard
    percentile that keeps at least ten samples beyond it at the
    workload's minimum sample count.
    """
    n = len(values)
    beyond = int(round(n * (1.0 - q / 100.0)))
    return (
        f"p50 {median(values):.3f} / p{q:g} {percentile(values, q):.3f} "
        f"(n={n}, {beyond} beyond p{q:g})"
    )


def peak_rss_mb(extra_kb: int = 0) -> float:
    """Peak resident set of this process and its waited-for children.

    ``extra_kb`` adds a peak reported by a child that measured itself.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children, extra_kb) / 1024.0


#: What one calibration chunk is taken to last on the reference host.
#: Normalised timings are the time the operation would have taken on a
#: host where a chunk lasts this long.
REFERENCE_CHUNK_S = 0.010
#: Chunks in a row around an operation of a quarter second or more.
LONG_OPERATION_CHUNKS = 5


class Calibration:
    """Host speed, measured with a fixed chunk of work between operations.

    The host's speed changes by up to 1.7x between phases lasting from
    seconds to minutes (see README.md), and every timing of the program
    follows it. A chunk is a fixed mix of interpreter and numpy work that
    has nothing to do with the program: about a quarter dict-and-integer
    loop, three quarters small-array gathers, ``einsum`` and ``np.add.at``
    (the kinds of work that SGNS steps, partitioning and serving do). An
    operation timed between two chunks is divided by the mean of their
    speed factors (chunk time / :data:`REFERENCE_CHUNK_S`), which cancels
    the phase it ran in. Raw times are printed beside the normalised ones.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._rows = rng.standard_normal((2000, 64))
        self._cols = rng.standard_normal((2000, 64))
        self._index = rng.integers(0, 2000, size=(512, 6))
        self.factors: list[float] = []
        self.chunk()  # warm up: first-call costs are not host speed

    def _interpreter_work(self) -> int:
        counts: dict[int, int] = {}
        total = 0
        for i in range(10000):
            key = (i * 7919) % 1013
            counts[key] = counts.get(key, 0) + i
            total += key
        return total

    def _array_work(self) -> None:
        rows, cols, index = self._rows, self._cols, self._index
        for _ in range(8):
            centre = rows[index[:, 0]]
            context = cols[index[:, 1:]]
            scores = np.einsum("nd,nqd->nq", centre, context)
            grad = 1.0 / (1.0 + np.exp(-scores))
            np.add.at(rows, index[:, 0],
                      1e-12 * np.einsum("nq,nqd->nd", grad, context))

    def chunk(self, repeats: int = 1) -> float:
        """Run ``repeats`` chunks; returns (and records) their speed factor.

        One chunk reads the speed of a 10-ms instant; an operation that
        lasts a quarter second or more is better normalised with the
        median of a few in a row, which a single slow chunk cannot move.
        """
        # Touch the arrays first, so that a chunk does not pay for the
        # cache state the program's last operation left behind.
        self._rows.sum()
        self._cols.sum()
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            self._interpreter_work()
            self._array_work()
            times.append(time.perf_counter() - started)
        factor = float(statistics.median(times)) / REFERENCE_CHUNK_S
        self.factors.append(factor)
        return factor

    def timed(self, operation, repeats: int = LONG_OPERATION_CHUNKS):
        """``(result, raw seconds, normalised seconds)`` of ``operation()``.

        Runs ``repeats`` chunks before and after it; for operations back
        to back, :meth:`chunk` and :func:`normalised` share the chunks.
        """
        before = self.chunk(repeats)
        started = time.perf_counter()
        result = operation()
        raw = time.perf_counter() - started
        return result, raw, normalised(raw, before, self.chunk(repeats))


def normalised(raw: float, before: float, after: float) -> float:
    """``raw`` seconds at reference speed, between chunks of these factors."""
    return raw / ((before + after) / 2.0)


def finite_rows_cover(nodes, matrix, expected_nodes) -> bool:
    """True when every expected node has a row and the matrix is finite."""
    present = set(nodes)
    return all(node in present for node in expected_nodes) and bool(
        np.isfinite(matrix).all()
    )


def note(message: str) -> None:
    """A human-readable line on stdout (never the last line)."""
    print(message, flush=True)


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the one-line JSON result the benchmark contract requires."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }), flush=True)


def fail(message: str, code: int = 2) -> None:
    """Abort without a result line."""
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    raise SystemExit(code)
