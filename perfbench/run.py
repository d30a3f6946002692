"""Benchmark entry point: one workload, one run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload snapshot-online --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` reports every end-to-end metric declared in
``BENCHMARK.json``; ``--trace 1`` runs the traced variant and reports
every per-layer metric instead (layers a workload never calls report 0).
Human-readable lines (the workload's named figures, percentiles with
sample counts, failures) come first; the last line of stdout is the JSON
result. See ``perfbench/README.md`` for every metric's definition.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# One BLAS thread per process (set before numpy loads): the host has two
# cores, and the program's processes must not outnumber them.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

from common import ROOT, emit, fail  # noqa: E402

WORKLOADS = ("snapshot-online", "stream-flush", "serve-mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")

    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in section}

    # The program under test is the checkout's own source tree.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail("no src/repro package next to the benchmark")
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload == "serve-mixed":
        import serve

        outcome = serve.run(args.seed, args.seconds, bool(args.trace))
    else:
        import steps

        outcome = steps.run(
            args.workload, args.seed, args.seconds, bool(args.trace), units
        )
    correct, attempted, failed, values = outcome

    unknown = sorted(set(values) - set(units))
    if unknown:
        fail(f"workload reported undeclared metrics: {unknown}")
    if not args.trace:
        missing = sorted(set(units) - set(values))
        if missing:
            fail(f"workload did not measure: {missing}")
    metrics = {
        name: (values.get(name, 0.0), unit) for name, unit in units.items()
    }
    emit(correct, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
