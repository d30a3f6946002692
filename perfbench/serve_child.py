"""The serve-mixed server process: a default ``serve-http`` daemon.

Started by :mod:`serve` as ``python3 perfbench/serve_child.py VERSIONS
PRELOAD TRACE_FILE``. It loads the pre-trained embedding versions the
parent wrote, publishes the first ``PRELOAD`` of them into an
:class:`~repro.serving.EmbeddingStore`, builds the serving index, starts
an :class:`~repro.server.EmbeddingDaemon` with the same defaults as
``repro serve-http`` (LSH index, micro-batching, idle hot-reload poller)
on an ephemeral port and prints ``READY <port> <raw> <normalised>``: the
median seconds an index build took, raw and at reference speed
(:class:`common.Calibration`).

Control lines on stdin:

* ``GO <t0> <interval> <i1,i2,...>`` — publish the listed versions in
  order, the k-th at monotonic time ``t0 + k * interval``, on the
  daemon's event loop beside the queries it serves;
* ``CAL`` — run calibration chunks (:class:`common.Calibration`) and
  answer ``CAL <factor> <cpu before> <cpu after>``: their speed factor,
  and the CPU seconds this process had used before and after them;
* ``STOP`` — finish the publish schedule, print one JSON line (publish
  times, peak RSS) and exit.

With a non-empty ``TRACE_FILE`` the serving- and server-layer wrappers
are installed after set-up, and the spans are written there at exit.
"""

from __future__ import annotations

import asyncio
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from common import LONG_OPERATION_CHUNKS, Calibration  # noqa: E402
from spans import Tracer  # noqa: E402


#: Index builds timed before the daemon starts (the last one serves).
INDEX_BUILDS = 5


def load_versions(path: str) -> list[tuple[list, np.ndarray]]:
    """The ``(nodes, matrix)`` pairs :func:`serve.write_versions` saved."""
    with np.load(path) as data:
        count = int(data["count"])
        return [
            (data[f"nodes_{i}"].tolist(), data[f"matrix_{i}"])
            for i in range(count)
        ]


def install_server_wrappers(tracer: Tracer) -> None:
    """Wrap the serving and server layers' public entry points.

    ``server.parse`` runs from the moment a request's first line has
    arrived (the end of the first ``_read_line`` call inside
    ``read_request``) to the parsed request, so it excludes the time an
    idle keep-alive connection waits for bytes.
    """
    from repro.server import batcher, daemon, http
    from repro.serving import service, store

    tracer.wrap(store.EmbeddingStore, "publish", "serving.publish")
    tracer.wrap(
        service.EmbeddingService, "refresh", "serving.refresh",
        value_of=int,
    )
    tracer.wrap(service.EmbeddingService, "query_knn_batch", "serving.query_batch")
    tracer.wrap(batcher.MicroBatcher, "query_with_version", "server.batcher_query")
    tracer.wrap(daemon, "render_response", "server.encode")

    first_line: dict = {}
    read_line = http._read_line
    read_request = daemon.read_request

    async def timed_read_line(reader, limit):
        line = await read_line(reader, limit)
        first_line.setdefault(asyncio.current_task(), time.perf_counter())
        return line

    async def timed_read_request(reader):
        task = asyncio.current_task()
        first_line.pop(task, None)
        try:
            return await read_request(reader)
        finally:
            arrived = first_line.pop(task, None)
            if arrived is not None:
                tracer.add("server.parse", arrived, time.perf_counter())

    tracer.patch(http, "_read_line", timed_read_line)
    tracer.patch(daemon, "read_request", timed_read_request)


async def serve(versions, preload: int, tracer: Tracer | None) -> dict:
    """Run the daemon until ``STOP``; returns the publish log."""
    from repro.server import EmbeddingDaemon
    from repro.serving import EmbeddingService, EmbeddingStore

    store = EmbeddingStore()
    for nodes, matrix in versions[:preload]:
        store.publish((nodes, matrix))
    calibration = Calibration()
    # Build the index now, not on the first query: the daemon's offline
    # step. A build lasts a few ms, so it is timed on INDEX_BUILDS fresh
    # services and the last one serves.
    builds = []
    for _ in range(INDEX_BUILDS):
        service = EmbeddingService(store)
        _, raw, norm = calibration.timed(service.refresh)
        builds.append((raw, norm))
    raw = statistics.median(raw for raw, _ in builds)
    norm = statistics.median(norm for _, norm in builds)
    daemon = EmbeddingDaemon({"g": service})
    await daemon.start(host="127.0.0.1", port=0)
    if tracer is not None:
        install_server_wrappers(tracer)
    print(f"READY {daemon.port} {raw!r} {norm!r}", flush=True)

    loop = asyncio.get_running_loop()
    published: list[tuple[int, float]] = []
    publisher = None
    try:
        while True:
            line = (await loop.run_in_executor(None, sys.stdin.readline)).split()
            if not line or line[0] == "STOP":
                break
            if line[0] == "CAL":
                before = cpu_seconds()
                factor = calibration.chunk(LONG_OPERATION_CHUNKS)
                print(f"CAL {factor!r} {before!r} {cpu_seconds()!r}", flush=True)
            if line[0] == "GO":
                # Start every load from an empty collector, so the
                # full collections it triggers land at the same points
                # of the load on every run.
                gc.collect()
                t0, interval = float(line[1]), float(line[2])
                pending = [versions[int(i)] for i in line[3].split(",")]
                publisher = loop.create_task(publish_schedule(
                    store, pending, t0, interval, published,
                ))
        if publisher is not None:
            # Every scheduled publish happens, so the count is the same
            # on every run however the load's end races the schedule.
            await publisher
    finally:
        await daemon.close()
    return {
        "published": published,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def cpu_seconds() -> float:
    """User plus system CPU time this process has used."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


async def publish_schedule(store, pending, t0, interval, published) -> None:
    """Publish ``pending`` versions on a fixed monotonic schedule."""
    for i, (nodes, matrix) in enumerate(pending, start=1):
        await asyncio.sleep(max(0.0, t0 + i * interval - time.monotonic()))
        started = time.monotonic()
        version = store.publish((nodes, matrix))
        published.append((version, started))


def main() -> int:
    versions_path, preload, trace_file = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    versions = load_versions(versions_path)
    tracer = Tracer() if trace_file else None
    if tracer is not None:
        tracer.run_id = Path(trace_file).stem
    try:
        report = asyncio.run(serve(versions, preload, tracer))
    finally:
        if tracer is not None:
            tracer.unwrap_all()
            tracer.dump(Path(trace_file))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
