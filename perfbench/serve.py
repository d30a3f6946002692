"""The ``serve-mixed`` workload: kNN reads beside version publishes.

Set-up (in this process) runs a real GloDyNE streaming pass over a
generated interaction stream and keeps every version it publishes. A
child process (:mod:`serve_child`) serves those versions with a default
``serve-http`` daemon; it starts with the versions up to the first one
that holds every node, and publishes one version every
``PUBLISH_INTERVAL_S`` while this process, the load generator, sends an
open-loop kNN load over two pipelined keep-alive connections.

The pre-training makes far fewer versions than a run publishes, so the
publishes walk back and forth over the versions that hold every node
(:func:`publish_sequence`). Each publish is then a real difference
between two consecutive trained versions, and a version never loses
nodes (which would force a full index rebuild instead of a refresh).

Untraced run: ``FIXED_RATE`` requests/s for the whole budget, sent in
segments of ``SEGMENT_S``. Between segments, when every request has
been answered, the generator and the server child both run calibration
chunks (:class:`common.Calibration`); every latency is put at reference
speed with the chunks around its segment. Gives the kNN latency percentiles
(timed from each request's due time, so a stall also charges the
requests queued behind it), ``knn_per_cpu_s`` (requests per second of
server CPU time), ``recall_at_10`` and ``visible_ms_p50``.

After the load, :func:`audit` asks the program's own serving path, in
this process, for every query node at every version the child served.
Its answers are deterministic under the seed, so the audit is where
short answers (fewer than k neighbours) are counted, once per version
and node, and every served answer must equal the audit's answer for its
version and node.

Traced run: the load twice, half the budget each, first against an
untraced child and then against a traced one; the ratio of their median
latencies is ``trace.overhead_ratio``.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import json
import os
import select
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import (
    BENCH_DIR,
    LONG_OPERATION_CHUNKS,
    ROOT,
    WORK_DIR,
    Calibration,
    fail,
    median,
    note,
    peak_rss_mb,
    percentile,
    tail_report,
)

SERVE_DATA = dict(
    num_nodes=800, num_steps=24, num_communities=16, events_per_step=300,
    growth_per_step=16, active_fraction=0.3,
)
SERVE_MODEL = dict(
    dim=32, alpha=0.05, num_walks=2, walk_length=10, window_size=4,
    epochs=1, workers=1,
)
SERVE_FLUSH_EVENTS = 400   # the serve-http default
# Pre-training is the set-up (about 4 s on a 2-core host). It runs once
# before the load and once more after it: ``setup_s`` is the median of
# the two, and the second run also checks that pre-training is
# deterministic. ``offline_s`` is the daemon's offline step: the first
# index build of each server child, timed inside the child. Beside the
# child that serves the load, COLD_STARTS more children start and stop
# (COLD_STARTS_BEFORE before the load, the rest after it) for more
# samples; their cold starts (spawn to accepting connections) are printed.
COLD_STARTS = 5
COLD_STARTS_BEFORE = 3

K = 10
CONNECTIONS = 2
PUBLISH_INTERVAL_S = 0.25
FIXED_RATE = 150.0
#: The load is sent in segments this long, with calibration chunks
#: between them; each segment sees ten publishes.
SEGMENT_S = 10 * PUBLISH_INTERVAL_S
SEGMENT_GAP_S = 0.05
TIMEOUT_S = 5.0
TAIL = 99.0
UPPER_QUARTILE = 75.0


@dataclass
class Request:
    """One kNN request: schedule, outcome, and what came back."""

    due: float
    node: int
    sent: float = 0.0
    done: float = 0.0
    #: Speed factor of the segment the request was sent in.
    factor: float = 1.0
    version: int = -1
    neighbors: tuple = ()
    error: str = ""


# ----------------------------------------------------------------------
# set-up: pre-training and the child
# ----------------------------------------------------------------------

def pretrain(seed: int):
    """Stream the generated events through GloDyNE; keep every version."""
    from repro import EmbeddingStore, FlushPolicy, StreamingGloDyNE
    from repro.datasets import interaction_stream

    events = interaction_stream(seed=seed, **SERVE_DATA)
    store = EmbeddingStore()
    engine = StreamingGloDyNE(
        seed=seed, policy=FlushPolicy(max_events=SERVE_FLUSH_EVENTS),
        publish_to=store, **SERVE_MODEL,
    )
    engine.ingest_many(events)
    if engine.pending_events:
        engine.flush()
    return [(list(record.nodes), record.matrix) for record in store]


def publish_sequence(first: int, last: int, count: int) -> list[int]:
    """``count`` version indices walking ``first+1 .. last .. first ..``."""
    sequence, at, step = [], first, 1
    while len(sequence) < count:
        if not first <= at + step <= last:
            step = -step
        at += step
        sequence.append(at)
    return sequence


def write_versions(versions, path: Path) -> None:
    """Save ``(nodes, matrix)`` pairs for :func:`serve_child.load_versions`."""
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {"count": np.array(len(versions))}
    for i, (nodes, matrix) in enumerate(versions):
        arrays[f"nodes_{i}"] = np.asarray(nodes, dtype=np.int64)
        arrays[f"matrix_{i}"] = matrix
    np.savez(path, **arrays)


class Child:
    """The server process and its control pipe."""

    def __init__(self, versions_path: Path, preload: int, trace_file: str):
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "serve_child.py"),
             str(versions_path), str(preload), trace_file],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT,
        )
        line = self._readline(60.0)
        if not line.startswith("READY "):
            self.kill()
            fail(f"server child did not start (got {line!r})")
        _, port, raw, norm = line.split()
        self.port = int(port)
        #: ``(raw, normalised)`` median seconds of the child's index builds.
        self.index_build = (float(raw), float(norm))

    def _readline(self, timeout: float) -> str:
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        return self.process.stdout.readline() if ready else ""

    def send(self, line: str) -> None:
        self.process.stdin.write(line + "\n")
        self.process.stdin.flush()

    def stop(self) -> dict:
        """Ask the child to exit; returns its final report."""
        self.send("STOP")
        line = self._readline(60.0)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
        try:
            return json.loads(line)
        except ValueError:
            fail(f"server child ended without a report (got {line!r})")

    def calibrate(self) -> tuple[float, float, float]:
        """Calibration chunks in the server process, between segments.

        Returns their speed factor and the server's CPU seconds before
        and after them.
        """
        self.send("CAL")
        line = self._readline(10.0)
        if not line.startswith("CAL "):
            fail(f"server child did not calibrate (got {line!r})")
        factor, before, after = (float(word) for word in line.split()[1:])
        return factor, before, after

    def kill(self) -> None:
        self.process.kill()
        self.process.wait()


# ----------------------------------------------------------------------
# the load generator
# ----------------------------------------------------------------------

def schedule(rate: float, start: float, seconds: float, nodes, rng):
    """Open-loop arrivals: evenly spaced at ``rate``, random query nodes."""
    count = int(round(rate * seconds))
    picks = rng.integers(0, len(nodes), size=count)
    return [
        Request(start + i / rate, int(nodes[pick]))
        for i, pick in enumerate(picks)
    ]


async def read_response(reader) -> tuple[int, bytes]:
    """One HTTP/1.1 response: ``(status, body)``."""
    status_line = await reader.readuntil(b"\r\n")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readuntil(b"\r\n")
        if line == b"\r\n":
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


class Connection:
    """One pipelined keep-alive connection: a sender and a receiver."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.in_flight: deque[Request] = deque()
        self.sent = asyncio.Event()   # set when in_flight gains a request
        self.last_version = -1
        self.broken = False

    async def send_all(self, requests: list[Request]) -> None:
        loop = asyncio.get_running_loop()
        for request in requests:
            delay = request.due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if self.broken:
                request.error = "connection lost"
                continue
            request.sent = loop.time()
            self.in_flight.append(request)
            self.sent.set()
            self.writer.write(
                f"GET /g/g/knn?node={request.node}&k={K} HTTP/1.1\r\n"
                "Host: bench\r\n\r\n".encode("ascii")
            )
            await self.writer.drain()

    async def receive_all(self, requests: list[Request], deadline: float) -> None:
        loop = asyncio.get_running_loop()
        for _ in requests:
            if self.broken:
                return
            while not self.in_flight:
                self.sent.clear()
                await self.sent.wait()
            request = self.in_flight[0]
            try:
                status, body = await asyncio.wait_for(
                    read_response(self.reader), max(0.0, deadline - loop.time())
                )
            except asyncio.TimeoutError:
                self.fail_in_flight("timeout")
                return
            except (asyncio.IncompleteReadError, ConnectionError, ValueError) as error:
                self.fail_in_flight(f"broken response: {error!r}")
                return
            self.in_flight.popleft()
            request.done = loop.time()
            self.check(request, status, body)

    def fail_in_flight(self, reason: str) -> None:
        self.broken = True
        while self.in_flight:
            self.in_flight.popleft().error = reason

    def check(self, request: Request, status: int, body: bytes) -> None:
        """The output checks a served kNN answer must pass."""
        if status != 200:
            request.error = f"status {status}"
            return
        try:
            payload = json.loads(body)
            version = int(payload["version"])
            neighbors = tuple(int(item["node"]) for item in payload["neighbors"])
        except (ValueError, KeyError, TypeError):
            request.error = "malformed body"
            return
        # Short answers (fewer than k neighbours) are counted by the
        # audit, once per version and node; see compare_with_audit.
        if version < self.last_version:
            request.error = f"version went back {self.last_version} -> {version}"
        request.version = version
        request.neighbors = neighbors
        self.last_version = max(self.last_version, version)


async def open_connections(port: int) -> list[Connection]:
    connections = []
    for _ in range(CONNECTIONS):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        connections.append(Connection(reader, writer))
    return connections


async def run_phase(connections, requests: list[Request]) -> None:
    """Send ``requests`` round-robin over the connections; await answers."""
    deadline = requests[-1].due + TIMEOUT_S
    shares = [requests[i::len(connections)] for i in range(len(connections))]
    await asyncio.gather(*(
        task
        for connection, share in zip(connections, shares)
        for task in (
            connection.send_all(share),
            connection.receive_all(share, deadline),
        )
    ))


async def fetch_stats(connection: Connection) -> dict:
    connection.writer.write(b"GET /stats HTTP/1.1\r\nHost: bench\r\n\r\n")
    await connection.writer.drain()
    status, body = await asyncio.wait_for(read_response(connection.reader), 10)
    return json.loads(body) if status == 200 else {}


async def close_connections(connections) -> None:
    for connection in connections:
        connection.writer.close()
    for connection in connections:
        try:
            await connection.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def latencies_ms(requests) -> list[float]:
    """Due-to-answer latency of every answered request, ms at reference speed."""
    return [(r.done - r.due) * 1e3 / r.factor for r in requests if r.done]


async def drive(child: Child, nodes, seed: int, seconds: float,
                sequence: list[int], calibration: Calibration):
    """Run the load against ``child``.

    Returns the requests, the server's ``/stats``, its CPU seconds over
    the load segments, and the load's speed factor.

    The generator's own garbage collection is off while it runs, so its
    pauses do not show up as server latency.
    """
    gc.freeze()
    gc.disable()
    try:
        return await drive_load(child, nodes, seed, seconds, sequence, calibration)
    finally:
        gc.enable()
        gc.unfreeze()


async def drive_load(child: Child, nodes, seed: int, seconds: float,
                     sequence: list[int], calibration: Calibration):
    rng = np.random.default_rng(seed)
    loop = asyncio.get_running_loop()
    connections = await open_connections(child.port)
    start = loop.time() + 0.2
    # asyncio's loop clock is time.monotonic, which the child shares.
    child.send(f"GO {start!r} {PUBLISH_INTERVAL_S!r} "
               + ",".join(str(i) for i in sequence))
    requests = []
    cals = [child.calibrate()]
    mine = [calibration.chunk(LONG_OPERATION_CHUNKS)]
    server_cpu = 0.0
    for _ in range(segments(seconds)):
        segment = schedule(FIXED_RATE, start, SEGMENT_S, nodes, rng)
        await run_phase(connections, segment)
        # Every request of the segment is answered: nothing is due now.
        cals.append(child.calibrate())
        mine.append(calibration.chunk(LONG_OPERATION_CHUNKS))
        server_cpu += cals[-1][1] - cals[-2][2]
        # A request's latency is CPU work in both processes, so both
        # processes' chunks around its segment weigh equally.
        factor = (cals[-2][0] + cals[-1][0] + mine[-2] + mine[-1]) / 4.0
        for request in segment:
            request.factor = factor
        requests.extend(segment)
        if any(c.broken for c in connections):
            break
        start = loop.time() + SEGMENT_GAP_S
    # The load's speed factor: both processes' chunks, as for latencies.
    factor = (median([c[0] for c in cals]) + median(mine)) / 2.0
    stats = {} if any(c.broken for c in connections) else await fetch_stats(connections[0])
    await close_connections(connections)
    return requests, stats, server_cpu, factor


def segments(seconds: float) -> int:
    """Segments of load in ``seconds`` (at least one)."""
    return max(1, int(seconds / (SEGMENT_S + SEGMENT_GAP_S)))


# ----------------------------------------------------------------------
# derived metrics
# ----------------------------------------------------------------------

def recall_at_k(requests, versions) -> float:
    """Mean overlap of served neighbours with the exact cosine top-k.

    Exact answers are computed at the version each response names, from
    the same matrices the server holds.
    """
    by_version: dict[int, list[Request]] = {}
    for request in requests:
        if not request.error and request.done:
            by_version.setdefault(request.version, []).append(request)
    hits = total = 0
    for version, group in by_version.items():
        nodes, matrix = versions[version]
        unit = matrix / np.maximum(np.linalg.norm(matrix, axis=1, keepdims=True), 1e-12)
        row_of = {node: i for i, node in enumerate(nodes)}
        rows = np.array([row_of[r.node] for r in group])
        scores = unit[rows] @ unit.T
        scores[np.arange(len(rows)), rows] = -np.inf
        top = np.argpartition(-scores, K, axis=1)[:, :K]
        for request, exact in zip(group, top):
            truth = {nodes[j] for j in exact}
            hits += len(truth.intersection(request.neighbors[:K]))
            total += K
    return hits / total if total else 0.0


def visible_ms(requests, published) -> list[float]:
    """Per publish: how long the first answer carrying it (or later) took.

    The delay of a publish runs to the first answer, among ``requests``,
    that names its version or a later one, from the later of the publish
    and that request's due time. Requests arrive every few ms, so
    starting at the due time leaves out the wait for the next request
    and keeps the cost of serving the new version: the service refreshes
    its index lazily, inside the first query after a publish.
    Publishes that none of ``requests`` saw are left out.
    """
    answered = sorted(
        (r.done, r.version, r.due, r.factor)
        for r in requests if r.done and not r.error
    )
    delays = []
    for version, at in published:
        for done, served, due, factor in answered:
            if done >= at and served >= version:
                delays.append((done - max(at, due)) * 1e3 / factor)
                break
    return delays


def audit(versions, preload: int, matrices: list[int], nodes) -> dict:
    """The program's own answer for every node at every served matrix.

    Replays the child's store in this process: the first ``preload``
    versions, one index build, then a publish of each matrix in
    ``matrices`` (ascending) and one batched query of every node, the
    call the daemon's micro-batcher makes. The LSH index refreshes to
    the same answers as a rebuild, so an answer depends only on the
    version's matrix and the node. Returns ``{matrix: {node: neighbours}}``.
    """
    from repro.serving import EmbeddingService, EmbeddingStore

    store = EmbeddingStore()
    for version in versions[:preload]:
        store.publish(version)
    service = EmbeddingService(store)
    service.refresh()
    answers = {}
    for matrix in sorted(set(matrices)):
        # The last preloaded matrix is the head already, and the smallest.
        if matrix != preload - 1:
            store.publish(versions[matrix])
        rows = service.query_knn_batch(list(nodes), K)
        answers[matrix] = {
            node: tuple(int(neighbour) for neighbour, _ in row)
            for node, row in zip(nodes, rows)
        }
    return answers


def compare_with_audit(requests, served: list[int], answers: dict) -> None:
    """Fail every answered request that differs from the audit's answer."""
    for request in requests:
        if request.error or not request.done:
            continue
        if not 0 <= request.version < len(served):
            request.error = f"unknown version {request.version}"
        elif request.neighbors != answers[served[request.version]][request.node]:
            request.error = "answer differs from the program's own at its version"


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------

def run(seed: int, seconds: float, traced: bool):
    """Run serve-mixed; returns ``(correct, attempted, failed, metrics)``."""
    calibration = Calibration()
    setup_times = []    # (raw, normalised) seconds per pre-training
    cold_starts = []    # raw seconds per daemon cold start
    index_builds = []   # (raw, normalised) median index build per child

    def set_up():
        made, raw, norm = calibration.timed(lambda: pretrain(seed))
        setup_times.append((raw, norm))
        return made

    versions = set_up()
    load_s = seconds / 2 if traced else seconds
    publishes = int(segments(load_s) * SEGMENT_S / PUBLISH_INTERVAL_S)
    full = [i for i, (nodes, _) in enumerate(versions)
            if len(nodes) == len(versions[-1][0])]
    if len(full) < 3:
        fail(f"pre-training left {len(full)} versions with every node; need 3")
    preload = full[0] + 1
    sequence = publish_sequence(full[0], full[-1], publishes)
    # Store version id -> index of the matrix it holds.
    served = list(range(preload)) + sequence
    versions_path = WORK_DIR / f"versions-seed{seed}-{os.getpid()}.npz"
    write_versions(versions, versions_path)
    query_nodes = versions[full[0]][0]

    def cold_start():
        started = time.perf_counter()
        child = Child(versions_path, preload, "")
        child.stop()
        cold_starts.append(time.perf_counter() - started)
        index_builds.append(child.index_build)

    def serve_once(trace_file: str):
        child = Child(versions_path, preload, trace_file)
        index_builds.append(child.index_build)
        try:
            load = asyncio.run(drive(
                child, query_nodes, seed, load_s, sequence, calibration
            ))
        except BaseException:
            child.kill()
            raise
        return (*load, child.stop())

    try:
        for _ in range(COLD_STARTS_BEFORE):
            cold_start()
        if traced:
            base = serve_once("")
            trace_file = WORK_DIR / f"trace-serve-mixed-seed{seed}.jsonl"
            traced_run = serve_once(str(trace_file))
            requests = base[0] + traced_run[0]
        else:
            requests, stats, server_cpu, load_factor, report = serve_once("")
        for _ in range(COLD_STARTS - COLD_STARTS_BEFORE):
            cold_start()
    finally:
        versions_path.unlink(missing_ok=True)
    again = set_up()
    correct = len(again) == len(versions) and all(
        a[0] == b[0] and np.array_equal(a[1], b[1])
        for a, b in zip(again, versions)
    )
    if not correct:
        note("FAIL pre-training under one seed published different versions")

    answers = audit(versions, preload, served[preload - 1:], query_nodes)
    short = sum(
        1 for rows in answers.values() for row in rows.values() if len(row) < K
    )
    if short:
        note(f"FAIL {short} of {len(answers) * len(query_nodes)} audit answers: "
             f"fewer than k={K} neighbours")
    compare_with_audit(requests, served, answers)
    failed_requests = [r for r in requests if r.error]
    for reason in sorted({r.error for r in failed_requests}):
        count = sum(1 for r in failed_requests if r.error == reason)
        note(f"FAIL {count} request(s): {reason}")
    attempted = len(requests) + len(answers) * len(query_nodes)
    failed = len(failed_requests) + short
    if traced:
        return correct, attempted, failed, serve_layers(base, traced_run, trace_file)

    # Requests answered per second of server CPU time (publishes included,
    # calibration left out), at reference speed.
    knn_per_cpu_s = len(requests) / (server_cpu / load_factor)
    lat = latencies_ms(requests)
    raw_lat = [(r.done - r.due) * 1e3 for r in requests if r.done]
    recall = recall_at_k(requests, [versions[i] for i in served])
    visible = visible_ms(requests, report["published"])
    late_ms = [(r.sent - r.due) * 1e3 for r in requests if r.sent]
    setup_s = median([norm for _, norm in setup_times])
    offline_s = median([norm for _, norm in index_builds])
    note(f"serve-mixed: {FIXED_RATE:g}/s for {segments(load_s)} segments of "
         f"{SEGMENT_S:g} s, knn ms {tail_report(lat, TAIL)}; "
         f"{len(report['published'])} publishes")
    note(f"  knn_ms_p50 {median(lat):.3f} ms | knn_ms_p75 "
         f"{percentile(lat, UPPER_QUARTILE):.3f} ms | knn_ms_p90 "
         f"{percentile(lat, 90):.3f} ms | knn_ms_p99 "
         f"{percentile(lat, TAIL):.3f} ms | knn_per_cpu_s {knn_per_cpu_s:.1f} 1/s")
    note(f"  recall_at_10 {recall:.4f} | visible_ms_p50 "
         f"{median(visible) if visible else float('nan'):.3f} ms "
         f"(n={len(visible)}) | failed_ratio {failed / attempted:.4f} "
         f"({failed}/{attempted}) | setup_s {setup_s:.4f} s | index build "
         f"{offline_s * 1e3:.3f} ms | generator late p99 "
         f"{percentile(late_ms, 99):.2f} ms, max {max(late_ms):.2f} ms")
    note(f"  raw: knn ms p50 {median(raw_lat):.3f} | setup_s "
         f"{median([raw for raw, _ in setup_times]):.4f} | index build "
         f"{median([raw for raw, _ in index_builds]) * 1e3:.3f} ms | daemon "
         f"cold start {median(cold_starts):.4f} s | knn_per_cpu_s "
         f"{len(requests) / server_cpu:.1f} 1/s | load speed factor "
         f"{load_factor:.3f}")
    return correct, attempted, failed, {
        "setup_s": setup_s,
        "ok_ratio": 1.0 - failed / attempted,
        "peak_rss_mb": peak_rss_mb(report["peak_rss_kb"]),
        "op_ms_p50": median(lat),
        "op_ms_tail": percentile(lat, UPPER_QUARTILE),
        "rate_per_s": knn_per_cpu_s,
        "quality": recall,
        "offline_s": offline_s,
        "visible_ms_p50": median(visible) if visible else float("inf"),
    }


def serve_layers(base, traced_run, trace_file: Path) -> dict[str, float]:
    """Serving- and server-layer metrics of the traced child."""
    spans = [json.loads(line) for line in trace_file.read_text().splitlines()]

    def named(name):
        return [s for s in spans if s["name"] == name]

    refreshes = [s for s in named("serving.refresh") if s["value"]]
    batch_starts = sorted(s["start"] for s in named("serving.query_batch"))
    # A batch's own time excludes the head-follow refresh nested in it.
    own = {
        i: s["end"] - s["start"]
        for i, s in enumerate(spans) if s["name"] == "serving.query_batch"
    }
    for s in spans:
        if s["parent"] in own:
            own[s["parent"]] -= s["end"] - s["start"]
    waits = []
    for s in named("server.batcher_query"):
        at = bisect.bisect_left(batch_starts, s["start"])
        if at < len(batch_starts):
            waits.append((batch_starts[at] - s["start"]) * 1e3)
    stats = traced_run[1]
    cache = stats.get("graphs", {}).get("g", {}).get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    statuses = stats.get("responses_by_status", {})

    def p50_ms(values):
        return median(values) * 1e3 if values else 0.0

    base_p50 = median(latencies_ms(base[0]))
    traced_p50 = median(latencies_ms(traced_run[0]))
    return {
        "serving.publishes": len(named("serving.publish")),
        "serving.publish_s": sum(s["end"] - s["start"] for s in named("serving.publish")),
        "serving.refresh_calls": len(refreshes),
        "serving.refresh_ms_p50": p50_ms([s["end"] - s["start"] for s in refreshes]),
        "serving.rows_refreshed": sum(s["value"] for s in refreshes),
        "serving.query_batch_ms_p50": p50_ms(list(own.values())),
        "serving.cache_hit_ratio": cache.get("hits", 0) / lookups if lookups else 0.0,
        "server.queue_wait_ms_p50": median(waits) if waits else 0.0,
        "server.batch_size_mean": stats.get("knn", {}).get("mean_batch_size") or 0.0,
        "server.parse_ms_p50": p50_ms([s["end"] - s["start"] for s in named("server.parse")]),
        "server.encode_ms_p50": p50_ms([s["end"] - s["start"] for s in named("server.encode")]),
        "server.requests": stats.get("requests", 0),
        "server.non200": sum(v for k, v in statuses.items() if k != "200"),
        "trace.overhead_ratio": traced_p50 / base_p50 - 1.0,
    }
