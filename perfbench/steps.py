"""The two training workloads: ``snapshot-online`` and ``stream-flush``.

A run repeats *passes* until ``--seconds`` have elapsed and the workload's
minimum sample count is reached. A pass replays the whole generated input
through a freshly built engine, so every pass does the same work under
the same seed: per-pass counts must repeat exactly, and the final
embeddings of every pass (traced or not) must be bit-identical.

With ``--trace 1`` passes alternate between untraced and traced; the
traced ones run with :func:`spans.install_engine_wrappers` installed and
give the per-layer metrics, the untraced ones the base of
``trace.overhead_ratio``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from common import (
    LONG_OPERATION_CHUNKS,
    WORK_DIR,
    Calibration,
    finite_rows_cover,
    median,
    normalised,
    note,
    peak_rss_mb,
    percentile,
    tail_report,
)
from spans import (
    Tracer,
    accounting,
    descendants_of,
    install_engine_wrappers,
    layer_totals,
)

# Inputs. Both are sized so that one pass takes a few seconds on a 2-core
# host and the layer each workload was chosen for dominates its steps.
# dblp-sim grows by 40 x scale nodes a snapshot, so scale 0.5 and 11
# snapshots go from about 85 to 285 nodes. At scale 0.25 (about 64 nodes
# at t=0) SGNS training collapses on about one engine seed in five (see
# README.md); :data:`SNAPSHOT_QUALITY_FLOOR` reports such a run as failed.
SNAPSHOT_DATA = dict(name="dblp-sim", scale=0.5, snapshots=11)
SNAPSHOT_MODEL = dict(
    dim=64, alpha=0.1, num_walks=10, walk_length=20, window_size=5,
    epochs=1, workers=2,
)
SNAPSHOT_TAIL = 75.0        # 10 online steps a pass, at least four passes
SNAPSHOT_MIN_SAMPLES = 40
#: The final Z^t of a healthy engine scores MeanP@10 0.87-0.91 here; the
#: collapsed engines of the smaller graph ended at 0.54-0.83. Below the
#: floor, the final step of every pass counts as failed.
SNAPSHOT_QUALITY_FLOOR = 0.8

STREAM_DATA = dict(
    num_nodes=400, num_steps=40, num_communities=8, events_per_step=120,
    growth_per_step=5, active_fraction=0.3,
)
STREAM_MODEL = dict(
    dim=32, alpha=0.05, num_walks=2, walk_length=10, window_size=4,
    epochs=1, workers=1,
)
STREAM_FLUSH_EVENTS = 80
STREAM_TAIL = 90.0          # at least 100 online flushes a run
STREAM_MIN_SAMPLES = 100

#: Set-up is timed in batches of the workload's ``setup_batch`` set-ups
#: (a batch lasts 250-350 ms): SETUP_SAMPLES batches before the first
#: pass and one before every later pass, so that they spread over the run
#: as the step timings do. A first, untimed set-up imports the program.
SETUP_SAMPLES = 5
#: A pass has one offline step (snapshot-online's 2-s t=0 step, or
#: stream-flush's 80-ms first flush), and one sample of a step that long
#: is far from the host's mean speed, so every untraced pass is preceded
#: by this many more offline steps of fresh engines.
SNAPSHOT_OFFLINE_EXTRA = 1
STREAM_OFFLINE_EXTRA = 5
PRECISION_K = 10


@dataclass
class Step:
    """One engine step: the offline t=0 step or an online step/flush.

    ``wall`` and ``visible`` are raw seconds; ``norm`` and
    ``norm_visible`` the same at reference speed (see
    :class:`common.Calibration`), set when the pass ends.
    """

    offline: bool
    wall: float
    visible: float
    pairs: int
    stages: dict[str, float]
    norm: float = 0.0
    norm_visible: float = 0.0


@dataclass
class Pass:
    """Everything one replay of the input produced."""

    wall: float = 0.0
    steps: list[Step] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    events: int = 0
    final_nodes: list = field(default_factory=list)
    final_matrix: np.ndarray | None = None
    final_graph: object = None
    tracer: Tracer | None = None
    #: Speed factors of the calibration chunks: one before every step
    #: (for a stream, before the window of every flush) and one at the end.
    factors: list[float] = field(default_factory=list)

    def normalise(self) -> None:
        """Put every step that lies between two chunks at reference speed."""
        for step, before, after in zip(self.steps, self.factors, self.factors[1:]):
            step.norm = normalised(step.wall, before, after)
            step.norm_visible = normalised(step.visible, before, after)

    @property
    def online(self) -> list[Step]:
        return [step for step in self.steps if not step.offline]


# ----------------------------------------------------------------------
# inputs and passes
# ----------------------------------------------------------------------

def snapshot_setup(seed: int):
    """Generate the snapshot sequence and build (then drop) one engine."""
    from repro import GloDyNE, load_dataset

    network = load_dataset(
        SNAPSHOT_DATA["name"], scale=SNAPSHOT_DATA["scale"], seed=seed,
        snapshots=SNAPSHOT_DATA["snapshots"],
    )
    GloDyNE(seed=seed, **SNAPSHOT_MODEL)
    return list(network)


def snapshot_pass(snapshots, seed: int, calibration: Calibration) -> Pass:
    """Offline step on the first snapshot, then one online step each."""
    from repro import GloDyNE

    result = Pass()
    model = GloDyNE(seed=seed, **SNAPSHOT_MODEL)
    started = time.perf_counter()
    for snapshot in snapshots:
        result.attempted += 1
        result.factors.append(calibration.chunk(LONG_OPERATION_CHUNKS))
        step_started = time.perf_counter()
        try:
            model.update(snapshot)
        except Exception as error:  # a failing step is counted, not fatal
            note(f"FAIL step t={model.time_step}: {type(error).__name__}: {error}")
            result.failed += 1
            break
        wall = time.perf_counter() - step_started
        nodes, matrix = model.last_embedding
        if not finite_rows_cover(nodes, matrix, snapshot.nodes()):
            note(f"FAIL step t={model.time_step - 1}: Z^t incomplete or non-finite")
            result.failed += 1
        trace = model.last_trace
        result.steps.append(Step(
            offline=not result.steps, wall=wall, visible=wall,
            pairs=trace.num_pairs, stages=dict(trace.stage_seconds),
        ))
        result.final_nodes, result.final_matrix = list(nodes), matrix
        result.final_graph = snapshot
    result.factors.append(calibration.chunk(LONG_OPERATION_CHUNKS))
    result.wall = time.perf_counter() - started
    result.normalise()
    return result


def snapshot_offline(snapshots, seed: int, calibration: Calibration):
    """``(raw, normalised)`` seconds of a fresh engine's t=0 step.

    ``None`` when the step raises: the pass that follows counts that
    failure, and a failed step is not timed.
    """
    from repro import GloDyNE

    model = GloDyNE(seed=seed, **SNAPSHOT_MODEL)
    try:
        _, raw, norm = calibration.timed(lambda: model.update(snapshots[0]))
    except Exception:
        return None
    return raw, norm


def stream_setup(seed: int):
    """Generate the event stream and build (then drop) one engine + store."""
    from repro import EmbeddingStore, FlushPolicy, StreamingGloDyNE
    from repro.datasets import interaction_stream

    events = interaction_stream(seed=seed, **STREAM_DATA)
    StreamingGloDyNE(
        seed=seed, policy=FlushPolicy(max_events=STREAM_FLUSH_EVENTS),
        publish_to=EmbeddingStore(), **STREAM_MODEL,
    )
    return events


def stream_offline(events, seed: int, calibration: Calibration):
    """``(raw, normalised)`` seconds of a fresh engine's first flush.

    ``None`` when the flush raises: the pass that follows counts that
    failure, and a failed flush is not timed.
    """
    from repro import EmbeddingStore, FlushPolicy, StreamingGloDyNE

    engine = StreamingGloDyNE(
        seed=seed, policy=FlushPolicy(max_events=STREAM_FLUSH_EVENTS),
        publish_to=EmbeddingStore(), **STREAM_MODEL,
    )
    before = calibration.chunk()
    for event in events:
        started = time.perf_counter()
        try:
            flush = engine.ingest(event)
        except Exception:
            return None
        if flush is not None:
            raw = time.perf_counter() - started
            return raw, normalised(raw, before, calibration.chunk())
    return None


def stream_pass(events, seed: int, calibration: Calibration) -> Pass:
    """Ingest every event; event-count flushes plus one final manual flush.

    A flush's latency is the wall time of the ingest call that triggered
    it (the event's apply, the flush and the store publish). Its
    visibility delay runs from the ingest of the window's first event to
    the end of that call. A calibration chunk runs before every window
    opens, outside both times.
    """
    from repro import EmbeddingStore, FlushPolicy, StreamingGloDyNE

    result = Pass()
    store = EmbeddingStore()
    engine = StreamingGloDyNE(
        seed=seed, policy=FlushPolicy(max_events=STREAM_FLUSH_EVENTS),
        publish_to=store, **STREAM_MODEL,
    )
    window_opened = 0.0

    def record(call_started: float, flush) -> None:
        end = time.perf_counter()
        nodes, matrix = engine.model.last_embedding
        if not finite_rows_cover(nodes, matrix, engine.state.graph.nodes()):
            note(f"FAIL flush {flush.time_step}: Z^t incomplete or non-finite")
            result.failed += 1
        result.steps.append(Step(
            offline=not result.steps, wall=end - call_started,
            visible=end - window_opened, pairs=flush.trace.num_pairs,
            stages=dict(flush.trace.stage_seconds),
        ))
        result.final_nodes, result.final_matrix = list(nodes), matrix

    started = time.perf_counter()
    try:
        for event in events:
            if engine.pending_events == 0:
                result.factors.append(calibration.chunk())
                window_opened = time.perf_counter()
            call_started = time.perf_counter()
            flush = engine.ingest(event)
            result.events += 1
            if flush is not None:
                result.attempted += 1
                record(call_started, flush)
        if engine.pending_events:
            call_started = time.perf_counter()
            result.attempted += 1
            record(call_started, engine.flush())
    except Exception as error:  # a failing flush is counted, not fatal
        note(f"FAIL at event {result.events}: {type(error).__name__}: {error}")
        result.attempted += 1
        result.failed += 1
    result.factors.append(calibration.chunk())
    result.wall = time.perf_counter() - started
    result.normalise()
    if store.num_versions != len(result.steps):
        note(f"FAIL store holds {store.num_versions} versions for "
             f"{len(result.steps)} flushes")
        result.failed += 1
    result.final_graph = engine.state.graph
    return result


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------

WORKLOADS = {
    "snapshot-online": dict(
        setup=snapshot_setup, run_pass=snapshot_pass, root="core.update",
        tail=SNAPSHOT_TAIL, min_samples=SNAPSHOT_MIN_SAMPLES, setup_batch=24,
        offline_once=snapshot_offline, offline_extra=SNAPSHOT_OFFLINE_EXTRA,
        quality_floor=SNAPSHOT_QUALITY_FLOOR,
        dim=SNAPSHOT_MODEL["dim"], epochs=SNAPSHOT_MODEL["epochs"],
    ),
    "stream-flush": dict(
        setup=stream_setup, run_pass=stream_pass, root="streaming.flush",
        tail=STREAM_TAIL, min_samples=STREAM_MIN_SAMPLES, setup_batch=4,
        offline_once=stream_offline, offline_extra=STREAM_OFFLINE_EXTRA,
        # A flush trains on a few short walks, so its Z^t scores far below
        # a snapshot step's; no floor.
        quality_floor=0.0,
        dim=STREAM_MODEL["dim"], epochs=STREAM_MODEL["epochs"],
    ),
}


def run(workload: str, seed: int, seconds: float, traced: bool, units: dict):
    """Run one workload; returns ``(correct, attempted, failed, metrics)``.

    ``metrics`` maps metric name to value: the end-to-end set when
    ``traced`` is false, the per-layer set otherwise. ``units`` maps
    every declared metric to its unit (counts must repeat exactly).
    """
    spec = WORKLOADS[workload]
    setup_times = []     # (raw, normalised) seconds per set-up
    extra_offline = []   # (raw, normalised) seconds per extra offline step

    def set_up():
        def batch():
            for _ in range(spec["setup_batch"]):
                made = spec["setup"](seed)
            return made

        inputs, raw, norm = calibration.timed(batch)
        setup_times.append((raw / spec["setup_batch"], norm / spec["setup_batch"]))
        return inputs

    spec["setup"](seed)
    calibration = Calibration()
    for _ in range(SETUP_SAMPLES - 1):
        set_up()

    passes: list[Pass] = []
    started = time.perf_counter()
    while True:
        inputs = set_up()
        if not traced:
            for _ in range(spec["offline_extra"]):
                timed = spec["offline_once"](inputs, seed, calibration)
                if timed is not None:
                    extra_offline.append(timed)
        trace_this = traced and len(passes) % 2 == 1
        tracer = None
        if trace_this:
            tracer = Tracer()
            tracer.run_id = f"{workload}-seed{seed}-pass{len(passes)}"
            install_engine_wrappers(tracer)
        try:
            result = spec["run_pass"](inputs, seed, calibration)
        finally:
            if tracer is not None:
                tracer.unwrap_all()
        result.tracer = tracer
        passes.append(result)
        # Stop before a pass that would end past the budget, unless the
        # samples the tail percentile needs (or, traced, an even number
        # of passes with at least one of each kind) are still missing.
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) <= seconds:
            continue
        if traced:
            if len(passes) % 2 == 0:
                break
        elif sum(len(p.online) for p in passes) >= spec["min_samples"]:
            break

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = check_determinism(passes)
    first = passes[0]
    final_p_at_10 = mean_p_at_10(
        first.final_nodes, first.final_matrix, first.final_graph
    )
    if final_p_at_10 < spec["quality_floor"]:
        # Every pass ends with this Z^t (checked above), so every pass's
        # final step failed.
        note(f"FAIL final Z^t MeanP@10 {final_p_at_10:.4f} < "
             f"{spec['quality_floor']}: SGNS training collapsed")
        failed += len(passes)
    if traced:
        correct_layers, metrics = per_layer(workload, spec, passes, units)
        return correct and correct_layers, attempted, failed, metrics
    return correct, attempted, failed, end_to_end(
        workload, spec, passes, setup_times, attempted, failed, final_p_at_10,
        extra_offline, calibration,
    )


def check_determinism(passes: list[Pass]) -> bool:
    """Every pass, traced or not, must end with bit-identical Z^t."""
    first = passes[0]
    for other in passes[1:]:
        if other.final_nodes != first.final_nodes or not np.array_equal(
            other.final_matrix, first.final_matrix
        ):
            note("FAIL passes under one seed ended with different embeddings")
            return False
    return True


def mean_p_at_10(nodes, matrix, graph) -> float:
    """Graph-reconstruction MeanP@10 of one Z^t on the graph it embeds."""
    from repro.tasks.graph_reconstruction import mean_precision_at_k

    embeddings = dict(zip(nodes, matrix))
    return mean_precision_at_k(embeddings, graph, [PRECISION_K])[PRECISION_K]


def end_to_end(workload, spec, passes, setup_times, attempted, failed,
               final_p_at_10, extra_offline, calibration):
    """The end-to-end metric set, plus the workload's named figures.

    Every timing is at reference speed (see :class:`common.Calibration`);
    the human-readable lines give the raw figure beside it.
    """
    online = [step for p in passes for step in p.online]
    offline = [
        (step.wall, step.norm) for p in passes for step in p.steps
        if step.offline
    ] + extra_offline
    offline_s = median([norm for _, norm in offline])
    setup_s = median([norm for _, norm in setup_times])
    steps_ms = [step.norm * 1e3 for step in online]
    raw_ms = [step.wall * 1e3 for step in online]
    visible_ms = [step.norm_visible * 1e3 for step in online]
    tail = spec["tail"]
    if workload == "snapshot-online":
        # Pairs trained per second of online step time.
        rate = sum(s.pairs for s in online) * spec["epochs"] / sum(
            s.norm for s in online
        )
        online_s = median([sum(s.norm for s in p.online) for p in passes])
        note(f"snapshot-online: {len(passes)} passes, online step ms "
             f"{tail_report(steps_ms, tail)}")
        note(f"  offline_s {offline_s:.4f} s | online_s {online_s:.4f} s"
             f" per pass | online_pairs_per_s {rate:.1f} 1/s")
    else:
        # Events per second of window time (first event to flush end).
        rate = sum(p.events for p in passes) / sum(
            s.norm_visible for p in passes for s in p.steps
        )
        note(f"stream-flush: {len(passes)} passes, {len(steps_ms)} online "
             f"flushes, flush ms {tail_report(steps_ms, tail)}")
        note(f"  flush_ms_p50 {median(steps_ms):.3f} ms | flush_ms_p90 "
             f"{percentile(steps_ms, tail):.3f} ms | events_per_s "
             f"{rate:.1f} 1/s | offline_s {offline_s:.4f} s (n={len(offline)})")
    failed_ratio = failed / max(attempted, 1)
    note(f"  mean_p_at_10 {final_p_at_10:.4f} | failed_ratio {failed_ratio:.4f} "
         f"({failed}/{attempted}) | setup_s {setup_s:.4f} s")
    note(f"  raw: step ms p50 {median(raw_ms):.3f} | offline_s "
         f"{median([raw for raw, _ in offline]):.4f} | setup_s "
         f"{median([raw for raw, _ in setup_times]):.4f} | host speed factor "
         f"p50 {median(calibration.factors):.3f} over "
         f"{len(calibration.factors)} chunks")
    return {
        "setup_s": setup_s,
        "ok_ratio": 1.0 - failed_ratio,
        "peak_rss_mb": peak_rss_mb(),
        "op_ms_p50": median(steps_ms),
        "op_ms_tail": percentile(steps_ms, tail),
        "rate_per_s": rate,
        "quality": final_p_at_10,
        "offline_s": offline_s,
        "visible_ms_p50": median(visible_ms),
    }


def per_layer(workload, spec, passes, units):
    """Per-layer metrics of the traced passes (per pass, online steps).

    Counts come from the first traced pass and must repeat exactly in
    every other traced pass; times are the mean over traced passes.
    Returns ``(checks passed, metrics)``.
    """
    traced = [p for p in passes if p.tracer is not None]
    untraced = [p for p in passes if p.tracer is None]
    rows = [pass_layers(p, spec) for p in traced]
    metrics = {}
    ok = True
    for name in rows[0]:
        values = [row[name] for row in rows]
        if units[name] == "count":
            if any(value != values[0] for value in values):
                note(f"FAIL count {name} differs between passes: {values}")
                ok = False
            metrics[name] = values[0]
        else:
            metrics[name] = sum(values) / len(values)
    overhead = (
        sum(p.wall for p in traced) / len(traced)
    ) / (sum(p.wall for p in untraced) / len(untraced)) - 1.0
    metrics["trace.overhead_ratio"] = overhead
    explained = metrics["trace.explained_ratio"]
    note(f"{workload}: accounting: layer self times explain "
         f"{explained:.2%} of traced online step wall time "
         f"(residual {metrics['trace.residual_s']:.4f} s per pass)")
    if explained < 0.95:
        note("FAIL accounting: layers explain less than 95% of step time")
        ok = False
    # Each workload must stress the layer it was chosen for.
    step_s = sum(sum(s.wall for s in p.online) for p in traced) / len(traced)
    train_share = metrics["pipeline.train_s"] / step_s
    note(f"  stress: pipeline.train_s {metrics['pipeline.train_s']:.3f} s = "
         f"{train_share:.1%} of online step time; "
         f"partition.full_s {metrics['partition.full_s']:.3f} s vs "
         f"sgns.step_s {metrics['sgns.step_s']:.3f} s")
    if workload == "snapshot-online" and train_share < 0.95:
        note("FAIL stress: pipeline.train_s is under 95% of online step time")
        ok = False
    if workload == "stream-flush" and not (
        metrics["partition.full_s"] > metrics["sgns.step_s"]
    ):
        note("FAIL stress: partition.full_s does not exceed sgns.step_s")
        ok = False
    for p in traced:
        p.tracer.dump(WORK_DIR / f"trace-{p.tracer.run_id}.jsonl")
    return ok, metrics


def pass_layers(result: Pass, spec) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    from repro import GloDyNEConfig

    tracer = result.tracer
    spans = tracer.spans
    roots = [
        i for i, span in enumerate(spans)
        if span[0] == spec["root"] and span[3] == -1
    ]
    online_roots = set(roots[1:])
    totals = layer_totals(spans, descendants_of(spans, online_roots))
    everywhere = layer_totals(spans, range(len(spans)))

    def total(name, key="total_s", source=totals):
        return source.get(name, {}).get(key, 0)

    online = result.online
    stage_sum: dict[str, float] = {}
    for step in online:
        for stage, seconds in step.stages.items():
            stage_sum[stage] = stage_sum.get(stage, 0.0) + seconds
    wall, explained, residual = accounting(spans, online_roots)
    pairs = sum(step.pairs for step in online) * spec["epochs"]
    dim = spec["dim"]
    negative = GloDyNEConfig().negative
    step_s = total("sgns.step")
    row = {
        f"pipeline.{stage}_s": stage_sum.get(stage, 0.0)
        for stage in ("changes", "partition", "select", "walk", "train", "publish")
    }
    row.update({
        "pipeline.outside_stages_s": sum(s.wall for s in online)
        - sum(stage_sum.values()),
        "sgns.train_calls": total("sgns.train", "calls"),
        "sgns.step_calls": total("sgns.step", "calls"),
        "sgns.pairs": pairs,
        "sgns.step_s": step_s,
        "sgns.noise_sample_s": total("sgns.noise_sample"),
        "sgns.noise_table_s": total("sgns.noise_table"),
        "sgns.trainer_self_s": total("sgns.train", "self_s"),
        "sgns.kernel_pairs_per_s": pairs / step_s if step_s else 0.0,
        "sgns.computed_flops": pairs * (7 * (1 + negative) + 2) * dim,
        "sgns.computed_bytes": pairs * 24 * (2 + negative) * dim,
        "parallel.corpus_s": total("parallel.corpus"),
        "parallel.corpus_pairs": sum(step.pairs for step in online),
        "partition.full_calls": total("partition.full", "calls"),
        "partition.full_s": total("partition.full"),
        "selection.self_s": total("selection.strategy", "self_s"),
        "graph.csr_freeze_s": total("graph.csr_freeze"),
        "graph.copy_s": total("graph.copy"),
        "graph.diff_s": total("graph.diff"),
        "streaming.apply_s": total("streaming.apply", source=everywhere),
        "streaming.events": total("streaming.apply", "calls", everywhere),
        "streaming.flushes": total("streaming.flush", "calls", everywhere),
        "serving.publishes": total("serving.publish", "calls"),
        "serving.publish_s": total("serving.publish"),
        "trace.explained_ratio": explained / wall if wall else 0.0,
        "trace.residual_s": residual,
    })
    return row
