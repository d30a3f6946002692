"""Outside-in tracing: spans recorded around calls into each layer.

Nothing under ``src/`` knows about this module. :class:`Tracer` replaces
public functions of the ``repro`` package with timing wrappers for the
duration of a traced pass and restores the originals afterwards, so
untraced passes run the unmodified program.

A span is ``(name, start, end, parent, run_id, value)``: ``parent`` is the index
of the innermost synchronous span open when the call started (``-1`` at
the top level). Coroutine wrappers never become parents, because other
tasks interleave with them on the event loop. ``value`` is an optional
number taken from the call's result (rows a refresh re-indexed). Spans
stay in memory and
are written as JSON lines by :meth:`Tracer.dump` when the run ends.

A span's *self time* is its duration minus the part of its interval its
child spans cover. The layer of a span is the text before the first dot
of its name (``sgns.step`` belongs to ``sgns``).
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

#: Layers whose self time counts as explained step time in the accounting
#: check. ``core.update`` (the engine's own glue around the pipeline) and
#: the step root itself are the residual.
EXPLAINING_LAYERS = (
    "pipeline", "sgns", "parallel", "partition", "selection", "graph",
    "streaming", "serving",
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def open(self, name: str) -> int:
        """Start a synchronous span nested in the innermost open one."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            [name, time.perf_counter(), 0.0, parent, self.run_id, None]
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        """End the span ``open`` returned (must be the innermost)."""
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, value=None) -> None:
        """Record a finished span that has no parent (coroutines)."""
        self.spans.append([name, start, end, -1, self.run_id, value])

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, value_of=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``owner`` is a module, a class or a dict (a registry such as the
        selection strategy table). Class-, static- and coroutine
        functions keep their kind. ``value_of(result)``, when given,
        becomes the span's value.
        """
        original = self._get(owner, attr)
        kind = type(original) if isinstance(
            original, (classmethod, staticmethod)
        ) else None
        function = original.__func__ if kind else original
        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def wrapper(*args, **kwargs):
                started = time.perf_counter()
                try:
                    return await function(*args, **kwargs)
                finally:
                    self.add(name, started, time.perf_counter())
        else:
            @functools.wraps(function)
            def wrapper(*args, **kwargs):
                index = self.open(name)
                try:
                    result = function(*args, **kwargs)
                finally:
                    self.close(index)
                if value_of is not None:
                    self.spans[index][5] = value_of(result)
                return result
        self.patch(owner, attr, kind(wrapper) if kind else wrapper)

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` until :meth:`unwrap_all`."""
        self._patches.append((owner, attr, self._get(owner, attr)))
        self._set(owner, attr, replacement)

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            self._set(owner, attr, original)

    @staticmethod
    def _get(owner, attr: str):
        if isinstance(owner, dict):
            return owner[attr]
        if isinstance(owner, type):
            return inspect.getattr_static(owner, attr)
        return getattr(owner, attr)

    @staticmethod
    def _set(owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (the run's trace file)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, run_id, value in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "run": run_id, "value": value}
                ) + "\n")


def install_engine_wrappers(tracer: Tracer) -> None:
    """Wrap the public entry points of the training-side layers."""
    from repro.core import glodyne, selection
    from repro.graph import csr, static
    from repro.pipeline import stages
    from repro.serving import store
    from repro.sgns import kernels, trainer
    from repro.streaming import engine, state
    from repro.walks import alias

    tracer.wrap(glodyne.GloDyNE, "update", "core.update")
    for stage in (
        stages.ChangeScoreStage, stages.PartitionStage, stages.SelectionStage,
        stages.WalkCorpusStage, stages.TrainStage, stages.PublishStage,
    ):
        tracer.wrap(stage, "run", f"pipeline.{stage.name}")
    tracer.wrap(stages, "train_on_corpus", "sgns.train")
    tracer.wrap(stages, "generate_corpus", "parallel.corpus")
    tracer.wrap(stages, "diff_snapshots", "graph.diff")
    tracer.wrap(stages, "weighted_node_changes", "graph.diff")
    # The trainer resolves its kernel through resolve_backend, which reads
    # this module global at call time: wrapping it wraps the resolved step.
    tracer.wrap(kernels, "sgns_step_numpy", "sgns.step")
    tracer.wrap(trainer, "build_noise_table", "sgns.noise_table")
    tracer.wrap(alias.AliasTable, "sample", "sgns.noise_sample")
    tracer.wrap(selection, "partition_graph", "partition.full")
    # Engines look their strategy up once, at construction, so traced
    # passes must build their engines after this call.
    for strategy in ("s4", "s4-uniform"):
        tracer.wrap(selection.STRATEGIES, strategy, "selection.strategy")
    tracer.wrap(csr.CSRAdjacency, "from_graph", "graph.csr_freeze")
    tracer.wrap(state.IncrementalCSR, "to_csr", "graph.csr_freeze")
    tracer.wrap(static.Graph, "copy", "graph.copy")
    tracer.wrap(state.IncrementalGraphState, "apply", "streaming.apply")
    tracer.wrap(
        state.IncrementalGraphState, "window_node_changes", "streaming.changes"
    )
    tracer.wrap(
        state.IncrementalGraphState, "window_touched_nodes", "streaming.changes"
    )
    tracer.wrap(state.IncrementalGraphState, "reset_window", "streaming.window")
    tracer.wrap(engine.StreamingGloDyNE, "_flush", "streaming.flush")
    tracer.wrap(store.EmbeddingStore, "publish", "serving.publish")


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Per-span duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (_, start, end, *_) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append((end - start) - covered)
    return result


def descendants_of(spans: list[list], roots: set[int]) -> list[int]:
    """Indices of every span below one of ``roots`` (roots excluded).

    Relies on children being recorded after their parent, which holds
    for spans opened on a stack.
    """
    inside = set(roots)
    found = []
    for index, span in enumerate(spans):
        if span[3] in inside:
            inside.add(index)
            found.append(index)
    return found


def layer_totals(spans: list[list], indices) -> dict[str, dict[str, float]]:
    """``{span name: {calls, total_s, self_s}}`` over the given spans."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for index in indices:
        name, start, end, *_ = spans[index]
        entry = totals[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += own[index]
    return dict(totals)


def accounting(spans: list[list], roots: set[int]) -> tuple[float, float, float]:
    """``(step wall s, explained s, residual s)`` over the step roots.

    Explained time is the self time of every span below a root whose
    layer is in :data:`EXPLAINING_LAYERS`; the residual is the rest of
    the roots' wall time (the roots' own self time and engine glue).
    """
    own = self_times(spans)
    wall = sum(spans[i][2] - spans[i][1] for i in roots)
    explained = sum(
        own[i] for i in descendants_of(spans, roots)
        if spans[i][0].split(".", 1)[0] in EXPLAINING_LAYERS
    )
    return wall, explained, wall - explained
