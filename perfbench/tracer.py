"""Span tracer and the layer wrappers the traced run installs.

Spans are kept in memory as ``[name, start, end, parent, op]`` rows and
written once at the end, as Chrome trace-event JSON plus a self-time
table.  Wrappers sit at frame or tile granularity only (a frame's
geometry, a tile's raster pass, a replay, a checkpoint chunk); nothing
per quad or per texture sample is wrapped, so the traced run stays
close to the untraced one.

The wrappers are installed from here, around the program's public entry
points, and the program itself carries no tracing code.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self.op: Optional[int] = None

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        """Whether the innermost open span is called ``name``."""
        return bool(self._stack) and self.spans[self._stack[-1]][NAME] == name

    def call(self, name: str, function: Callable, after=None) -> Callable:
        """``function`` wrapped in a span; ``after(result, args, nested)``
        runs outside the span to update counters."""

        def traced(*args, **kwargs):
            nested = self.inside(name)
            index = self.begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(result, args, nested)
            return result

        return traced

    def iterate(self, name: str, iterator, after=None) -> Iterator:
        """Re-yield ``iterator`` with one span around each ``next``.

        This is how time spent *waiting* for a producer (a tile stream, a
        tile pass) is charged to it rather than to the consumer.
        """
        nested = self.inside(name)
        iterator = iter(iterator)
        try:
            while True:
                index = self.begin(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.end(index)
                if after is not None:
                    after(item, nested)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    # -- readout ----------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds.

        Inclusive time counts only the outermost span of a name, so a
        layer that calls itself (the scalar tile pass) is not charged
        twice; self time is duration minus the direct children.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        table: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(spans):
            name = span[NAME]
            row = table.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            duration = span[END] - span[START]
            row["calls"] += 1
            row["self_s"] += duration - child_time[index]
            parent = span[PARENT]
            if parent < 0 or spans[parent][NAME] != name:
                row["incl_s"] += duration
        return table

    def write_chrome(self, path: str) -> None:
        """Chrome trace-event JSON (load in chrome://tracing or Perfetto)."""
        origin = self.spans[0][START] if self.spans else 0.0
        events = [
            {
                "name": span[NAME],
                "ph": "X",
                "ts": round((span[START] - origin) * 1e6, 3),
                "dur": round((span[END] - span[START]) * 1e6, 3),
                "pid": os.getpid(),
                "tid": 1,
                "args": {"op": span[OP], "parent": span[PARENT]},
            }
            for span in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def self_time_table(totals: Dict[str, Dict[str, float]], wall_s: float) -> str:
    """Plain-text table, largest self time first."""
    lines = [
        f"{'span':<18}{'calls':>9}{'incl_s':>11}{'self_s':>11}{'self_%':>9}",
    ]
    for name, row in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        share = 100.0 * row["self_s"] / wall_s if wall_s else 0.0
        lines.append(
            f"{name:<18}{row['calls']:>9}{row['incl_s']:>11.4f}"
            f"{row['self_s']:>11.4f}{share:>9.2f}"
        )
    return "\n".join(lines) + "\n"


# -- layer wrappers ----------------------------------------------------------------


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


@contextmanager
def layers_traced(tracer: Tracer):
    """Install every layer wrapper for the duration of the block."""
    from repro.core.dtexl import DTexLConfig
    from repro.core.scheduler import QuadScheduler
    from repro.geometry.primitive_assembly import PrimitiveAssembler
    from repro.geometry.vertex_stage import VertexStage
    from repro.power.energy_model import EnergyModel
    from repro.raster.pipeline import RasterPipelineModel
    from repro.raster.rasterizer import Rasterizer
    from repro.sim import checkpoint, driver, stream
    from repro.sim.replay import TraceReplayer
    from repro.tiling.polygon_list_builder import PolygonListBuilder
    from repro.workloads.recipe import SceneRecipe

    counts = tracer.counts
    patches = _Patches()

    def wrap(owner, attr: str, name: str, after=None) -> None:
        patches.set(owner, attr, tracer.call(name, getattr(owner, attr), after))

    def wrap_iter(owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            return tracer.iterate(name, original(*args, **kwargs))

        patches.set(owner, attr, traced)

    # Scene generation (set-up).
    wrap(SceneRecipe, "build", "workloads.build")

    # Pass 1.  A tile pass is per frame, so its tile methods are wrapped
    # on the instance begin_tiles returns.
    def count_tile(entry, nested: bool) -> None:
        if not nested:
            counts["render.quads"] += len(entry.quads)
            counts["render.texture_lines"] += sum(
                len(quad.texture_lines) for quad in entry.quads
            )

    def tile_pass_traced(tile_pass, args, nested) -> None:
        if isinstance(tile_pass, driver._ReferenceTilePass):
            counts["render.scalar_frames"] += 1
        iter_tiles = tile_pass.iter_tiles
        tile_pass.iter_tiles = lambda *a, **k: tracer.iterate(
            "render.tiles", iter_tiles(*a, **k),
            lambda item, n: count_tile(item[1], n),
        )
        tile_pass.render_tile = tracer.call(
            "render.tiles", tile_pass.render_tile,
            lambda entry, a, n: count_tile(entry, n),
        )

    wrap(driver.FrameRenderer, "begin_tiles", "render.frame", tile_pass_traced)
    for owner, attr in (
        (VertexStage, "run_batch"), (VertexStage, "run"),
        (PrimitiveAssembler, "assemble_batch"),
        (driver, "clip_batch"), (driver, "clip_primitive"),
        (driver, "setup_draw_batch"), (driver, "setup_primitive"),
    ):
        wrap(owner, attr, "geometry")
    wrap_iter(PrimitiveAssembler, "assemble", "geometry")
    wrap(PolygonListBuilder, "build_fast", "tiling")
    wrap(PolygonListBuilder, "build", "tiling")
    wrap(Rasterizer, "rasterize_tile_fast", "raster")
    wrap(Rasterizer, "rasterize_tile", "raster")
    wrap(Rasterizer, "finalize_quads_fast", "texture")

    # Pass 2.
    def count_run(result, args, nested) -> None:
        counts["replay.quads"] += result.total_quads
        counts["memory.l1_accesses"] += result.l1_accesses
        counts["memory.l1_misses"] += result.l1_misses
        counts["memory.l2_accesses"] += result.l2_accesses
        counts["memory.l2_misses"] += result.l2_misses
        counts["memory.dram_accesses"] += result.dram_accesses

    wrap(TraceReplayer, "run_stream", "replay", count_run)
    wrap(DTexLConfig, "build_scheduler", "core.lut")
    wrap(QuadScheduler, "core_lut", "core.lut")
    wrap(RasterPipelineModel, "simulate", "pipeline")
    wrap(EnergyModel, "frame_energy", "energy")

    # The stream seam: time the consumer waits for each TileWorkUnit.
    def stream_iter(cls):
        original = cls.__iter__

        def traced(self):
            yield from tracer.iterate("stream.wait", original(self))
            counts["stream.tiles_rendered"] += getattr(self, "tiles_rendered", 0)

        patches.set(cls, "__iter__", traced)

    stream_iter(stream.BatchTileStream)
    stream_iter(stream.StreamingTileStream)

    # Checkpoints and the sweep journal.
    def count_save_tile(digest, args, nested) -> None:
        store, tile = args[0], args[1]
        counts["checkpoint.saves"] += 1
        counts["checkpoint.bytes_written"] += os.path.getsize(store.chunk_path(tile))

    def count_save_trace(path, args, nested) -> None:
        counts["checkpoint.saves"] += 1
        counts["checkpoint.bytes_written"] += os.path.getsize(path)

    def count_load_tile(loaded, args, nested) -> None:
        counts["checkpoint.loads"] += 1
        if loaded is not None:
            counts["checkpoint.verified_loads"] += 1
            counts["stream.tiles_loaded"] += 1

    def count_load_trace(trace, args, nested) -> None:
        counts["checkpoint.loads"] += 1
        counts["checkpoint.verified_loads"] += 1  # load raises when unverified

    wrap(checkpoint.TileChunkStore, "save_tile", "checkpoint.save", count_save_tile)
    wrap(checkpoint.TileChunkStore, "load_tile", "checkpoint.load", count_load_tile)
    wrap(checkpoint.TraceCheckpointStore, "save", "checkpoint.save", count_save_trace)
    wrap(checkpoint.TraceCheckpointStore, "load", "checkpoint.load", count_load_trace)

    def count_row(result, args, nested) -> None:
        counts["sweep.rows"] += 1

    wrap(checkpoint.SweepProgress, "record", "sweep.journal", count_row)
    try:
        yield tracer
    finally:
        patches.undo()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced pass.

    A failed ``TraceCheckpointStore.load`` raises, so its span exists
    without a verified count; that is how ``checkpoint.hit_ratio`` sees
    it as a miss.
    """
    totals = tracer.totals()
    counts = tracer.counts

    def incl(name: str) -> float:
        return totals.get(name, {}).get("incl_s", 0.0)

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    render_s = incl("render.frame") + incl("render.tiles")
    replay_s = self_s("replay")
    loads = totals.get("checkpoint.load", {}).get("calls", 0)
    return {
        "workloads.build_s": incl("workloads.build"),
        "render.frame_s": incl("render.frame"),
        "geometry.s": incl("geometry"),
        "tiling.s": incl("tiling"),
        "render.tiles_s": incl("render.tiles"),
        "raster.s": incl("raster"),
        "texture.s": incl("texture"),
        "render.scalar_frames": counts["render.scalar_frames"],
        "render.quads": counts["render.quads"],
        "render.texture_lines": counts["render.texture_lines"],
        "render.ns_per_quad": 1e9 * _ratio(render_s, counts["render.quads"]),
        "replay.s": replay_s,
        "replay.ns_per_line": 1e9 * _ratio(replay_s, counts["memory.l1_accesses"]),
        "replay.quads": counts["replay.quads"],
        "replay.texture_lines": counts["memory.l1_accesses"],
        "core.lut_s": incl("core.lut"),
        "pipeline.s": incl("pipeline"),
        "energy.s": incl("energy"),
        "memory.l1_accesses": counts["memory.l1_accesses"],
        "memory.l1_hit_ratio": 1.0 - _ratio(
            counts["memory.l1_misses"], counts["memory.l1_accesses"]),
        "memory.l2_accesses": counts["memory.l2_accesses"],
        "memory.l2_hit_ratio": 1.0 - _ratio(
            counts["memory.l2_misses"], counts["memory.l2_accesses"]),
        "memory.dram_accesses": counts["memory.dram_accesses"],
        "stream.wait_s": incl("stream.wait"),
        "stream.tiles_rendered": counts["stream.tiles_rendered"],
        "stream.tiles_loaded": counts["stream.tiles_loaded"],
        "checkpoint.save_s": incl("checkpoint.save"),
        "checkpoint.load_s": incl("checkpoint.load"),
        "checkpoint.saves": counts["checkpoint.saves"],
        "checkpoint.loads": loads,
        "checkpoint.bytes_written": counts["checkpoint.bytes_written"],
        "checkpoint.hit_ratio": _ratio(counts["checkpoint.verified_loads"], loads),
        "sweep.journal_s": incl("sweep.journal"),
        "sweep.rows": counts["sweep.rows"],
    }
