"""Pass 2: replay a frame trace under one DTexL design point.

The replay walks the tiles in the design point's tile order, maps every
quad to a shader core through the quad scheduler, drives the texture
accesses through the private-L1/shared-L2 hierarchy, and feeds the
resulting per-subtile costs to the coupled or decoupled pipeline timing
model and the energy model.

Two engines produce bit-identical :class:`RunResult` records:

* ``"fast"`` (default) — array replay of groups of
  :data:`~repro.sim.driver.DEFAULT_GROUP_TILES` tiles: the tiles' replay
  views (:meth:`~repro.sim.driver.TileTraceEntry.replay_view`, derived
  from the trace's quad columns) go to cores by
  :meth:`~repro.core.scheduler.QuadScheduler.core_lut`, one
  :meth:`~repro.memory.hierarchy.MemoryHierarchy.replay_group` call
  runs every line through the exact LRU kernel, and ``np.bincount``
  sums quads, issue cycles and stalls per subtile.  Cache state carries
  from group to group, so grouping changes nothing.
* ``"reference"`` — the original per-line loop over each tile's
  :class:`~repro.raster.fragment.Quad` records and scalar
  ``texture_access`` calls on the ``OrderedDict`` cache backend, kept
  as the executable specification for differential tests.

Each engine needs a hierarchy of its own backend built for the design
point's GPU config; a caller's warm hierarchy is checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.config import GPUConfig
from repro.core.dtexl import DTexLConfig
from repro.errors import ConfigError
from repro.memory.hierarchy import MemoryHierarchy

#: Replay engine names accepted by :class:`TraceReplayer`.
ENGINES = ("fast", "reference")
from repro.power.energy_model import EnergyBreakdown, EnergyModel, EnergyParams
from repro.raster.pipeline import (
    FrameTiming,
    RasterPipelineModel,
    SubtileWork,
    TileWork,
)
from repro.sim.driver import DEFAULT_GROUP_TILES, FrameTrace
from repro.sim.resilience import ReplayBudget
from repro.sim.stream import BatchTileStream, TileWorkUnit  # noqa: F401 — re-exported for replay callers


@dataclass
class RunResult:
    """Everything the experiments read out of one replay."""

    design_point: str
    l2_accesses: int
    l2_misses: int
    dram_accesses: int
    l1_accesses: int
    l1_misses: int
    vertex_accesses: int
    tile_accesses: int
    total_quads: int
    timing: FrameTiming
    energy: EnergyBreakdown
    #: Per traversal step, quads executed per SC (Figs 1, 12, 15).
    per_tile_quad_counts: List[List[int]]
    l1_replication_factor: float = 1.0
    #: 64-byte lines streamed to the Frame Buffer by Color-Buffer flushes.
    framebuffer_write_lines: int = 0

    @property
    def frame_cycles(self) -> int:
        return self.timing.total_cycles

    def fps(self, frequency_mhz: int) -> float:
        return self.timing.fps(frequency_mhz)

    @property
    def l1_miss_rate(self) -> float:
        return self.l1_misses / self.l1_accesses if self.l1_accesses else 0.0


@dataclass(frozen=True)
class _CounterSnapshot:
    """Hierarchy counters at one instant, for per-frame deltas."""

    l2_accesses: int
    l2_misses: int
    dram_accesses: int
    l1_accesses: int
    l1_misses: int
    vertex_accesses: int
    tile_accesses: int

    @staticmethod
    def of(hierarchy: MemoryHierarchy) -> "_CounterSnapshot":
        l1 = hierarchy.texture_l1_stats()
        return _CounterSnapshot(
            l2_accesses=hierarchy.l2_accesses,
            l2_misses=hierarchy.l2_misses,
            dram_accesses=hierarchy.dram_accesses,
            l1_accesses=l1.accesses,
            l1_misses=l1.misses,
            vertex_accesses=hierarchy.vertex_cache.stats.accesses,
            tile_accesses=hierarchy.tile_cache.stats.accesses,
        )


class TraceReplayer:
    """Replays traces under arbitrary design points."""

    def __init__(
        self,
        config: GPUConfig,
        energy_params: Optional[EnergyParams] = None,
        budget: Optional[ReplayBudget] = None,
        engine: str = "fast",
    ):
        if engine not in ENGINES:
            raise ConfigError(
                f"unknown replay engine {engine!r}; "
                f"choose from {', '.join(ENGINES)}"
            )
        self.config = config
        self.energy_model = EnergyModel(energy_params or EnergyParams())
        #: Optional work ceiling; a replay that exceeds it raises
        #: :class:`~repro.errors.BudgetExceededError` instead of running on.
        self.budget = budget or ReplayBudget()
        self.engine = engine

    def run(
        self,
        trace: FrameTrace,
        design: DTexLConfig,
        hierarchy: Optional[MemoryHierarchy] = None,
    ) -> RunResult:
        """Replay ``trace`` under ``design``; returns the full result.

        Passing an existing ``hierarchy`` replays the frame against warm
        caches (multi-frame animation); all reported counters are deltas
        for this frame only.

        A thin wrapper over :meth:`run_stream` with the batch driver —
        the materialized trace is just one way of feeding the tile
        stream, kept as the executable specification the streaming
        drivers are differential-tested against.
        """
        return self.run_stream(
            BatchTileStream(trace), design, hierarchy=hierarchy
        )

    def run_stream(
        self,
        stream,
        design: DTexLConfig,
        hierarchy: Optional[MemoryHierarchy] = None,
    ) -> RunResult:
        """Replay a tile stream under ``design``; returns the full result.

        ``stream`` is any :mod:`repro.sim.stream` driver; it is opened
        with the design point's tile traversal, so producer and consumer
        walk the same order and the frame counters accumulate per tile
        exactly as the batch walk accumulated them.  The vertex/PB
        prologue rides the first unit, preserving the batch replayer's
        access order bit for bit.
        """
        gpu = design.effective_gpu_config(self.config)
        if hierarchy is None:
            hierarchy = MemoryHierarchy(gpu, backend=self.engine)
        elif hierarchy.config != gpu or hierarchy.backend != self.engine:
            raise ConfigError(
                f"{design.name}: the {self.engine} replay engine needs a "
                f"{self.engine!r} hierarchy built for this design point's "
                f"GPU config; got a {hierarchy.backend!r} hierarchy"
                + ("" if hierarchy.config == gpu else " of another config")
            )
        before = _CounterSnapshot.of(hierarchy)
        # The scheduler always reasons over 4 subtile slots; the
        # upper-bound run folds them onto its single SC below.
        scheduler = design.build_scheduler(self.config)
        side = scheduler.config.quads_per_tile_side

        tile_works: List[TileWork] = []
        total_quads = 0
        fast = self.engine == "fast"
        process = self._group_fast if fast else self._group_reference
        # Hot loop: resolve attribute chains once, not per tile.
        check_quads = self.budget.check_quads
        group: List[TileWorkUnit] = []
        with stream.open(scheduler.tiles) as units:
            for unit in units:
                total_quads += unit.entry.num_quads
                check_quads(total_quads, design.name)
                if fast:
                    unit = unit._replace(entry=unit.entry.replay_view(side))
                group.append(unit)
                if len(group) == DEFAULT_GROUP_TILES:
                    tile_works += process(group, scheduler, hierarchy, gpu)
                    group.clear()
            if group:
                tile_works += process(group, scheduler, hierarchy, gpu)
        per_tile_counts = [
            [sub.num_quads for sub in work.subtiles] for work in tile_works
        ]

        replication = hierarchy.replication_factor()
        pipeline = RasterPipelineModel(gpu, design.decoupled)
        timing = pipeline.simulate(tile_works)
        self.budget.check_cycles(timing.total_cycles, design.name)

        # Every tile's Color Buffer streams to the Frame Buffer once per
        # frame (64 B lines, schedule-independent write traffic).
        tile_bytes = (
            self.config.tile_size ** 2 * self.config.color_bytes_per_pixel
        )
        fb_lines = len(tile_works) * -(-tile_bytes // 64)

        after = _CounterSnapshot.of(hierarchy)
        energy = self.energy_model.frame_energy(
            l1_accesses=after.l1_accesses - before.l1_accesses,
            l2_accesses=after.l2_accesses - before.l2_accesses,
            dram_accesses=after.dram_accesses - before.dram_accesses,
            vertex_accesses=after.vertex_accesses - before.vertex_accesses,
            tile_accesses=after.tile_accesses - before.tile_accesses,
            sc_issue_cycles=sum(timing.sc_issue_cycles),
            quads_processed=total_quads,
            frame_cycles=timing.total_cycles,
            frequency_mhz=gpu.frequency_mhz,
            framebuffer_write_lines=fb_lines,
        )
        return RunResult(
            design_point=design.name,
            l2_accesses=after.l2_accesses - before.l2_accesses,
            l2_misses=after.l2_misses - before.l2_misses,
            dram_accesses=after.dram_accesses - before.dram_accesses,
            l1_accesses=after.l1_accesses - before.l1_accesses,
            l1_misses=after.l1_misses - before.l1_misses,
            vertex_accesses=after.vertex_accesses - before.vertex_accesses,
            tile_accesses=after.tile_accesses - before.tile_accesses,
            total_quads=total_quads,
            timing=timing,
            energy=energy,
            per_tile_quad_counts=per_tile_counts,
            l1_replication_factor=replication,
            framebuffer_write_lines=fb_lines,
        )

    # -- per-group quad processing --------------------------------------------

    @staticmethod
    def _group_fast(group, scheduler, hierarchy, gpu):
        """Units carrying their ``ReplayView`` as entry: route quads to
        cores by LUT, replay every line in one ``replay_group`` call, and
        return the tiles' ``TileWork`` (per-core quads, issue cycles and
        stalls)."""
        n_cores = gpu.num_shader_cores
        views = [unit.entry for unit in group]
        luts = np.array([scheduler.core_lut(u.step, n_cores) for u in group])
        quad_tile = np.repeat(
            np.arange(len(group)), [len(view.slots) for view in views]
        )
        quad_core = luts[quad_tile, np.concatenate([v.slots for v in views])]
        cores = np.repeat(quad_core, np.concatenate([v.counts for v in views]))
        bounds = np.cumsum([0] + [len(view.lines) for view in views])
        missed, stall = hierarchy.replay_group(
            [unit.vertex_lines for unit in group],
            [view.fetch_lines for view in views],
            cores,
            np.concatenate([view.lines for view in views]),
            bounds,
            gpu.shader.miss_overhead_cycles,
        )
        cells = len(group) * n_cores
        cell = quad_tile * n_cores + quad_core
        miss_cell = (
            np.searchsorted(bounds, missed, side="right") - 1
        ) * n_cores + cores[missed]
        quads = np.bincount(cell, minlength=cells).tolist()
        # Float sums of integers stay exact far beyond any frame's cycles.
        compute = np.bincount(
            cell, np.concatenate([view.issue for view in views]), cells
        ).astype(np.int64).tolist()
        stalls = np.bincount(miss_cell, stall, cells).astype(np.int64).tolist()
        return [
            TileWork(unit.tile, unit.step, views[t].fetch_cycles, [
                SubtileWork(quads[c], compute[c], stalls[c])
                for c in range(t * n_cores, (t + 1) * n_cores)
            ])
            for t, unit in enumerate(group)
        ]

    @staticmethod
    def _group_reference(group, scheduler, hierarchy, gpu):
        """The original scalar per-line loop (the executable spec)."""
        n_cores = gpu.num_shader_cores
        l1_hit_latency = gpu.texture_cache.hit_latency
        miss_overhead = gpu.shader.miss_overhead_cycles
        slot_of = scheduler.slot_of
        for unit in group:
            for line in unit.vertex_lines:
                hierarchy.vertex_access(line)
            for line in unit.entry.fetch_lines:
                hierarchy.tile_access(line)
            subtiles = [SubtileWork() for _ in range(n_cores)]
            perm = scheduler.permutation_at(unit.step)
            for quad in unit.entry.quads:
                core = perm[slot_of(quad.qx, quad.qy)] % n_cores
                stall = 0
                for line in quad.texture_lines:
                    result = hierarchy.texture_access(core, line)
                    if not result.l1_hit:
                        stall += result.latency - l1_hit_latency + miss_overhead
                subtiles[core].add_quad(quad.compute_cycles, stall)
            yield TileWork(
                unit.tile, unit.step, unit.entry.fetch_cycles, subtiles
            )
