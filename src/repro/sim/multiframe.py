"""Multi-frame (animation) simulation with warm caches.

Renders each frame of an :class:`~repro.workloads.animation.Animation`
through pass 1 and replays them back to back against **one persistent
memory hierarchy**, so frame *k+1* starts with whatever texture lines
frame *k* left resident.  Per-frame results are counter deltas, so the
sequence exposes the cold-start penalty of frame 0 and the steady-state
behaviour afterwards.

The simulator speaks both tile-stream dataflows: ``stream="batch"``
(default) materializes each frame's trace, ``"streaming"`` renders and
replays one tile group at a time so a long animation never holds a
whole frame.  Either way an attached checkpoint store holds each frame
as a chunk set keyed by its frame number.  Warm-cache frame deltas are
unaffected — the drivers deliver identical tile sequences, so the
hierarchy sees identical accesses in identical order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.config import GPUConfig
from repro.core.dtexl import DTexLConfig
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.checkpoint import TraceCheckpointStore, trace_key
from repro.sim.driver import FrameRenderer, FrameTrace
from repro.sim.replay import RunResult, TraceReplayer
from repro.sim.stream import StreamingTileStream, check_driver
from repro.texture.sampler import Sampler
from repro.workloads.animation import Animation


@dataclass
class AnimationResult:
    """Per-frame results of one animated run."""

    design_point: str
    frames: List[RunResult] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return sum(f.frame_cycles for f in self.frames)

    @property
    def total_l2_accesses(self) -> int:
        return sum(f.l2_accesses for f in self.frames)

    def fps(self, frequency_mhz: int) -> float:
        """Average frames per second over the sequence."""
        if not self.frames or self.total_cycles == 0:
            return float("inf")
        return len(self.frames) * frequency_mhz * 1e6 / self.total_cycles

    def warmup_ratio(self) -> float:
        """First frame's L2 accesses over the mean of the later frames.

        > 1 means warm caches across frames are paying off.
        """
        if len(self.frames) < 2:
            return 1.0
        later = self.frames[1:]
        steady = sum(f.l2_accesses for f in later) / len(later)
        if steady == 0:
            return 1.0
        return self.frames[0].l2_accesses / steady


class AnimationSimulator:
    """Runs an animation under one design point with persistent caches."""

    def __init__(
        self,
        config: GPUConfig,
        sampler: Optional[Sampler] = None,
        checkpoint_store: Optional[TraceCheckpointStore] = None,
        stream: str = "batch",
    ):
        self.config = config
        self.renderer = FrameRenderer(config, sampler)
        self.replayer = TraceReplayer(config)
        self.checkpoint_store = checkpoint_store
        self.stream = check_driver(stream)
        #: Functional renders actually performed (checkpoint hits skip
        #: it); a streamed frame that rendered any tile counts as one.
        self.renders_performed = 0

    def _frame_trace(self, animation: Animation, frame: int) -> FrameTrace:
        """One frame's trace, via the checkpoint store when attached.

        A damaged checkpoint is a cache miss; resuming a killed
        multi-frame campaign therefore re-renders only frames that
        never finished pass 1.
        """
        if self.checkpoint_store is None:
            return self._render(animation, frame)
        return self.checkpoint_store.load_or_render(
            trace_key(
                self.config, animation.recipe, frame=frame,
                sampler=self.renderer.sampler,
            ),
            lambda: self._render(animation, frame),
        )

    def _render(self, animation: Animation, frame: int) -> FrameTrace:
        workload = animation.recipe.build(self.config, frame=frame)
        trace, _ = self.renderer.render(workload)
        self.renders_performed += 1
        return trace

    def _frame_stream(
        self, animation: Animation, frame: int
    ) -> StreamingTileStream:
        """One frame's streamed dataflow (never materializes the trace)."""
        chunk_store = None
        if self.checkpoint_store is not None:
            chunk_store = self.checkpoint_store.chunks(
                trace_key(
                    self.config, animation.recipe, frame=frame,
                    sampler=self.renderer.sampler,
                )
            )
        workload = animation.recipe.build(self.config, frame=frame)
        return StreamingTileStream(
            self.renderer, workload, chunk_store=chunk_store
        )

    def run(
        self,
        animation: Animation,
        design: DTexLConfig,
        cold_caches_each_frame: bool = False,
    ) -> AnimationResult:
        """Simulate every frame; caches persist unless asked otherwise."""
        gpu = design.effective_gpu_config(self.config)
        hierarchy = MemoryHierarchy(gpu, backend=self.replayer.engine)
        result = AnimationResult(design_point=design.name)
        for frame in range(animation.num_frames):
            if cold_caches_each_frame:
                hierarchy.reset()
            if self.stream == "batch":
                trace = self._frame_trace(animation, frame)
                run = self.replayer.run(trace, design, hierarchy=hierarchy)
            else:
                stream = self._frame_stream(animation, frame)
                run = self.replayer.run_stream(
                    stream, design, hierarchy=hierarchy
                )
                if stream.tiles_rendered:
                    self.renders_performed += 1
            result.frames.append(run)
        return result
