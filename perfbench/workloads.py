"""The benchmark's three workloads and their correctness gates.

Every workload is seeded: ``--seed`` offsets each game's
``SceneRecipe.seed`` through ``dataclasses.replace``, the scenes are
built during set-up, and the program only ever sees the built
workloads.  One *operation* is one ``RunResult`` produced, including
any render it triggered.

* ``figure_suite`` - the batch driver with an in-memory trace cache:
  10 games rendered once, each replayed under all 13
  ``PAPER_CONFIGURATIONS``, plus a 3-frame warm-cache animation of SWa
  under baseline and HLB-flp2.
* ``filter_ablation`` - nearest and trilinear sampling on SWa and Mze;
  each frame is rendered (these filters take the scalar pass) and then
  replayed under baseline and HLB-flp2.
* ``stream_campaign`` - ``DesignSweep.run(jobs=1)`` over baseline and
  decoupled CG-square, with a streaming ``ExperimentRunner`` and a
  fresh checkpoint directory: the baseline renders and chunks every
  tile, the design point loads the chunks, and its row is journaled.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import sys
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.config import GPUConfig
from repro.core.dtexl import BASELINE, PAPER_CONFIGURATIONS
from repro.sim.checkpoint import TileChunkStore, TraceCheckpointStore, trace_digest, trace_key
from repro.sim.driver import FrameRenderer
from repro.sim.experiment import CHUNK_SUBDIR, ExperimentRunner, SuiteResult
from repro.sim.multiframe import AnimationSimulator
from repro.sim.replay import TraceReplayer
from repro.sim.stream import StreamingTileStream
from repro.sim.sweep import DesignSweep
from repro.texture.sampler import FilterMode, Sampler
from repro.workloads.animation import Animation
from repro.workloads.games import GAMES, game_aliases

#: The figure-suite scale (``REPRO_BENCH_SCALE=small``).
SCREEN = (512, 256)
ANIMATION_FRAMES = 3
ANIMATED_GAME = "SWa"
DTEXL = PAPER_CONFIGURATIONS["HLB-flp2"]
FILTER_GAMES = ("SWa", "Mze")
FILTER_MODES = (FilterMode.NEAREST, FilterMode.TRILINEAR)


def seeded_recipe(alias: str, seed: int):
    recipe = GAMES[alias].recipe
    return dataclasses.replace(recipe, seed=recipe.seed + seed)


def result_digest(result) -> str:
    """Content hash of a ``RunResult`` (dataclass repr is exact)."""
    return hashlib.sha256(repr(result).encode()).hexdigest()


class Ops:
    """Times operations and keeps their results.

    ``clock`` is the benchmark's calibrated clock.  With a tracer
    attached each operation also opens an ``op`` span and tags every
    span inside it with the operation id.
    """

    def __init__(self, clock, tracer=None):
        self.clock = clock
        self.tracer = tracer
        self.records: List[Tuple[str, float, int, bool]] = []
        self.results: Dict[str, object] = {}

    def begin(self, key: str):
        tracer = self.tracer
        if tracer is None:
            return None
        tracer.op = len(self.records)
        return tracer.begin("op")

    def finish(self, key: str, span, start: float, result, render_quads: int) -> None:
        elapsed = self.clock() - start
        if span is not None:
            self.tracer.end(span)
        self.records.append((key, elapsed, render_quads + result.total_quads, True))
        self.results[key] = result

    def fail(self, key: str, span, start: float) -> None:
        elapsed = self.clock() - start
        if span is not None:
            self.tracer.end(span)
        traceback.print_exc(file=sys.stderr)
        self.records.append((key, elapsed, 0, False))

    def run(self, key: str, operation) -> None:
        """``operation()`` returns ``(RunResult, quads it rendered)``."""
        span = self.begin(key)
        start = self.clock()
        try:
            result, render_quads = operation()
        except Exception:
            self.fail(key, span, start)
        else:
            self.finish(key, span, start, result, render_quads)

    def digest(self) -> str:
        """One hash over each operation's latest result, in operation order."""
        h = hashlib.sha256()
        for key, _, _, ok in self.records:
            if ok:
                h.update(f"{key}={result_digest(self.results[key])};".encode())
        return h.hexdigest()


class Gate:
    """Correctness checks run after the timed phase."""

    def __init__(self):
        self.checks: List[Tuple[str, bool]] = []

    def check(self, name: str, condition) -> None:
        try:
            ok = bool(condition())
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        self.checks.append((name, ok))
        if not ok:
            print(f"perfbench: correctness check failed: {name}", file=sys.stderr)

    def engines(self, config: GPUConfig, recipe, design):
        """Fast vs reference renderer and replayer on one game.

        Returns the fast trace and its fast ``RunResult`` for the
        workload-specific checks (``None`` where a step raised).
        """
        workload = recipe.build(config)
        state = {}

        def render():
            state["trace"] = FrameRenderer(config).render(workload)[0]
            reference = FrameRenderer(config, engine="reference").render(recipe.build(config))[0]
            state["digest"] = trace_digest(state["trace"])
            return state["digest"] == trace_digest(reference)

        def replay():
            trace = state["trace"]
            state["run"] = TraceReplayer(config).run(trace, design)
            reference = TraceReplayer(config, engine="reference").run(trace, design)
            return state["run"] == reference

        self.check(f"{recipe.name}: fast render trace_digest == reference", render)
        self.check(f"{recipe.name}/{design.name}: fast replay == reference", replay)
        return state.get("trace"), state.get("run"), state.get("digest", "")


class Workload:
    """Set-up happens in ``__init__``; ``run_pass`` is the timed work."""

    games: Tuple[str, ...] = ()

    def __init__(self, seed: int, scratch: Path):
        self.scratch = scratch
        self.config = GPUConfig(screen_width=SCREEN[0], screen_height=SCREEN[1])
        self.recipes = {alias: seeded_recipe(alias, seed) for alias in self.games}
        self.scenes = {
            alias: recipe.build(self.config) for alias, recipe in self.recipes.items()
        }
        #: Picks the gate's game (and design point, filter) from the seed.
        self.rng = random.Random(seed)
        self.gate_game = self.rng.choice(self.games)

    def run_pass(self, ops: Ops, index: int) -> None:
        raise NotImplementedError

    def gate(self, ops: Ops, gate: Gate) -> str:
        """Run the correctness checks; returns the gate game's trace digest."""
        raise NotImplementedError

    def readout(self, ops: Ops) -> Optional[Dict[str, float]]:
        return None


def _render_once(traces: dict, key, render):
    """The batch driver's in-memory trace cache: render on first use."""
    if key in traces:
        return traces[key], 0
    trace = render()
    traces[key] = trace
    return trace, trace.stats.num_quads


class FigureSuite(Workload):
    games = tuple(game_aliases())

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.designs = list(PAPER_CONFIGURATIONS.values())
        # test_ablation_interframe animates the suite's first game (CCS,
        # the largest); the smallest keeps every run inside the time budget.
        self.animated = ANIMATED_GAME
        recipe = self.recipes[self.animated]
        self.frames = [
            recipe.build(self.config, frame=k) for k in range(ANIMATION_FRAMES)
        ]
        self._new_drivers()

    def _new_drivers(self) -> None:
        self.renderer = FrameRenderer(self.config)
        self.replayer = TraceReplayer(self.config)
        self.simulator = AnimationSimulator(self.config)
        self.traces: Dict[str, object] = {}

    def run_pass(self, ops: Ops, index: int) -> None:
        if index:
            self._new_drivers()
        renderer, replayer, traces = self.renderer, self.replayer, self.traces
        for alias in self.games:
            scene = self.scenes[alias]
            for design in self.designs:
                def operation(alias=alias, scene=scene, design=design):
                    trace, rendered = _render_once(
                        traces, alias, lambda: renderer.render(scene)[0]
                    )
                    return replayer.run(trace, design), rendered
                ops.run(f"{alias}/{design.name}", operation)
        for design in (BASELINE, DTEXL):
            self._animate(ops, design)

    def _animate(self, ops: Ops, design) -> None:
        """Warm-cache animation; each frame's render+replay is one op.

        The simulator asks the recipe for each frame in display order,
        so those requests mark the operation boundaries.
        """
        marks: List[float] = []
        frames = self.frames
        keys = [f"anim:{self.animated}/{design.name}/{k}" for k in range(len(frames))]

        class FrameSource:
            def build(self, config, frame=0):
                marks.append(ops.clock())
                if ops.tracer is not None:
                    ops.tracer.op = len(ops.records) + frame
                return frames[frame]

        span = ops.begin(keys[0])
        start = ops.clock()
        try:
            run = self.simulator.run(Animation(FrameSource(), len(frames)), design)
        except Exception:
            for key in keys:
                ops.fail(key, None, start)
            if span is not None:
                ops.tracer.end(span)
            return
        end = ops.clock()
        if span is not None:
            ops.tracer.end(span)
        bounds = [start] + marks[1:] + [end]
        for k, result in enumerate(run.frames):
            ops.records.append(
                (keys[k], bounds[k + 1] - bounds[k], 2 * result.total_quads, True)
            )
            ops.results[keys[k]] = result

    def gate(self, ops: Ops, gate: Gate) -> str:
        alias = self.gate_game
        design = self.rng.choice(self.designs)
        trace, run, digest = gate.engines(self.config, self.recipes[alias], design)
        gate.check(
            f"{alias}: timed trace == gate render",
            lambda: trace_digest(self.traces[alias]) == digest,
        )
        gate.check(
            f"{alias}/{design.name}: timed RunResult == gate replay",
            lambda: ops.results[f"{alias}/{design.name}"] == run,
        )
        return digest

    def readout(self, ops: Ops) -> Optional[Dict[str, float]]:
        """Model outputs beside the paper's (synthetic scenes, unvalidated).

        ``None`` when an operation it needs failed.
        """
        suites = {}
        for design in (BASELINE, DTEXL):
            suite = SuiteResult(design_point=design.name)
            for alias in self.games:
                result = ops.results.get(f"{alias}/{design.name}")
                if result is None:
                    return None
                suite.per_game[alias] = result
            suites[design.name] = suite
        base, dtexl = suites[BASELINE.name], suites[DTEXL.name]
        return {
            "model.dtexl_speedup": dtexl.mean_speedup_vs(base),
            "model.l2_decrease_pct": dtexl.mean_l2_decrease_vs(base),
            "model.energy_decrease_pct": dtexl.mean_energy_decrease_vs(base),
        }


class FilterAblation(Workload):
    games = FILTER_GAMES

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.designs = [BASELINE, DTEXL]
        self._new_drivers()

    def _new_drivers(self) -> None:
        self.renderers = {
            mode: FrameRenderer(self.config, Sampler(mode)) for mode in FILTER_MODES
        }
        self.replayer = TraceReplayer(self.config)

    def run_pass(self, ops: Ops, index: int) -> None:
        """Like ``test_ablation_filtering``: render a frame, replay it under
        each design point, then drop it."""
        if index:
            self._new_drivers()
        replayer = self.replayer
        for mode, renderer in self.renderers.items():
            for alias in self.games:
                scene = self.scenes[alias]
                traces: dict = {}
                for design in self.designs:
                    def operation(scene=scene, renderer=renderer, design=design):
                        trace, rendered = _render_once(
                            traces, 0, lambda: renderer.render(scene)[0]
                        )
                        return replayer.run(trace, design), rendered
                    ops.run(f"{mode.value}:{alias}/{design.name}", operation)

    def gate(self, ops: Ops, gate: Gate) -> str:
        alias = self.gate_game
        design = self.rng.choice(self.designs)
        # Non-bilinear frames are rendered by the reference pass itself, so
        # the engine checks cover this workload's code paths.
        _, _, digest = gate.engines(self.config, self.recipes[alias], design)
        return digest


class SeededRunner(ExperimentRunner):
    """A streaming runner fed the benchmark's pre-built scenes.

    ``ExperimentRunner`` builds games by alias from the fixed Table I
    recipes; this subclass hands it the seeded, already-built workloads
    (keyed in the chunk store by their own recipe) and times each
    ``run`` as one operation.
    """

    def __init__(self, workload: "StreamCampaign", directory: Path):
        super().__init__(
            workload.config, games=workload.games, stream="streaming",
            checkpoint_store=TraceCheckpointStore(directory / "traces"),
        )
        self.workload = workload
        self.directory = directory
        self.ops: Optional[Ops] = None

    def chunk_store_for(self, alias: str) -> TileChunkStore:
        key = trace_key(self.config, self.workload.recipes[alias])
        return TileChunkStore(
            self.checkpoint_store.directory / CHUNK_SUBDIR / key, key
        )

    def stream_for(self, alias: str) -> StreamingTileStream:
        self.stream_used = StreamingTileStream(
            self.renderer, self.workload.scenes[alias],
            chunk_store=self.chunk_store_for(alias),
        )
        return self.stream_used

    def run(self, alias, design):
        key = f"{alias}/{design.name}"
        ops = self.ops
        span = ops.begin(key)
        start = ops.clock()
        try:
            result = super().run(alias, design)
        except Exception:
            ops.fail(key, span, start)
            raise
        tiles = self.config.tiles_x * self.config.tiles_y
        rendered = self.stream_used.tiles_rendered
        # Quads per rendered tile are not exposed; chunk hits are all or
        # nothing in a fresh campaign, so this is exact here.
        render_quads = result.total_quads * rendered // tiles
        ops.finish(key, span, start, result, render_quads)
        return result


class StreamCampaign(Workload):
    games = tuple(game_aliases())
    sweep = DesignSweep(groupings=("CG-square",), decoupled=(True,))

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.designs = [self.sweep.baseline] + self.sweep.design_points()
        self.runner = SeededRunner(self, scratch / "campaign-0")

    def run_pass(self, ops: Ops, index: int) -> None:
        """One campaign in a fresh checkpoint directory."""
        if index:
            self.runner = SeededRunner(self, self.scratch / f"campaign-{index}")
        runner = self.runner
        runner.ops = ops
        failed_before = sum(1 for record in ops.records if not record[3])
        try:
            report = self.sweep.run(runner, checkpoint_dir=runner.directory, jobs=1)
            failures = len(report.failures)
        except Exception:  # a failed baseline is fatal to the campaign
            traceback.print_exc(file=sys.stderr)
            failures = 1
        # Rows can fail after every replay succeeded; count those too.
        counted = sum(1 for record in ops.records if not record[3]) - failed_before
        for _ in range(failures - counted):
            ops.records.append((f"sweep:{index}", 0.0, 0, False))

    def gate(self, ops: Ops, gate: Gate) -> str:
        alias = self.gate_game
        trace, _, digest = gate.engines(
            self.config, self.recipes[alias], self.rng.choice(self.designs)
        )
        replayer = TraceReplayer(self.config)
        for design in self.designs:
            gate.check(
                f"{alias}/{design.name}: streamed RunResult == batch driver",
                lambda design=design: ops.results[f"{alias}/{design.name}"]
                == replayer.run(trace, design),
            )
        return digest


WORKLOADS = {
    "figure_suite": FigureSuite,
    "filter_ablation": FilterAblation,
    "stream_campaign": StreamCampaign,
}
