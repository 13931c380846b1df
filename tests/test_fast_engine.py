"""Differential tests for the fast replay engine.

Three layers, three equivalences, all required to be exact:

* ``Cache`` (flat arrays) vs ``ReferenceCache`` (``OrderedDict`` spec):
  identical hit/miss sequences, counters, and resident sets on
  randomized access streams.
* ``TraceReplayer(engine="fast")`` vs ``engine="reference"``: bit-
  identical :class:`RunResult` records per (trace, design) pair.
* ``DesignSweep.run(jobs=N)`` vs serial: identical rows, failures,
  resumed lists and manifest (minus wall time).

These pin the lockstep LRU kernel behind ``TraceReplayer._group_fast``
(``tests/test_lru_kernel.py`` holds its line-level oracle) — any drift
in the fast path from the executable specification fails here.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, GPUConfig
from repro.core.dtexl import (
    BASELINE,
    DTEXL_BEST,
    PAPER_CONFIGURATIONS,
    DTexLConfig,
)
from repro.errors import BudgetExceededError, ConfigError
from repro.memory.cache import Cache, ReferenceCache, replay_caches
from repro.memory.hierarchy import MemoryHierarchy
from repro.raster.fragment import QUAD_COLUMNS
from repro.sim.driver import TileTraceEntry
from repro.sim.experiment import ExperimentRunner
from repro.sim.multiframe import AnimationSimulator
from repro.sim.replay import ENGINES, TraceReplayer
from repro.sim.resilience import ReplayBudget
from repro.sim.stream import STREAM_DRIVERS, BatchTileStream
from repro.sim.sweep import DesignSweep
from repro.shader.shader_core import ShaderCore
from repro.workloads.animation import Animation
from tests.test_lru_kernel import lru_sets


def small_cache_config(size=512, line=64, ways=2) -> CacheConfig:
    return CacheConfig("diff", size, line_bytes=line, associativity=ways)


# -- Cache vs ReferenceCache ----------------------------------------------


#: Line numbers drawn from a small pool so streams force conflicts,
#: evictions and re-references within a handful of sets.
line_streams = st.lists(st.integers(min_value=0, max_value=63),
                        min_size=0, max_size=300)
way_counts = st.sampled_from([1, 2, 4, 8])


class TestCacheDifferential:
    @given(lines=line_streams, ways=way_counts)
    @settings(max_examples=60, deadline=None)
    def test_hit_sequence_and_residency_identical(self, lines, ways):
        """Per-access hit/miss AND per-step resident set must agree.

        Comparing residency after every access pins the eviction order,
        not just the final tally: a wrong victim shows up as a resident-
        set difference on the very next step.
        """
        fast = Cache(small_cache_config(ways=ways))
        ref = ReferenceCache(small_cache_config(ways=ways))
        for line in lines:
            assert fast.access_line(line) == ref.access_line(line)
            assert fast.resident_line_set() == ref.resident_line_set()

    @given(lines=line_streams, ways=way_counts)
    @settings(max_examples=60, deadline=None)
    def test_counters_identical(self, lines, ways):
        fast = Cache(small_cache_config(ways=ways))
        ref = ReferenceCache(small_cache_config(ways=ways))
        fast.access_lines(lines)
        for line in lines:
            ref.access_line(line)
        assert fast.stats == ref.stats

    @given(lines=line_streams)
    @settings(max_examples=60, deadline=None)
    def test_batched_equals_scalar(self, lines):
        """``access_lines`` is per-element ``access_line`` exactly."""
        batched = Cache(small_cache_config())
        scalar = Cache(small_cache_config())
        hits, missed = batched.access_lines(lines)
        scalar_missed = [
            line for line in lines if not scalar.access_line(line)
        ]
        assert hits == len(lines) - len(scalar_missed)
        assert missed == scalar_missed
        assert batched.stats == scalar.stats
        assert batched.resident_line_set() == scalar.resident_line_set()

    @given(
        lines=line_streams, dropped=line_streams, more=line_streams,
        ways=way_counts,
    )
    @settings(max_examples=40, deadline=None)
    def test_probe_and_invalidate_identical(self, lines, dropped, more, ways):
        """Invalidated ways are refilled first, by both access paths."""
        fast = Cache(small_cache_config(ways=ways))
        ref = ReferenceCache(small_cache_config(ways=ways))
        for line in lines:
            assert fast.access_line(line) == ref.access_line(line)
        for line in dropped:
            assert fast.probe(line * 64) == ref.probe(line * 64)
            fast.invalidate(line * 64)
            ref.invalidate(line * 64)
        half = len(more) // 2
        missed = replay_caches(
            (fast,), np.array(more[:half], dtype=np.int64),
            np.zeros(half, dtype=np.intp),
        ).tolist()
        assert [i not in missed for i in range(half)] == [
            ref.access_line(line) for line in more[:half]
        ]
        for line in more[half:]:
            assert fast.access_line(line) == ref.access_line(line)
        assert fast.resident_line_set() == ref.resident_line_set()
        assert fast.resident_lines == ref.resident_lines
        assert fast.stats == ref.stats

    def test_missed_lines_preserve_stream_order(self):
        cache = Cache(small_cache_config())
        _, missed = cache.access_lines([5, 3, 5, 9, 3, 11])
        assert missed == [5, 3, 9, 11]


# -- fast vs reference replay ---------------------------------------------


CG_COUPLED = DTexLConfig(
    name="CG-square/const/zorder/coupled",
    grouping="CG-square", assignment="const", order="zorder",
    decoupled=False,
)


class TestReplayEngineEquivalence:
    @pytest.mark.parametrize(
        "design", [BASELINE, DTEXL_BEST, CG_COUPLED],
        ids=lambda d: d.name,
    )
    def test_results_bit_identical(self, tiny_config, tiny_trace, design):
        fast = TraceReplayer(tiny_config, engine="fast")
        ref = TraceReplayer(tiny_config, engine="reference")
        assert fast.run(tiny_trace, design) == ref.run(tiny_trace, design)

    def test_real_game_bit_identical(self, small_config, small_game_trace):
        fast = TraceReplayer(small_config, engine="fast")
        ref = TraceReplayer(small_config, engine="reference")
        for design in (BASELINE, DTEXL_BEST):
            assert fast.run(small_game_trace, design) == ref.run(
                small_game_trace, design
            )

    def test_warm_hierarchy_bit_identical(self, tiny_config, tiny_trace):
        """Multi-frame replays against warm caches agree too."""
        warm_fast = MemoryHierarchy(tiny_config, backend="fast")
        warm_ref = MemoryHierarchy(tiny_config, backend="reference")
        fast = TraceReplayer(tiny_config, engine="fast")
        ref = TraceReplayer(tiny_config, engine="reference")
        for _ in range(2):
            got = fast.run(tiny_trace, BASELINE, hierarchy=warm_fast)
            want = ref.run(tiny_trace, BASELINE, hierarchy=warm_ref)
            assert got == want

    def test_fast_engine_rejects_reference_hierarchy(
        self, tiny_config, tiny_trace
    ):
        warm = MemoryHierarchy(tiny_config, backend="reference")
        with pytest.raises(ConfigError, match="'reference' hierarchy"):
            TraceReplayer(tiny_config).run(
                tiny_trace, BASELINE, hierarchy=warm
            )

    def test_reference_engine_rejects_fast_hierarchy(
        self, tiny_config, tiny_trace
    ):
        replayer = TraceReplayer(tiny_config, engine="reference")
        with pytest.raises(ConfigError, match="'fast' hierarchy"):
            replayer.run(
                tiny_trace, BASELINE, hierarchy=MemoryHierarchy(tiny_config)
            )

    def test_hierarchy_must_fit_the_design_point(
        self, tiny_config, tiny_trace
    ):
        """The upper bound runs one SC with a 4x L1, not the default 4 SCs."""
        upper = PAPER_CONFIGURATIONS["upper-bound"]
        replayer = TraceReplayer(tiny_config)
        with pytest.raises(ConfigError, match="another config"):
            replayer.run(
                tiny_trace, upper, hierarchy=MemoryHierarchy(tiny_config)
            )
        fitted = MemoryHierarchy(upper.effective_gpu_config(tiny_config))
        assert replayer.run(tiny_trace, upper, hierarchy=fitted) == (
            replayer.run(tiny_trace, upper)
        )

    def test_engine_names(self):
        assert ENGINES == ("fast", "reference")

    def test_unknown_engine_rejected(self, tiny_config):
        with pytest.raises(ConfigError, match="unknown replay engine"):
            TraceReplayer(tiny_config, engine="warp-speed")

    def test_unknown_backend_rejected(self, tiny_config):
        with pytest.raises(ConfigError, match="unknown cache backend"):
            MemoryHierarchy(tiny_config, backend="turbo")


def hierarchy_state(hierarchy):
    caches = (
        *hierarchy.texture_l1s, hierarchy.vertex_cache,
        hierarchy.tile_cache, hierarchy.l2,
    )
    return [(lru_sets(cache), cache.stats) for cache in caches]


ANIMATED_DESIGNS = [
    PAPER_CONFIGURATIONS[name]
    for name in ("baseline", "HLB-flp2", "upper-bound")
]


class TestWarmAnimationDifferential:
    """Three warm frames: every cache's contents and LRU order, per frame."""

    @pytest.mark.parametrize("stream", STREAM_DRIVERS)
    @pytest.mark.parametrize(
        "design", ANIMATED_DESIGNS, ids=lambda d: d.name
    )
    def test_frames_and_cache_state_identical(
        self, tiny_config, stream, design
    ):
        animation = Animation.of_game("SWa", num_frames=3)
        results = {}
        states = {}
        for engine in ENGINES:
            sim = AnimationSimulator(tiny_config, stream=stream)
            sim.replayer = TraceReplayer(tiny_config, engine=engine)
            frames = states[engine] = []
            replay = sim.replayer.run_stream

            def spy(units, point, hierarchy=None, replay=replay, frames=frames):
                result = replay(units, point, hierarchy=hierarchy)
                frames.append(hierarchy_state(hierarchy))
                return result

            sim.replayer.run_stream = spy
            results[engine] = sim.run(animation, design)
        assert results["fast"] == results["reference"]
        assert len(states["fast"]) == 3
        for got, want in zip(states["fast"], states["reference"]):
            assert got == want


class _CountingStream(BatchTileStream):
    """A batch stream that counts the units it delivered."""

    delivered = 0

    def __iter__(self):
        for unit in super().__iter__():
            self.delivered += 1
            yield unit


class TestQuadBudget:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_trips_on_the_tile_that_crosses_it(
        self, small_config, small_game_trace, engine
    ):
        """Grouping never lets a replay run past its quad budget."""
        scheduler = BASELINE.build_scheduler(small_config)
        running = np.cumsum([
            len(small_game_trace.tiles[tile].quads)
            if tile in small_game_trace.tiles else 0
            for tile in scheduler.tiles
        ])
        limit = int(running[len(running) // 2 - 3])
        crossing = int(np.argmax(running > limit))
        stream = _CountingStream(small_game_trace)
        replayer = TraceReplayer(
            small_config, budget=ReplayBudget(max_quads=limit), engine=engine
        )
        with pytest.raises(BudgetExceededError, match="quad budget"):
            replayer.run_stream(stream, BASELINE)
        assert stream.delivered == crossing + 1


class TestQuadStream:
    """The columnar ``replay_view``: the form the replay kernel reads."""

    def test_stream_matches_quads(self, tiny_trace, tiny_config):
        side = tiny_config.tile_size // 2
        entry = next(
            e for e in tiny_trace.tiles.values() if e.quads
        )
        view = entry.replay_view(side)
        assert len(view.slots) == len(entry.quads)
        assert view.slots.tolist() == [
            quad.qy * side + quad.qx for quad in entry.quads
        ]
        assert view.counts.tolist() == [
            len(quad.texture_lines) for quad in entry.quads
        ]
        assert view.issue.tolist() == [
            quad.compute_cycles for quad in entry.quads
        ]
        bounds = np.cumsum([0] + view.counts.tolist())
        for quad, lo, hi in zip(entry.quads, bounds, bounds[1:]):
            assert tuple(view.lines[lo:hi].tolist()) == quad.texture_lines
        assert view.lines.dtype == np.int64

    def test_view_is_derived_per_side(self, tiny_trace):
        """No cache: each call derives the slots for the side it is given."""
        entry = next(e for e in tiny_trace.tiles.values() if e.num_quads)
        assert entry.replay_view(16).slots.tolist() == (
            entry.qy * 16 + entry.qx
        ).tolist()
        assert entry.replay_view(8).slots.tolist() == (
            entry.qy * 8 + entry.qx
        ).tolist()
        empty = TileTraceEntry().replay_view(16)
        assert len(empty.slots) == len(empty.lines) == 0

    def test_pickle_round_trips_columns(self, tiny_trace):
        entry = next(e for e in tiny_trace.tiles.values() if e.num_quads)
        clone = pickle.loads(pickle.dumps(entry))
        assert clone == entry
        assert [getattr(clone, name).dtype for name in QUAD_COLUMNS] == list(
            QUAD_COLUMNS.values()
        )


class TestExecuteTotals:
    def test_matches_execute_subtile(self, tiny_config):
        from repro.raster.pipeline import SubtileWork

        work = SubtileWork(num_quads=7, compute_cycles=93, stall_cycles=41)
        a = ShaderCore(tiny_config.shader)
        b = ShaderCore(tiny_config.shader)
        via_warps = a.execute_subtile(work.warp_costs())
        via_totals = b.execute_totals(
            work.num_quads, work.compute_cycles, work.stall_cycles
        )
        assert via_totals == via_warps
        assert (a.busy_cycles, a.issue_cycles, a.warps_executed) == (
            b.busy_cycles, b.issue_cycles, b.warps_executed
        )

    def test_empty_subtile(self, tiny_config):
        core = ShaderCore(tiny_config.shader)
        done = core.execute_totals(0, 0, 0)
        assert done.total_cycles == 0 and core.busy_cycles == 0


class TestCoreLut:
    def test_lut_matches_permutation(self, tiny_config):
        design = DTEXL_BEST
        scheduler = design.build_scheduler(tiny_config)
        n_cores = tiny_config.num_shader_cores
        side = scheduler.config.quads_per_tile_side
        for step in range(min(len(scheduler.tiles), 6)):
            lut = scheduler.core_lut(step, n_cores)
            perm = scheduler.permutation_at(step)
            for qy in range(side):
                for qx in range(side):
                    want = perm[scheduler.slot_of(qx, qy)] % n_cores
                    assert lut[qy * side + qx] == want


# -- serial vs parallel sweeps --------------------------------------------


PAR_SWEEP = DesignSweep(
    groupings=["FG-xshift2", "CG-square", "no-such-grouping"],
    assignments=["const"],
    orders=["zorder"],
    decoupled=[True],
)


def manifest_without_wall_time(report):
    data = report.manifest.as_dict()
    data.pop("wall_time_s")
    data.pop("phase_seconds")
    return data


class TestParallelSweep:
    @pytest.fixture(scope="class")
    def serial_and_parallel(self, tiny_config):
        def go(jobs):
            runner = ExperimentRunner(tiny_config, games=["SWa", "Mze"])
            return PAR_SWEEP.run(runner, jobs=jobs)

        return go(1), go(2)

    def test_rows_identical(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        assert serial.rows == parallel.rows
        assert len(serial.rows) == 2

    def test_failures_identical(self, serial_and_parallel):
        """The bad grouping fails identically under both executors."""
        serial, parallel = serial_and_parallel
        assert serial.failures == parallel.failures
        assert [f.design_point for f in parallel.failures] == [
            "no-such-grouping/const/zorder/dec"
        ]

    def test_manifests_identical_minus_wall_time(self, serial_and_parallel):
        serial, parallel = serial_and_parallel
        assert manifest_without_wall_time(serial) == (
            manifest_without_wall_time(parallel)
        )

    def test_parallel_manifest_stamps_phase_timings(
        self, serial_and_parallel
    ):
        """Parallel campaigns attribute wall time to render / pool / replay."""
        _, parallel = serial_and_parallel
        phases = parallel.manifest.phase_seconds
        assert set(phases) == {"render", "pool_startup", "replay"}
        assert all(seconds >= 0.0 for seconds in phases.values())
        assert sum(phases.values()) <= parallel.wall_time_s + 1e-6

    def test_parallel_resume_skips_completed_rows(
        self, tmp_path, tiny_config
    ):
        sweep = DesignSweep(
            groupings=["FG-xshift2", "CG-square"], assignments=["const"],
            orders=["zorder"], decoupled=[True],
        )
        ckpt = tmp_path / "ckpt"
        first = ExperimentRunner(tiny_config, games=["SWa"])
        done = sweep.run(first, checkpoint_dir=ckpt)
        second = ExperimentRunner(tiny_config, games=["SWa"])
        resumed = sweep.run(
            second, checkpoint_dir=ckpt, resume=True, jobs=2
        )
        assert resumed.rows == done.rows
        assert sorted(resumed.resumed) == sorted(
            p.name for p in sweep.design_points()
        )
        assert second.renders_performed == 0

    def test_invalid_jobs_rejected(self, tiny_config):
        runner = ExperimentRunner(tiny_config, games=["SWa"])
        with pytest.raises(ConfigError, match="jobs"):
            DesignSweep().run(runner, jobs=0)

    def test_prepare_traces_requires_store(self, tiny_config):
        from repro.errors import ReplayError

        runner = ExperimentRunner(tiny_config, games=["SWa"])
        with pytest.raises(ReplayError, match="TraceCheckpointStore"):
            runner.prepare_traces()

    def test_prepare_traces_populates_store(self, tmp_path, tiny_config):
        from repro.sim.checkpoint import TraceCheckpointStore

        store = TraceCheckpointStore(tmp_path / "traces")
        runner = ExperimentRunner(tiny_config, games=["SWa"])
        keys = runner.prepare_traces(store)
        assert set(keys) == {"SWa"}
        assert all(store.contains(k) for k in keys.values())
