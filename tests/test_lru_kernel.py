"""Independent oracle for the lockstep LRU kernel.

Three models must agree access for access:

* the kernel (:func:`repro.memory.cache.replay_caches` over
  :func:`~repro.memory.cache.lru_lockstep`), fed in groups;
* the ``OrderedDict`` specification, :class:`ReferenceCache`, per line;
* Mattson's stack distance: split the stream per set and profile it with
  :func:`repro.analysis.reuse.reuse_profile`; an access hits a W-way
  LRU set iff its distance is below W.

The first two are both simulators; the third shares no code with
either, so a bug common to both still shows.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.memory.cache as cache_module
from repro.analysis.reuse import reuse_profile
from repro.config import CacheConfig, GPUConfig
from repro.core.dtexl import BASELINE
from repro.memory.cache import Cache, ReferenceCache, replay_caches
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.driver import FrameRenderer
from repro.workloads.games import build_game

line_streams = st.lists(st.integers(min_value=0, max_value=63), max_size=200)
way_counts = st.sampled_from([1, 2, 4, 8])


def config(ways: int, sets: int = 4) -> CacheConfig:
    return CacheConfig("oracle", 64 * ways * sets, associativity=ways)


def mattson_hits(stream: List[int], sets: int, ways: int) -> List[bool]:
    """Per-access hit flags from LRU stack distance, set by set.

    ``reuse_profile`` returns a histogram, so each access's verdict is
    the change in the hit count when the set's stream grows by it.
    """
    positions: Dict[int, List[int]] = {}
    for i, line in enumerate(stream):
        positions.setdefault(line % sets, []).append(i)
    hits = [False] * len(stream)
    for members in positions.values():
        lines = [stream[i] for i in members]
        before = 0
        for j, i in enumerate(members):
            histogram = reuse_profile(lines[: j + 1]).histogram
            now = sum(n for distance, n in histogram.items() if distance < ways)
            hits[i] = now > before
            before = now
    return hits


def kernel_hits(cache: Cache, lines: List[int]) -> List[bool]:
    hits = [True] * len(lines)
    owners = np.zeros(len(lines), dtype=np.intp)
    for i in replay_caches((cache,), np.array(lines, dtype=np.int64), owners):
        hits[i] = False
    return hits


def lru_sets(cache) -> List[List[int]]:
    """Per set, the resident lines from least to most recently used."""
    if isinstance(cache, ReferenceCache):
        return [list(cache_set) for cache_set in cache._sets]
    tags, ages = cache._state
    return [
        [int(tag) for _, tag in sorted(zip(set_ages, set_tags)) if tag != -1]
        for set_tags, set_ages in zip(tags.tolist(), ages.tolist())
    ]


def cut(stream: List[int], sizes: List[int]) -> List[List[int]]:
    """``stream`` split into consecutive groups (empty ones included)."""
    groups, at = [], 0
    for size in sizes:
        groups.append(stream[at:at + size])
        at += size
    groups.append(stream[at:])
    return groups


class TestThreeWayOracle:
    @given(
        warm=line_streams, lines=line_streams, ways=way_counts,
        warm_per_line=st.booleans(),
        sizes=st.lists(st.integers(min_value=0, max_value=3), max_size=20),
    )
    @settings(max_examples=80, deadline=None)
    def test_kernel_reference_and_stack_distance_agree(
        self, warm, lines, ways, warm_per_line, sizes
    ):
        """Warm start, then the stream in groups of 0-3 lines and a tail."""
        fast = Cache(config(ways))
        ref = ReferenceCache(config(ways))
        if warm_per_line:
            fast.access_lines(warm)
        else:
            kernel_hits(fast, warm)
        for line in warm:
            ref.access_line(line)
        got = []
        for group in cut(lines, sizes):
            got += kernel_hits(fast, group)
        want = [ref.access_line(line) for line in lines]
        oracle = mattson_hits(warm + lines, fast.config.num_sets, ways)
        assert got == want == oracle[len(warm):]
        assert fast.stats == ref.stats
        assert lru_sets(fast) == lru_sets(ref)
        # One cache per call: the kernel leaves tags, ages and the tick
        # exactly where the per-line path would.
        per_line = Cache(config(ways))
        per_line.access_lines(warm + lines)
        assert np.array_equal(fast._state, per_line._state)
        assert fast._tick == per_line._tick

    @given(lines=line_streams, ways=way_counts)
    @settings(max_examples=40, deadline=None)
    def test_state_round_trips_through_the_per_line_path(self, lines, ways):
        """Kernel, per-line, kernel again: the hand-over keeps LRU order."""
        fast = Cache(config(ways))
        ref = ReferenceCache(config(ways))
        half = len(lines) // 2
        kernel_hits(fast, lines[:half])
        assert fast.resident_line_set() == set().union(*lru_sets(fast))
        fast.access_lines(lines[half:])
        got = kernel_hits(fast, lines)
        for line in lines:
            ref.access_line(line)
        assert got == [ref.access_line(line) for line in lines]
        assert fast.stats == ref.stats
        assert lru_sets(fast) == lru_sets(ref)

    @given(
        lines=line_streams,
        owners=st.lists(st.integers(min_value=0, max_value=2), max_size=200),
        ways=st.lists(way_counts, min_size=3, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_several_caches_in_one_call(self, lines, owners, ways):
        """Per-core L1s plus caches of other shapes share one kernel call."""
        n = min(len(lines), len(owners))
        lines, owners = lines[:n], owners[:n]
        shapes = [config(ways[0]), config(ways[1], sets=3), config(ways[2], 8)]
        fast = [Cache(shape) for shape in shapes]
        ref = [ReferenceCache(shape) for shape in shapes]
        missed = replay_caches(
            fast, np.array(lines, dtype=np.int64),
            np.array(owners, dtype=np.intp),
        ).tolist()
        want = [ref[o].access_line(line) for o, line in zip(owners, lines)]
        assert [i not in missed for i in range(n)] == want
        for got_cache, want_cache in zip(fast, ref):
            assert got_cache.stats == want_cache.stats
            assert lru_sets(got_cache) == lru_sets(want_cache)

    def test_empty_and_one_line_groups(self):
        fast = Cache(config(2))
        ref = ReferenceCache(config(2))
        for group in ([], [5], [], [5], [9], [13], [5], []):
            assert kernel_hits(fast, group) == [
                ref.access_line(line) for line in group
            ]
        assert fast.stats == ref.stats
        assert lru_sets(fast) == lru_sets(ref)


def tiny_caches(ways: st.SearchStrategy) -> st.SearchStrategy:
    """A GPU whose caches are a few sets each, so every level conflicts."""
    return st.builds(
        lambda l1, vertex, tile, l2, cores: GPUConfig(
            num_shader_cores=cores,
            texture_cache=config(l1, sets=2),
            vertex_cache=config(vertex, sets=1),
            tile_cache=config(tile, sets=2),
            l2_cache=CacheConfig("l2", 64 * l2 * 4, associativity=l2),
        ),
        ways, ways, ways, ways, st.sampled_from([1, 2, 4]),
    )


tile_traffic = st.lists(
    st.tuples(
        st.lists(st.integers(0, 40), max_size=4),   # vertex lines
        st.lists(st.integers(0, 40), max_size=6),   # fetch lines
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 40)),
                 max_size=25),                      # (core, texture line)
    ),
    min_size=1, max_size=4,
)


class TestReplayGroup:
    @given(gpu=tiny_caches(way_counts), groups=st.lists(tile_traffic, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_per_line_hierarchy(self, gpu, groups):
        """Group by group against the reference hierarchy, line by line:
        vertex, then tile-cache, then texture lines, tile after tile."""
        fast = MemoryHierarchy(gpu)
        ref = MemoryHierarchy(gpu, backend="reference")
        l1_hit = gpu.texture_cache.hit_latency
        for tiles in groups:
            cores, lines, bounds, want_stall = [], [], [0], {}
            for vertex, fetch, texture in tiles:
                for line in vertex:
                    ref.vertex_access(line)
                for line in fetch:
                    ref.tile_access(line)
                for core, line in texture:
                    core %= gpu.num_shader_cores
                    result = ref.texture_access(core, line)
                    if not result.l1_hit:
                        want_stall[len(lines)] = result.latency - l1_hit + 3
                    cores.append(core)
                    lines.append(line)
                bounds.append(len(lines))
            missed, stall = fast.replay_group(
                [vertex for vertex, _, _ in tiles],
                [fetch for _, fetch, _ in tiles],
                np.array(cores, dtype=np.int64),
                np.array(lines, dtype=np.int64),
                np.array(bounds),
                miss_overhead=3,
            )
            assert dict(zip(missed.tolist(), stall.tolist())) == want_stall
        levels = lambda h: (*h.texture_l1s, h.vertex_cache, h.tile_cache, h.l2)
        for got, want in zip(levels(fast), levels(ref)):
            assert got.stats == want.stats
            assert lru_sets(got) == lru_sets(want)
        assert fast.dram.stats == ref.dram.stats


class TestWideConfigs:
    def test_more_than_65535_streams_take_the_int64_key(self, monkeypatch):
        keys = []
        kernel = cache_module.lru_lockstep

        def spy(tags, ages, streams, lines, tick):
            keys.append((len(tags), streams.dtype))
            return kernel(tags, ages, streams, lines, tick)

        monkeypatch.setattr(cache_module, "lru_lockstep", spy)
        wide = CacheConfig("wide", 64 * 2 * 70_000, associativity=2)
        rng = np.random.default_rng(5)
        lines = rng.integers(0, 300_000, size=3000).tolist()
        lines += lines[::-3]  # re-references, some into evicted ways
        fast = Cache(wide)
        ref = ReferenceCache(wide)
        assert kernel_hits(fast, lines) == [ref.access_line(x) for x in lines]
        assert fast.stats == ref.stats
        assert fast.resident_line_set() == ref.resident_line_set()
        assert keys == [(70_000, np.dtype(np.int64))]
        # And a hierarchy-sized one stays on the 16-bit radix key.
        kernel_hits(Cache(config(4)), [1, 2, 3])
        assert keys[-1] == (4, np.dtype(np.uint16))


@pytest.fixture(scope="module")
def ccs_core0_stream():
    """Shader core 0's texture lines for CCS under the baseline schedule."""
    small = GPUConfig(screen_width=256, screen_height=128)
    trace, _ = FrameRenderer(small).render(build_game("CCS", small))
    scheduler = BASELINE.build_scheduler(small)
    lines: List[int] = []
    for step, tile in enumerate(scheduler.tiles):
        entry = trace.tiles.get(tile)
        if entry is None:
            continue
        perm = scheduler.permutation_at(step)
        for quad in entry.quads:
            if perm[scheduler.slot_of(quad.qx, quad.qy)] == 0:
                lines.extend(quad.texture_lines)
    return small.texture_cache, lines


class TestRealStream:
    def test_ccs_baseline_l1_stream(self, ccs_core0_stream):
        """A real L1 stream: per-set hit counts of all three models."""
        shape, lines = ccs_core0_stream
        assert len(lines) > 1000
        fast = Cache(shape)
        got = []
        for start in range(0, len(lines), 977):  # uneven groups
            got += kernel_hits(fast, lines[start:start + 977])
        ref = ReferenceCache(shape)
        assert got == [ref.access_line(line) for line in lines]
        assert fast.stats == ref.stats
        assert lru_sets(fast) == lru_sets(ref)
        sets = shape.num_sets
        for s in range(sets):
            members = [i for i, line in enumerate(lines) if line % sets == s]
            histogram = reuse_profile(lines[i] for i in members).histogram
            assert sum(got[i] for i in members) == sum(
                n for distance, n in histogram.items()
                if distance < shape.associativity
            )
