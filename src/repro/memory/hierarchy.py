"""The memory hierarchy of Figure 5.

Per shader core: a private L1 texture cache.  Shared across the GPU: the
vertex cache (used by the Geometry Pipeline), the tile cache (used by the
Tiling Engine for the Parameter Buffer) and the L2 cache.  The L2 backs
every L1 and is itself backed by DRAM.

The hierarchy exposes one entry point per traffic class
(:meth:`texture_access`, :meth:`vertex_access`, :meth:`tile_access`)
returning an :class:`AccessResult` with the level serviced and total
latency, while maintaining per-level statistics.  ``l2.stats.accesses`` is
the paper's headline "L2 Accesses" metric.

The replay engine instead hands :meth:`replay_group` a whole group of
tiles, which runs through the exact array kernel
(:func:`~repro.memory.cache.replay_caches`) with the same counters.
``backend`` selects the cache implementation: ``"fast"`` (array-backed,
the default, the one :meth:`replay_group` needs) or ``"reference"``
(the OrderedDict specification the differential tests compare against).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import List, Sequence, Tuple

import numpy as np

from repro.config import GPUConfig
from repro.errors import ConfigError
from repro.memory.cache import Cache, CacheStats, ReferenceCache, replay_caches
from repro.memory.dram import DRAM

#: backend name -> cache class, for :class:`MemoryHierarchy`.
CACHE_BACKENDS = {"fast": Cache, "reference": ReferenceCache}


class ServiceLevel(Enum):
    """Which level of the hierarchy supplied the data."""

    L1 = "l1"
    L2 = "l2"
    DRAM = "dram"


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one memory access."""

    level: ServiceLevel
    latency: int

    @property
    def l1_hit(self) -> bool:
        return self.level is ServiceLevel.L1


class MemoryHierarchy:
    """Texture/vertex/tile L1 caches + shared L2 + DRAM.

    One instance is created per simulated configuration; statistics
    accumulate until :meth:`reset`.
    """

    def __init__(self, config: GPUConfig, backend: str = "fast"):
        try:
            cache_cls = CACHE_BACKENDS[backend]
        except KeyError:
            raise ConfigError(
                f"unknown cache backend {backend!r}; "
                f"choose from {', '.join(sorted(CACHE_BACKENDS))}"
            ) from None
        self.config = config
        self.backend = backend
        self.texture_l1s: List[Cache] = [
            cache_cls(config.texture_cache)
            for _ in range(config.num_shader_cores)
        ]
        self.vertex_cache = cache_cls(config.vertex_cache)
        self.tile_cache = cache_cls(config.tile_cache)
        self.l2 = cache_cls(config.l2_cache)
        self.dram = DRAM(config.dram)

    # -- internal -------------------------------------------------------------

    def _through_l2(self, line: int) -> AccessResult:
        """Access the L2 (and DRAM below it) for ``line``; L1 already missed."""
        l2_latency = self.config.l2_cache.hit_latency
        if self.l2.access_line(line):
            return AccessResult(ServiceLevel.L2, l2_latency)
        dram_latency = self.dram.access_line(line)
        return AccessResult(ServiceLevel.DRAM, l2_latency + dram_latency)

    def _access(self, l1: Cache, l1_latency: int, line: int) -> AccessResult:
        if l1.access_line(line):
            return AccessResult(ServiceLevel.L1, l1_latency)
        below = self._through_l2(line)
        return AccessResult(below.level, l1_latency + below.latency)

    # -- traffic classes ------------------------------------------------------

    def texture_access(self, sc_id: int, line: int) -> AccessResult:
        """Texture fetch from shader core ``sc_id`` for cache line ``line``."""
        l1 = self.texture_l1s[sc_id]
        return self._access(l1, self.config.texture_cache.hit_latency, line)

    def vertex_access(self, line: int) -> AccessResult:
        """Vertex fetch from the Geometry Pipeline."""
        return self._access(
            self.vertex_cache, self.config.vertex_cache.hit_latency, line
        )

    def tile_access(self, line: int) -> AccessResult:
        """Parameter Buffer access from the Tiling Engine / Tile Fetcher."""
        return self._access(
            self.tile_cache, self.config.tile_cache.hit_latency, line
        )

    # -- one tile group through the whole hierarchy (the replay engine) -------

    def replay_group(
        self,
        vertex_lines: Sequence[Sequence[int]],
        fetch_lines: Sequence[Sequence[int]],
        cores: np.ndarray,
        lines: np.ndarray,
        bounds: np.ndarray,
        miss_overhead: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Drive one group of tiles' traffic through every level.

        Tile ``t`` fetches ``vertex_lines[t]`` (vertex cache), then
        ``fetch_lines[t]`` (tile cache), then its texture lines
        ``lines[bounds[t]:bounds[t + 1]]``, line ``i`` from shader core
        ``cores[i]``; the L2 sees the misses in that order.  Returns the
        positions of the texture lines that missed their L1 and each
        one's stall: the L2 hit latency plus ``miss_overhead``, plus the
        DRAM fill if the L2 missed too.  Every cache and counter ends
        exactly as the per-line entry points would leave it.
        """
        # One kernel call for level one: the texture lines, then every
        # tile's vertex and Parameter Buffer lines (disjoint caches, so
        # only the order within each one matters).
        front = list(chain.from_iterable(zip(vertex_lines, fetch_lines)))
        sizes = [len(part) for part in front]
        n_texture = len(lines)
        lines = np.concatenate((
            lines, np.fromiter(chain.from_iterable(front), np.int64, sum(sizes))
        ))
        missed = replay_caches(
            (*self.texture_l1s, self.vertex_cache, self.tile_cache),
            lines,
            np.concatenate((cores, np.repeat(np.tile(
                len(self.texture_l1s) + np.arange(2), len(vertex_lines)
            ), sizes))),
        )
        texture = np.searchsorted(missed, n_texture)
        # The L2 stream: per tile, its front misses, then its texture
        # misses.  Both runs of ``missed`` are in tile order; merge them.
        order = np.argsort(np.concatenate((
            2 * np.searchsorted(bounds, missed[:texture], side="right") - 1,
            np.repeat(np.arange(len(front)) // 2 * 2, sizes)[
                missed[texture:] - n_texture
            ],
        )), kind="stable")
        below = lines[missed[order]]
        fill = np.zeros(len(below), dtype=np.int64)
        to_dram = replay_caches(
            (self.l2,), below, np.zeros(len(below), dtype=np.intp)
        )
        fill[to_dram] = self.dram.access_array(below[to_dram])
        position = np.empty_like(order)
        position[order] = np.arange(len(order))
        stall = self.config.l2_cache.hit_latency + miss_overhead
        return missed[:texture], stall + fill[position[:texture]]

    # -- statistics -----------------------------------------------------------

    @property
    def l2_accesses(self) -> int:
        """The paper's headline metric: total accesses arriving at the L2."""
        return self.l2.stats.accesses

    @property
    def l2_misses(self) -> int:
        return self.l2.stats.misses

    @property
    def dram_accesses(self) -> int:
        return self.dram.stats.accesses

    def texture_l1_stats(self) -> CacheStats:
        """Aggregated statistics over all private L1 texture caches."""
        total = CacheStats()
        for l1 in self.texture_l1s:
            total = total.merge(l1.stats)
        return total

    def replication_factor(self) -> float:
        """Mean number of L1 copies of each line resident in any L1.

        1.0 means no line is replicated; values approach the number of
        shader cores as every line becomes resident everywhere.  This is
        the quantity DTexL's coarse-grained groupings reduce.
        """
        per_cache = [l1.resident_line_set() for l1 in self.texture_l1s]
        union = set().union(*per_cache) if per_cache else set()
        if not union:
            return 1.0
        total_resident = sum(len(lines) for lines in per_cache)
        return total_resident / len(union)

    def reset(self) -> None:
        """Clear all cache contents and statistics."""
        for l1 in self.texture_l1s:
            l1.reset()
        self.vertex_cache.reset()
        self.tile_cache.reset()
        self.l2.reset()
        self.dram.reset()
