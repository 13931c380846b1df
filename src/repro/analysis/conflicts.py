"""Miss decomposition: cold vs capacity vs conflict misses.

The classic three-C breakdown connects the reuse-distance profile to the
real set-associative cache:

* **cold** — first touch of a line (infinite reuse distance);
* **capacity** — would miss even in a fully-associative LRU cache of the
  same size (reuse distance >= number of lines);
* **conflict** — the remainder: misses the real set-indexed cache takes
  beyond the fully-associative count.

DTexL attacks capacity misses (replication wastes aggregate capacity);
this tool verifies that conflict misses are not secretly dominating the
L1 behaviour, which would invalidate the replication story.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from repro.analysis.reuse import reuse_profile
from repro.config import CacheConfig
from repro.memory.cache import Cache, replay_caches


@dataclass(frozen=True)
class MissDecomposition:
    """Counts of each miss class for one stream on one cache geometry."""

    accesses: int
    cold: int
    capacity: int
    conflict: int

    @property
    def total_misses(self) -> int:
        return self.cold + self.capacity + self.conflict

    @property
    def miss_rate(self) -> float:
        return self.total_misses / self.accesses if self.accesses else 0.0

    def fraction(self, kind: str) -> float:
        """Share of all misses in one class ('cold'/'capacity'/'conflict')."""
        total = self.total_misses
        return getattr(self, kind) / total if total else 0.0


def decompose_misses(
    stream: Iterable[int], config: CacheConfig
) -> MissDecomposition:
    """Run the three-C decomposition for one line-address stream.

    The fully-associative reference is computed from the reuse-distance
    profile (an access hits iff its distance < number of lines); the
    real cache is simulated directly.  ``conflict`` can be negative in
    pathological LRU anomalies; it is clamped at zero as is customary.
    """
    lines: List[int] = list(stream)
    profile = reuse_profile(lines)
    capacity_lines = config.num_lines
    fa_hits = sum(
        count for distance, count in profile.histogram.items()
        if distance < capacity_lines
    )
    fa_misses = len(lines) - fa_hits

    real = Cache(config)
    replay_caches(
        (real,), np.asarray(lines, np.int64), np.zeros(len(lines), np.intp)
    )
    real_misses = real.stats.misses

    cold = profile.cold_accesses
    capacity = fa_misses - cold
    conflict = max(0, real_misses - fa_misses)
    return MissDecomposition(
        accesses=len(lines),
        cold=cold,
        capacity=capacity,
        conflict=conflict,
    )
