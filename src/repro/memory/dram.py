"""Main-memory (DRAM) latency model.

Table II models main memory as a 1 GiB store with a 50-100 cycle access
latency.  The paper reports that DTexL does not change L2 misses and hence
does not change DRAM traffic, so a detailed bank/row model is not load-
bearing; we model the latency band deterministically.  Latency within the
[min, max] band is derived from the line address (a cheap stand-in for
row-buffer and bank effects) so repeated runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import DRAMConfig
from repro.errors import ConfigError


@dataclass
class DRAMStats:
    """Access and traffic counters for main memory."""

    accesses: int = 0
    total_latency: int = 0

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = 0
        self.total_latency = 0


@dataclass
class DRAM:
    """Deterministic banded-latency DRAM model."""

    config: DRAMConfig = field(default_factory=DRAMConfig)
    stats: DRAMStats = field(default_factory=DRAMStats)

    def latency_for_line(self, line: int) -> int:
        """Latency in cycles for a fill of cache line ``line``.

        A multiplicative hash spreads lines across the [min, max] latency
        band, emulating bank/row variation without random state.
        """
        band = self.config.max_latency - self.config.min_latency + 1
        # Knuth multiplicative hash keeps neighbouring lines decorrelated.
        jitter = ((line * 2654435761) >> 7) % band
        return self.config.min_latency + jitter

    def access_line(self, line: int) -> int:
        """Record an access and return its latency in cycles."""
        latency = self.latency_for_line(line)
        self.stats.accesses += 1
        self.stats.total_latency += latency
        return latency

    def access_array(self, lines: np.ndarray) -> np.ndarray:
        """Record a batch of accesses; returns each one's latency.

        :meth:`latency_for_line` over an int64 array, in uint64
        arithmetic: exact for line numbers below 2**32 (byte addresses
        below 256 GiB), which every simulated address is.
        """
        if len(lines) and int(lines.max()) >> 32:
            raise ConfigError("line number past 2**32 in the DRAM hash")
        band = self.config.max_latency - self.config.min_latency + 1
        jitter = (
            (lines.astype(np.uint64) * np.uint64(2654435761)) >> np.uint64(7)
        ) % np.uint64(band)
        latency = self.config.min_latency + jitter.astype(np.int64)
        self.stats.accesses += len(lines)
        self.stats.total_latency += int(latency.sum())
        return latency

    def reset(self) -> None:
        self.stats.reset()
