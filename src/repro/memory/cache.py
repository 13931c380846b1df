"""Set-associative LRU cache models.

Caches are indexed by byte address; internally everything is tracked at
cache-line granularity.  The models are purely functional w.r.t. timing —
they report hits and misses, and the surrounding hierarchy converts those
into latencies.

Two implementations share one contract:

* :class:`Cache` — the fast engine.  Its state is one ``(2, sets,
  ways)`` array of tags over last-touch ages; true-LRU order is a
  monotone age stamp, so a hit re-stamps one way and a miss fills the
  set's oldest (or first invalid) way.  :meth:`Cache.access_lines` walks
  a footprint line by line; the replay engine hands whole tile groups
  to :func:`replay_caches`, which stacks several caches' states and runs
  the exact array kernel :func:`lru_lockstep` over every set at once.
* :class:`ReferenceCache` — the original ``OrderedDict``-per-set model,
  kept as the executable specification.  Differential tests drive both
  on identical access streams and require bit-identical counters,
  hit/miss sequences, eviction order and resident sets.

Age stamps replicate ``OrderedDict`` recency order exactly: a hit
re-stamps the line (``move_to_end``), a fill stamps it newest, and the
victim is the minimum stamp of the set (``popitem(last=False)``).
Stamps are unique within a cache (one tick per access), so LRU choice
is never ambiguous.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import CacheConfig
from repro.errors import ConfigError


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache instance."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed (0.0 when never accessed)."""
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit (0.0 when never accessed)."""
        return self.hits / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Return a new ``CacheStats`` with the sums of both counters."""
        return CacheStats(
            accesses=self.accesses + other.accesses,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
        )

    def reset(self) -> None:
        self.accesses = self.hits = self.misses = self.evictions = 0


@dataclass
class Cache:
    """A set-associative cache with true-LRU replacement (fast engine).

    Parameters come from a :class:`~repro.config.CacheConfig`.  The state
    is one ``(2, sets, ways)`` int64 array: ``[0]`` holds each way's
    resident line (-1 = invalid), ``[1]`` its last-touch stamp (0 while
    invalid).  The per-line path and the array kernel share it as is.
    """

    config: CacheConfig
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self._line_shift = self.config.line_bytes.bit_length() - 1
        if (1 << self._line_shift) != self.config.line_bytes:
            raise ConfigError("line size must be a power of two")
        self._num_sets = self.config.num_sets
        self._ways = self.config.associativity
        self.invalidate()

    # -- address helpers ------------------------------------------------------

    def line_of(self, address: int) -> int:
        """Cache-line number containing ``address``."""
        return address >> self._line_shift

    # -- operations -----------------------------------------------------------

    def access(self, address: int) -> bool:
        """Access a byte address.  Returns ``True`` on hit.

        On a miss, the line is filled and the LRU line of its set is
        evicted if the set is full.
        """
        return self.access_line(self.line_of(address))

    def access_line(self, line: int) -> bool:
        """Access by precomputed line number."""
        return self.access_lines((line,))[0] == 1

    def access_lines(self, lines: Sequence[int]) -> Tuple[int, List[int]]:
        """Access a whole footprint of line numbers in stream order.

        Returns ``(hits, missed_lines)`` where ``missed_lines`` preserves
        the order misses occurred — exactly the stream the next level of
        the hierarchy must see.  Counter updates are identical to calling
        :meth:`access_line` once per element.  One set's row is read as
        a Python list per line, so a short footprint never pays numpy's
        per-call cost; batches go through :func:`replay_caches`.
        """
        tags, ages = self._state
        num_sets = self._num_sets
        tick = self._tick
        hits = 0
        evictions = 0
        missed: List[int] = []
        for line in lines:
            tick += 1
            row = line % num_sets
            row_tags = tags[row].tolist()
            if line in row_tags:
                ages[row, row_tags.index(line)] = tick
                hits += 1
                continue
            missed.append(line)
            row_ages = ages[row].tolist()
            way = row_ages.index(min(row_ages))
            if row_tags[way] != -1:
                evictions += 1
            tags[row, way] = line
            ages[row, way] = tick
        self._tick = tick
        stats = self.stats
        stats.accesses += len(missed) + hits
        stats.hits += hits
        stats.misses += len(missed)
        stats.evictions += evictions
        return hits, missed

    def probe(self, address: int) -> bool:
        """Check residency without updating LRU state or statistics."""
        line = self.line_of(address)
        return line in self._state[0, line % self._num_sets].tolist()

    def invalidate(self, address: Optional[int] = None) -> None:
        """Invalidate one line (or the whole cache when ``address`` is None)."""
        if address is None:
            self._state = np.zeros((2, self._num_sets, self._ways), np.int64)
            self._state[0] = -1
            self._tick = 0
            return
        line = self.line_of(address)
        tags, ages = self._state[:, line % self._num_sets]
        gone = tags == line
        tags[gone] = -1
        ages[gone] = 0

    @property
    def resident_lines(self) -> int:
        """Number of valid lines currently held."""
        return int(np.count_nonzero(self._state[0] != -1))

    def resident_line_set(self) -> set:
        """The set of all resident line numbers (for replication analysis)."""
        tags = self._state[0]
        return set(tags[tags != -1].tolist())

    def reset(self) -> None:
        """Clear contents and statistics."""
        self.invalidate()
        self.stats.reset()


def lru_lockstep(tags, ages, streams, lines, tick: int) -> np.ndarray:
    """Exact true-LRU replay of many independent sets at once.

    ``tags``/``ages`` are stacked ``(streams, ways)`` int64 arrays, one
    row per LRU set (a ``(core, set)`` pair of the private L1s, or an L2
    set), updated in place.  Access ``i`` touches ``lines[i]`` in row
    ``streams[i]`` (a ``uint16`` radix-sort key below 65,536 rows,
    ``int64`` above) and is stamped ``tick + 1 + i``.  Returns the hit
    mask.

    A stable sort groups the accesses by row.  An immediate repeat
    within a row always hits and leaves LRU order alone, so each run
    collapses to its first access stamped with its last.  Then every row
    steps in lockstep, longest first, so the active rows are a prefix.
    The victim is ``Cache``'s: the hit way, else the minimum age — the
    first invalid way if any, as invalid ways are aged 0 and stamps >= 1.
    """
    n = len(lines)
    hit = np.ones(n, dtype=bool)
    if not n:
        return hit
    order = np.argsort(streams, kind="stable")
    line_of = lines[order]
    per_row = np.bincount(streams)
    busy = np.flatnonzero(per_row)
    row_start = (np.cumsum(per_row) - per_row)[busy]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(line_of[1:], line_of[:-1], out=first[1:])
    first[row_start] = True
    kept = np.flatnonzero(first)
    line_of = line_of[kept]
    stamp_of = order[np.append(kept[1:], n) - 1] + (tick + 1)

    starts = np.searchsorted(kept, row_start)
    lengths = np.diff(np.append(starts, len(kept)))
    longest_first = np.argsort(-lengths, kind="stable")
    starts = starts[longest_first]
    rows = busy[longest_first]
    # active[step]: how many rows have more than ``step`` accesses.
    active = np.searchsorted(
        -lengths[longest_first], -np.arange(lengths.max()), side="left"
    )
    row_tags = tags[rows]
    row_ages = ages[rows]
    flat_tags = row_tags.reshape(-1)
    flat_ages = row_ages.reshape(-1)
    base = np.arange(0, row_tags.size, tags.shape[1])
    kept_hit = np.empty(len(kept), dtype=bool)
    for step, width in enumerate(active.tolist()):
        at = starts[:width] + step
        line = line_of[at]
        slot = base[:width] + np.where(
            row_tags[:width] == line[:, None], -1, row_ages[:width]
        ).argmin(axis=1)
        kept_hit[at] = flat_tags[slot] == line
        flat_tags[slot] = line
        flat_ages[slot] = stamp_of[at]
    tags[rows] = row_tags
    ages[rows] = row_ages
    hit[order[kept]] = kept_hit
    return hit


def replay_caches(
    caches: Sequence[Cache], lines: np.ndarray, owners: np.ndarray
) -> np.ndarray:
    """Drive ``lines[i]`` through ``caches[owners[i]]`` in order.

    One :func:`lru_lockstep` call covers every ``(cache, set)`` stream;
    caches with fewer ways than the widest are padded with ways that
    never match and are never the victim.  Returns the positions that
    missed.  Contents, per-set LRU order and statistics end exactly as
    per-line :meth:`Cache.access_lines` calls would leave them.  The
    caches share a clock: stamps run on from their largest tick, and
    every tick ends ``len(lines)`` past it.
    """
    sets = np.array([cache._num_sets for cache in caches], dtype=np.int64)
    first_row = np.cumsum(sets) - sets
    state = np.empty(
        (2, int(sets.sum()), max(cache._ways for cache in caches)),
        dtype=np.int64,
    )
    state[0] = -2
    state[1] = np.iinfo(np.int64).max
    for c, cache in enumerate(caches):
        state[:, first_row[c]:first_row[c] + sets[c], :cache._ways] = (
            cache._state
        )
    tags, ages = state
    streams = lines % sets[owners] + first_row[owners]
    tick = max(cache._tick for cache in caches)
    invalid = np.add.reduceat((tags == -1).sum(axis=1), first_row)
    missed = np.flatnonzero(~lru_lockstep(
        tags, ages,
        streams.astype(np.uint16 if len(tags) < 65536 else np.int64),
        lines, tick,
    ))
    accesses = np.bincount(owners, minlength=len(caches)).tolist()
    misses = np.bincount(owners[missed], minlength=len(caches)).tolist()
    # Nothing is invalidated mid-replay: a miss that filled no invalid
    # way evicted one.
    filled = invalid - np.add.reduceat((tags == -1).sum(axis=1), first_row)
    for c, cache in enumerate(caches):
        cache._state = state[:, first_row[c]:first_row[c] + sets[c], :cache._ways]
        cache._tick = tick + len(lines)
        stats = cache.stats
        stats.accesses += accesses[c]
        stats.hits += accesses[c] - misses[c]
        stats.misses += misses[c]
        stats.evictions += misses[c] - int(filled[c])
    return missed


@dataclass
class ReferenceCache:
    """The original ``OrderedDict``-per-set LRU model (specification).

    Each set is an ``OrderedDict`` mapping line-tag -> None, oldest
    first, so a hit is a ``move_to_end`` and a replacement pops the
    front.  :class:`Cache` must match this model counter-for-counter;
    the reference replay engine and the differential tests run on it.
    """

    config: CacheConfig
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self._line_shift = self.config.line_bytes.bit_length() - 1
        if (1 << self._line_shift) != self.config.line_bytes:
            raise ConfigError("line size must be a power of two")
        self._num_sets = self.config.num_sets
        self._sets: List[OrderedDict] = [
            OrderedDict() for _ in range(self._num_sets)
        ]

    # -- address helpers ------------------------------------------------------

    def line_of(self, address: int) -> int:
        """Cache-line number containing ``address``."""
        return address >> self._line_shift

    # -- operations -----------------------------------------------------------

    def access(self, address: int) -> bool:
        """Access a byte address.  Returns ``True`` on hit.

        On a miss, the line is filled and the LRU line of its set is
        evicted if the set is full.
        """
        return self.access_line(self.line_of(address))

    def access_line(self, line: int) -> bool:
        """Access by precomputed line number."""
        cache_set = self._sets[line % self._num_sets]
        self.stats.accesses += 1
        if line in cache_set:
            cache_set.move_to_end(line)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if len(cache_set) >= self.config.associativity:
            cache_set.popitem(last=False)
            self.stats.evictions += 1
        cache_set[line] = None
        return False

    def probe(self, address: int) -> bool:
        """Check residency without updating LRU state or statistics."""
        line = self.line_of(address)
        return line in self._sets[line % self._num_sets]

    def invalidate(self, address: Optional[int] = None) -> None:
        """Invalidate one line (or the whole cache when ``address`` is None)."""
        if address is None:
            for cache_set in self._sets:
                cache_set.clear()
            return
        line = self.line_of(address)
        self._sets[line % self._num_sets].pop(line, None)

    @property
    def resident_lines(self) -> int:
        """Number of valid lines currently held."""
        return sum(len(s) for s in self._sets)

    def resident_line_set(self) -> set:
        """The set of all resident line numbers (for replication analysis)."""
        lines: set = set()
        for cache_set in self._sets:
            lines.update(cache_set.keys())
        return lines

    def reset(self) -> None:
        """Clear contents and statistics."""
        self.invalidate()
        self.stats.reset()
