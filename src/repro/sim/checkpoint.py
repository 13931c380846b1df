"""Durable frame-trace checkpoints and sweep progress.

Pass 1 (the functional render) is the expensive half of the two-pass
economy; a crashed campaign that throws its traces away pays it again.
This module makes pass-1 results durable in one on-disk format, a
sealed chunk set:

* :func:`trace_key` — a content hash of ``(GPUConfig, workload recipe,
  frame, texture filter)``, so a checkpoint is only ever reused for the
  exact workload, configuration and sampler that produced it.
* :func:`trace_digest` / :class:`TraceDigestBuilder` — the canonical
  *semantic* content hash of a frame trace, built as a hash chain over
  per-tile digests (sorted tile order) so it can be accumulated one
  tile at a time without ever materializing the frame.
* :class:`TileChunkStore` — one verified chunk per tile coordinate plus
  a ``frame.json`` seal whose hash chain terminates in the trace
  digest.  The streaming dataflow writes and reads it one tile at a
  time.
* :class:`TraceCheckpointStore` — whole-frame checkpoints on top of
  the same chunk sets (``<store>/chunks/<key>/``): a save chunks every
  tile and seals the frame with its :class:`RenderStats`; a load
  checks every chunk's payload hash, the hash chain against the sealed
  digest, and the structural invariants of :func:`verify_trace`.  Any
  failure raises :class:`~repro.errors.TraceIntegrityError`, which
  callers treat as a cache miss.
* :class:`SweepProgress` — an append-only journal of completed sweep
  rows, keyed by a campaign hash, so a re-run with ``--resume`` skips
  every design point that already finished.

Chunk file layout (version 2): one ASCII JSON header line holding the
key, tile, payload SHA-256 and tile digest, a newline, then the raw
pickle payload of the columnar :class:`TileTraceEntry`; a chunk or seal
of another version is a cache miss.  Writes are atomic (temp file +
``os.replace``) so a crash mid-save never leaves a half-written chunk
or seal that a later ``--resume`` would trust.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import typing
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import GPUConfig
from repro.core.tile_order import TileCoord, scanline_order
from repro.errors import CheckpointError, TraceIntegrityError
from repro.raster.fragment import QUAD_COLUMNS
from repro.sim.driver import FrameTrace, RenderStats, TileTraceEntry
from repro.sim.faults import (
    InjectedKill,
    KIND_CORRUPT,
    KIND_PARTIAL_LINE,
    KIND_TORN_WRITE,
    KIND_TRUNCATE,
    SITE_CHUNK_LOAD,
    SITE_CHUNK_SAVE,
    SITE_JOURNAL_RECORD,
    fault_point,
)
from repro.texture.sampler import ABSENT_LINE, FilterMode, Sampler
from repro.workloads.recipe import SceneRecipe

CHECKPOINT_VERSION = 2
#: Subdirectory of a trace checkpoint store holding the chunk sets.
CHUNK_SUBDIR = "chunks"
_HEADER_LIMIT = 4096  # sane upper bound on the header line


def _truncate_file(path: Path, fraction: float) -> None:
    """Cut ``path`` down to ``fraction`` of its size (torn-write sim)."""
    try:
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(max(0, int(size * fraction)))
    except OSError:
        pass  # a checkpoint that cannot be damaged cannot be injected


def _flip_last_byte(path: Path) -> None:
    """Invert the final byte of ``path`` (bit-level corruption sim)."""
    try:
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            byte = handle.read(1)
            if byte:
                handle.seek(-1, os.SEEK_END)
                handle.write(bytes([byte[0] ^ 0xFF]))
    except OSError:
        pass


#: Payloads are trees of plain values, so the encoder skips the
#: per-container cycle check; the text is identical either way.
_CANONICAL_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=list,
    check_circular=False,
)


def _canonical_json(payload: Any) -> str:
    return _CANONICAL_ENCODER.encode(payload)


def config_fingerprint(config: GPUConfig) -> Dict[str, Any]:
    """The GPU configuration as a plain, hashable dictionary."""
    return dataclasses.asdict(config)


def config_hash(config: GPUConfig) -> str:
    """Stable hex digest identifying one GPU configuration."""
    text = _canonical_json(config_fingerprint(config))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def workload_fingerprint(recipe: SceneRecipe, frame: int = 0) -> Dict[str, Any]:
    """The workload recipe (plus animation frame) as a plain dictionary."""
    return {"recipe": dataclasses.asdict(recipe), "frame": frame}


def trace_key(
    config: GPUConfig,
    recipe: SceneRecipe,
    frame: int = 0,
    sampler: Optional[Sampler] = None,
) -> str:
    """Content hash keying one checkpointed trace.

    Any change to the GPU configuration, the scene recipe or the
    texture filter produces a different key, so stale checkpoints are
    never silently reused.  Bilinear filtering (and ``sampler=None``)
    keys exactly as before the filter was part of the key, so existing
    bilinear checkpoints stay valid; the anisotropy degree is keyed only
    under anisotropic filtering, the one mode whose footprints use it.
    """
    payload = {
        "version": CHECKPOINT_VERSION,
        "config": config_fingerprint(config),
        "workload": workload_fingerprint(recipe, frame),
    }
    mode = sampler.filter_mode if sampler is not None else FilterMode.BILINEAR
    if mode is not FilterMode.BILINEAR:
        payload["filter"] = {"mode": mode.value}
        if mode is FilterMode.ANISOTROPIC:
            payload["filter"]["max_anisotropy"] = sampler.max_anisotropy
    text = _canonical_json(payload)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def verify_trace(trace: FrameTrace) -> None:
    """Check a trace's structural invariants; raise on any violation.

    The invariants are exactly the schedule-independent facts pass 1
    guarantees: the tile map covers the full screen grid, every entry is
    well formed (:func:`_verify_entry`), and the per-tile streams agree
    with the :class:`RenderStats` totals.
    """
    config = trace.config
    expected_tiles = set(scanline_order(config.tiles_x, config.tiles_y))
    actual_tiles = set(trace.tiles)
    if actual_tiles != expected_tiles:
        missing = len(expected_tiles - actual_tiles)
        extra = len(actual_tiles - expected_tiles)
        raise TraceIntegrityError(
            f"trace tile map does not cover the {config.tiles_x}x"
            f"{config.tiles_y} grid ({missing} missing, {extra} extra)"
        )
    side = config.quads_per_tile_side
    covered = 0
    for tile, entry in trace.tiles.items():
        _verify_entry(tile, entry, side)
        covered += entry.covered_pixels
    if trace.total_quads != trace.stats.num_quads:
        raise TraceIntegrityError(
            f"trace holds {trace.total_quads} quads but RenderStats "
            f"counted {trace.stats.num_quads}"
        )
    if covered != trace.stats.pixels_shaded:
        raise TraceIntegrityError(
            f"trace covers {covered} pixels but RenderStats counted "
            f"{trace.stats.pixels_shaded}"
        )


def _verify_entry(tile: TileCoord, entry: TileTraceEntry, side: int) -> None:
    """One entry's invariants: it claims its own tile; each column is
    1-D in its fixed dtype, one row per quad (``line_offsets`` one
    more); ``0 <= qx, qy < side``; coverage codes lie in 1..15; the CSR
    offsets rise from 0 to ``len(lines)``; no :data:`ABSENT_LINE`."""
    if entry.tile != tile:
        raise TraceIntegrityError(
            f"entry recorded under tile {tile} claims tile {entry.tile}"
        )
    rows = entry.num_quads
    sizes = {"line_offsets": rows + 1, "lines": entry.lines.size}
    for name, dtype in QUAD_COLUMNS.items():
        column = getattr(entry, name)
        expected = sizes.get(name, rows)
        if column.dtype != dtype or column.shape != (expected,):
            raise TraceIntegrityError(
                f"tile {tile} column {name!r} is {column.dtype} of shape "
                f"{column.shape}, expected {dtype} of shape ({expected},)"
            )
    for name, low, high in (("qx", 0, side - 1), ("qy", 0, side - 1),
                            ("coverage", 1, 15)):
        column = getattr(entry, name)
        if rows and (column.min() < low or column.max() > high):
            raise TraceIntegrityError(
                f"tile {tile} holds a quad with {name} outside {low}..{high}"
            )
    offsets, lines = entry.line_offsets, entry.lines
    if (
        offsets[0] != 0 or offsets[-1] != len(lines)
        or (np.diff(offsets) < 0).any()
    ):
        raise TraceIntegrityError(
            f"tile {tile} line offsets do not rise monotonically from 0 "
            f"to its {len(lines)} texture lines"
        )
    if (lines == ABSENT_LINE).any():
        raise TraceIntegrityError(
            f"tile {tile} stores an absent-line filler as a texture line"
        )


def tile_digest(tile: TileCoord, entry: TileTraceEntry) -> str:
    """Content hash of one tile's replayable work, over its column bytes.

    A canonical JSON header (tile, fetch cycles, and the numbers of
    fetch lines, quads and texture lines, which make the byte stream
    unambiguous), then the fetch lines as ``<i8`` and every
    :data:`QUAD_COLUMNS` column in order, in its fixed little-endian
    dtype: LODs hash by their bits, so ``0.0`` and ``-0.0`` differ.
    """
    header = _canonical_json({
        "tile": list(tile),
        "fetch_cycles": entry.fetch_cycles,
        "fetch_lines": len(entry.fetch_lines),
        "quads": entry.num_quads,
        "lines": len(entry.lines),
    })
    hasher = hashlib.sha256(header.encode("ascii"))
    hasher.update(np.asarray(entry.fetch_lines, dtype="<i8").tobytes())
    for name, dtype in QUAD_COLUMNS.items():
        hasher.update(np.asarray(getattr(entry, name), dtype).tobytes())
    return hasher.hexdigest()


class TraceDigestBuilder:
    """Accumulates a trace digest one tile at a time, in any order.

    The digest is a hash chain: a frame prefix (config fingerprint +
    vertex lines), then every tile's :func:`tile_digest` folded in
    *sorted tile order*, then the replay-relevant stats totals.  Because
    per-tile digests are collected unordered and only chained at
    :meth:`finish`, a streaming producer can feed tiles in the replay's
    traversal order while still arriving at the exact digest a
    materialized trace hashes to.  The stats totals (``num_quads``,
    ``pixels_shaded``) are order-independent sums, accumulated as the
    tiles flow past.
    """

    def __init__(self, config: GPUConfig, vertex_lines: Sequence[int]):
        self.config = config
        self.vertex_lines = list(vertex_lines)
        prefix = _canonical_json({
            "config": config_fingerprint(config),
            "vertex_lines": self.vertex_lines,
        })
        self._prefix = hashlib.sha256(prefix.encode("ascii")).hexdigest()
        self._tiles: Dict[TileCoord, str] = {}
        self.num_quads = 0
        self.pixels_shaded = 0

    def add(
        self, tile: TileCoord, entry: TileTraceEntry,
        digest: Optional[str] = None,
    ) -> str:
        """Fold one tile in; ``digest`` skips rehashing a verified chunk."""
        if digest is None:
            digest = tile_digest(tile, entry)
        self.num_quads += entry.num_quads
        self.pixels_shaded += entry.covered_pixels
        return self.add_digest(tile, digest)

    def add_digest(self, tile: TileCoord, digest: str) -> str:
        """Fold in one tile's digest alone, skipping the stats totals.

        For a producer that already holds the frame's
        :class:`RenderStats` and will pass them to :meth:`finish`.
        """
        self._tiles[tuple(tile)] = digest
        return digest

    def finish(self, stats: Optional[RenderStats] = None) -> str:
        """The frame digest: chain over sorted tiles, stats sealed last.

        The stats link seals the accumulated totals, or ``stats``'
        totals when given: :func:`trace_digest` hashes what a
        materialized trace's :class:`RenderStats` claim.
        """
        chain = self._prefix
        for tile in sorted(self._tiles):
            chain = hashlib.sha256(
                (chain + self._tiles[tile]).encode("ascii")
            ).hexdigest()
        source = self if stats is None else stats
        totals = _canonical_json({
            "num_quads": source.num_quads,
            "pixels_shaded": source.pixels_shaded,
        })
        return hashlib.sha256((chain + totals).encode("ascii")).hexdigest()


def trace_digest(trace: FrameTrace) -> str:
    """Canonical content hash of a frame trace.

    A function of the trace's *semantic* content (tiles sorted, quads in
    stream order, every replay-relevant field), so two structurally
    equal traces hash equally regardless of how they were serialized.
    Built with :class:`TraceDigestBuilder`, which is what lets the
    streaming dataflow compute the same digest without ever holding the
    whole frame, and what seals every checkpointed chunk set.
    """
    builder = TraceDigestBuilder(trace.config, trace.vertex_lines)
    for tile, entry in trace.tiles.items():
        builder.add(tile, entry)
    return builder.finish(trace.stats)


def _config_from(cls, values: Dict[str, Any]):
    """Inverse of :func:`dataclasses.asdict` for the nested config."""
    hints = typing.get_type_hints(cls)
    return cls(**{
        name: (
            _config_from(hints[name], value)
            if dataclasses.is_dataclass(hints[name]) else value
        )
        for name, value in values.items()
    })


class TraceCheckpointStore:
    """Disk-backed, integrity-checked store of frame traces.

    A checkpoint is a sealed chunk set: :meth:`save` writes one
    :class:`TileChunkStore` chunk per tile under
    ``<directory>/chunks/<key>/`` and seals ``frame.json`` over them,
    the same format the streaming dataflow writes one tile at a time.
    So a frame saved by either driver replays through the other, and a
    streamed run can resume from a batch-saved frame.
    """

    def __init__(self, directory: os.PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _chunk_dir(self, key: str) -> Path:
        return self.directory / CHUNK_SUBDIR / key

    def chunks(self, key: str) -> "TileChunkStore":
        """The chunk set holding (or about to hold) checkpoint ``key``."""
        return TileChunkStore(self._chunk_dir(key), key)

    def contains(self, key: str) -> bool:
        """Whether a sealed chunk set exists under ``key``."""
        return TileChunkStore.meta_path_in(self._chunk_dir(key)).is_file()

    def save(self, key: str, trace: FrameTrace) -> Path:
        """Persist ``trace`` as a sealed chunk set; returns its meta path."""
        chunks = self.chunks(key)
        builder = TraceDigestBuilder(trace.config, trace.vertex_lines)
        for tile, entry in trace.tiles.items():
            builder.add_digest(tile, chunks.save_tile(tile, entry))
        chunks.seal(builder, trace.stats)
        return chunks.meta_path()

    def load(self, key: str) -> FrameTrace:
        """Reassemble and fully verify the trace stored under ``key``.

        Every chunk's payload hash, the hash chain against the sealed
        digest, and :func:`verify_trace` must pass.  Anything less raises
        :class:`TraceIntegrityError` (a
        :class:`~repro.errors.CheckpointError`); callers treat that as
        a cache miss and re-render, never as a fatal error.
        """
        # Checked before opening the chunk set, whose directory a miss
        # must not create: on a read-only store that would raise
        # OSError instead of the cache miss callers expect.
        if not self.contains(key):
            raise TraceIntegrityError(f"no sealed checkpoint under {key!r}")
        chunks = self.chunks(key)
        meta = chunks.frame_meta()
        if meta is None or not meta.get("stats"):
            raise TraceIntegrityError(
                f"checkpoint seal {chunks.meta_path()} is unreadable, of "
                "another version or key, or has no render stats"
            )
        try:
            config = _config_from(GPUConfig, meta["config"])
            stats = RenderStats(**meta["stats"])
            vertex_lines = list(meta["vertex_lines"])
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise TraceIntegrityError(
                f"checkpoint {chunks.meta_path()} has a malformed seal"
            ) from error
        builder = TraceDigestBuilder(config, vertex_lines)
        tiles: Dict[TileCoord, TileTraceEntry] = {}
        for tile in scanline_order(config.tiles_x, config.tiles_y):
            loaded = chunks.load_tile(tile)
            if loaded is None:
                raise TraceIntegrityError(
                    f"checkpoint chunk {chunks.chunk_path(tile)} is "
                    "missing, torn or fails its payload hash"
                )
            tiles[tile] = loaded[0]
            builder.add(tile, *loaded)
        if builder.finish(stats) != meta.get("digest"):
            raise TraceIntegrityError(
                f"checkpoint {key!r} chunks do not chain to the sealed "
                "digest (chunk or seal tampered with)"
            )
        trace = FrameTrace(config, vertex_lines, tiles, stats)
        verify_trace(trace)
        return trace

    def load_or_render(
        self, key: str, render: Callable[[], FrameTrace]
    ) -> FrameTrace:
        """The trace under ``key``, or ``render()``'s, checkpointed.

        The one cache-miss path: any :class:`CheckpointError` (absent,
        torn, corrupt or tampered chunk set) re-renders the frame and
        rewrites its chunk set for the next run.  A rewrite that fails
        (full or read-only store) only warns: the rendered trace in hand
        is still good, and the next run simply misses again.
        """
        try:
            return self.load(key)
        except CheckpointError:
            trace = render()
            try:
                self.save(key, trace)
            except OSError as error:
                warnings.warn(
                    f"could not checkpoint trace {key!r} under "
                    f"{self.directory}: {error}",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return trace


def _atomic_write(path: Path, *parts: bytes) -> None:
    """Write ``parts`` to ``path`` via temp file + ``os.replace``."""
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-", suffix=path.suffix
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            for part in parts:
                handle.write(part)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class TileChunkStore:
    """Tile-granular trace checkpoints, hash-chained to the trace digest.

    The one durable form of pass 1: one verified chunk per tile
    coordinate (an ASCII JSON header line, then the pickled entry) plus
    a ``frame.json`` seal holding the config, vertex prologue, render
    stats and the frame digest that the chunks' per-tile digests must
    chain to: exactly :func:`trace_digest` of the reassembled trace.

    For the streaming dataflow a missing, truncated or corrupt chunk is
    a *cache miss* — the caller re-renders that one tile — never an
    error.  The first design point of a streaming campaign therefore
    renders each tile once and chunks it; every later design point
    replays the same game from chunks, restoring the render-once economy
    while peak memory stays O(tiles-in-flight).
    """

    META_FILENAME = "frame.json"

    def __init__(self, directory: os.PathLike, key: str):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.key = key

    # -- per-tile chunks -------------------------------------------------------

    def chunk_path(self, tile: TileCoord) -> Path:
        return self.directory / f"t{tile[0]:03d}_{tile[1]:03d}.chunk"

    def _fault_key(self, tile: TileCoord) -> str:
        return f"{self.key}:{tile[0]},{tile[1]}"

    def save_tile(self, tile: TileCoord, entry: TileTraceEntry) -> str:
        """Atomically persist one tile's entry; returns its tile digest."""
        payload = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        digest = tile_digest(tile, entry)
        header = _canonical_json({
            "version": CHECKPOINT_VERSION,
            "key": self.key,
            "tile": list(tile),
            "sha256": hashlib.sha256(payload).hexdigest(),
            "tile_digest": digest,
            "num_quads": entry.num_quads,
        })
        path = self.chunk_path(tile)
        _atomic_write(path, header.encode("ascii"), b"\n", payload)
        if fault_point(
            SITE_CHUNK_SAVE, key=self._fault_key(tile)
        ) == KIND_TORN_WRITE:
            # Simulated torn write: the rename survived but the payload
            # tail never hit the platter; the next load must detect it.
            _truncate_file(path, 0.5)
        return digest

    def load_tile(
        self, tile: TileCoord
    ) -> Optional[Tuple[TileTraceEntry, str]]:
        """Load one verified chunk, or ``None`` to mean "re-render me".

        Returns ``(entry, tile_digest)`` so the caller's running frame
        digest can reuse the chunk's verified hash instead of rehashing
        the entry on every replay.
        """
        path = self.chunk_path(tile)
        if not path.is_file():
            return None
        fault = fault_point(SITE_CHUNK_LOAD, key=self._fault_key(tile))
        if fault == KIND_TRUNCATE:
            _truncate_file(path, 0.5)
        elif fault == KIND_CORRUPT:
            _flip_last_byte(path)
        try:
            with open(path, "rb") as handle:
                header_line = handle.readline(_HEADER_LIMIT)
                payload = handle.read()
            header = json.loads(header_line.decode("ascii"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        if (
            header.get("version") != CHECKPOINT_VERSION
            or header.get("key") != self.key
            or header.get("tile") != list(tile)
        ):
            return None
        if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
            return None
        try:
            entry = pickle.loads(payload)
        except Exception:
            return None
        if not isinstance(entry, TileTraceEntry):
            return None
        digest = header.get("tile_digest")
        if not isinstance(digest, str):
            return None
        return entry, digest

    # -- frame seal ------------------------------------------------------------

    @classmethod
    def meta_path_in(cls, directory: Path) -> Path:
        """Where the seal of the chunk set in ``directory`` lives."""
        return directory / cls.META_FILENAME

    def meta_path(self) -> Path:
        return self.meta_path_in(self.directory)

    def frame_meta(self) -> Optional[Dict[str, Any]]:
        """The sealed frame record, or ``None`` while incomplete/corrupt."""
        path = self.meta_path()
        if not path.is_file():
            return None
        try:
            with open(path, "r", encoding="ascii") as handle:
                meta = json.load(handle)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None
        if (
            not isinstance(meta, dict)
            or meta.get("version") != CHECKPOINT_VERSION
            or meta.get("key") != self.key
        ):
            return None
        return meta

    def vertex_lines(self) -> Optional[List[int]]:
        """The frame's vertex prologue, once a full traversal sealed it."""
        meta = self.frame_meta()
        if meta is None:
            return None
        lines = meta.get("vertex_lines")
        return list(lines) if isinstance(lines, list) else None

    def digest(self) -> Optional[str]:
        """The sealed trace digest, or ``None`` while incomplete."""
        meta = self.frame_meta()
        return meta.get("digest") if meta else None

    def seal(
        self, builder: TraceDigestBuilder,
        stats: Optional[RenderStats] = None,
    ) -> str:
        """Finish ``builder``'s chain and seal the frame under it.

        ``stats`` marks a pass that just wrote every chunk (a batch
        save, or a streamed render of the whole frame): its seal is
        written outright and records the :class:`RenderStats` a batch
        load needs.  Without ``stats``, a seal an earlier pass wrote is
        cross-checked instead, raising :class:`TraceIntegrityError` when
        the chunks no longer chain to its digest.
        """
        digest = builder.finish(stats)
        if stats is None:
            existing = self.frame_meta()
            if existing is not None:
                if existing.get("digest") != digest:
                    raise TraceIntegrityError(
                        f"chunked frame under {self.directory} reassembled "
                        f"to digest {digest}, but its seal records "
                        f"{existing.get('digest')!r}"
                    )
                return digest
        meta = _canonical_json({
            "version": CHECKPOINT_VERSION,
            "key": self.key,
            "digest": digest,
            "config": config_fingerprint(builder.config),
            "vertex_lines": builder.vertex_lines,
            "stats": dataclasses.asdict(stats) if stats else None,
        })
        _atomic_write(self.meta_path(), meta.encode("ascii"), b"\n")
        return digest


class SweepProgress:
    """Append-only journal of completed sweep rows for one campaign.

    Each line is ``{"campaign": ..., "design": ..., "row": {...}}``;
    rows of other campaigns sharing the file are ignored, and malformed
    lines (e.g. from a crash mid-append) are skipped rather than trusted.
    """

    FILENAME = "sweep_progress.jsonl"

    def __init__(self, directory: os.PathLike, campaign: str):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / self.FILENAME
        self.campaign = campaign

    def completed_rows(self) -> Dict[str, Dict[str, Any]]:
        """Design-point name -> recorded row dict, for this campaign.

        A crash mid-append (power cut, SIGKILL) legitimately leaves a
        partial trailing line; it is dropped with a warning — the row
        it would have recorded is simply recomputed.  A malformed line
        *before* the end means something else scribbled on the journal;
        it is skipped with a louder warning, but one bad line never
        costs the rows around it.
        """
        rows: Dict[str, Dict[str, Any]] = {}
        if not self.path.is_file():
            return rows
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        for index, line in enumerate(lines):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError:
                if index == len(lines) - 1:
                    warnings.warn(
                        f"dropping partial trailing line in sweep journal "
                        f"{self.path} (crash mid-append?); its row will "
                        f"be recomputed",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                else:
                    warnings.warn(
                        f"skipping malformed line {index + 1} in sweep "
                        f"journal {self.path}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                continue
            if (
                isinstance(record, dict)
                and record.get("campaign") == self.campaign
                and isinstance(record.get("row"), dict)
                and isinstance(record.get("design"), str)
            ):
                rows[record["design"]] = record["row"]
        return rows

    def record(self, design: str, row: Dict[str, Any]) -> None:
        """Append one completed row; flushed so a crash loses at most it."""
        line = json.dumps(
            {"campaign": self.campaign, "design": design, "row": row},
            sort_keys=True,
        )
        fault = fault_point(SITE_JOURNAL_RECORD)
        if fault == KIND_PARTIAL_LINE:
            # Die mid-append: flush a prefix with no newline, exactly
            # the state a power cut leaves, then kill the campaign.
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line[: max(1, len(line) // 2)])
                handle.flush()
                os.fsync(handle.fileno())
            raise InjectedKill(
                f"injected kill mid-append of row {design!r}"
            )
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())


def campaign_key(config: GPUConfig, games, baseline_name: str) -> str:
    """Hash identifying one sweep campaign for resume matching.

    Includes the GPU configuration, the game list and the baseline, but
    *not* the full grid: a resumed run may extend the grid and still
    reuse every previously completed point.
    """
    text = _canonical_json({
        "config": config_fingerprint(config),
        "games": list(games),
        "baseline": baseline_name,
    })
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def read_manifest(path: os.PathLike) -> Optional[Dict[str, Any]]:
    """Load a previously written run manifest, or ``None`` if absent."""
    path = Path(path)
    if not path.is_file():
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
