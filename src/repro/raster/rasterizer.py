"""The Rasterizer: primitives -> covered quads, through Early-Z.

"The Rasterizer takes each primitive from the FIFO queue and identifies
which pixels of the current tile are overlapped by the primitive...  The
fragments of every four adjacent pixels are grouped to form a quad."

The implementation is vectorized per (primitive, tile): barycentric
weights, coverage, depth and perspective-correct UVs are evaluated with
numpy over the primitive's quad-aligned bounding box inside the tile,
then surviving 2x2 blocks are emitted with their texture cache-line
footprints: as :class:`~repro.raster.fragment.Quad` records by the scalar
path, as the quad columns of a trace entry by the batched fast path.

UV derivatives are taken across each quad's 2x2 lanes — including helper
lanes outside the triangle — exactly as real GPU quads compute mip LOD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import GPUConfig
from repro.core.tile_order import TileCoord
from repro.raster.blending import BlendingUnit
from repro.raster.color_buffer import ColorBuffer
from repro.raster.fragment import COVERAGE_WEIGHTS, QUAD_COLUMNS, Quad
from repro.raster.interpolation import barycentric_grid, interpolate_uv_grid
from repro.raster.setup import ScreenBatch, ScreenPrimitive
from repro.raster.zbuffer import ZBuffer
from repro.texture.sampler import ABSENT_LINE, FilterMode, Sampler, quad_lods
from repro.texture.texture import Texture


def _first_visits(rows: np.ndarray) -> np.ndarray:
    """Mask of each row's first visit to every cache line.

    The order ``dict.fromkeys`` preserves, vectorized with a stable
    per-row sort: within a run of equal lines the stable order puts the
    earliest column first.  :data:`ABSENT_LINE` fillers are dropped.
    """
    order = np.argsort(rows, axis=1, kind="stable")
    ranked = np.take_along_axis(rows, order, axis=1)
    keep = np.empty(rows.shape, dtype=bool)
    keep[:, 0] = True
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=keep[:, 1:])
    keep &= ranked != ABSENT_LINE
    first = np.empty_like(keep)
    np.put_along_axis(first, order, keep, axis=1)
    return first


@dataclass
class PendingTileQuads:
    """One tile's rasterized quads awaiting batched footprint assembly.

    Every quad column except the LODs and texture footprints, which are
    computed per flush group and (texture, samples) by
    :meth:`Rasterizer.finalize_quads_fast`.
    """

    tile: TileCoord
    qx: np.ndarray
    qy: np.ndarray
    prim_row: np.ndarray
    coverage_code: np.ndarray
    covered: int
    lane_u: np.ndarray
    lane_v: np.ndarray


class Rasterizer:
    """Rasterizes the primitives of one tile at a time."""

    def __init__(
        self,
        config: GPUConfig,
        textures: Dict[int, Texture],
        sampler: Optional[Sampler] = None,
    ):
        self.config = config
        self.textures = textures
        self.sampler = sampler or Sampler()
        self.quads_emitted = 0
        self.pixels_shaded = 0

    # -- public API -------------------------------------------------------------

    def rasterize_tile(
        self,
        tile: TileCoord,
        primitives: List[ScreenPrimitive],
        zbuffer: ZBuffer,
        color_buffer: Optional[ColorBuffer] = None,
        blender: Optional[BlendingUnit] = None,
    ) -> List[Quad]:
        """Produce the tile's shaded-quad stream in primitive order.

        ``zbuffer`` must be cleared by the caller before the first
        primitive of the tile.  When ``color_buffer`` is given, final
        pixel colors are also computed (image output mode).
        """
        quads: List[Quad] = []
        for primitive in primitives:
            quads.extend(
                self._rasterize_primitive(
                    tile, primitive, zbuffer, color_buffer, blender
                )
            )
        return quads

    def rasterize_tile_fast(
        self,
        tile: TileCoord,
        batch: ScreenBatch,
        rows: np.ndarray,
        zbuffer: ZBuffer,
    ) -> Optional[PendingTileQuads]:
        """Whole-tile rasterization of all of a tile's primitives at once.

        Evaluates the three edge functions, depth and perspective UVs of
        every primitive over the full tile pixel grid in one shot, runs
        Early-Z as an exclusive running minimum over the primitive axis
        (depth updates are order-independent ``min`` folds, so the
        sequential per-primitive test collapses exactly), and extracts
        covered 2x2 quads vectorized.  Bit-identical to running
        :meth:`rasterize_tile` over the same primitive list: every
        arithmetic expression reproduces the scalar path's association
        order, the full-grid evaluation only adds pixels the per-region
        masks switch off, and the quad emission order (primitive, then
        block row-major) is ``np.nonzero``'s C order.

        ``zbuffer`` only accumulates the ``tests``/``passes`` counters
        (the depth state lives in the running minimum here).
        """
        config = self.config
        ts = config.tile_size
        tile_x0, tile_y0 = tile[0] * ts, tile[1] * ts
        tile_x1 = min(tile_x0 + ts, config.screen_width)
        tile_y1 = min(tile_y0 + ts, config.screen_height)

        # Quad-aligned clip region per primitive (the scalar
        # _tile_clip_region, vectorized; floats first so huge
        # coordinates cannot overflow the int cast — any such row is
        # empty or clamped to the tile bound before casting).
        vx = batch.x[rows]
        vy = batch.y[rows]
        fx0 = np.maximum(float(tile_x0), np.floor(np.min(vx, axis=1)))
        fy0 = np.maximum(float(tile_y0), np.floor(np.min(vy, axis=1)))
        fx1 = np.minimum(float(tile_x1), np.ceil(np.max(vx, axis=1)) + 1.0)
        fy1 = np.minimum(float(tile_y1), np.ceil(np.max(vy, axis=1)) + 1.0)
        valid = (fx0 < fx1) & (fy0 < fy1) & (batch.area2[rows] != 0.0)
        if not valid.all():
            rows = rows[valid]
            if not len(rows):
                return None
            fx0, fy0 = fx0[valid], fy0[valid]
            fx1, fy1 = fx1[valid], fy1[valid]
        x0 = fx0.astype(np.int64)
        y0 = fy0.astype(np.int64)
        x1 = fx1.astype(np.int64)
        y1 = fy1.astype(np.int64)
        x0 -= (x0 - tile_x0) % 2
        y0 -= (y0 - tile_y0) % 2
        x1 += (x1 - tile_x0) % 2
        y1 += (y1 - tile_y0) % 2
        x1 = np.minimum(x1, tile_x0 + ts)
        y1 = np.minimum(y1, tile_y0 + ts)

        # Pixel-centre grids over the whole tile; the scalar path's
        # region grid is the same values restricted to the region.
        px = (np.arange(tile_x0, tile_x0 + ts, dtype=np.float64) + 0.5)[
            None, None, :
        ]
        py = (np.arange(tile_y0, tile_y0 + ts, dtype=np.float64) + 0.5)[
            None, :, None
        ]
        col = np.arange(tile_x0, tile_x0 + ts, dtype=np.int64)
        row_pix = np.arange(tile_y0, tile_y0 + ts, dtype=np.int64)

        area2 = batch.area2[rows][:, None, None]
        vx = batch.x[rows]
        vy = batch.y[rows]
        ax, bx, cx = (
            vx[:, 0][:, None, None], vx[:, 1][:, None, None],
            vx[:, 2][:, None, None],
        )
        ay, by, cy = (
            vy[:, 0][:, None, None], vy[:, 1][:, None, None],
            vy[:, 2][:, None, None],
        )
        w0, w1, w2 = barycentric_grid(ax, ay, bx, by, cx, cy, area2, px, py)
        inside = (w0 >= 0.0) & (w1 >= 0.0) & (w2 >= 0.0)

        # Region rect + screen clip (the scalar path only applies the
        # screen clip on overhang, but it is a no-op elsewhere).
        colm = (col >= x0[:, None]) & (col < x1[:, None])
        rowm = (row_pix >= y0[:, None]) & (row_pix < y1[:, None])
        colm &= col < config.screen_width
        rowm &= row_pix < config.screen_height
        inside &= rowm[:, :, None]
        inside &= colm[:, None, :]

        vz = batch.z[rows]
        z = (
            w0 * vz[:, 0][:, None, None]
            + w1 * vz[:, 1][:, None, None]
            + w2 * vz[:, 2][:, None, None]
        )
        inside &= (z >= 0.0) & (z <= 1.0)

        # Early-Z.  The scalar depth update is an elementwise min fold
        # over primitives, so "depth before primitive k" is an
        # exclusive running minimum of the depth-write contributions.
        # Computed in place, and the depth arrays are dropped once
        # ``passed`` is known: they are the tile's largest transients.
        running = np.where(
            inside & batch.depth_write[rows][:, None, None], z, np.inf
        )
        np.minimum.accumulate(running, axis=0, out=running)
        tested = z < np.inf  # the depth before the first primitive
        np.less(z[1:], running[:-1], out=tested[1:])
        tested &= inside
        del z, running
        zbuffer.tests += int(inside.sum())
        zbuffer.passes += int(tested.sum())
        passed = np.where(batch.late_z[rows][:, None, None], inside, tested)
        del inside, tested
        if not passed.any():
            return None

        # 2x2 block reduction over every primitive at once; nonzero's
        # C order is the scalar (primitive, by, bx) emission order.
        half = ts // 2
        blocks = passed.reshape(-1, half, 2, half, 2).transpose(0, 1, 3, 2, 4)
        kidx, qy, qx = np.nonzero(blocks.any(axis=(3, 4)))
        if not len(kidx):
            return None
        lanes = blocks[kidx, qy, qx].reshape(-1, 4)
        codes = (lanes * COVERAGE_WEIGHTS).sum(axis=1)

        # Perspective UVs only at the emitted quads' lanes, in footprint
        # order (0,0),(1,0),(0,1),(1,1): gather the barycentric weights
        # at the 2x2 block (region clamps never bind — regions are
        # even-sized — so the lanes are exactly the block) and apply the
        # scalar interpolation expressions there.  Same inputs, same
        # operations — bit-identical to interpolating the whole grid.
        def block_lanes(grid: np.ndarray) -> np.ndarray:
            view = grid.reshape(-1, half, 2, half, 2)
            return view.transpose(0, 1, 3, 2, 4)[kidx, qy, qx].reshape(-1, 4)

        lw0 = block_lanes(w0)
        lw1 = block_lanes(w1)
        lw2 = block_lanes(w2)
        prim = rows[kidx]
        vw = batch.inv_w[prim]
        uw = batch.u_over_w[prim]
        vvw = batch.v_over_w[prim]
        lane_u, lane_v = interpolate_uv_grid(
            lw0, lw1, lw2,
            vw[:, :1], vw[:, 1:2], vw[:, 2:],
            uw[:, :1], uw[:, 1:2], uw[:, 2:],
            vvw[:, :1], vvw[:, 1:2], vvw[:, 2:],
        )
        return PendingTileQuads(
            tile=tile,
            qx=qx,
            qy=qy,
            prim_row=prim,
            coverage_code=codes,
            covered=int(lanes.sum()),
            lane_u=lane_u,
            lane_v=lane_v,
        )

    def finalize_quads_fast(
        self, batch: ScreenBatch, pending: List[PendingTileQuads]
    ) -> Dict[TileCoord, Dict[str, np.ndarray]]:
        """Footprint batching for a group of tiles, emitted as columns.

        Quads are grouped by (texture, samples) so the mip-LOD and
        cache-line math runs in a few vectorized calls per group, in
        any filter mode; rows are deduped in first-visit order and
        gathered back into emission order as one CSR line array.  Each
        tile gets its slices of the :data:`QUAD_COLUMNS`.
        """
        if not pending:
            return {}
        rows_all = np.concatenate([p.prim_row for p in pending])
        lane_u = np.concatenate([p.lane_u for p in pending])
        lane_v = np.concatenate([p.lane_v for p in pending])
        tex_ids = batch.texture_id[rows_all]
        samples = batch.texture_samples[rows_all]
        total = len(rows_all)
        lods = np.zeros(total, dtype=np.float64)
        # Per (texture, samples) group: its quads, their deduped line
        # counts and their lines, row after row.
        none = np.zeros(0, dtype=np.int64)
        group_quads, group_counts, group_lines = [none], [none], [none]
        # One flat loop over (texture, samples) groups: the pairing key
        # is unique because samples lies in [0, stride).
        stride = int(samples.max(initial=0)) + 1
        group_key = tex_ids * stride + samples
        textures_get = self.textures.get
        footprints_batch = self.sampler.quad_footprints_batch
        # (Not ``np.unique``, whose first call imports ``numpy.ma``.)
        for key in sorted(set(group_key.tolist())):
            count = key % stride
            texture = textures_get(key // stride)
            if texture is None or count == 0:
                continue
            idx = np.nonzero(group_key == key)[0]
            lods[idx], rows = footprints_batch(
                texture, lane_u[idx], lane_v[idx], count
            )
            first = _first_visits(rows)
            group_quads.append(idx)
            group_counts.append(first.sum(axis=1))
            group_lines.append(rows[first])

        # Group-major rows back to emission order: quad q's lines start
        # at ``start[q]`` of the concatenated group lines.
        quad_of_row = np.concatenate(group_quads)
        row_counts = np.concatenate(group_counts)
        counts = np.zeros(total, dtype=np.int64)
        start = np.zeros(total, dtype=np.int64)
        counts[quad_of_row] = row_counts
        start[quad_of_row] = np.cumsum(row_counts) - row_counts
        offsets = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        lines = np.concatenate(group_lines)[
            np.repeat(start - offsets[:-1], counts) + np.arange(offsets[-1])
        ]

        columns = {
            "qx": np.concatenate([p.qx for p in pending]),
            "qy": np.concatenate([p.qy for p in pending]),
            "primitive_id": batch.pid[rows_all],
            "texture_id": tex_ids,
            "coverage": np.concatenate(
                [p.coverage_code for p in pending]
            ).astype(QUAD_COLUMNS["coverage"]),
            "alu_cycles": batch.alu_cycles[rows_all],
            "lod": lods,
            "blend": batch.blend[rows_all],
        }
        # Each tile's slices, rebasing its CSR offsets to start at 0.
        bounds = np.cumsum([0] + [len(p.prim_row) for p in pending])
        cuts = bounds[1:-1]
        names = [*columns, "line_offsets", "lines"]
        parts = [np.split(column, cuts) for column in columns.values()]
        parts.append([
            offsets[lo:hi + 1] - offsets[lo]
            for lo, hi in zip(bounds, bounds[1:])
        ])
        parts.append(np.split(lines, offsets[cuts]))
        self.quads_emitted += total
        self.pixels_shaded += sum(p.covered for p in pending)
        return {
            p.tile: dict(zip(names, tile_columns))
            for p, *tile_columns in zip(pending, *parts)
        }

    # -- internals --------------------------------------------------------------

    def _tile_clip_region(
        self, tile: TileCoord, primitive: ScreenPrimitive
    ) -> Optional[Tuple[int, int, int, int]]:
        """Quad-aligned pixel rect of the primitive inside the tile.

        Returns (x0, y0, x1, y1) in screen pixels, end-exclusive, snapped
        outward to 2-pixel quad boundaries, or None when empty.
        """
        ts = self.config.tile_size
        tile_x0, tile_y0 = tile[0] * ts, tile[1] * ts
        tile_x1 = min(tile_x0 + ts, self.config.screen_width)
        tile_y1 = min(tile_y0 + ts, self.config.screen_height)
        min_x, min_y, max_x, max_y = primitive.bbox()
        x0 = max(tile_x0, int(np.floor(min_x)))
        y0 = max(tile_y0, int(np.floor(min_y)))
        x1 = min(tile_x1, int(np.ceil(max_x)) + 1)
        y1 = min(tile_y1, int(np.ceil(max_y)) + 1)
        if x0 >= x1 or y0 >= y1:
            return None
        # Snap outward to the quad grid (anchored at the tile origin,
        # which is always even).
        x0 -= (x0 - tile_x0) % 2
        y0 -= (y0 - tile_y0) % 2
        x1 += (x1 - tile_x0) % 2
        y1 += (y1 - tile_y0) % 2
        x1 = min(x1, tile_x0 + ts)
        y1 = min(y1, tile_y0 + ts)
        return x0, y0, x1, y1

    def _rasterize_primitive(
        self,
        tile: TileCoord,
        primitive: ScreenPrimitive,
        zbuffer: ZBuffer,
        color_buffer: Optional[ColorBuffer],
        blender: Optional[BlendingUnit],
    ) -> List[Quad]:
        region = self._tile_clip_region(tile, primitive)
        if region is None or primitive.area2 == 0.0:
            return []
        x0, y0, x1, y1 = region
        ts = self.config.tile_size
        tile_x0, tile_y0 = tile[0] * ts, tile[1] * ts

        # Pixel-centre grids.
        xs = np.arange(x0, x1, dtype=np.float64) + 0.5
        ys = np.arange(y0, y1, dtype=np.float64) + 0.5
        px, py = np.meshgrid(xs, ys)

        a, b, c = primitive.vertices
        area2 = primitive.area2
        w0 = ((b.x - px) * (c.y - py) - (c.x - px) * (b.y - py)) / area2
        w1 = ((c.x - px) * (a.y - py) - (a.x - px) * (c.y - py)) / area2
        w2 = 1.0 - w0 - w1
        inside = (w0 >= 0.0) & (w1 >= 0.0) & (w2 >= 0.0)

        # Clip to the actual screen (edge tiles may overhang).
        if x1 > self.config.screen_width or y1 > self.config.screen_height:
            inside &= px < self.config.screen_width
            inside &= py < self.config.screen_height

        if not inside.any():
            return []

        z = w0 * a.z + w1 * b.z + w2 * c.z
        inside &= (z >= 0.0) & (z <= 1.0)
        mode = primitive.primitive
        tested = zbuffer.test_block(
            x0 - tile_x0, y0 - tile_y0, z, inside,
            depth_write=mode.depth_write,
        )
        if mode.late_z:
            # Late-Z: the shader may change depth, so every covered
            # fragment must be shaded; the depth test (already applied
            # to the buffer above) only gates what reaches Blending.
            passed = inside
        else:
            passed = tested
        if not passed.any():
            return []

        # Perspective-correct attributes over the whole block (helper
        # lanes included — they feed the LOD derivatives).
        inv_w = w0 * a.inv_w + w1 * b.inv_w + w2 * c.inv_w
        safe = np.where(inv_w == 0.0, 1.0, inv_w)
        u = (w0 * a.u_over_w + w1 * b.u_over_w + w2 * c.u_over_w) / safe
        v = (w0 * a.v_over_w + w1 * b.v_over_w + w2 * c.v_over_w) / safe

        texture = self.textures.get(mode.texture_id)
        return self._emit_quads(
            tile, tile_x0, tile_y0, x0, y0, passed, tested, u, v,
            texture, mode, color_buffer, blender, w0, w1,
            primitive,
        )

    def _emit_quads(
        self,
        tile: TileCoord,
        tile_x0: int,
        tile_y0: int,
        x0: int,
        y0: int,
        passed: np.ndarray,
        visible: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        texture: Optional[Texture],
        mode,
        color_buffer: Optional[ColorBuffer],
        blender: Optional[BlendingUnit],
        w0: np.ndarray,
        w1: np.ndarray,
        primitive: ScreenPrimitive,
    ) -> List[Quad]:
        quads: List[Quad] = []
        height, width = passed.shape
        shader = mode.shader
        # 2x2 block reduction over the whole region at once; nonzero's
        # row-major order reproduces the (by, bx) nested-loop order.
        grid = passed
        if height % 2 or width % 2:
            grid = np.zeros(
                (height + height % 2, width + width % 2), dtype=bool
            )
            grid[:height, :width] = passed
        block_view = grid.reshape(
            grid.shape[0] // 2, 2, grid.shape[1] // 2, 2
        ).transpose(0, 2, 1, 3)
        block_any = block_view.any(axis=(2, 3))
        bys, bxs = np.nonzero(block_any)
        covered_blocks = [
            (int(bx) * 2, int(by) * 2) for by, bx in zip(bys, bxs)
        ]
        if not covered_blocks:
            return quads
        # Per-quad 2x2 coverage for every covered block at once; the
        # row-major (dy, dx) flattening reproduces QUAD_PIXEL_OFFSETS
        # order, and the grid's False padding matches the out-of-bounds
        # lanes of the old per-block slice.
        coverages = [
            tuple(row) for row in block_view[bys, bxs]
            .reshape(len(covered_blocks), 4).tolist()
        ]
        footprints = self._batch_footprints(
            u, v, covered_blocks, texture, shader.texture_samples
        )
        for (bx, by), coverage, (lod, lines) in zip(
            covered_blocks, coverages, footprints
        ):
            quad = Quad(
                tile, (x0 + bx - tile_x0) // 2, (y0 + by - tile_y0) // 2,
                primitive.primitive_id, mode.texture_id, coverage,
                shader.alu_cycles, lines, lod, mode.blend,
            )
            quads.append(quad)
            self.quads_emitted += 1
            self.pixels_shaded += quad.covered_pixels
            if color_buffer is not None and blender is not None:
                # Only depth-test survivors reach Blending (matters
                # for Late-Z, where shaded != visible).
                visible_block = visible[by : by + 2, bx : bx + 2]
                self._shade_pixels(
                    tile_x0, tile_y0, x0, y0, bx, by, visible_block,
                    u, v, lod, texture, mode, color_buffer, blender,
                    w0, w1, primitive,
                )
        return quads

    def _batch_footprints(
        self,
        u: np.ndarray,
        v: np.ndarray,
        blocks: List[Tuple[int, int]],
        texture: Optional[Texture],
        texture_samples: int,
    ) -> List[Tuple[float, Tuple[int, ...]]]:
        """Per-quad (lod, cache lines) for all covered blocks at once.

        The LOD is computed once per quad by :func:`quad_lods` for
        every filter mode.  Bilinear sampling then runs fully
        vectorized; other filter modes visit the scalar
        :meth:`Sampler.footprint` of every lane and sample.
        """
        if texture is None or texture_samples == 0:
            return [(0.0, ())] * len(blocks)

        # The four lanes of each quad in the scalar path's order
        # (0,0),(1,0),(0,1),(1,1), clamped to the region.
        height, width = u.shape
        bxs = np.array([b[0] for b in blocks])
        bys = np.array([b[1] for b in blocks])
        x1 = np.minimum(bxs + 1, width - 1)
        y1 = np.minimum(bys + 1, height - 1)
        lane_y = np.stack([bys, bys, y1, y1], axis=1)
        lane_x = np.stack([bxs, x1, bxs, x1], axis=1)
        lane_u = u[lane_y, lane_x]
        lane_v = v[lane_y, lane_x]
        lods = quad_lods(texture, lane_u, lane_v)
        if self.sampler.filter_mode is not FilterMode.BILINEAR:
            return [
                self._quad_texture_footprint(
                    quad_u, quad_v, lod, texture, texture_samples
                )
                for quad_u, quad_v, lod in zip(
                    lane_u.tolist(), lane_v.tolist(), lods.tolist()
                )
            ]

        # The *sampled* level clamps to the mip chain; the reported LOD
        # stays raw, matching the scalar path.
        levels = np.minimum(lods, float(texture.max_lod)).astype(np.int64)
        lane_levels = np.broadcast_to(levels[:, None], lane_x.shape)

        # lines[k, lane, sample, neighbour] in scalar visit order.
        lines_batch = self.sampler.bilinear_lines_batch
        per_sample = []
        for sample in range(texture_samples):
            scale = float(sample + 1)
            per_sample.append(
                lines_batch(
                    texture, lane_u * scale, lane_v * scale, lane_levels
                )
            )
        lines = np.stack(per_sample, axis=2)

        # Flattening each block's slice row-major is exactly its
        # ravel(); dict.fromkeys dedups in first-visit order.
        flat = lines.reshape(len(blocks), -1).tolist()
        return [
            (lod, tuple(dict.fromkeys(row)))
            for lod, row in zip(lods.tolist(), flat)
        ]

    def _quad_texture_footprint(
        self,
        lane_u: List[float],
        lane_v: List[float],
        lod: float,
        texture: Texture,
        texture_samples: int,
    ) -> Tuple[float, Tuple[int, ...]]:
        """LOD and ordered unique cache lines of one quad's samples.

        The scalar spec: one :meth:`Sampler.footprint` per lane and
        sample, in lane-major order, deduped in first-visit order.
        """
        lines: List[int] = []
        seen = set()
        footprint = self.sampler.footprint
        for u, v in zip(lane_u, lane_v):
            for sample in range(texture_samples):
                scale = float(sample + 1)
                for line in footprint(texture, u * scale, v * scale, lod).lines:
                    if line not in seen:
                        seen.add(line)
                        lines.append(line)
        return lod, tuple(lines)

    def _shade_pixels(
        self,
        tile_x0: int,
        tile_y0: int,
        x0: int,
        y0: int,
        bx: int,
        by: int,
        block: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        lod: float,
        texture: Optional[Texture],
        mode,
        color_buffer: ColorBuffer,
        blender: BlendingUnit,
        w0: np.ndarray,
        w1: np.ndarray,
        primitive: ScreenPrimitive,
    ) -> None:
        """Compute and emit final colors for the covered pixels of a quad."""
        a, b, c = primitive.vertices
        for dy in range(block.shape[0]):
            for dx in range(block.shape[1]):
                if not block[dy, dx]:
                    continue
                iy, ix = by + dy, bx + dx
                ww0, ww1 = w0[iy, ix], w1[iy, ix]
                ww2 = 1.0 - ww0 - ww1
                inv_w = ww0 * a.inv_w + ww1 * b.inv_w + ww2 * c.inv_w
                if inv_w == 0.0:
                    continue
                vertex_color = tuple(
                    (ww0 * a.color_over_w[i] + ww1 * b.color_over_w[i]
                     + ww2 * c.color_over_w[i]) / inv_w
                    for i in range(3)
                )
                if texture is not None:
                    tex_color = self.sampler.sample_color(
                        texture, u[iy, ix], v[iy, ix], lod
                    )
                    color = tuple(
                        vertex_color[i] * tex_color[i] for i in range(3)
                    )
                else:
                    color = vertex_color
                px = x0 + ix - tile_x0
                py = y0 + iy - tile_y0
                blender.emit(color_buffer, px, py, color, mode.blend)
