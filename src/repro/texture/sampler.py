"""Texture samplers: nearest, bilinear, trilinear and anisotropic.

The sampler's job in this simulator is to turn one texture sample
(a UV coordinate plus a level-of-detail) into the set of cache lines
it touches — the :class:`SampleFootprint`.  Filter choice changes how
wide that footprint is and therefore how much reuse neighbouring quads
see ("more so in trilinear and anisotropic filtering than in bilinear",
paper §II-B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Tuple

from repro.texture.texture import Texture
from repro.errors import ConfigError


class FilterMode(Enum):
    """Supported texture filtering modes."""

    NEAREST = "nearest"
    BILINEAR = "bilinear"
    TRILINEAR = "trilinear"
    ANISOTROPIC = "anisotropic"


@dataclass(frozen=True)
class SampleFootprint:
    """The memory touched by one texture sample."""

    texture_id: int
    lines: Tuple[int, ...]
    texel_count: int

    @property
    def line_count(self) -> int:
        return len(self.lines)


#: Row filler for a trilinear quad's absent second mip level in
#: :meth:`Sampler.quad_footprints_batch`.  Cache-line numbers are never
#: negative, so a first-visit dedup that keeps only non-negative
#: entries drops it.
ABSENT_LINE = -1


def compute_lod(du_dx, dv_dx, du_dy, dv_dy, width: int, height: int):
    """Mip level of detail from UV screen-space derivatives.

    Standard GL formula: log2 of the longest screen-space texel stride.
    Elementwise over numpy arrays (or scalars): this one expression is
    the LOD of every filter mode in both render engines.
    """
    import numpy as np

    sx = np.hypot(du_dx * width, dv_dx * height)
    sy = np.hypot(du_dy * width, dv_dy * height)
    rho = np.maximum(np.maximum(sx, sy), 1e-12)
    return np.maximum(0.0, np.log2(rho))


def quad_lods(texture: Texture, lane_u, lane_v):
    """Raw (unclamped) mip LOD per quad from its ``(Q, 4)`` lane UVs.

    Lanes are in footprint order ``(0,0), (1,0), (0,1), (1,1)``, so the
    x derivative is lane 1 minus lane 0 and the y derivative lane 2
    minus lane 0 (helper lanes included, as on real GPU quads).
    """
    u00 = lane_u[:, 0]
    v00 = lane_v[:, 0]
    return compute_lod(
        lane_u[:, 1] - u00, lane_v[:, 1] - v00,
        lane_u[:, 2] - u00, lane_v[:, 2] - v00,
        texture.width, texture.height,
    )


class Sampler:
    """Computes sample footprints (and procedural colors) for a texture."""

    def __init__(
        self,
        filter_mode: FilterMode = FilterMode.BILINEAR,
        max_anisotropy: int = 4,
    ):
        if max_anisotropy < 1:
            raise ConfigError("max_anisotropy must be >= 1")
        self.filter_mode = filter_mode
        self.max_anisotropy = max_anisotropy

    # -- footprint construction ------------------------------------------------

    def _bilinear_texels(
        self, texture: Texture, u: float, v: float, lod: int
    ) -> List[Tuple[int, int]]:
        """The 2x2 texel neighbourhood of (u, v) at integer ``lod``."""
        mip = texture.level(lod)
        # Texel centres are at half-integer coordinates.
        tx = u * mip.width - 0.5
        ty = v * mip.height - 0.5
        x0, y0 = math.floor(tx), math.floor(ty)
        return [
            texture.wrap(x0 + dx, y0 + dy, lod)
            for dy in (0, 1) for dx in (0, 1)
        ]

    def footprint(
        self, texture: Texture, u: float, v: float, lod: float = 0.0
    ) -> SampleFootprint:
        """Cache lines touched by sampling ``texture`` at (u, v, lod)."""
        texels: List[Tuple[int, int, int]] = []  # (x, y, level)
        lod = min(max(lod, 0.0), float(texture.max_lod))
        base_level = int(lod)

        if self.filter_mode is FilterMode.NEAREST:
            mip = texture.level(base_level)
            x, y = texture.wrap(
                int(u * mip.width), int(v * mip.height), base_level
            )
            texels.append((x, y, base_level))
        elif self.filter_mode is FilterMode.BILINEAR:
            for x, y in self._bilinear_texels(texture, u, v, base_level):
                texels.append((x, y, base_level))
        elif self.filter_mode is FilterMode.TRILINEAR:
            levels = [base_level]
            if lod > base_level and base_level < texture.max_lod:
                levels.append(base_level + 1)
            for level in levels:
                for x, y in self._bilinear_texels(texture, u, v, level):
                    texels.append((x, y, level))
        elif self.filter_mode is FilterMode.ANISOTROPIC:
            # N bilinear probes spread along u at a sharper mip level.
            probes = self.max_anisotropy
            level = max(0, base_level - int(math.log2(probes)))
            mip = texture.level(level)
            step = probes / (2.0 * mip.width)
            for i in range(probes):
                offset = (i - (probes - 1) / 2.0) * step
                for x, y in self._bilinear_texels(
                    texture, u + offset, v, level
                ):
                    texels.append((x, y, level))
        else:  # pragma: no cover - enum is exhaustive
            raise ConfigError(f"unknown filter mode {self.filter_mode}")

        lines: List[int] = []
        seen = set()
        for x, y, level in texels:
            line = texture.texel_line(x, y, level)
            if line not in seen:
                seen.add(line)
                lines.append(line)
        return SampleFootprint(
            texture_id=texture.texture_id,
            lines=tuple(lines),
            texel_count=len(texels),
        )

    def bilinear_lines_batch(self, texture: Texture, u, v, level):
        """Vectorized bilinear footprints: cache lines of many samples.

        ``u``, ``v`` are float arrays and ``level`` a pre-clamped
        integer mip level array, all mutually broadcastable (per-quad
        levels can stay a column vector — per-level constants are then
        gathered once per quad rather than once per texel); returns an
        int64 array of shape ``broadcast(u, v, level).shape + (4,)``
        whose last axis holds the 2x2 neighbourhood's cache lines in
        the same order as :meth:`footprint` visits them.  This is one
        bilinear probe whatever the filter mode: trilinear and
        anisotropic footprints are built from it.
        """
        import numpy as np

        tables = texture._level_tables()
        level = np.asarray(level, dtype=np.int64)
        w = tables["wmask"][level] + 1
        h = tables["hmask"][level] + 1
        tx = np.asarray(u) * w - 0.5
        ty = np.asarray(v) * h - 0.5
        x0 = np.floor(tx).astype(np.int64)
        y0 = np.floor(ty).astype(np.int64)
        # A (dy, dx) grid whose row-major order matches the scalar path:
        # (0,0),(1,0),(0,1),(1,1); texel_lines_array broadcasts the two
        # column coordinates against the two row coordinates.
        nx = np.stack([x0, x0 + 1], axis=-1)[..., None, :]
        ny = np.stack([y0, y0 + 1], axis=-1)[..., :, None]
        lines = texture.texel_lines_array(nx, ny, level[..., None, None])
        return lines.reshape(lines.shape[:-2] + (4,))

    def quad_footprints_batch(self, texture: Texture, lane_u, lane_v,
                              texture_samples: int):
        """Batched per-quad mip LOD + cache-line rows for many quads.

        ``lane_u``/``lane_v`` are ``(Q, 4)`` arrays of the four quad
        lanes' perspective-correct UVs in footprint order
        ``(0,0), (1,0), (0,1), (1,1)``.  Returns ``(lods, lines)``:
        the raw (unclamped) per-quad LOD array (:func:`quad_lods`) and
        a ``(Q, N)`` int64 array of cache lines flattened in scalar
        visit order — lane-major, then sample, then the filter's own
        order (trilinear level or anisotropic probe, then bilinear
        neighbour) — still containing duplicates, exactly as the scalar
        :meth:`footprint` calls visit them before their first-visit
        dedup.  A trilinear quad without a second mip level fills that
        level's columns with :data:`ABSENT_LINE`.
        """
        import numpy as np

        lods = quad_lods(texture, lane_u, lane_v)
        # The *sampled* level clamps to the mip chain; the reported LOD
        # stays raw, matching the scalar path.
        max_lod = texture.max_lod
        clamped = np.minimum(lods, float(max_lod))
        levels = clamped.astype(np.int64)
        # Sample k of a lane reads (u, v) * (k + 1): axes (quad, lane,
        # sample).
        scales = np.arange(1, texture_samples + 1, dtype=np.float64)
        u = lane_u[:, :, None] * scales
        v = lane_v[:, :, None] * scales
        mode = self.filter_mode
        if mode is FilterMode.BILINEAR:
            lines = self.bilinear_lines_batch(
                texture, u, v, levels[:, None, None]
            )
        elif mode is FilterMode.NEAREST:
            # int() truncates toward zero; so does the float->int cast.
            level = levels[:, None, None]
            tables = texture._level_tables()
            x = (u * (tables["wmask"][level] + 1)).astype(np.int64)
            y = (v * (tables["hmask"][level] + 1)).astype(np.int64)
            lines = texture.texel_lines_array(x, y, level)
        elif mode is FilterMode.TRILINEAR:
            pair = np.stack(
                [levels, np.minimum(levels + 1, max_lod)], axis=1
            )
            lines = self.bilinear_lines_batch(
                texture, u[..., None], v[..., None], pair[:, None, None, :]
            )
            single = ~((clamped > levels) & (levels < max_lod))
            lines[single, :, :, 1] = ABSENT_LINE
        else:
            # N bilinear probes spread along u at a sharper mip level:
            # axes (quad, lane, sample, probe), same float expressions
            # as the scalar path.
            probes = self.max_anisotropy
            level = np.maximum(levels - int(math.log2(probes)), 0)
            width = texture._level_tables()["wmask"][level] + 1
            step = probes / (2.0 * width)
            offsets = (
                np.arange(probes) - (probes - 1) / 2.0
            ) * step[:, None]
            lines = self.bilinear_lines_batch(
                texture, u[..., None] + offsets[:, None, None, :],
                v[..., None], level[:, None, None, None],
            )
        return lods, lines.reshape(len(lods), -1)

    # -- procedural filtering ----------------------------------------------------

    def sample_color(
        self, texture: Texture, u: float, v: float, lod: float = 0.0
    ) -> Tuple[float, float, float]:
        """Filtered procedural color in [0, 1]^3 (for image output only)."""
        level = int(min(max(lod, 0.0), float(texture.max_lod)))
        mip = texture.level(level)
        tx = u * mip.width - 0.5
        ty = v * mip.height - 0.5
        x0, y0 = math.floor(tx), math.floor(ty)
        fx, fy = tx - x0, ty - y0
        acc = [0.0, 0.0, 0.0]
        for dy, wy in ((0, 1.0 - fy), (1, fy)):
            for dx, wx in ((0, 1.0 - fx), (1, fx)):
                x, y = texture.wrap(x0 + dx, y0 + dy, level)
                r, g, b = texture.texel_value(x, y, level)
                w = wx * wy
                acc[0] += r * w
                acc[1] += g * w
                acc[2] += b * w
        return (acc[0] / 255.0, acc[1] / 255.0, acc[2] / 255.0)
