"""Fragment and quad records — the unit of scheduling and of the trace.

"The fragments of every four adjacent pixels are grouped to form a
*quad*"; quads are the threads/warps the scheduler distributes over the
shader cores.  A :class:`Quad` captures everything the replay passes
need: where it sits (tile + in-tile quad coordinates), what it costs
(shader ALU cycles, texture sample count) and exactly which texture
cache lines it touches.

A frame trace stores its quads as columns (:data:`QUAD_COLUMNS`), one
array per field, and builds :class:`Quad` records only on demand.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

from repro.core.tile_order import TileCoord

#: Pixel offsets within a quad, in (dx, dy) raster order.
QUAD_PIXEL_OFFSETS = ((0, 0), (1, 0), (0, 1), (1, 1))

#: The columnar quad stream: column -> the fixed little-endian dtype it
#: is stored and hashed in.  One row per quad in emission order;
#: ``coverage`` is the 4-bit lane code (lane 0 is the high bit).  Texture
#: lines are the CSR pair ``line_offsets`` (quads + 1 rows, from 0 to
#: ``len(lines)``) and ``lines`` (every quad's lines, in quad order).
QUAD_COLUMNS = {
    "qx": np.dtype("<i8"),
    "qy": np.dtype("<i8"),
    "primitive_id": np.dtype("<i8"),
    "texture_id": np.dtype("<i8"),
    "coverage": np.dtype("u1"),
    "alu_cycles": np.dtype("<i8"),
    "lod": np.dtype("<f8"),
    "blend": np.dtype("?"),
    "line_offsets": np.dtype("<i8"),
    "lines": np.dtype("<i8"),
}

#: Lane bit weights of a coverage code, lane 0 first.
COVERAGE_WEIGHTS = np.array([8, 4, 2, 1], dtype=np.int64)
#: Per coverage code: its lane flags as :attr:`Quad.coverage` holds
#: them, and how many lanes it covers.
COVERAGE_LANES = tuple(
    tuple(bool(code & weight) for weight in COVERAGE_WEIGHTS.tolist())
    for code in range(16)
)
LANES_COVERED = np.array([sum(lanes) for lanes in COVERAGE_LANES])


class Quad(NamedTuple):
    """One shaded quad of the frame trace.

    ``coverage`` flags which of the four pixels survived rasterization
    and the Early-Z test; a quad only exists if at least one survived.
    ``texture_lines`` is the ordered, de-duplicated tuple of texture
    cache-line numbers its samples touch (all four lanes, including
    helper lanes' contributions, as produced by the sampler).
    """

    tile: TileCoord
    qx: int
    qy: int
    primitive_id: int
    texture_id: int
    coverage: Tuple[bool, bool, bool, bool]
    alu_cycles: int
    texture_lines: Tuple[int, ...]
    lod: float = 0.0
    blend: bool = False

    @property
    def covered_pixels(self) -> int:
        return sum(self.coverage)

    @property
    def compute_cycles(self) -> int:
        """Total SC issue cycles for this quad (ALU + texture issues)."""
        return self.alu_cycles + len(self.texture_lines)
