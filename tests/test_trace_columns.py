"""The columnar trace entry: ``Quad`` round trip, digests, invariants.

A :class:`TileTraceEntry` stores its quads as columns plus a CSR pair
of texture lines and builds :class:`Quad` records only on demand.  These
tests pin the conversion both ways (empty tiles, zero-line quads, all
15 coverage codes, blend, signed-zero LODs), the sensitivity of the
column-byte tile digest to every field, the agreement of fast- and
reference-built entries, and that :func:`verify_trace` rejects one
seeded mutation per column invariant.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TraceIntegrityError
from repro.raster.fragment import (
    COVERAGE_LANES, LANES_COVERED, QUAD_COLUMNS, Quad,
)
from repro.sim.checkpoint import tile_digest, verify_trace
from repro.sim.driver import FrameRenderer, TileTraceEntry
from repro.texture.sampler import ABSENT_LINE

TILE = (2, 1)
SIDE = 16


lanes = COVERAGE_LANES.__getitem__


def test_coverage_code_puts_lane_zero_in_the_high_bit():
    assert lanes(8) == (True, False, False, False)
    assert lanes(1) == (False, False, False, True)
    assert list(LANES_COVERED) == [bin(code).count("1") for code in range(16)]


lod_values = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)

quad_rows = st.builds(
    lambda qx, qy, pid, tex, code, alu, lines, lod, blend: Quad(
        TILE, qx, qy, pid, tex, lanes(code), alu, tuple(lines), lod, blend
    ),
    st.integers(0, SIDE - 1),
    st.integers(0, SIDE - 1),
    st.integers(0, 2**31),
    st.integers(-1, 64),
    st.integers(1, 15),
    st.integers(0, 64),
    st.lists(st.integers(0, 2**40), max_size=6),
    lod_values,
    st.booleans(),
)

quad_lists = st.lists(quad_rows, max_size=12)


def signs(quads):
    return [math.copysign(1.0, quad.lod) for quad in quads]


class TestQuadRoundTrip:
    @given(quads=quad_lists, fetch=st.lists(st.integers(0, 2**40), max_size=4))
    def test_from_quads_then_quads_is_identity(self, quads, fetch):
        entry = TileTraceEntry.from_quads(TILE, quads, fetch, 7)
        assert entry.quads == quads
        assert signs(entry.quads) == signs(quads)
        assert entry.num_quads == len(quads)
        assert entry.covered_pixels == sum(q.covered_pixels for q in quads)
        assert (entry.tile, entry.fetch_lines, entry.fetch_cycles) == (
            TILE, fetch, 7
        )
        for name, dtype in QUAD_COLUMNS.items():
            assert getattr(entry, name).dtype == dtype

    @given(quads=quad_lists)
    def test_quads_then_from_quads_is_identity(self, quads):
        entry = TileTraceEntry.from_quads(TILE, quads)
        again = TileTraceEntry.from_quads(TILE, entry.quads)
        assert again == entry
        assert tile_digest(TILE, again) == tile_digest(TILE, entry)

    def test_empty_tile(self):
        entry = TileTraceEntry.from_quads(TILE, [], [5, 6], 3)
        assert entry.quads == []
        assert entry.line_offsets.tolist() == [0]
        assert entry == TileTraceEntry(TILE, [5, 6], 3)

    def test_every_coverage_code_and_zero_line_quads(self):
        quads = [
            Quad(TILE, code, code, 0, 1, lanes(code), 4, (), 0.5, code % 2 == 0)
            for code in range(1, 16)
        ]
        entry = TileTraceEntry.from_quads(TILE, quads)
        assert entry.coverage.tolist() == list(range(1, 16))
        assert entry.line_offsets.tolist() == [0] * 16
        assert entry.quads == quads

    def test_signed_zero_lods_survive_and_differ(self):
        quad = Quad(TILE, 0, 0, 0, 1, lanes(15), 4, (9,), 0.0)
        plus = TileTraceEntry.from_quads(TILE, [quad])
        minus = TileTraceEntry.from_quads(TILE, [quad._replace(lod=-0.0)])
        assert signs(minus.quads) == [-1.0]
        assert plus != minus

    def test_fast_entries_round_trip(self, tiny_trace):
        for tile, entry in tiny_trace.tiles.items():
            assert TileTraceEntry.from_quads(
                tile, entry.quads, entry.fetch_lines, entry.fetch_cycles
            ) == entry


def _mutated(entry, name, index):
    """A copy of ``entry`` with one value of column ``name`` changed."""
    clone = copy.deepcopy(entry)
    column = getattr(clone, name)
    if name == "coverage":
        column[index] = column[index] % 15 + 1
    elif name == "blend":
        column[index] = not column[index]
    elif name == "lod":
        column[index] = np.nextafter(column[index], np.inf)
    else:
        column[index] += 1
    return clone


class TestDigestSensitivity:
    @given(
        quads=st.lists(quad_rows, min_size=1, max_size=8),
        name=st.sampled_from(
            [n for n in QUAD_COLUMNS if n not in ("line_offsets", "lines")]
        ),
        data=st.data(),
    )
    def test_any_quad_column_value(self, quads, name, data):
        entry = TileTraceEntry.from_quads(TILE, quads)
        index = data.draw(st.integers(0, len(quads) - 1))
        assert tile_digest(TILE, _mutated(entry, name, index)) != (
            tile_digest(TILE, entry)
        )

    @given(
        quads=st.lists(quad_rows, min_size=1, max_size=8), data=st.data()
    )
    def test_any_texture_line(self, quads, data):
        entry = TileTraceEntry.from_quads(TILE, quads)
        if not len(entry.lines):
            entry = TileTraceEntry.from_quads(
                TILE, [quads[0]._replace(texture_lines=(3,))] + quads[1:]
            )
        index = data.draw(st.integers(0, len(entry.lines) - 1))
        assert tile_digest(TILE, _mutated(entry, "lines", index)) != (
            tile_digest(TILE, entry)
        )

    @given(
        lines=st.lists(
            st.integers(0, 2**40), min_size=2, max_size=8, unique=True
        ),
        data=st.data(),
    )
    def test_swapping_two_lines_inside_a_quad(self, lines, data):
        i = data.draw(st.integers(0, len(lines) - 2))
        j = data.draw(st.integers(i + 1, len(lines) - 1))
        swapped = list(lines)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        quad = Quad(TILE, 1, 2, 3, 4, lanes(9), 5, tuple(lines), 1.5)
        assert tile_digest(
            TILE, TileTraceEntry.from_quads(TILE, [quad])
        ) != tile_digest(
            TILE,
            TileTraceEntry.from_quads(
                TILE, [quad._replace(texture_lines=tuple(swapped))]
            ),
        )

    def test_positive_to_negative_zero_lod(self):
        quad = Quad(TILE, 0, 0, 0, 1, lanes(15), 4, (9,), 0.0)
        assert tile_digest(
            TILE, TileTraceEntry.from_quads(TILE, [quad])
        ) != tile_digest(
            TILE, TileTraceEntry.from_quads(TILE, [quad._replace(lod=-0.0)])
        )

    def test_moving_a_line_between_quads(self):
        """Same flat lines, other CSR split: the offsets are hashed."""
        first = Quad(TILE, 0, 0, 0, 1, lanes(15), 4, (7, 8), 0.0)
        second = first._replace(qx=1, texture_lines=(9,))
        moved = [first._replace(texture_lines=(7,)),
                 second._replace(texture_lines=(8, 9))]
        assert tile_digest(
            TILE, TileTraceEntry.from_quads(TILE, [first, second])
        ) != tile_digest(TILE, TileTraceEntry.from_quads(TILE, moved))


@pytest.fixture(scope="module")
def reference_trace(tiny_config, tiny_workload):
    trace, _ = FrameRenderer(tiny_config, engine="reference").render(
        tiny_workload
    )
    return trace


class TestEnginesAgree:
    @settings(
        max_examples=25,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_fast_and_reference_tile_digests_match(
        self, tiny_trace, reference_trace, data
    ):
        tile = data.draw(st.sampled_from(sorted(tiny_trace.tiles)))
        fast, reference = tiny_trace.tiles[tile], reference_trace.tiles[tile]
        assert fast == reference
        assert tile_digest(tile, fast) == tile_digest(tile, reference)


# -- verify_trace: one seeded mutation per column invariant --------------------


def _claim_other_tile(entry):
    entry.tile = (99, 99)


def _narrow_dtype(entry):
    entry.qx = entry.qx.astype(np.int32)


def _short_column(entry):
    entry.lod = entry.lod[:-1]


def _qx_outside(entry):
    entry.qx[0] = SIDE


def _qy_negative(entry):
    entry.qy[-1] = -1


def _empty_coverage(entry):
    entry.coverage[0] = 0


def _coverage_past_15(entry):
    entry.coverage[0] = 16


def _offsets_not_from_zero(entry):
    entry.line_offsets = entry.line_offsets + 1
    entry.lines = np.append(entry.lines, 5)


def _offsets_fall(entry):
    entry.line_offsets[1] = entry.line_offsets[-1] + 1


def _offsets_miss_the_end(entry):
    entry.lines = entry.lines[:-1]


def _absent_line_stored(entry):
    entry.lines[0] = ABSENT_LINE


def _lines_two_dimensional(entry):
    entry.lines = entry.lines.reshape(1, -1)


MUTATIONS = [
    (_claim_other_tile, "claims tile"),
    (_narrow_dtype, "column 'qx'"),
    (_short_column, "column 'lod'"),
    (_qx_outside, "qx outside"),
    (_qy_negative, "qy outside"),
    (_empty_coverage, "coverage outside"),
    (_coverage_past_15, "coverage outside"),
    (_offsets_not_from_zero, "line offsets"),
    (_offsets_fall, "line offsets"),
    (_offsets_miss_the_end, "line offsets"),
    (_absent_line_stored, "absent-line"),
    (_lines_two_dimensional, "column 'lines'"),
]


class TestVerifyTraceMutations:
    def test_unmutated_trace_verifies(self, tiny_trace):
        verify_trace(tiny_trace)

    @pytest.mark.parametrize(
        "mutate, match", MUTATIONS, ids=[m.__name__ for m, _ in MUTATIONS]
    )
    def test_mutation_is_caught(self, tiny_trace, mutate, match):
        broken = copy.deepcopy(tiny_trace)
        tile = max(broken.tiles, key=lambda t: broken.tiles[t].num_quads)
        mutate(broken.tiles[tile])
        with pytest.raises(TraceIntegrityError, match=match):
            verify_trace(broken)
