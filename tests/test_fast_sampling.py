"""Tests for the vectorized texture addressing / sampling fast path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.texture.addressing import morton_encode, morton_encode_array
from repro.texture.sampler import ABSENT_LINE, FilterMode, Sampler, quad_lods
from repro.texture.texture import Texture


@pytest.fixture
def texture():
    return Texture(0, 128, 64, base_address=1 << 28)


class TestMortonArray:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**15),
                st.integers(min_value=0, max_value=2**15),
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar(self, points):
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        batch = morton_encode_array(xs, ys)
        for i, (x, y) in enumerate(points):
            assert int(batch[i]) == morton_encode(x, y)

    def test_preserves_shape(self):
        xs = np.zeros((3, 4, 2), dtype=np.int64)
        assert morton_encode_array(xs, xs).shape == (3, 4, 2)


class TestTexelLinesArray:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-200, max_value=400),
                st.integers(min_value=-200, max_value=400),
                st.integers(min_value=0, max_value=7),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_with_wrapping(self, points):
        texture = Texture(0, 128, 64, base_address=1 << 28)
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        levels = np.array([min(p[2], texture.max_lod) for p in points])
        batch = texture.texel_lines_array(xs, ys, levels)
        for i, (x, y, lod) in enumerate(points):
            lod = min(lod, texture.max_lod)
            assert int(batch[i]) == texture.texel_line(x, y, lod)

    def test_tall_texture(self):
        texture = Texture(0, 16, 128, base_address=1 << 28)
        xs = np.arange(16)
        ys = np.arange(16) * 7 % 128
        levels = np.zeros(16, dtype=np.int64)
        batch = texture.texel_lines_array(xs, ys, levels)
        for i in range(16):
            assert int(batch[i]) == texture.texel_line(int(xs[i]), int(ys[i]), 0)


class TestBilinearBatch:
    def test_matches_scalar_footprint(self, texture):
        sampler = Sampler(FilterMode.BILINEAR)
        rng = np.random.default_rng(3)
        u = rng.random((5, 7))
        v = rng.random((5, 7))
        level = rng.integers(0, texture.max_lod + 1, size=(5, 7))
        batch = sampler.bilinear_lines_batch(texture, u, v, level)
        assert batch.shape == (5, 7, 4)
        for i in range(5):
            for j in range(7):
                scalar = sampler.footprint(
                    texture, u[i, j], v[i, j], float(level[i, j])
                )
                assert set(batch[i, j].tolist()) == set(scalar.lines)

    def test_probe_is_the_same_under_every_filter_mode(self, texture):
        """Trilinear and anisotropic footprints are built from it."""
        rng = np.random.default_rng(4)
        u = rng.uniform(-2.0, 3.0, size=(6, 5))
        v = rng.uniform(-2.0, 3.0, size=(6, 5))
        level = rng.integers(0, texture.max_lod + 1, size=(6, 5))
        expected = Sampler(FilterMode.BILINEAR).bilinear_lines_batch(
            texture, u, v, level
        )
        for mode in FilterMode:
            batch = Sampler(mode).bilinear_lines_batch(texture, u, v, level)
            assert np.array_equal(batch, expected)


def quad_lanes(u0, v0, du, dv):
    """(1, 4) lane UVs of one quad in footprint order, given x/y steps."""
    lane_u = np.array([[u0, u0 + du, u0, u0 + du]])
    lane_v = np.array([[v0, v0, v0 + dv, v0 + dv]])
    return lane_u, lane_v


def assert_rows_match_scalar(sampler, texture, lane_u, lane_v, samples):
    """Batched rows == scalar ``footprint`` of every lane and sample.

    Each row splits into ``4 * samples`` equal blocks, one per
    ``(lane, sample)`` call of the scalar footprint, in that order; a
    block deduped in first-visit order (fillers dropped) must be exactly
    the scalar call's line tuple, and the LOD the shared definition.
    """
    lods, rows = sampler.quad_footprints_batch(
        texture, lane_u, lane_v, samples
    )
    assert np.array_equal(lods, quad_lods(texture, lane_u, lane_v))
    blocks = rows.reshape(len(lods), 4, samples, -1)
    for q, lod in enumerate(lods.tolist()):
        for lane in range(4):
            for sample in range(samples):
                scale = float(sample + 1)
                scalar = sampler.footprint(
                    texture, float(lane_u[q, lane]) * scale,
                    float(lane_v[q, lane]) * scale, lod,
                )
                block = blocks[q, lane, sample].tolist()
                visited = tuple(dict.fromkeys(
                    line for line in block if line != ABSENT_LINE
                ))
                assert visited == scalar.lines, (q, lane, sample)
    return lods, rows


ALL_MODES = [
    Sampler(FilterMode.NEAREST),
    Sampler(FilterMode.BILINEAR),
    Sampler(FilterMode.TRILINEAR),
    Sampler(FilterMode.ANISOTROPIC, max_anisotropy=1),
    Sampler(FilterMode.ANISOTROPIC, max_anisotropy=2),
    Sampler(FilterMode.ANISOTROPIC, max_anisotropy=3),
    Sampler(FilterMode.ANISOTROPIC, max_anisotropy=8),
]
MODE_IDS = [
    f"{s.filter_mode.value}{s.max_anisotropy}" if s.filter_mode
    is FilterMode.ANISOTROPIC else s.filter_mode.value for s in ALL_MODES
]


class TestQuadFootprintsBatch:
    @pytest.mark.parametrize("sampler", ALL_MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("samples", [1, 2, 3])
    @given(
        quads=st.lists(
            st.tuples(
                st.floats(min_value=-3.0, max_value=3.0),
                st.floats(min_value=-3.0, max_value=3.0),
                st.floats(min_value=-0.3, max_value=0.3),
                st.floats(min_value=-0.3, max_value=0.3),
            ),
            min_size=1, max_size=12,
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_random_quads_match_scalar(self, sampler, samples, quads):
        """Negative and >1 UVs (truncation, repeat wrap), every LOD."""
        texture = Texture(0, 128, 64, base_address=1 << 28)
        lane_u = np.concatenate([quad_lanes(*q)[0] for q in quads])
        lane_v = np.concatenate([quad_lanes(*q)[1] for q in quads])
        assert_rows_match_scalar(sampler, texture, lane_u, lane_v, samples)

    @pytest.mark.parametrize("sampler", ALL_MODES, ids=MODE_IDS)
    @pytest.mark.parametrize("texels", [1, 2, 4, 8, 64, 128, 1024])
    def test_integral_and_max_lods_match_scalar(
        self, texture, sampler, texels
    ):
        """Steps of exactly 2**k texels: integral LODs up to and past
        ``max_lod`` (128 texels is LOD 7 = ``max_lod`` of 128x64)."""
        lane_u, lane_v = quad_lanes(-0.375, 1.25, texels / 128, 0.0)
        lods, _ = assert_rows_match_scalar(
            sampler, texture, lane_u, lane_v, 2
        )
        assert lods[0] == np.log2(texels)

    def test_trilinear_second_level_only_between_levels(self, texture):
        sampler = Sampler(FilterMode.TRILINEAR)
        per_quad = 4 * 2 * 4  # lanes x levels x neighbours
        for texels, has_second in ((4, False), (6, True), (128, False),
                                   (4096, False)):
            lane_u, lane_v = quad_lanes(0.3, 0.6, texels / 128, 0.0)
            _, rows = sampler.quad_footprints_batch(
                texture, lane_u, lane_v, 1
            )
            assert rows.shape == (1, per_quad)
            absent = rows.reshape(4, 2, 4)[:, 1] == ABSENT_LINE
            assert absent.all() != has_second, texels

    @pytest.mark.parametrize("probes", [2, 8])
    def test_anisotropic_levels_below_log2_probes(self, texture, probes):
        """Base level 1 minus log2(probes) clamps to level 0."""
        sampler = Sampler(FilterMode.ANISOTROPIC, max_anisotropy=probes)
        lane_u, lane_v = quad_lanes(0.7, -0.2, 2 / 128, 0.0)
        _, rows = assert_rows_match_scalar(
            sampler, texture, lane_u, lane_v, 1
        )
        assert rows.shape == (1, 4 * probes * 4)
        level0 = texture.texel_line(0, 0, 0), texture.texel_line(127, 63, 0)
        assert rows.min() >= min(level0) and rows.max() <= max(level0)


class TestRasterizerFastPath:
    def test_batch_equals_scalar_end_to_end(self):
        """The whole-frame trace must be bit-identical either way."""
        from repro.config import GPUConfig
        from repro.raster import rasterizer as rmod
        from repro.sim.driver import FrameRenderer
        from repro.workloads.recipe import SceneRecipe

        config = GPUConfig(screen_width=128, screen_height=64)
        recipe = SceneRecipe(
            name="fastpath", seed=21, is_3d=True, texture_budget_mib=0.3,
            depth_complexity=1.5,
        )
        workload = recipe.build(config)
        fast, _ = FrameRenderer(config).render(workload)

        # The reference engine with its bilinear batch swapped for the
        # scalar per-lane footprints.
        def scalar_footprints(self, u, v, blocks, texture, samples):
            if texture is None or samples == 0:
                return [(0.0, ())] * len(blocks)
            lanes = [
                [(min(by + dy, u.shape[0] - 1), min(bx + dx, u.shape[1] - 1))
                 for dy in (0, 1) for dx in (0, 1)]
                for bx, by in blocks
            ]
            lane_u = np.array([[u[p] for p in quad] for quad in lanes])
            lane_v = np.array([[v[p] for p in quad] for quad in lanes])
            lods = quad_lods(texture, lane_u, lane_v)
            return [
                self._quad_texture_footprint(qu, qv, lod, texture, samples)
                for qu, qv, lod in zip(
                    lane_u.tolist(), lane_v.tolist(), lods.tolist()
                )
            ]

        original = rmod.Rasterizer._batch_footprints
        rmod.Rasterizer._batch_footprints = scalar_footprints
        try:
            scalar, _ = FrameRenderer(config, engine="reference").render(
                workload
            )
        finally:
            rmod.Rasterizer._batch_footprints = original

        assert fast == scalar

    def test_trilinear_takes_the_fast_pass(self):
        """Non-bilinear modes batch too, identically to the reference."""
        from repro.config import GPUConfig
        from repro.sim.driver import FrameRenderer, _FastTilePass
        from repro.workloads.recipe import SceneRecipe

        config = GPUConfig(screen_width=64, screen_height=64)
        recipe = SceneRecipe(
            name="tri", seed=5, is_3d=False, texture_budget_mib=0.2,
            depth_complexity=1.0,
        )
        workload = recipe.build(config)
        sampler = Sampler(FilterMode.TRILINEAR)
        renderer = FrameRenderer(config, sampler)
        assert isinstance(renderer.begin_tiles(workload), _FastTilePass)
        trace, _ = renderer.render(workload)
        reference, _ = FrameRenderer(
            config, sampler, engine="reference"
        ).render(workload)
        assert trace.total_texture_lines > 0
        assert trace == reference
