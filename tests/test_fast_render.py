"""Differential tests for the fast render front-end.

The render analogue of ``test_fast_engine.py``: the batched pass-1
engine (``FrameRenderer(engine="fast")``) must produce traces
bit-identical to the scalar reference path — same ``trace_digest``,
same :class:`FrameTrace` dataclass equality (which includes the
:class:`RenderStats` counters) — over the whole game suite, over
randomized scene recipes and over adversarial hand-built meshes that
exercise clipping, culling and degenerate geometry.

Two golden-digest tables additionally pin the trace content itself: a
change that alters *both* engines in lockstep (and so passes the
differential tests) still fails here unless the goldens are
deliberately regenerated.  ``GOLDEN_DIGESTS`` predates the columnar
trace and is reproduced through :func:`legacy_trace_digest`, the
canonical-JSON tile digest of the row-of-``Quad`` trace;
``COLUMN_DIGESTS`` pins today's :func:`trace_digest` over column bytes.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GPUConfig
from repro.errors import ConfigError
from repro.geometry.mesh import (
    DrawCommand,
    Mesh,
    Scene,
    ShaderProgram,
    Vertex,
)
from repro.geometry.transform import perspective
from repro.geometry.vec import Vec2, Vec3
from repro.sim.checkpoint import TraceDigestBuilder, trace_digest
from repro.sim.driver import ENGINES, FrameRenderer, _FastTilePass
from repro.texture.sampler import FilterMode, Sampler
from repro.texture.texture import TextureAllocator
from repro.workloads.games import build_game, game_aliases
from repro.workloads.recipe import BuiltWorkload, SceneRecipe

TINY = GPUConfig(screen_width=128, screen_height=64)

#: Golden fast-engine digests of every suite game at the tiny scale,
#: under the canonical-JSON tile digest of the row-of-``Quad`` trace
#: (:func:`legacy_trace_digest`).  They pin pipeline semantics across
#: trace formats; regenerate only when those semantics change on purpose.
GOLDEN_DIGESTS = {
    "CCS": "fc651646ade518701d6872ced9145426a1a3e69768fe86da165022b5e47e8562",
    "SoD": "e001543455cafb6dc115d1987fb8f393d23bd712c779572292d0e60d3a3fcbca",
    "TRu": "b3d67870becf652c584d2495912af1a3e7d7aff5079724cb5f48786868df46ce",
    "SWa": "c857d8d55ea5b48a2b8b76fac740de31ee58333d8249031b4b04c29c9984b338",
    "CRa": "758382fd254b4f5812e5fb014cd97c350f9c15f88aea98eff5fa8d06517ec4ca",
    "RoK": "cbf73bc0a294f6ed0217cb3e500c2be234e36e651a1d6a72467f70e7e01d72be",
    "DDS": "175d90722c86af3c2d748828550340833b90dcd722f019c6a6ab751c5b9a8b59",
    "Snp": "8e8fa3a7e37200400d282ba2717e1010973a41da5b432116879515914bb06f6b",
    "Mze": "1f9bed25adbb12e452cbd4fecc99a3ff7f2e65712d4c55c776501c09d3a9be84",
    "GTr": "f4df89c618fd3a113300175e9e7a39c7485e02477aacc83b68f9fa1800023e1d",
}

#: The same traces under today's column-byte :func:`trace_digest`.
#: Regenerate deliberately (render at 128x64 and print ``trace_digest``)
#: when the trace format or the pipeline semantics change on purpose.
COLUMN_DIGESTS = {
    "CCS": "e5a73cb897e6c0370fc6832d0abdf8610be74bc4d5798740b8d24a3a19819ba8",
    "SoD": "7302397cf0d0eb97178a6eae24624e28b22f6f509dbb0f124a179ba0028f4a4a",
    "TRu": "154348c081367fe3e973832b2c1c7652bb2c11e8ae2e435bf0bd313f5f0b7e50",
    "SWa": "47bcbe242a442eaba12e8911c90f83384de7f796ff1baea5eac40077842afa2f",
    "CRa": "366720f9209aa2d97c071a5c2878e07b7046f3338b856e78abbf7fc2b0ccc41f",
    "RoK": "343828109964f1c58f2570f0e80a8ccefb5bc44b1c260c7ba8a0bc22966a30ba",
    "DDS": "ceedffe38b93199ccc1affaf5809404e9c640b6de803a8a477a85b822690a78d",
    "Snp": "a4b5868c198f3f359d9e21c627c72e3e1f398bf626f2af663ad03515e46f146f",
    "Mze": "891c6b357b7cf49fc57281676b681dde0d3b4053fc8d741fb1037617068f0302",
    "GTr": "82314f269863521914569f51aded23945d5ac5c316ef64e0a485083e6f048fb7",
}


def legacy_tile_digest(tile, entry):
    """The version-1 tile digest: canonical JSON of every quad, read
    through the entry's ``Quad`` view (LODs by ``repr``)."""
    payload = {
        "tile": list(tile),
        "fetch_lines": list(entry.fetch_lines),
        "fetch_cycles": entry.fetch_cycles,
        "quads": [
            (*quad[1:8], repr(quad.lod), quad.blend) for quad in entry.quads
        ],
    }
    text = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=list
    )
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def legacy_trace_digest(trace):
    """The frame hash chain, folded over :func:`legacy_tile_digest`."""
    builder = TraceDigestBuilder(trace.config, trace.vertex_lines)
    for tile, entry in trace.tiles.items():
        builder.add(tile, entry, digest=legacy_tile_digest(tile, entry))
    return builder.finish(trace.stats)


#: The filter modes that share the bilinear fast pass since it learned
#: nearest, trilinear and anisotropic footprints.
NON_BILINEAR = (
    FilterMode.NEAREST, FilterMode.TRILINEAR, FilterMode.ANISOTROPIC
)


def render_both(workload, config=TINY, sampler=None):
    """(fast trace, reference trace) for one workload."""
    fast, _ = FrameRenderer(config, sampler, engine="fast").render(workload)
    ref, _ = FrameRenderer(
        config, sampler, engine="reference"
    ).render(workload)
    return fast, ref


def assert_traces_identical(fast, ref):
    """Digest AND dataclass equality — stats counters included."""
    assert trace_digest(fast) == trace_digest(ref)
    assert fast == ref


# -- the game suite ---------------------------------------------------------


class TestGameSuiteDifferential:
    @pytest.mark.parametrize("alias", game_aliases())
    def test_fast_matches_golden_digest(self, alias):
        """The columnar trace is the row-of-``Quad`` trace it replaced."""
        workload = build_game(alias, TINY)
        trace, _ = FrameRenderer(TINY, engine="fast").render(workload)
        assert legacy_trace_digest(trace) == GOLDEN_DIGESTS[alias]

    @pytest.mark.parametrize("alias", game_aliases())
    def test_fast_matches_column_digest(self, alias):
        workload = build_game(alias, TINY)
        trace, _ = FrameRenderer(TINY, engine="fast").render(workload)
        assert trace_digest(trace) == COLUMN_DIGESTS[alias]

    @pytest.mark.parametrize("alias", ["CCS", "RoK", "GTr"])
    def test_fast_matches_reference(self, alias):
        """2D, 3D and atlas-heavy games, full trace equality."""
        fast, ref = render_both(build_game(alias, TINY))
        assert_traces_identical(fast, ref)

    def test_goldens_cover_every_game(self):
        assert sorted(GOLDEN_DIGESTS) == sorted(game_aliases())
        assert sorted(COLUMN_DIGESTS) == sorted(game_aliases())


class TestFilterModesDifferential:
    @pytest.mark.parametrize("mode", NON_BILINEAR, ids=lambda m: m.value)
    @pytest.mark.parametrize("alias", game_aliases())
    def test_fast_matches_reference(self, alias, mode):
        """Every game under every non-bilinear filter, both engines."""
        fast, ref = render_both(build_game(alias, TINY), sampler=Sampler(mode))
        assert_traces_identical(fast, ref)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_lod_does_not_depend_on_the_filter(self, engine):
        """One LOD definition: every mode reports the same quad LODs.

        Under separate scalar and batched LOD expressions, 3 of SWa's
        quads here differed in the last ulp between nearest and
        bilinear.
        """
        workload = build_game("SWa", TINY)
        lods = {}
        for mode in FilterMode:
            trace, _ = FrameRenderer(
                TINY, Sampler(mode), engine=engine
            ).render(workload)
            lods[mode] = [
                quad.lod
                for tile in sorted(trace.tiles)
                for quad in trace.tiles[tile].quads
            ]
        assert lods[FilterMode.BILINEAR]
        for mode in NON_BILINEAR:
            assert lods[mode] == lods[FilterMode.BILINEAR]


# -- randomized scene recipes ----------------------------------------------


recipe_params = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**31 - 1),
        "is_3d": st.booleans(),
        "depth_complexity": st.floats(min_value=0.5, max_value=4.0),
        "blend_fraction": st.floats(min_value=0.0, max_value=1.0),
        "horizontal_clustering": st.floats(min_value=0.0, max_value=1.0),
        "texture_samples": st.integers(min_value=0, max_value=3),
        "atlas_grid": st.sampled_from([0, 0, 4]),
    }
)


class TestRandomScenes:
    @given(params=recipe_params)
    @settings(max_examples=20, deadline=None)
    def test_random_recipe_fast_matches_reference(self, params):
        recipe = SceneRecipe(
            name="prop", texture_budget_mib=0.25, **params
        )
        workload = recipe.build(TINY)
        fast, ref = render_both(workload)
        assert_traces_identical(fast, ref)

    @pytest.mark.parametrize("mode", NON_BILINEAR, ids=lambda m: m.value)
    @given(params=recipe_params, anisotropy=st.sampled_from([1, 2, 3, 8]))
    @settings(max_examples=5, deadline=None)
    def test_random_recipe_every_filter_matches_reference(
        self, mode, params, anisotropy
    ):
        recipe = SceneRecipe(
            name="prop", texture_budget_mib=0.25, **params
        )
        sampler = Sampler(mode, max_anisotropy=anisotropy)
        fast, ref = render_both(recipe.build(TINY), sampler=sampler)
        assert_traces_identical(fast, ref)


# -- adversarial hand-built meshes -----------------------------------------


finite = st.floats(
    min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False
)
#: z spans the camera plane, so triangles straddle (and cross) the near
#: plane under the perspective projection — the scalar clip fallback.
depths = st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False
)

vertex_strategy = st.builds(
    Vertex,
    position=st.builds(Vec3, finite, finite, depths),
    uv=st.builds(Vec2, finite, finite),
)

triangle_strategy = st.lists(vertex_strategy, min_size=3, max_size=3)

draw_flags = st.fixed_dictionaries(
    {
        "depth_write": st.booleans(),
        "blend": st.booleans(),
        "late_z": st.booleans(),
    }
)


def build_mesh_workload(triangles, flags_list, samples_list):
    """A scene of hand-built triangles under a perspective camera."""
    allocator = TextureAllocator()
    texture = allocator.create(32, 32, seed=3)
    scene = Scene(
        name="prop-mesh",
        projection_matrix=perspective(1.1, 2.0, 0.5, 10.0),
    )
    for triangle, flags, samples in zip(
        triangles, flags_list, samples_list
    ):
        mesh = Mesh(vertices=list(triangle), indices=[0, 1, 2])
        scene.add(
            DrawCommand(
                mesh=mesh,
                texture_id=texture.texture_id,
                shader=ShaderProgram(
                    alu_cycles=9, texture_samples=samples
                ),
                **flags,
            )
        )
    return BuiltWorkload(scene=scene, allocator=allocator)


class TestRandomMeshes:
    @given(
        triangles=st.lists(triangle_strategy, min_size=1, max_size=6),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_meshes_fast_matches_reference(self, triangles, data):
        """Clipped, culled, degenerate and offscreen triangles agree.

        Depth coordinates straddle the near plane, so the batch takes
        every branch: trivially-kept rows, trivially-rejected rows and
        rows routed through the scalar Sutherland-Hodgman fallback.
        """
        flags_list = [
            data.draw(draw_flags, label=f"flags[{i}]")
            for i in range(len(triangles))
        ]
        samples_list = [
            data.draw(
                st.integers(min_value=0, max_value=2),
                label=f"samples[{i}]",
            )
            for i in range(len(triangles))
        ]
        workload = build_mesh_workload(triangles, flags_list, samples_list)
        fast, ref = render_both(workload)
        assert_traces_identical(fast, ref)

    @given(
        triangles=st.lists(triangle_strategy, min_size=1, max_size=6),
        mode=st.sampled_from(NON_BILINEAR),
        samples=st.integers(min_value=1, max_value=2),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_meshes_every_filter_matches_reference(
        self, triangles, mode, samples
    ):
        """UVs span [-4, 4]: nearest truncation and repeat wrapping."""
        n = len(triangles)
        flags = [
            {"depth_write": True, "blend": False, "late_z": False}
        ] * n
        workload = build_mesh_workload(triangles, flags, [samples] * n)
        fast, ref = render_both(workload, sampler=Sampler(mode))
        assert_traces_identical(fast, ref)

    def test_degenerate_and_behind_camera_triangles(self):
        """Deterministic worst cases: zero area, w <= 0, offscreen."""
        def tri(*pts):
            return [
                Vertex(position=Vec3(*p), uv=Vec2(0.0, 0.0)) for p in pts
            ]
        triangles = [
            tri((0.0, 0.0, -1.0), (0.0, 0.0, -1.0), (0.0, 0.0, -1.0)),
            tri((-1.0, -1.0, 2.0), (1.0, -1.0, 2.0), (0.0, 1.0, 2.0)),
            tri((-1.0, -1.0, -1.0), (1.0, -1.0, -1.0), (0.0, 1.0, 2.0)),
            tri((50.0, 50.0, -1.0), (51.0, 50.0, -1.0), (50.0, 51.0, -1.0)),
        ]
        n = len(triangles)
        flags = [
            {"depth_write": True, "blend": False, "late_z": False}
        ] * n
        workload = build_mesh_workload(triangles, flags, [1] * n)
        fast, ref = render_both(workload)
        assert_traces_identical(fast, ref)


# -- engine selection -------------------------------------------------------


class TestEngineSelection:
    def test_engines_tuple(self):
        assert ENGINES == ("fast", "reference")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="unknown render engine"):
            FrameRenderer(TINY, engine="warp-speed")

    def test_default_engine_is_fast(self):
        assert FrameRenderer(TINY).engine == "fast"

    def test_with_image_falls_back_to_reference(self, tiny_workload):
        """Image output is reference-only; the trace must not change."""
        fast = FrameRenderer(TINY, engine="fast")
        with_image, image = fast.render(tiny_workload, with_image=True)
        without, none = fast.render(tiny_workload)
        assert image is not None and none is None
        assert_traces_identical(without, with_image)

    def test_non_bilinear_filters_take_the_fast_pass(self, tiny_workload):
        """Every filter mode has a batch path; both engines agree."""
        for mode in NON_BILINEAR:
            sampler = Sampler(filter_mode=mode)
            fast = FrameRenderer(TINY, sampler=sampler, engine="fast")
            assert isinstance(fast.begin_tiles(tiny_workload), _FastTilePass)
            assert_traces_identical(
                *render_both(tiny_workload, sampler=sampler)
            )
