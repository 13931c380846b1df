"""Tests for trace checkpointing: round trips, tampering, resume."""

import dataclasses
import hashlib
import json
import pickle

import pytest

from repro.core.dtexl import BASELINE, DTEXL_BEST
from repro.errors import TraceIntegrityError
from repro.sim import checkpoint, sweep
from repro.sim.checkpoint import (
    CHUNK_SUBDIR,
    SweepProgress,
    TraceCheckpointStore,
    campaign_key,
    config_hash,
    trace_digest,
    trace_key,
    verify_trace,
)
from repro.sim.driver import FrameRenderer, TileTraceEntry
from repro.sim.experiment import ExperimentRunner
from repro.sim.multiframe import AnimationSimulator
from repro.sim.replay import TraceReplayer
from repro.sim.stream import StreamingTileStream
from repro.texture.sampler import FilterMode, Sampler
from repro.workloads.games import build_game
from repro.workloads.animation import Animation
from repro.workloads.games import GAMES


@pytest.fixture()
def store(tmp_path):
    return TraceCheckpointStore(tmp_path / "traces")


@pytest.fixture(scope="module")
def game_trace(tiny_config):
    runner = ExperimentRunner(tiny_config, games=["SWa"])
    return runner.trace_for("SWa")


class TestKeys:
    def test_key_is_stable(self, tiny_config):
        recipe = GAMES["SWa"].recipe
        assert trace_key(tiny_config, recipe) == trace_key(tiny_config, recipe)

    def test_key_depends_on_config(self, tiny_config, small_config):
        recipe = GAMES["SWa"].recipe
        assert trace_key(tiny_config, recipe) != trace_key(small_config, recipe)

    def test_key_depends_on_recipe_and_frame(self, tiny_config):
        assert (
            trace_key(tiny_config, GAMES["SWa"].recipe)
            != trace_key(tiny_config, GAMES["GTr"].recipe)
        )
        assert (
            trace_key(tiny_config, GAMES["SWa"].recipe, frame=0)
            != trace_key(tiny_config, GAMES["SWa"].recipe, frame=1)
        )

    def test_config_hash_sensitivity(self, tiny_config, small_config):
        assert config_hash(tiny_config) != config_hash(small_config)
        assert config_hash(tiny_config) == config_hash(
            dataclasses.replace(tiny_config)
        )


class TestRoundTrip:
    def test_replay_results_identical(self, store, tiny_config, game_trace):
        key = trace_key(tiny_config, GAMES["SWa"].recipe)
        store.save(key, game_trace)
        loaded = store.load(key)
        replayer = TraceReplayer(tiny_config)
        for design in (BASELINE, DTEXL_BEST):
            original = replayer.run(game_trace, design)
            reloaded = replayer.run(loaded, design)
            assert reloaded == original

    def test_contains(self, store, tiny_config, game_trace):
        key = trace_key(tiny_config, GAMES["SWa"].recipe)
        assert not store.contains(key)
        store.save(key, game_trace)
        assert store.contains(key)

    def test_missing_checkpoint_raises(self, store):
        with pytest.raises(TraceIntegrityError):
            store.load("no-such-key")
        # A miss creates nothing, so it stays a miss on a read-only store.
        assert not (store.directory / CHUNK_SUBDIR / "no-such-key").exists()

    def test_load_preserves_render_order_and_equality(
        self, store, tiny_config, game_trace
    ):
        key = trace_key(tiny_config, GAMES["SWa"].recipe)
        store.save(key, game_trace)
        loaded = store.load(key)
        assert loaded == game_trace
        assert list(loaded.tiles) == list(game_trace.tiles)


class TestTamperDetection:
    """A checkpoint is a sealed chunk set; damage to any part of it fails."""

    TILE = (1, 1)

    def _saved(self, store, tiny_config, trace):
        key = trace_key(tiny_config, GAMES["SWa"].recipe)
        path = store.save(key, trace)
        return key, path

    def _chunk(self, store, key):
        return store.chunks(key).chunk_path(self.TILE)

    def test_save_writes_a_sealed_chunk_set(
        self, store, tiny_config, game_trace
    ):
        key, path = self._saved(store, tiny_config, game_trace)
        assert path == store.directory / CHUNK_SUBDIR / key / "frame.json"
        chunks = sorted(path.parent.glob("*.chunk"))
        assert len(chunks) == tiny_config.tiles_x * tiny_config.tiles_y
        assert not list(store.directory.rglob("*.trace"))
        assert store.chunks(key).digest() == trace_digest(game_trace)

    def test_flipped_payload_byte(self, store, tiny_config, game_trace):
        key, _ = self._saved(store, tiny_config, game_trace)
        chunk = self._chunk(store, key)
        blob = bytearray(chunk.read_bytes())
        blob[-10] ^= 0xFF
        chunk.write_bytes(bytes(blob))
        with pytest.raises(TraceIntegrityError, match="payload hash"):
            store.load(key)

    def test_truncated_payload(self, store, tiny_config, game_trace):
        key, _ = self._saved(store, tiny_config, game_trace)
        chunk = self._chunk(store, key)
        blob = chunk.read_bytes()
        chunk.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(TraceIntegrityError):
            store.load(key)

    def test_corrupt_header(self, store, tiny_config, game_trace):
        key, _ = self._saved(store, tiny_config, game_trace)
        chunk = self._chunk(store, key)
        blob = chunk.read_bytes()
        chunk.write_bytes(b"not json at all\n" + blob.split(b"\n", 1)[1])
        with pytest.raises(TraceIntegrityError):
            store.load(key)

    def test_key_mismatch(self, store, tiny_config, game_trace):
        key, path = self._saved(store, tiny_config, game_trace)
        other = "0" * 64
        path.parent.rename(path.parent.with_name(other))
        with pytest.raises(TraceIntegrityError, match="key"):
            store.load(other)

    def test_wrong_version(self, store, tiny_config, game_trace):
        key, path = self._saved(store, tiny_config, game_trace)
        meta = json.loads(path.read_text())
        meta["version"] = 99
        path.write_text(json.dumps(meta, sort_keys=True))
        with pytest.raises(TraceIntegrityError, match="version"):
            store.load(key)

    def test_malformed_seal_config(self, store, tiny_config, game_trace):
        key, path = self._saved(store, tiny_config, game_trace)
        meta = json.loads(path.read_text())
        meta["config"] = [1, 2]
        path.write_text(json.dumps(meta, sort_keys=True))
        with pytest.raises(TraceIntegrityError, match="malformed"):
            store.load(key)

    def test_tampered_seal_digest(self, store, tiny_config, game_trace):
        key, path = self._saved(store, tiny_config, game_trace)
        meta = json.loads(path.read_text())
        meta["digest"] = "0" * 64
        path.write_text(json.dumps(meta, sort_keys=True))
        with pytest.raises(TraceIntegrityError, match="sealed digest"):
            store.load(key)


class TestStructuralInvariants:
    def test_good_trace_verifies(self, game_trace):
        verify_trace(game_trace)

    def test_missing_tile_detected(self, game_trace):
        broken = dataclasses.replace(game_trace, tiles=dict(game_trace.tiles))
        broken.tiles.pop(next(iter(broken.tiles)))
        with pytest.raises(TraceIntegrityError, match="tile map"):
            verify_trace(broken)

    def test_quad_count_mismatch_detected(self, game_trace):
        stats = dataclasses.replace(
            game_trace.stats, num_quads=game_trace.stats.num_quads + 1
        )
        with pytest.raises(TraceIntegrityError, match="quads"):
            verify_trace(dataclasses.replace(game_trace, stats=stats))

    def test_pixel_count_mismatch_detected(self, game_trace):
        stats = dataclasses.replace(
            game_trace.stats, pixels_shaded=game_trace.stats.pixels_shaded + 1
        )
        with pytest.raises(TraceIntegrityError, match="pixels"):
            verify_trace(dataclasses.replace(game_trace, stats=stats))


class TestRunnerIntegration:
    def test_second_runner_renders_nothing(self, tmp_path, tiny_config):
        store = TraceCheckpointStore(tmp_path / "traces")
        first = ExperimentRunner(
            tiny_config, games=["SWa"], checkpoint_store=store
        )
        first.run_suite(BASELINE)
        assert first.renders_performed == 1
        second = ExperimentRunner(
            tiny_config, games=["SWa"], checkpoint_store=store
        )
        result = second.run_suite(BASELINE)
        assert second.renders_performed == 0
        assert result.per_game["SWa"] == first.run_suite(BASELINE).per_game["SWa"]

    def _seeded(self, tmp_path, tiny_config):
        store = TraceCheckpointStore(tmp_path / "traces")
        first = ExperimentRunner(
            tiny_config, games=["SWa"], checkpoint_store=store
        )
        trace = first.trace_for("SWa")
        key = trace_key(tiny_config, GAMES["SWa"].recipe)
        return store, trace, store.chunks(key).chunk_path((1, 1))

    def _rerendered(self, store, tiny_config, trace):
        """The runner treats the damage as a miss and heals the store."""
        second = ExperimentRunner(
            tiny_config, games=["SWa"], checkpoint_store=store
        )
        assert second.trace_for("SWa") == trace
        assert second.renders_performed == 1
        third = ExperimentRunner(
            tiny_config, games=["SWa"], checkpoint_store=store
        )
        assert third.trace_for("SWa") == trace
        assert third.renders_performed == 0

    def test_corrupted_checkpoint_is_rerendered(self, tmp_path, tiny_config):
        store, trace, chunk = self._seeded(tmp_path, tiny_config)
        blob = bytearray(chunk.read_bytes())
        blob[-1] ^= 0xFF
        chunk.write_bytes(bytes(blob))
        key = trace_key(tiny_config, GAMES["SWa"].recipe)
        with pytest.raises(TraceIntegrityError):
            store.load(key)
        self._rerendered(store, tiny_config, trace)

    def test_deleted_chunk_is_rerendered(self, tmp_path, tiny_config):
        store, trace, chunk = self._seeded(tmp_path, tiny_config)
        chunk.unlink()
        key = trace_key(tiny_config, GAMES["SWa"].recipe)
        with pytest.raises(TraceIntegrityError, match="missing"):
            store.load(key)
        self._rerendered(store, tiny_config, trace)


class TestVersionOneChunkSets:
    """Chunk sets of the row-of-``Quad`` format are re-rendered, not errors."""

    @pytest.fixture()
    def legacy(self, tmp_path, tiny_config, game_trace, monkeypatch):
        """``game_trace`` as version 1 stored it: headers and seal of
        version 1 under the version-1 key, each payload a pickled entry
        holding a ``quads`` list."""
        store = TraceCheckpointStore(tmp_path / "traces")
        with monkeypatch.context() as patch:
            patch.setattr(checkpoint, "CHECKPOINT_VERSION", 1)
            key = trace_key(tiny_config, GAMES["SWa"].recipe)
            store.save(key, game_trace)
        chunks = store.chunks(key)
        for tile, entry in game_trace.tiles.items():
            old = object.__new__(TileTraceEntry)
            vars(old).update(
                fetch_lines=list(entry.fetch_lines),
                fetch_cycles=entry.fetch_cycles,
                quads=entry.quads, _view=None, _view_side=0,
            )
            payload = pickle.dumps(old, protocol=pickle.HIGHEST_PROTOCOL)
            path = chunks.chunk_path(tile)
            header = json.loads(path.read_bytes().split(b"\n", 1)[0])
            assert header["version"] == 1
            header["sha256"] = hashlib.sha256(payload).hexdigest()
            path.write_bytes(
                json.dumps(header).encode("ascii") + b"\n" + payload
            )
        return store, key

    def test_version_two_keys_differ(self, legacy, tiny_config):
        _, key = legacy
        assert trace_key(tiny_config, GAMES["SWa"].recipe) != key

    def test_runner_rerenders(self, legacy, tiny_config, game_trace):
        store, _ = legacy
        runner = ExperimentRunner(
            tiny_config, games=["SWa"], checkpoint_store=store
        )
        assert runner.trace_for("SWa") == game_trace
        assert runner.renders_performed == 1

    def test_load_is_a_miss_and_load_or_render_heals(
        self, legacy, game_trace
    ):
        store, key = legacy
        with pytest.raises(TraceIntegrityError, match="version"):
            store.load(key)
        assert store.chunks(key).load_tile((0, 0)) is None
        assert store.load_or_render(key, lambda: game_trace) is game_trace
        assert store.load(key) == game_trace

    def test_streamed_replay_rerenders_every_tile(
        self, legacy, tiny_config, game_trace
    ):
        store, key = legacy
        stream = StreamingTileStream(
            FrameRenderer(tiny_config), GAMES["SWa"].recipe.build(tiny_config),
            chunk_store=store.chunks(key),
        )
        result = TraceReplayer(tiny_config).run_stream(stream, BASELINE)
        assert stream.tiles_rendered == len(game_trace.tiles)
        assert result == TraceReplayer(tiny_config).run(game_trace, BASELINE)


class TestFailedRewrite:
    """A re-render whose checkpoint rewrite fails still returns its trace."""

    @pytest.fixture()
    def unwritable(self, tmp_path, tiny_config, game_trace, monkeypatch):
        """A store whose chunk set is damaged and cannot be rewritten."""
        store = TraceCheckpointStore(tmp_path / "traces")
        key = trace_key(tiny_config, GAMES["SWa"].recipe)
        store.save(key, game_trace)
        store.chunks(key).chunk_path((0, 0)).unlink()

        def disk_full(path, *parts):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(checkpoint, "_atomic_write", disk_full)
        return store, key

    def test_runner_warns_and_returns_the_render(
        self, unwritable, tiny_config, game_trace
    ):
        store, _ = unwritable
        runner = ExperimentRunner(
            tiny_config, games=["SWa"], checkpoint_store=store
        )
        with pytest.warns(RuntimeWarning, match="could not checkpoint"):
            assert runner.trace_for("SWa") == game_trace
        assert runner.renders_performed == 1

    def test_worker_warns_and_returns_the_render(
        self, unwritable, tiny_config, game_trace, monkeypatch
    ):
        store, key = unwritable
        monkeypatch.setattr(sweep, "_WORKER_TRACES", {})
        with pytest.warns(RuntimeWarning, match="could not checkpoint"):
            trace = sweep._worker_trace(
                str(store.directory), key, tiny_config, "SWa"
            )
        assert trace == game_trace


class TestSamplerKeys:
    """A checkpoint is only reused under the filter that rendered it."""

    def test_key_depends_on_the_filter(self, tiny_config):
        recipe = GAMES["SWa"].recipe

        def key(mode=None, anisotropy=4):
            sampler = None if mode is None else Sampler(mode, anisotropy)
            return trace_key(tiny_config, recipe, sampler=sampler)

        # Bilinear keys exactly as before the filter was keyed.
        assert key() == trace_key(tiny_config, recipe)
        assert key(FilterMode.BILINEAR, 8) == key()
        keys = {key(mode) for mode in FilterMode}
        assert len(keys) == len(FilterMode)
        # The anisotropy degree only changes anisotropic footprints.
        assert key(FilterMode.TRILINEAR, 8) == key(FilterMode.TRILINEAR)
        assert key(FilterMode.ANISOTROPIC, 8) != key(FilterMode.ANISOTROPIC)

    def test_runner_renders_its_own_filter(self, store, tiny_config):
        """A trilinear runner must not load a default runner's trace."""
        bilinear = ExperimentRunner(
            tiny_config, games=["SWa"], checkpoint_store=store
        )
        bilinear.trace_for("SWa")
        sampler = Sampler(FilterMode.TRILINEAR)
        trilinear = ExperimentRunner(
            tiny_config, sampler=sampler, games=["SWa"],
            checkpoint_store=store,
        )
        expected, _ = FrameRenderer(tiny_config, sampler).render(
            build_game("SWa", tiny_config)
        )
        assert trilinear.trace_for("SWa") == expected
        assert trilinear.renders_performed == 1
        again = ExperimentRunner(
            tiny_config, sampler=sampler, games=["SWa"],
            checkpoint_store=store,
        )
        assert again.trace_for("SWa") == expected
        assert again.renders_performed == 0

    def test_animation_renders_its_own_filter(self, store, tiny_config):
        animation = Animation.of_game("SWa", num_frames=1)
        AnimationSimulator(tiny_config, checkpoint_store=store).run(
            animation, BASELINE
        )
        sampler = Sampler(FilterMode.NEAREST)
        nearest = AnimationSimulator(
            tiny_config, sampler=sampler, checkpoint_store=store
        )
        result = nearest.run(animation, BASELINE)
        assert nearest.renders_performed == 1
        assert result == AnimationSimulator(tiny_config, sampler).run(
            animation, BASELINE
        )

    def test_parallel_streamed_sweep_renders_the_runner_filter(
        self, tmp_path, tiny_config
    ):
        """Sweep workers render with the runner's sampler, not a default."""
        from repro.sim.sweep import DesignSweep

        sampler = Sampler(FilterMode.ANISOTROPIC, max_anisotropy=2)
        grid = DesignSweep(groupings=("CG-square",), decoupled=(True,))

        def run(jobs, directory):
            runner = ExperimentRunner(
                tiny_config, sampler=sampler, games=["SWa"],
                stream="streaming",
                checkpoint_store=TraceCheckpointStore(directory),
            )
            return grid.run(runner, jobs=jobs).rows

        assert run(2, tmp_path / "parallel") == run(1, tmp_path / "serial")


class TestMultiFrameCheckpoints:
    def test_animation_resume_renders_zero(self, tmp_path, tiny_config):
        store = TraceCheckpointStore(tmp_path / "traces")
        animation = Animation.of_game("SWa", num_frames=2)
        first = AnimationSimulator(tiny_config, checkpoint_store=store)
        result1 = first.run(animation, BASELINE)
        assert first.renders_performed == 2
        second = AnimationSimulator(tiny_config, checkpoint_store=store)
        result2 = second.run(animation, BASELINE)
        assert second.renders_performed == 0
        assert [f.l2_accesses for f in result2.frames] == [
            f.l2_accesses for f in result1.frames
        ]
        assert result2.total_cycles == result1.total_cycles


class TestSweepProgress:
    def test_rows_scoped_by_campaign(self, tmp_path):
        a = SweepProgress(tmp_path, "campaign-a")
        b = SweepProgress(tmp_path, "campaign-b")
        a.record("p1", {"speedup": 1.0})
        b.record("p1", {"speedup": 2.0})
        assert a.completed_rows()["p1"] == {"speedup": 1.0}
        assert b.completed_rows()["p1"] == {"speedup": 2.0}

    def test_malformed_lines_skipped(self, tmp_path):
        progress = SweepProgress(tmp_path, "c")
        progress.record("p1", {"x": 1})
        with open(progress.path, "a") as handle:
            handle.write("{truncated json\n")
        progress.record("p2", {"x": 2})
        assert set(progress.completed_rows()) == {"p1", "p2"}

    def test_campaign_key_depends_on_games(self, tiny_config):
        assert campaign_key(tiny_config, ["SWa"], "baseline") != campaign_key(
            tiny_config, ["SWa", "GTr"], "baseline"
        )
