"""Tests for checkpoint save/load."""

import os
import zipfile

import numpy as np
import pytest

from repro import io
from repro.errors import ConfigurationError
from repro.fields import UniformField, YeeGrid
from repro.fp import Precision
from repro.particles import (Layout, ParticleSpecies, ParticleTypeTable,
                             make_ensemble)
from repro.particles.ensemble import COMPONENTS
from repro.pic import build_scenario, pic_state_digest
from repro.resilience import Checkpointer
from tests import _reference_io as compressed


def bits(array):
    return np.ascontiguousarray(array).view(np.uint8)


def assert_same_ensemble(loaded, original):
    assert loaded.layout is original.layout
    assert loaded.precision is original.precision
    assert [(s.name, s.mass, s.charge) for s in loaded.type_table] == \
        [(s.name, s.mass, s.charge) for s in original.type_table]
    for name in COMPONENTS:
        np.testing.assert_array_equal(bits(loaded.component(name)),
                                      bits(original.component(name)))
    np.testing.assert_array_equal(loaded.type_ids, original.type_ids)


def assert_same_grid(loaded, original):
    assert loaded.origin == original.origin
    assert loaded.spacing == original.spacing
    assert loaded.dims == original.dims
    for name in original.fields:
        np.testing.assert_array_equal(bits(loaded.fields[name]),
                                      bits(original.fields[name]))
    for name in original.currents:
        np.testing.assert_array_equal(bits(loaded.currents[name]),
                                      bits(original.currents[name]))


def compression_of(path):
    with zipfile.ZipFile(path) as archive:
        return {info.compress_type for info in archive.infolist()}


def laser_slab(steps=2):
    simulation = build_scenario("laser-slab", n_particles=64, seed=3)
    simulation.run(steps)
    return simulation


class TestEnsembleRoundtrip:
    def test_bitwise_roundtrip(self, tmp_path, small_ensemble):
        path = tmp_path / "state.npz"
        io.save_ensemble(path, small_ensemble)
        loaded = io.load_ensemble(path)
        assert loaded.layout is small_ensemble.layout
        assert loaded.precision is small_ensemble.precision
        for name in COMPONENTS:
            np.testing.assert_array_equal(loaded.component(name),
                                          small_ensemble.component(name))
        np.testing.assert_array_equal(loaded.type_ids,
                                      small_ensemble.type_ids)

    def test_single_precision_preserved(self, tmp_path):
        ensemble = make_ensemble(10, Layout.AOS, Precision.SINGLE)
        path = tmp_path / "single.npz"
        io.save_ensemble(path, ensemble)
        loaded = io.load_ensemble(path)
        assert loaded.precision is Precision.SINGLE
        assert loaded.component("px").dtype == np.float32

    def test_species_table_travels(self, tmp_path):
        table = ParticleTypeTable()
        table.register(ParticleSpecies("muon", 1.88e-25, -4.8e-10))
        ensemble = make_ensemble(4, Layout.SOA, type_table=table)
        path = tmp_path / "muons.npz"
        io.save_ensemble(path, ensemble)
        loaded = io.load_ensemble(path)
        assert loaded.type_table[0].name == "muon"
        assert loaded.type_table[0].mass == pytest.approx(1.88e-25)

    def test_empty_ensemble(self, tmp_path):
        ensemble = make_ensemble(0, Layout.SOA)
        path = tmp_path / "empty.npz"
        io.save_ensemble(path, ensemble)
        assert io.load_ensemble(path).size == 0

    def test_rejects_wrong_kind(self, tmp_path):
        grid = YeeGrid((0, 0, 0), (1, 1, 1), (2, 2, 2))
        path = tmp_path / "grid.npz"
        io.save_grid(path, grid)
        with pytest.raises(ConfigurationError):
            io.load_ensemble(path)


class TestGridRoundtrip:
    def test_fields_and_geometry_roundtrip(self, tmp_path):
        grid = YeeGrid((1.0, 2.0, 3.0), (0.5, 0.5, 0.5), (4, 3, 2))
        grid.fill_from_source(UniformField(e=(1, 2, 3), b=(4, 5, 6)), 0.0)
        grid.currents["jy"][1, 1, 1] = 7.0
        path = tmp_path / "grid.npz"
        io.save_grid(path, grid, time=2.5e-15)
        loaded, time = io.load_grid(path)
        assert time == 2.5e-15
        assert loaded.origin == grid.origin
        assert loaded.dims == grid.dims
        np.testing.assert_array_equal(loaded.component("bz"),
                                      grid.component("bz"))
        assert loaded.currents["jy"][1, 1, 1] == 7.0

    def test_rejects_wrong_kind(self, tmp_path, small_ensemble):
        path = tmp_path / "ens.npz"
        io.save_ensemble(path, small_ensemble)
        with pytest.raises(ConfigurationError):
            io.load_grid(path)


class TestResume:
    def test_resumed_push_matches_uninterrupted(self, tmp_path):
        """A checkpoint/restore mid-run must not perturb the physics."""
        import repro
        wave = repro.MDipoleWave()
        dt = 2.0 * np.pi / wave.omega / 100.0
        a = repro.paper_benchmark_ensemble(100, seed=21)
        repro.setup_leapfrog(a, wave, dt)
        b_path = tmp_path / "mid.npz"

        repro.advance(a, wave, dt, 5)
        io.save_ensemble(b_path, a)
        repro.advance(a, wave, dt, 5, start_time=5 * dt)

        b = io.load_ensemble(b_path)
        repro.advance(b, wave, dt, 5, start_time=5 * dt)
        np.testing.assert_array_equal(a.positions(), b.positions())
        np.testing.assert_array_equal(a.momenta(), b.momenta())


class TestArchiveFormat:
    """Every writer stores its arrays uncompressed, through one path."""

    def test_every_kind_is_stored_uncompressed(self, tmp_path,
                                               small_ensemble):
        grid = YeeGrid((0, 0, 0), (1, 1, 1), (3, 2, 2))
        paths = [tmp_path / name for name in
                 ("ens.npz", "grid.npz", "push.npz", "sim.npz")]
        io.save_ensemble(paths[0], small_ensemble)
        io.save_grid(paths[1], grid)
        io.save_push_state(paths[2], small_ensemble, 1.0e-15, 3)
        io.save_simulation(paths[3], laser_slab(steps=0))
        for path in paths:
            assert compression_of(path) == {zipfile.ZIP_STORED}

    def test_suffix_is_added_like_numpy(self, tmp_path, small_ensemble):
        io.save_ensemble(tmp_path / "state", small_ensemble)
        assert os.listdir(tmp_path) == ["state.npz"]
        assert_same_ensemble(io.load_ensemble(tmp_path / "state.npz"),
                             small_ensemble)


class TestCompressedArchivesStillLoad:
    """Archives from the earlier np.savez_compressed writer restore exactly."""

    def test_ensemble(self, tmp_path, small_ensemble):
        path = tmp_path / "old.npz"
        compressed.save_ensemble(path, small_ensemble)
        assert compression_of(path) == {zipfile.ZIP_DEFLATED}
        assert_same_ensemble(io.load_ensemble(path), small_ensemble)

    def test_grid(self, tmp_path):
        grid = YeeGrid((1.0, 2.0, 3.0), (0.5, 0.25, 0.5), (4, 3, 2))
        grid.fill_from_source(UniformField(e=(1, 2, 3), b=(4, 5, 6)), 0.0)
        grid.currents["jz"][2, 1, 0] = -3.5
        path = tmp_path / "old.npz"
        compressed.save_grid(path, grid, time=1.25e-15)
        loaded, time = io.load_grid(path)
        assert time == 1.25e-15
        assert_same_grid(loaded, grid)

    def test_push_state(self, tmp_path, small_ensemble):
        path = tmp_path / "old.npz"
        compressed.save_push_state(path, small_ensemble, 2.5e-15, 40)
        step, time, loaded = io.load_push_state(path)
        assert (step, time) == (40, 2.5e-15)
        assert_same_ensemble(loaded, small_ensemble)

    def test_simulation(self, tmp_path):
        original = laser_slab()
        path = tmp_path / "old.npz"
        compressed.save_simulation(path, original)
        loaded = io.load_simulation(path)
        assert loaded.step_count == original.step_count
        assert loaded.time == original.time
        assert loaded.dt == original.dt
        assert_same_grid(loaded.grid, original.grid)
        for restored, ensemble in zip(loaded.ensembles, original.ensembles,
                                      strict=True):
            assert_same_ensemble(restored, ensemble)
        original.run(2)
        loaded.run(2)
        assert pic_state_digest(loaded) == pic_state_digest(original)

    def test_checkpointer_restores_compressed_next_to_plain(
            self, tmp_path, small_ensemble):
        checkpointer = Checkpointer(tmp_path, every=2, keep=3)
        earlier = small_ensemble.copy()
        earlier.component("x")[:] += 1.0
        checkpointer.save_push(2, earlier, 1.0e-15)
        compressed.save_push_state(checkpointer.path_for(4), small_ensemble,
                                   2.0e-15, 4)
        assert checkpointer.steps_on_disk() == [2, 4]
        assert compression_of(checkpointer.path_for(2)) == \
            {zipfile.ZIP_STORED}
        step, time, restored = checkpointer.load_push()
        assert (step, time) == (4, 2.0e-15)
        assert_same_ensemble(restored, small_ensemble)
        step, time, restored = checkpointer.load_push(2)
        assert (step, time) == (2, 1.0e-15)
        assert_same_ensemble(restored, earlier)


class TestBadArchives:
    """Unreadable archives raise ConfigurationError naming the path."""

    @staticmethod
    def _expect(path, cause, load=io.load_push_state):
        with pytest.raises(ConfigurationError) as info:
            load(path)
        assert str(path) in str(info.value)
        assert isinstance(info.value.__cause__, cause)

    @staticmethod
    def _write_push(path, ensemble, **changes):
        payload = {"format_version": np.int64(1), "kind": "push-state",
                   "time": np.float64(0.0), "step": np.int64(1),
                   **io._ensemble_payload(ensemble)}
        payload.update(changes)
        np.savez(path, **{key: value for key, value in payload.items()
                          if value is not None})

    def test_truncated_file(self, tmp_path, small_ensemble):
        path = tmp_path / "ckpt.npz"
        io.save_push_state(path, small_ensemble, 0.0, 1)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        self._expect(path, zipfile.BadZipFile)

    def test_non_zip_bytes(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        path.write_bytes(b"not a checkpoint\n" * 8)
        self._expect(path, ValueError)

    def test_missing_component_key(self, tmp_path, small_ensemble):
        path = tmp_path / "ckpt.npz"
        self._write_push(path, small_ensemble, px=None)
        self._expect(path, KeyError)

    def test_size_disagrees_with_arrays(self, tmp_path, small_ensemble):
        path = tmp_path / "ckpt.npz"
        self._write_push(path, small_ensemble,
                         size=np.int64(small_ensemble.size + 3))
        self._expect(path, ValueError)

    @pytest.mark.parametrize("load", [io.load_ensemble, io.load_grid,
                                      io.load_push_state,
                                      io.load_simulation])
    def test_every_loader_wraps_a_truncated_file(self, tmp_path, load,
                                                 small_ensemble):
        path = tmp_path / "ckpt.npz"
        io.save_ensemble(path, small_ensemble)
        path.write_bytes(path.read_bytes()[:100])
        self._expect(path, zipfile.BadZipFile, load=load)

    def test_wrong_kind_names_the_path(self, tmp_path, small_ensemble):
        path = tmp_path / "ens.npz"
        io.save_ensemble(path, small_ensemble)
        with pytest.raises(ConfigurationError, match="ens.npz"):
            io.load_push_state(path)

    def test_missing_file_is_not_wrapped(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            io.load_push_state(tmp_path / "absent.npz")


class TestAtomicWrites:
    def test_interrupted_save_keeps_previous_checkpoint_latest(
            self, tmp_path, small_ensemble, monkeypatch):
        checkpointer = Checkpointer(tmp_path, every=2, keep=3)
        checkpointer.save_push(2, small_ensemble, 1.0e-15)

        def interrupted(file, *args, **kwargs):
            file.write(b"PK\x03\x04 partial archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", interrupted)
        with pytest.raises(OSError, match="disk full"):
            checkpointer.save_push(4, small_ensemble, 2.0e-15)
        monkeypatch.undo()

        assert os.listdir(tmp_path) == ["ckpt-00000002.npz"]
        assert checkpointer.latest_step() == 2
        step, time, restored = checkpointer.load_push()
        assert (step, time) == (2, 1.0e-15)
        assert_same_ensemble(restored, small_ensemble)

    def test_save_replaces_an_existing_archive(self, tmp_path,
                                               small_ensemble):
        path = tmp_path / "state.npz"
        path.write_bytes(b"stale")
        io.save_ensemble(path, small_ensemble)
        assert os.listdir(tmp_path) == ["state.npz"]
        assert_same_ensemble(io.load_ensemble(path), small_ensemble)
