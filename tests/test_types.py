"""Tests for the particle species table."""

import numpy as np
import pytest

from repro.constants import ELECTRON_MASS, ELEMENTARY_CHARGE, PROTON_MASS
from repro.errors import ConfigurationError
from repro.particles import ParticleSpecies, ParticleTypeTable


class TestParticleSpecies:
    def test_fields(self):
        s = ParticleSpecies("muon", 1.88e-25, -ELEMENTARY_CHARGE)
        assert s.name == "muon"
        assert s.mass == pytest.approx(1.88e-25)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ConfigurationError):
            ParticleSpecies("ghost", 0.0, 0.0)

    def test_frozen(self):
        s = ParticleSpecies("e", ELECTRON_MASS, -ELEMENTARY_CHARGE)
        with pytest.raises(AttributeError):
            s.mass = 1.0


class TestDefaultTable:
    def test_three_species(self, type_table):
        assert len(type_table) == 3

    def test_electron_is_id_zero(self, type_table):
        assert type_table[0].name == "electron"
        assert type_table[0].charge == pytest.approx(-ELEMENTARY_CHARGE)

    def test_positron_mirror(self, type_table):
        assert type_table[1].mass == type_table[0].mass
        assert type_table[1].charge == -type_table[0].charge

    def test_proton(self, type_table):
        assert type_table[2].mass == pytest.approx(PROTON_MASS)

    def test_id_of(self, type_table):
        assert type_table.id_of("proton") == 2

    def test_id_of_unknown_raises(self, type_table):
        with pytest.raises(ConfigurationError):
            type_table.id_of("graviton")

    def test_iteration_in_id_order(self, type_table):
        names = [s.name for s in type_table]
        assert names == ["electron", "positron", "proton"]


class TestRegistration:
    def test_ids_are_dense(self):
        table = ParticleTypeTable()
        a = table.register(ParticleSpecies("a", 1.0, 1.0))
        b = table.register(ParticleSpecies("b", 2.0, -1.0))
        assert (a, b) == (0, 1)

    def test_duplicate_name_rejected(self):
        table = ParticleTypeTable()
        table.register(ParticleSpecies("a", 1.0, 1.0))
        with pytest.raises(ConfigurationError):
            table.register(ParticleSpecies("a", 2.0, 1.0))

    def test_unknown_id_raises(self, type_table):
        with pytest.raises(ConfigurationError):
            type_table[42]


def lookups(table, dtype):
    """The (mass, charge) lookups of one precision: the float64
    ``masses_of`` / ``charges_of``, or ``gather`` on the ``dtype``
    tables of ``typed_luts``."""
    if dtype is None:
        return table.masses_of, table.charges_of
    return tuple(lambda ids, lut=lut: table.gather(ids, lut)[0]
                 for lut in table.typed_luts(dtype))


class TestVectorizedLookup:
    def test_masses_of(self, type_table):
        ids = np.array([0, 2, 1, 0], dtype=np.int16)
        masses = type_table.masses_of(ids)
        assert masses[0] == masses[3] == pytest.approx(ELECTRON_MASS)
        assert masses[1] == pytest.approx(PROTON_MASS)

    def test_charges_of_signs(self, type_table):
        ids = np.array([0, 1], dtype=np.int16)
        charges = type_table.charges_of(ids)
        assert charges[0] < 0 < charges[1]

    def test_out_of_range_ids_rejected(self, type_table):
        with pytest.raises(ConfigurationError):
            type_table.masses_of(np.array([0, 5], dtype=np.int16))
        with pytest.raises(ConfigurationError):
            type_table.charges_of(np.array([-1], dtype=np.int16))

    def test_empty_lookup(self, type_table):
        assert type_table.masses_of(np.array([], dtype=np.int16)).size == 0

    @pytest.mark.parametrize("dtype", [None, np.float32, np.float64])
    def test_lookups_equal_the_fancy_index_gather(self, type_table, dtype):
        # ``np.take`` replaced ``lut[ids]``; the values, dtype and shape
        # must be the ones the fancy index gives, for blocks and scalars.
        rng = np.random.default_rng(3)
        for ids in (rng.integers(0, 3, 16_384).astype(np.int16),
                    rng.integers(0, 3, (4, 5)).astype(np.int16),
                    np.int16(2), np.array([], dtype=np.int16)):
            for lookup, master in zip(lookups(type_table, dtype),
                                      (type_table._mass_lut,
                                       type_table._charge_lut)):
                lut = master if dtype is None else master.astype(dtype)
                got, want = lookup(ids), lut[ids]
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).dtype == np.asarray(want).dtype
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", [None, np.float32])
    def test_typed_lookups_reject_out_of_range_ids(self, type_table, dtype):
        # ``np.take`` would wrap a negative id; the range check must
        # still run first on every path.
        for bad in (np.array([0, 3], dtype=np.int16),
                    np.array([-1, 0], dtype=np.int16), np.int16(-3)):
            for lookup in lookups(type_table, dtype):
                with pytest.raises(ConfigurationError):
                    lookup(bad)

    def test_gather_is_a_scalar_per_table_for_one_species(self, type_table):
        masses, charges = type_table.typed_luts(np.float32)
        assert masses.dtype == charges.dtype == np.float32
        ids = np.full(300, 2, dtype=np.int16)
        got = type_table.gather(ids, masses, charges)
        assert all(np.ndim(value) == 0 for value in got)
        assert got[0] == masses[2] and got[1] == charges[2]
        assert np.asarray(got[0]).dtype == np.float32
        mixed = ids.copy()
        mixed[::3] = 0
        got = type_table.gather(mixed, masses, charges)
        np.testing.assert_array_equal(got[0], masses[mixed])
        np.testing.assert_array_equal(got[1], charges[mixed])
        assert type_table.gather(ids[:0], masses)[0].size == 0

    def test_gather_rejects_out_of_range_ids(self, type_table):
        masses, _ = type_table.typed_luts(np.float64)
        for bad in (np.full(4, 3, dtype=np.int16),
                    np.full(4, -1, dtype=np.int16)):
            with pytest.raises(ConfigurationError):
                type_table.gather(bad, masses)
