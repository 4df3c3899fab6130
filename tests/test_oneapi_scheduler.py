"""Tests for the static / dynamic / NUMA-arena schedulers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.oneapi import (Chunk, DynamicScheduler, GpuScheduler,
                          NumaArenaScheduler, StaticScheduler,
                          ThreadTopology)
from tests.test_oneapi_device import make_device


@pytest.fixture
def device():
    return make_device()        # 8 units, 2 domains, 2 threads/unit


@pytest.fixture
def topology(device):
    return ThreadTopology(device)


class TestThreadTopology:
    def test_full_machine(self, topology):
        assert topology.n_threads == 16
        assert topology.units == 8

    def test_compact_binding(self, topology):
        # Threads fill units in order, both hyperthreads together.
        assert topology.unit_of(0) == 0
        assert topology.unit_of(1) == 0
        assert topology.unit_of(2) == 1
        assert topology.domain_of(7) == 0     # unit 3, domain 0
        assert topology.domain_of(8) == 1     # unit 4, domain 1

    def test_restricted_units(self, device):
        topology = ThreadTopology(device, units=3, threads_per_unit=1)
        assert topology.n_threads == 3
        assert topology.active_domains == [0]

    def test_threads_in_domain(self, topology):
        assert topology.threads_in_domain(0) == list(range(8))
        assert topology.threads_in_domain(1) == list(range(8, 16))

    def test_active_units_in_domain(self, device):
        topology = ThreadTopology(device, units=5, threads_per_unit=2)
        assert topology.active_units_in_domain(0) == 4
        assert topology.active_units_in_domain(1) == 1

    @pytest.mark.parametrize("units, tpu", [(8, 2), (5, 2), (3, 1), (8, 1)])
    def test_thread_arrays_match_scalar_lookups(self, device, units, tpu):
        from repro.oneapi.scheduler import _SubsetTopology
        topology = ThreadTopology(device, units=units, threads_per_unit=tpu)
        subset = _SubsetTopology(topology, topology.threads_in_domain(0))
        for topo in (topology, subset):
            threads = range(topo.n_threads)
            assert topo.thread_units.tolist() == \
                [topo.unit_of(t) for t in threads]
            assert topo.thread_domains.tolist() == \
                [topo.domain_of(t) for t in threads]
            for domain in (0, 1):
                assert topo.active_units_in_domain(domain) == len(
                    {topo.unit_of(t) for t in threads
                     if topo.domain_of(t) == domain})

    def test_validation(self, device):
        with pytest.raises(ConfigurationError):
            ThreadTopology(device, units=9)
        with pytest.raises(ConfigurationError):
            ThreadTopology(device, threads_per_unit=3)
        with pytest.raises(ConfigurationError):
            ThreadTopology(device).unit_of(16)


def _assert_covers(schedule, n_items):
    """Every item appears in exactly one chunk."""
    seen = np.zeros(n_items, dtype=int)
    for chunk in schedule.chunks:
        seen[chunk.start:chunk.end] += 1
    assert np.all(seen == 1)


class TestStaticScheduler:
    def test_covers_all_items(self, topology):
        schedule = StaticScheduler().schedule(1000, topology)
        _assert_covers(schedule, 1000)
        assert not schedule.dynamic

    def test_one_chunk_per_thread(self, topology):
        schedule = StaticScheduler().schedule(1600, topology)
        assert len(schedule.chunks) == 16
        assert schedule.max_chunks_on_a_thread() == 1

    def test_deterministic_across_calls(self, topology):
        scheduler = StaticScheduler()
        first = scheduler.schedule(999, topology).chunks
        second = scheduler.schedule(999, topology).chunks
        assert first == second

    def test_balanced(self, topology):
        schedule = StaticScheduler().schedule(1003, topology)
        sizes = [c.size for c in schedule.chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_fewer_items_than_threads(self, topology):
        schedule = StaticScheduler().schedule(3, topology)
        _assert_covers(schedule, 3)
        assert len(schedule.chunks) == 3


class TestDynamicScheduler:
    def test_covers_all_items(self, topology):
        schedule = DynamicScheduler(seed=1).schedule(1000, topology)
        _assert_covers(schedule, 1000)
        assert schedule.dynamic

    def test_assignment_changes_between_calls(self, topology):
        scheduler = DynamicScheduler(seed=2)
        first = scheduler.schedule(4096, topology)
        second = scheduler.schedule(4096, topology)
        first_map = {(c.start, c.end): c.thread for c in first.chunks}
        second_map = {(c.start, c.end): c.thread for c in second.chunks}
        moved = sum(1 for key in first_map
                    if second_map.get(key) != first_map[key])
        assert moved > 0      # work-stealing reshuffles ownership

    def test_explicit_grain_size(self, topology):
        schedule = DynamicScheduler(grain_size=100).schedule(1000, topology)
        sizes = {c.size for c in schedule.chunks}
        assert sizes == {100}

    def test_auto_grain_targets_grains_per_thread(self, topology):
        scheduler = DynamicScheduler(target_grains_per_thread=4)
        schedule = scheduler.schedule(16 * 4 * 50, topology)
        assert len(schedule.chunks) == pytest.approx(64, abs=2)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DynamicScheduler(grain_size=0)
        with pytest.raises(ConfigurationError):
            DynamicScheduler(target_grains_per_thread=0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=5000))
    def test_always_covers(self, n_items):
        device = make_device()
        topology = ThreadTopology(device)
        schedule = DynamicScheduler(seed=3).schedule(n_items, topology)
        _assert_covers(schedule, n_items)


class TestNumaArenaScheduler:
    def test_covers_all_items(self, topology):
        schedule = NumaArenaScheduler(seed=4).schedule(1000, topology)
        _assert_covers(schedule, 1000)

    def test_domains_own_static_halves(self, topology):
        # Domain 0's threads only ever process the first half of the
        # iteration space; domain 1's the second half.
        scheduler = NumaArenaScheduler(seed=5)
        for _ in range(3):
            schedule = scheduler.schedule(1000, topology)
            for chunk in schedule.chunks:
                domain = topology.domain_of(chunk.thread)
                if domain == 0:
                    assert chunk.end <= 500
                else:
                    assert chunk.start >= 500

    def test_dynamic_within_domain(self, topology):
        scheduler = NumaArenaScheduler(seed=6)
        first = scheduler.schedule(4096, topology)
        second = scheduler.schedule(4096, topology)
        first_map = {(c.start, c.end): c.thread for c in first.chunks}
        second_map = {(c.start, c.end): c.thread for c in second.chunks}
        moved = sum(1 for key in first_map
                    if second_map.get(key) != first_map[key])
        assert moved > 0

    def test_single_domain_topology(self, device):
        topology = ThreadTopology(device, units=4, threads_per_unit=2)
        schedule = NumaArenaScheduler(seed=7).schedule(100, topology)
        _assert_covers(schedule, 100)
        assert all(topology.domain_of(c.thread) == 0
                   for c in schedule.chunks)

    def test_uneven_domain_split_proportional(self, device):
        # 5 units: 4 in domain 0, 1 in domain 1 -> 8:2 thread split.
        topology = ThreadTopology(device, units=5, threads_per_unit=2)
        schedule = NumaArenaScheduler(seed=8).schedule(1000, topology)
        domain0_items = sum(c.size for c in schedule.chunks
                            if topology.domain_of(c.thread) == 0)
        assert domain0_items == 800


class TestGpuScheduler:
    def test_workgroup_chunks(self, device):
        gpu = make_device(device_type=make_device().device_type,
                          numa_domains=1, compute_units=8)
        topology = ThreadTopology(gpu)
        schedule = GpuScheduler(workgroup_size=256).schedule(1000, topology)
        _assert_covers(schedule, 1000)
        assert [c.size for c in schedule.chunks] == [256, 256, 256, 232]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GpuScheduler(workgroup_size=0)


class TestScheduleAccounting:
    def test_items_per_thread(self, topology):
        schedule = StaticScheduler().schedule(1600, topology)
        per_thread = schedule.items_per_thread()
        assert all(v == 100 for v in per_thread.values())

    def test_items_per_unit_aggregates_hyperthreads(self, topology):
        schedule = StaticScheduler().schedule(1600, topology)
        per_unit = schedule.items_per_unit()
        assert all(v == 200 for v in per_unit.values())

    def test_coverage_mismatch_rejected(self, topology):
        from repro.oneapi import Schedule
        with pytest.raises(ConfigurationError):
            Schedule.from_chunks([Chunk(0, 5, 0)], topology, 10, dynamic=False)


def _dict_totals(schedule):
    """The per-thread and per-unit totals as plain loops over chunks."""
    items, chunks, units = {}, {}, {}
    for chunk in schedule.chunks:
        items[chunk.thread] = items.get(chunk.thread, 0) + chunk.size
        chunks[chunk.thread] = chunks.get(chunk.thread, 0) + 1
        unit = schedule.topology.unit_of(chunk.thread)
        units[unit] = units.get(unit, 0) + chunk.size
    return items, chunks, units


class TestStructOfArrays:
    @pytest.mark.parametrize("make, units, sizes, expected", [
        (lambda: DynamicScheduler(seed=7), 8, [1000, 1000, 4096, 0, 37],
         "078655cc4ff3f371"),
        (lambda: DynamicScheduler(grain_size=64, seed=8), 5, [1000, 5000],
         "c7466c75bbf74cf3"),
        (lambda: NumaArenaScheduler(seed=9), 8, [1000, 1000, 4096, 0, 37],
         "42f451858e8be07c"),
        (lambda: NumaArenaScheduler(seed=10), 5, [999, 5000],
         "010877feff2bb58e"),
    ], ids=["dynamic", "dynamic-grain", "arena", "arena-uneven"])
    def test_fixed_seed_deals_unchanged(self, device, make, units, sizes,
                                        expected):
        # Pinned from the list-of-Chunk schedulers: the array deal draws
        # the same single permutation, so every (start, end, thread)
        # triple of successive calls is unchanged.
        import hashlib
        topology = ThreadTopology(device, units=units)
        scheduler = make()
        digest = hashlib.sha256()
        for n_items in sizes:
            for c in scheduler.schedule(n_items, topology).chunks:
                digest.update(f"{c.start},{c.end},{c.thread};".encode())
        assert digest.hexdigest()[:16] == expected

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 3000), st.integers(1, 8), st.integers(1, 2),
           st.sampled_from(["static", "dynamic", "arena", "gpu"]))
    def test_totals_match_dict_loops(self, n_items, units, tpu, kind):
        topology = ThreadTopology(make_device(), units=units,
                                  threads_per_unit=tpu)
        scheduler = {"static": StaticScheduler,
                     "dynamic": lambda: DynamicScheduler(seed=n_items),
                     "arena": lambda: NumaArenaScheduler(seed=n_items),
                     "gpu": lambda: GpuScheduler(workgroup_size=64)}[kind]()
        schedule = scheduler.schedule(n_items, topology)
        items, chunks, per_unit = _dict_totals(schedule)
        assert schedule.items_per_thread() == items
        assert schedule.chunks_per_thread() == chunks
        assert schedule.items_per_unit() == per_unit
        assert schedule.max_chunks_on_a_thread() == \
            max(chunks.values(), default=0)

    def test_arrays_are_read_only(self, topology):
        schedule = DynamicScheduler(seed=1).schedule(100, topology)
        for array in (schedule.starts, schedule.ends, schedule.threads):
            assert array.dtype == np.int64
            with pytest.raises(ValueError):
                array[0] = 5
        assert len(schedule.chunks) == len(schedule.starts)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(2, 20), min_size=2, max_size=10),
           st.integers(0, 100), st.sampled_from([-1, 1]))
    def test_overlap_and_gap_raise(self, sizes, which, shift):
        # Move one interior boundary of an exact tiling by one item in
        # one chunk only: the chunks then overlap (or leave a gap).
        from repro.oneapi import Schedule
        topology = ThreadTopology(make_device())
        ends = np.cumsum(sizes)
        starts = ends - sizes
        k = 1 + which % (len(sizes) - 1)
        starts[k] += shift
        message = "overlap" if shift < 0 else "uncovered"
        with pytest.raises(ConfigurationError, match=message):
            Schedule(starts, ends, np.zeros(len(sizes), dtype=int),
                     topology, int(ends[-1]), dynamic=True)

    def test_empty_chunks_allowed_anywhere(self, topology):
        from repro.oneapi import Schedule
        schedule = Schedule.from_chunks(
            [Chunk(0, 5, 0), Chunk(3, 3, 1), Chunk(5, 10, 2),
             Chunk(10, 10, 3)], topology, 10, dynamic=True)
        assert schedule.chunks_per_thread() == {0: 1, 1: 1, 2: 1, 3: 1}
        assert schedule.items_per_thread() == {0: 5, 1: 0, 2: 5, 3: 0}

    def test_malformed_chunks_rejected(self, topology):
        from repro.oneapi import Schedule
        with pytest.raises(ConfigurationError, match="ends before"):
            Schedule.from_chunks([Chunk(0, 10, 0), Chunk(6, 4, 1)],
                                 topology, 10, dynamic=False)
        with pytest.raises(ConfigurationError, match="threads"):
            Schedule.from_chunks([Chunk(0, 10, 16)], topology, 10,
                                 dynamic=False)
        with pytest.raises(ConfigurationError, match="differ in length"):
            Schedule([0], [10], [0, 1], topology, 10, dynamic=False)
