"""Tests for the USM memory model (pages, first-touch, locality)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryModelError
from repro.oneapi import PAGE_SIZE, UsmAllocation, UsmKind, UsmMemoryManager
from tests._reference_pricing import locality


class TestAllocation:
    def test_page_count_rounds_up(self):
        assert UsmAllocation(1).n_pages == 1
        assert UsmAllocation(PAGE_SIZE).n_pages == 1
        assert UsmAllocation(PAGE_SIZE + 1).n_pages == 2
        assert UsmAllocation(0).n_pages == 0

    def test_pages_start_untouched(self):
        allocation = UsmAllocation(3 * PAGE_SIZE)
        assert np.all(allocation.page_domains == -1)

    def test_rejects_bad_kind(self):
        with pytest.raises(MemoryModelError):
            UsmAllocation(10, kind="remote")

    def test_rejects_negative_size(self):
        with pytest.raises(MemoryModelError):
            UsmAllocation(-1)

    def test_range_validation(self):
        allocation = UsmAllocation(PAGE_SIZE)
        with pytest.raises(MemoryModelError):
            allocation.touch(0, PAGE_SIZE + 1, 0)
        with pytest.raises(MemoryModelError):
            locality(allocation, -1, 10, 0)


class TestFirstTouch:
    def test_touch_homes_pages(self):
        allocation = UsmAllocation(4 * PAGE_SIZE)
        fresh = allocation.touch(0, 2 * PAGE_SIZE, domain=1)
        assert fresh == 2
        assert list(allocation.page_domains) == [1, 1, -1, -1]

    def test_second_touch_does_not_rehome(self):
        allocation = UsmAllocation(2 * PAGE_SIZE)
        allocation.touch(0, PAGE_SIZE, domain=0)
        fresh = allocation.touch(0, 2 * PAGE_SIZE, domain=1)
        assert fresh == 1
        assert list(allocation.page_domains) == [0, 1]

    def test_partial_page_touch(self):
        allocation = UsmAllocation(2 * PAGE_SIZE)
        fresh = allocation.touch(10, 20, domain=0)
        assert fresh == 1
        assert allocation.page_domains[0] == 0

    def test_empty_range_is_noop(self):
        allocation = UsmAllocation(PAGE_SIZE)
        assert allocation.touch(5, 5, 0) == 0

    def test_reset_pages(self):
        allocation = UsmAllocation(PAGE_SIZE)
        allocation.touch(0, PAGE_SIZE, 0)
        allocation.reset_pages()
        assert np.all(allocation.page_domains == -1)


class TestLocality:
    def test_untouched_counts_as_local(self):
        allocation = UsmAllocation(2 * PAGE_SIZE)
        local, remote = locality(allocation, 0, 2 * PAGE_SIZE, domain=0)
        assert (local, remote) == (2 * PAGE_SIZE, 0)

    def test_remote_pages_counted(self):
        allocation = UsmAllocation(2 * PAGE_SIZE)
        allocation.touch(0, 2 * PAGE_SIZE, domain=1)
        local, remote = locality(allocation, 0, 2 * PAGE_SIZE, domain=0)
        assert (local, remote) == (0, 2 * PAGE_SIZE)

    def test_mixed_homes_split(self):
        allocation = UsmAllocation(2 * PAGE_SIZE)
        allocation.touch(0, PAGE_SIZE, domain=0)
        allocation.touch(PAGE_SIZE, 2 * PAGE_SIZE, domain=1)
        local, remote = locality(allocation, 0, 2 * PAGE_SIZE, domain=0)
        assert (local, remote) == (PAGE_SIZE, PAGE_SIZE)

    def test_partial_remote_page(self):
        allocation = UsmAllocation(2 * PAGE_SIZE)
        allocation.touch(0, 2 * PAGE_SIZE, domain=1)
        local, remote = locality(allocation, 100, 300, domain=0)
        assert (local, remote) == (0, 200)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=8 * PAGE_SIZE),
           st.integers(min_value=0, max_value=8 * PAGE_SIZE),
           st.integers(min_value=0, max_value=1))
    def test_local_plus_remote_equals_range(self, a, b, domain):
        allocation = UsmAllocation(8 * PAGE_SIZE)
        # Home pages in an alternating pattern.
        for page in range(8):
            allocation.touch(page * PAGE_SIZE, (page + 1) * PAGE_SIZE,
                             page % 2)
        start, end = min(a, b), max(a, b)
        local, remote = locality(allocation, start, end, domain)
        assert local + remote == end - start
        assert local >= 0 and remote >= 0


class TestMemoryManager:
    def test_malloc_shared_registers(self):
        manager = UsmMemoryManager()
        array = manager.malloc_shared(100, np.float64)
        allocation = manager.allocation_of(array)
        assert allocation.nbytes == 800
        assert allocation.kind == UsmKind.SHARED

    def test_register_idempotent(self):
        manager = UsmMemoryManager()
        array = np.zeros(10)
        first = manager.register(array)
        second = manager.register(array)
        assert first is second
        assert len(manager) == 1

    def test_register_resolves_views_to_base(self):
        manager = UsmMemoryManager()
        array = np.zeros(100)
        manager.register(array)
        view = array[10:20]
        assert manager.allocation_of(view).nbytes == 800

    def test_structured_field_view_resolves(self):
        manager = UsmMemoryManager()
        records = np.zeros(10, dtype=[("a", np.float64), ("b", np.int16)])
        allocation = manager.register(records)
        assert manager.allocation_of(records["a"]) is allocation

    def test_unregistered_lookup_raises(self):
        manager = UsmMemoryManager()
        with pytest.raises(MemoryModelError):
            manager.allocation_of(np.zeros(3))

    def test_virtual_allocation(self):
        manager = UsmMemoryManager()
        allocation = manager.virtual(10 * PAGE_SIZE, name="model-only")
        assert allocation.array is None
        assert allocation.n_pages == 10
        assert manager.total_allocated == 10 * PAGE_SIZE

    def test_free(self):
        manager = UsmMemoryManager()
        allocation = manager.virtual(PAGE_SIZE)
        manager.free(allocation)
        assert len(manager) == 0
        with pytest.raises(MemoryModelError):
            manager.free(allocation)

    def test_allocations_iterator(self):
        manager = UsmMemoryManager()
        manager.virtual(PAGE_SIZE)
        manager.malloc_shared(4, np.float32)
        assert len(list(manager.allocations())) == 2
