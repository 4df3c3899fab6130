"""The vectorised multi-domain pricing walk against its slow reference.

``CostModel.time_launch`` prices every (chunk, stream) pair of a
multi-domain launch in one numpy pass; ``tests/_reference_pricing.py``
keeps the pair-by-pair loop it replaced.  Both run on identical fresh
page states and must agree bit for bit: every ``LaunchTiming`` field,
every per-domain DRAM total and every allocation's final page homes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryModelError
from repro.fp import Precision
from repro.oneapi import (PAGE_SIZE, Chunk, CostModel, DynamicScheduler,
                          KernelSpec, MemoryStream, NumaArenaScheduler,
                          Schedule, StreamKind, ThreadTopology, UsmAllocation)
from tests import _reference_pricing as reference
from tests.test_oneapi_device import make_device


@st.composite
def launches(draw):
    """A random multi-domain launch, as plain parameters.

    Chunks are dealt in random order to random threads and may be
    empty; streams draw AoS spans wider than their payload and may
    share an allocation or have none; pages start homed at random, with
    untouched (-1) pages mixed in.  Allocations are sized near the
    largest range a stream walks, sometimes a little short, so the
    clamp of ranges that end, or start, past the allocation is
    exercised.
    """
    domains = draw(st.sampled_from([2, 4]))
    units = draw(st.integers(1, 8))
    threads_per_unit = draw(st.integers(1, 2))
    n_items = draw(st.integers(0, 300))
    cuts = sorted(draw(st.lists(st.integers(0, n_items), max_size=10)))
    bounds = [0, *cuts, n_items]
    ranges = list(zip(bounds[:-1], bounds[1:]))
    order = draw(st.permutations(range(len(ranges))))
    threads = draw(st.lists(st.integers(0, units * threads_per_unit - 1),
                            min_size=len(ranges), max_size=len(ranges)))
    chunks = [(*ranges[k], thread) for k, thread in zip(order, threads)]
    n_allocations = draw(st.integers(1, 3))
    streams = draw(st.lists(st.tuples(
        st.sampled_from(list(StreamKind)),
        st.sampled_from([4, 24, 96]),            # payload bytes per item
        st.sampled_from([1, 1.5, 4]),            # span / payload
        st.booleans(),                           # contiguous
        st.integers(-1, n_allocations - 1)),     # allocation (-1: none)
        min_size=1, max_size=5))
    allocations = []
    for index in range(n_allocations):
        walked = [int(n_items * payload * stretch)
                  for _, payload, stretch, _, owner in streams
                  if owner == index]
        nbytes = max(0, max(walked, default=0)
                     - draw(st.sampled_from([0, 0, 0, 1, 700])))
        n_pages = -(-nbytes // PAGE_SIZE)
        homes = draw(st.lists(st.integers(-1, domains - 1),
                              min_size=n_pages, max_size=n_pages))
        allocations.append((nbytes, homes))
    return dict(domains=domains, units=units,
                threads_per_unit=threads_per_unit, n_items=n_items,
                chunks=chunks, streams=streams, allocations=allocations,
                update_pages=draw(st.booleans()))


def build(params):
    """Fresh (model, spec, schedule, allocations) from the parameters."""
    device = make_device(numa_domains=params["domains"])
    topology = ThreadTopology(device, units=params["units"],
                              threads_per_unit=params["threads_per_unit"])
    allocations = []
    for nbytes, homes in params["allocations"]:
        allocation = UsmAllocation(nbytes)
        allocation.page_domains[:] = homes
        allocations.append(allocation)
    streams = tuple(
        MemoryStream(name=f"s{i}", kind=kind, bytes_per_item=payload,
                     span_bytes_per_item=payload * stretch,
                     contiguous=contiguous,
                     allocation=allocations[owner] if owner >= 0 else None)
        for i, (kind, payload, stretch, contiguous, owner)
        in enumerate(params["streams"]))
    spec = KernelSpec(name="k", streams=streams, flops_per_item=50.0)
    schedule = Schedule.from_chunks(
        [Chunk(*chunk) for chunk in params["chunks"]], topology,
        params["n_items"], dynamic=True)
    return CostModel(device), spec, schedule, allocations


def homes(allocations):
    return [allocation.page_domains.tolist() for allocation in allocations]


@settings(max_examples=300, deadline=None)
@given(launches())
def test_walk_matches_reference(params):
    model, spec, schedule, allocations = build(params)
    _, ref_spec, _, ref_allocations = build(params)
    update = params["update_pages"]
    try:
        expected = reference.walk_domains(model, ref_spec, schedule, update)
    except MemoryModelError:
        with pytest.raises(MemoryModelError):
            model._walk_domains(spec, schedule, update)
        return
    assert model._walk_domains(spec, schedule, update) == expected
    assert homes(allocations) == homes(ref_allocations)


@settings(max_examples=150, deadline=None)
@given(launches(), st.booleans())
def test_time_launch_matches_reference(params, jit_compiled):
    model, spec, schedule, allocations = build(params)
    _, ref_spec, _, ref_allocations = build(params)
    update = params["update_pages"]
    try:
        expected = reference.time_launch(model, ref_spec, schedule,
                                         Precision.SINGLE, jit_compiled,
                                         update)
    except MemoryModelError:
        return
    timing = model.time_launch(spec, schedule, Precision.SINGLE,
                               jit_compiled, update)
    assert vars(timing) == vars(expected)
    assert homes(allocations) == homes(ref_allocations)


def two_stream_spec(allocation):
    """A READ and a WRITE stream over one allocation (an in-place
    update), plus an allocation-free stream."""
    return KernelSpec(name="inplace", flops_per_item=20.0, streams=(
        MemoryStream("in", StreamKind.READ, 8, allocation=allocation),
        MemoryStream("out", StreamKind.WRITE, 8, allocation=allocation),
        MemoryStream("scratch", StreamKind.READ, 4)))


@pytest.mark.parametrize("scheduler", [DynamicScheduler(seed=11),
                                       NumaArenaScheduler(seed=12)],
                         ids=["dynamic", "arena"])
@pytest.mark.parametrize("domains", [2, 4])
def test_consecutive_launches_match_reference(scheduler, domains):
    # Cold first launch, then warm ones on the evolving page state.
    device = make_device(numa_domains=domains)
    model = CostModel(device)
    topology = ThreadTopology(device)
    n_items = 20_000
    fast = UsmAllocation(n_items * 8)
    slow = UsmAllocation(n_items * 8)
    for _ in range(4):
        schedule = scheduler.schedule(n_items, topology)
        timing = model.time_launch(two_stream_spec(fast), schedule)
        expected = reference.time_launch(model, two_stream_spec(slow),
                                         schedule)
        assert vars(timing) == vars(expected)
        assert np.array_equal(fast.page_domains, slow.page_domains)
    assert timing.remote_bytes > 0.0


def test_majority_tie_goes_to_lowest_domain():
    # A chunk in domain 0 reads two pages homed in domains 3 and 2: the
    # remote part is served from domain 2.
    device = make_device(numa_domains=4)
    model = CostModel(device)
    allocation = UsmAllocation(2 * PAGE_SIZE)
    allocation.page_domains[:] = [3, 2]
    spec = KernelSpec(name="k", flops_per_item=1.0, streams=(
        MemoryStream("in", StreamKind.READ, 8, allocation=allocation),))
    schedule = Schedule.from_chunks(
        [Chunk(0, 2 * PAGE_SIZE // 8, 0)], ThreadTopology(device),
        2 * PAGE_SIZE // 8, dynamic=False)
    dram, remote, local, cold = model._walk_domains(spec, schedule, True)
    assert dram == {0: 0.0, 1: 0.0, 2: 2.0 * PAGE_SIZE, 3: 0.0}
    assert (remote, local, cold) == (2.0 * PAGE_SIZE, 0.0, 0)
    assert reference.remote_home(allocation, 0, 2 * PAGE_SIZE, 0) == 2


def test_first_toucher_homes_later_pairs():
    # Chunk 0 (domain 1) touches the page first; chunk 1 (domain 0)
    # then finds it remote — within a single launch.
    device = make_device()
    model = CostModel(device)
    allocation = UsmAllocation(PAGE_SIZE)
    spec = KernelSpec(name="k", flops_per_item=1.0, streams=(
        MemoryStream("in", StreamKind.READ, 8, allocation=allocation),))
    schedule = Schedule.from_chunks(
        [Chunk(256, 512, 8), Chunk(0, 256, 0)], ThreadTopology(device),
        512, dynamic=True)
    dram, remote, local, cold = model._walk_domains(spec, schedule, True)
    assert (remote, local, cold) == (2048.0, 2048.0, 1)
    assert allocation.page_domains.tolist() == [1]
    untouched = UsmAllocation(PAGE_SIZE)
    spec = KernelSpec(name="k", flops_per_item=1.0, streams=(
        MemoryStream("in", StreamKind.READ, 8, allocation=untouched),))
    assert model._walk_domains(spec, schedule, False)[1:] == \
        (0.0, 4096.0, 0)
    assert untouched.page_domains.tolist() == [-1]


def test_page_homed_beyond_device_domains_rejected():
    device = make_device()
    allocation = UsmAllocation(PAGE_SIZE)
    allocation.page_domains[:] = 3
    spec = KernelSpec(name="k", flops_per_item=1.0, streams=(
        MemoryStream("in", StreamKind.READ, 8, allocation=allocation),))
    schedule = Schedule.from_chunks([Chunk(0, 8, 0)],
                                    ThreadTopology(device), 8, dynamic=True)
    with pytest.raises(MemoryModelError, match="domain 3"):
        CostModel(device).time_launch(spec, schedule)


def test_range_past_the_allocation_end_is_empty():
    # A stream wider than its allocation (a grid array walked with
    # per-particle chunks): the chunk starting past the end touches
    # nothing and prices as local traffic, like the reference loop.
    device = make_device()
    model = CostModel(device)
    allocation = UsmAllocation(PAGE_SIZE)
    allocation.page_domains[:] = 1
    spec = KernelSpec(name="k", flops_per_item=1.0, streams=(
        MemoryStream("in", StreamKind.READ, 8, allocation=allocation),))
    schedule = Schedule.from_chunks(
        [Chunk(0, 512, 8), Chunk(512, 1024, 0), Chunk(1024, 1536, 0)],
        ThreadTopology(device), 1536, dynamic=True)
    dram, remote, local, cold = model._walk_domains(spec, schedule, True)
    assert (remote, local, cold) == (0.0, 12288.0, 0)
    assert dram == reference.walk_domains(model, spec, schedule, True)[0]


def test_backwards_range_rejected():
    from types import SimpleNamespace
    from repro.oneapi.costmodel import _walk_allocation
    allocation = UsmAllocation(PAGE_SIZE)
    stream = MemoryStream("in", StreamKind.READ, 8, allocation=allocation)
    backwards = SimpleNamespace(starts=np.array([64]), ends=np.array([32]))
    with pytest.raises(MemoryModelError, match="runs backwards"):
        _walk_allocation([stream], [0], 1, backwards, np.array([0]), 2,
                         True)
