"""Tests for the roofline cost model (the paper's performance mechanisms)."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends.registry import (cost_model_for_descriptor,
                                     descriptor_for, resolve_device)
from repro.bench import paper_time_step, paper_wave
from repro.bench.scenarios import paper_ensemble
from repro.errors import KernelError
from repro.fp import Precision
from repro.oneapi import (CostModel, DynamicScheduler, KernelSpec,
                          MemoryStream, NumaArenaScheduler, StaticScheduler,
                          StreamKind, ThreadTopology, UsmMemoryManager)
from repro.oneapi.graph import fuse_nodes, group_spec
from repro.oneapi.runtime import PushEngine, build_step_graph
from repro.particles import Layout
from tests.test_oneapi_device import make_device

N_ITEMS = 1_000_000


def simple_spec(manager=None, kind=StreamKind.READ, bytes_per_item=32,
                flops=100, contiguous=True, name="k"):
    allocation = None
    if manager is not None:
        allocation = manager.virtual(N_ITEMS * bytes_per_item, name=name)
    stream = MemoryStream(name="data", kind=kind,
                          bytes_per_item=bytes_per_item,
                          contiguous=contiguous, allocation=allocation)
    return KernelSpec(name=name, streams=(stream,), flops_per_item=flops)


def run(model, spec, scheduler, topology, precision=Precision.SINGLE,
        jit=True):
    schedule = scheduler.schedule(N_ITEMS, topology)
    return model.time_launch(spec, schedule, precision=precision,
                             jit_compiled=jit)


@pytest.fixture
def device():
    # Large cache threshold is avoided: the 32 MB working set of the
    # default spec exceeds 2 x 10 MB LLC, so DRAM timing applies.
    return make_device()


@pytest.fixture
def topology(device):
    return ThreadTopology(device)


class TestRoofline:
    def test_memory_bound_time_matches_bandwidth(self, device, topology):
        model = CostModel(device)
        manager = UsmMemoryManager()
        spec = simple_spec(manager, flops=1)
        timing = run(model, spec, StaticScheduler(), topology)
        # 32 B/item read-only over 2 domains; each domain's bandwidth
        # is capped by its 4 busy units (4 x 10 GB/s x 1.2 SMT boost =
        # 48 GB/s, below the 50 GB/s DRAM limit).
        expected = N_ITEMS * 32 / 2 / 48e9
        assert timing.memory_seconds == pytest.approx(expected, rel=0.01)
        assert timing.bound == "memory"

    def test_compute_bound_kernel(self, device, topology):
        model = CostModel(device)
        spec = simple_spec(flops=100_000)       # absurdly compute heavy
        timing = run(model, spec, StaticScheduler(), topology)
        assert timing.bound == "compute"
        per_unit = device.clock_hz * device.flops_per_cycle_sp \
            * device.vector_efficiency
        expected = (N_ITEMS / 8) * 100_000 / per_unit
        assert timing.compute_seconds == pytest.approx(expected, rel=0.01)

    def test_double_precision_slower_compute(self, device, topology):
        model = CostModel(device)
        spec = simple_spec(flops=100_000)
        single = run(model, spec, StaticScheduler(), topology,
                     Precision.SINGLE)
        double = run(model, spec, StaticScheduler(), topology,
                     Precision.DOUBLE)
        assert double.compute_seconds == pytest.approx(
            2.0 * single.compute_seconds)

    def test_more_bandwidth_never_slower(self, topology):
        # Monotonicity: raising domain bandwidth cannot increase time.
        times = []
        for bandwidth in (20e9, 40e9, 80e9):
            device = make_device(domain_bandwidth=bandwidth)
            model = CostModel(device)
            spec = simple_spec(flops=1)
            timing = run(model, spec, StaticScheduler(),
                         ThreadTopology(device))
            times.append(timing.total_seconds)
        assert times[0] >= times[1] >= times[2]

    def test_write_costs_double_with_write_allocate(self, device, topology):
        model = CostModel(device)
        read = run(model, simple_spec(kind=StreamKind.READ),
                   StaticScheduler(), topology)
        write = run(model, simple_spec(kind=StreamKind.WRITE),
                    StaticScheduler(), topology)
        read_write = run(model, simple_spec(kind=StreamKind.READ_WRITE),
                         StaticScheduler(), topology)
        assert write.memory_seconds == pytest.approx(
            2.0 * read.memory_seconds)
        assert read_write.memory_seconds == pytest.approx(
            2.0 * read.memory_seconds)

    def test_streaming_store_device(self, topology):
        device = make_device(write_allocate=False)
        model = CostModel(device)
        write = run(model, simple_spec(kind=StreamKind.WRITE),
                    StaticScheduler(), ThreadTopology(device))
        read = run(model, simple_spec(kind=StreamKind.READ),
                   StaticScheduler(), ThreadTopology(device))
        assert write.memory_seconds == pytest.approx(read.memory_seconds)

    def test_cache_resident_working_set_faster(self, device):
        topology = ThreadTopology(device)
        model = CostModel(device)
        small_spec = simple_spec(flops=1)
        schedule = StaticScheduler().schedule(1000, topology)   # 32 KB
        small = model.time_launch(small_spec, schedule,
                                  precision=Precision.SINGLE)
        # Cache-resident bandwidth is 4x DRAM in the model.
        expected = 1000 * 32 / 2 / (50e9 * 4.0)
        assert small.memory_seconds == pytest.approx(expected, rel=0.05)


class TestNumaMechanism:
    def test_static_schedule_is_local_after_first_launch(self, device,
                                                         topology):
        model = CostModel(device)
        manager = UsmMemoryManager()
        spec = simple_spec(manager)
        scheduler = StaticScheduler()
        first = run(model, spec, scheduler, topology)
        second = run(model, spec, scheduler, topology)
        # Only pages straddling two threads' chunk boundaries can go
        # remote under a deterministic static schedule — a few KB out
        # of 32 MB.
        assert first.remote_bytes / first.bytes_moved < 1e-3
        assert second.remote_bytes / second.bytes_moved < 1e-3
        assert first.cold_pages > 0
        assert second.cold_pages == 0

    def test_dynamic_schedule_goes_remote(self, device, topology):
        # The paper's central CPU finding: TBB dynamic scheduling
        # destroys NUMA locality on the 2-socket node.
        model = CostModel(device)
        manager = UsmMemoryManager()
        spec = simple_spec(manager)
        scheduler = DynamicScheduler(seed=0)
        run(model, spec, scheduler, topology)           # first-touch
        steady = run(model, spec, scheduler, topology)
        remote_fraction = steady.remote_bytes / steady.bytes_moved
        assert 0.3 < remote_fraction < 0.7              # ~50% on 2 sockets

    def test_numa_arenas_restore_locality(self, device, topology):
        model = CostModel(device)
        manager = UsmMemoryManager()
        spec = simple_spec(manager)
        scheduler = NumaArenaScheduler(seed=0)
        run(model, spec, scheduler, topology)
        steady = run(model, spec, scheduler, topology)
        # Up to the single page at the arena boundary.
        assert steady.remote_bytes / steady.bytes_moved < 1e-3

    def test_numa_aware_faster_than_naive_dynamic(self, device, topology):
        model = CostModel(device)
        manager = UsmMemoryManager()
        spec_naive = simple_spec(manager, name="naive")
        spec_arena = simple_spec(manager, name="arena")
        naive_sched = DynamicScheduler(seed=1)
        arena_sched = NumaArenaScheduler(seed=1)
        run(model, spec_naive, naive_sched, topology)
        run(model, spec_arena, arena_sched, topology)
        naive = run(model, spec_naive, naive_sched, topology)
        arena = run(model, spec_arena, arena_sched, topology)
        assert naive.total_seconds > arena.total_seconds

    def test_remote_traffic_never_speeds_up(self, device, topology):
        # More remote traffic -> more total time, all else equal.
        model = CostModel(device)
        manager = UsmMemoryManager()
        local_spec = simple_spec(manager, name="local", flops=1)
        remote_spec = simple_spec(manager, name="remote", flops=1)
        # Home the 'remote' allocation entirely in domain 1 while all
        # threads of a 1-domain-restricted topology sit in domain 0.
        remote_spec.streams[0].allocation.touch(
            0, remote_spec.streams[0].allocation.nbytes, 1)
        local_spec.streams[0].allocation.touch(
            0, local_spec.streams[0].allocation.nbytes, 0)
        half = ThreadTopology(device, units=4, threads_per_unit=2)
        local = run(model, local_spec, StaticScheduler(), half)
        remote = run(model, remote_spec, StaticScheduler(), half)
        assert remote.memory_seconds > local.memory_seconds


class TestWarmupCosts:
    def test_jit_charged_when_not_compiled(self, device, topology):
        model = CostModel(device)
        spec = simple_spec()
        cold = run(model, spec, StaticScheduler(), topology, jit=False)
        warm = run(model, spec, StaticScheduler(), topology, jit=True)
        assert cold.jit_seconds == device.jit_compile_seconds
        assert warm.jit_seconds == 0.0
        assert cold.total_seconds > warm.total_seconds

    def test_cold_pages_charged_once(self, device, topology):
        model = CostModel(device)
        manager = UsmMemoryManager()
        spec = simple_spec(manager)
        first = run(model, spec, StaticScheduler(), topology)
        second = run(model, spec, StaticScheduler(), topology)
        assert first.cold_page_seconds > 0.0
        assert second.cold_page_seconds == 0.0


class TestDynamicOverheads:
    def test_dynamic_pays_runtime_penalty(self, device, topology):
        model = CostModel(device, dynamic_efficiency=0.9)
        manager = UsmMemoryManager()
        spec = simple_spec(manager)
        run(model, spec, StaticScheduler(), topology)   # warm the pages
        static = run(model, spec, StaticScheduler(), topology)
        arena = run(model, spec, NumaArenaScheduler(seed=2), topology)
        # Arena locality matches static, so the residual gap is the
        # dynamic-runtime penalty (~10%, the paper's observation).
        ratio = arena.total_seconds / static.total_seconds
        assert 1.02 < ratio < 1.35

    def test_single_thread_excess_penalty(self, device):
        model = CostModel(device, single_thread_excess=0.5)
        spec = simple_spec()
        solo = ThreadTopology(device, units=1, threads_per_unit=1)
        static = run(model, spec, StaticScheduler(), solo)
        dynamic = run(model, spec, DynamicScheduler(seed=3), solo)
        assert dynamic.total_seconds > 1.3 * static.total_seconds

    def test_gpu_strided_efficiency_penalises_aos(self):
        gpu = make_device(numa_domains=1, compute_units=8)
        gpu = dataclasses.replace(gpu, device_type=__import__(
            "repro.oneapi.device", fromlist=["DeviceType"]).DeviceType.GPU)
        model = CostModel(gpu, gpu_strided_efficiency=0.5)
        topology = ThreadTopology(gpu)
        soa = run(model, simple_spec(contiguous=True),
                  StaticScheduler(), topology)
        aos = run(model, simple_spec(contiguous=False),
                  StaticScheduler(), topology)
        assert aos.memory_seconds == pytest.approx(
            2.0 * soa.memory_seconds)

    def test_cpu_strided_pays_compute_penalty_only(self, device, topology):
        model = CostModel(device, strided_compute_penalty=1.2)
        contiguous = run(model, simple_spec(contiguous=True, flops=10_000),
                         StaticScheduler(), topology)
        strided = run(model, simple_spec(contiguous=False, flops=10_000),
                      StaticScheduler(), topology)
        assert strided.memory_seconds == pytest.approx(
            contiguous.memory_seconds)
        assert strided.compute_seconds == pytest.approx(
            1.2 * contiguous.compute_seconds)


class TestScalingProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=100_000, max_value=5_000_000))
    def test_memory_time_linear_in_items(self, n_items):
        # Out of cache, memory time per item is constant: time(n) ~ n.
        device = make_device(cache_per_domain=1.0e3)   # force DRAM path
        model = CostModel(device)
        topology = ThreadTopology(device)
        spec = simple_spec(flops=1)
        schedule = StaticScheduler().schedule(n_items, topology)
        timing = model.time_launch(spec, schedule,
                                   precision=Precision.SINGLE)
        per_item = timing.memory_seconds / n_items
        reference = 32.0 / 2.0 / 48.0e9       # bytes / domains / eff BW
        assert per_item == pytest.approx(reference, rel=0.01)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=1.0, max_value=1.0e5))
    def test_more_flops_never_faster(self, flops):
        device = make_device()
        model = CostModel(device)
        topology = ThreadTopology(device)
        light = run(model, simple_spec(flops=flops), StaticScheduler(),
                    topology)
        heavy = run(model, simple_spec(flops=flops * 2.0),
                    StaticScheduler(), topology)
        assert heavy.total_seconds >= light.total_seconds - 1e-15

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=8))
    def test_more_units_never_slower(self, units):
        device = make_device()
        model = CostModel(device)
        spec = simple_spec(flops=1000)
        few = run(model, spec, StaticScheduler(),
                  ThreadTopology(device, units=units))
        many = run(model, spec, StaticScheduler(),
                   ThreadTopology(device, units=8))
        assert many.total_seconds <= few.total_seconds + 1e-12


class TestValidation:
    def test_bad_parameters_rejected(self, device):
        with pytest.raises(KernelError):
            CostModel(device, dynamic_efficiency=0.0)
        with pytest.raises(KernelError):
            CostModel(device, strided_compute_penalty=0.9)
        with pytest.raises(KernelError):
            CostModel(device, gpu_strided_efficiency=1.5)

    def test_nsps_validation(self, device, topology):
        model = CostModel(device)
        timing = run(model, simple_spec(), StaticScheduler(), topology)
        assert timing.nsps(N_ITEMS) > 0.0
        with pytest.raises(KernelError):
            timing.nsps(0)


# -- the analytic estimate ------------------------------------------------

#: ``estimate_spec_seconds`` of one fused SoA precalculated push step
#: over 200k particles, as ``float.hex``.  A change here moves every
#: autotune ``predicted_nsps`` and can move fusion decisions, so it
#: must be deliberate.
PINNED_ESTIMATES = (
    ("cpu", Precision.SINGLE, None, "0x1.0dd931501ebcep-13"),
    ("cpu", Precision.SINGLE, 1, "0x1.0f00109df10bep-13"),
    ("cpu", Precision.DOUBLE, None, "0x1.f70e70c5f9840p-13"),
    ("cpu", Precision.DOUBLE, 1, "0x1.f952045eef283p-13"),
    ("iris-xe-max", Precision.SINGLE, None, "0x1.b4e81b4e81b4fp-13"),
    ("iris-xe-max", Precision.SINGLE, 1, "0x1.b4e81b4e81b4fp-13"),
    ("iris-xe-max", Precision.DOUBLE, None, "0x1.67cffff5d4fd5p-10"),
    ("iris-xe-max", Precision.DOUBLE, 1, "0x1.d16cbcd542961p-11"),
    ("cuda:gpu0", Precision.SINGLE, None, "0x1.4427029606e12p-16"),
    ("cuda:gpu0", Precision.SINGLE, 1, "0x1.4427029606e12p-16"),
    ("cuda:gpu0", Precision.DOUBLE, None, "0x1.16111b2a002d1p-15"),
    ("cuda:gpu0", Precision.DOUBLE, 1, "0x1.16111b2a002d1p-15"),
)


class TestEstimate:
    @pytest.mark.parametrize("device_spec,precision,threads_per_unit,"
                             "expected", PINNED_ESTIMATES)
    def test_estimate_is_pinned(self, device_spec, precision,
                                threads_per_unit, expected):
        model = cost_model_for_descriptor(descriptor_for(device_spec))
        graph = build_step_graph(200_000, Layout.SOA, precision,
                                 "precalculated")
        spec, _ = fuse_nodes(list(graph.nodes))
        seconds = model.estimate_spec_seconds(
            spec, 200_000, precision, threads_per_unit=threads_per_unit)
        assert float.hex(seconds) == expected

    @pytest.mark.parametrize("device_spec", ["iris-xe-max", "p630"])
    @pytest.mark.parametrize("precision", [Precision.SINGLE,
                                           Precision.DOUBLE])
    @pytest.mark.parametrize("fusion", [None, False, True])
    def test_warm_launch_equals_estimate(self, device_spec, precision,
                                         fusion):
        # On the Intel GPUs the analytic load is exactly what a warm
        # launch puts on the device: one memory domain, 256-item
        # work-groups, no JIT and no cold pages left to pay.
        backend, descriptor = resolve_device(device_spec)
        queue = backend.make_queue(descriptor)
        engine = PushEngine(queue,
                            paper_ensemble(200_000, Layout.SOA, precision),
                            "precalculated", paper_wave(),
                            paper_time_step(), fusion=fusion)
        engine.run(3)
        graph = engine.graph
        groups = engine.executor.last_plan.groups
        for group, record in zip(groups, queue.records[-len(groups):]):
            spec, _ = group_spec([graph.nodes[i] for i in group])
            assert record.kernel_name == spec.name
            assert record.simulated_seconds == \
                queue.cost_model.estimate_spec_seconds(
                    spec, record.n_items, precision)

    def test_bad_arguments_rejected(self, device):
        model = CostModel(device)
        with pytest.raises(KernelError):
            model.estimate_spec_seconds(simple_spec(), -1)
        with pytest.raises(KernelError):
            model.estimate_spec_seconds(simple_spec(), 10,
                                        threads_per_unit=0)
