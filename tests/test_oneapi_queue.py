"""Tests for the SYCL-like queue and runtime configuration."""

import numpy as np
import pytest

from repro.bench.metrics import nsps_from_steps
from repro.errors import ConfigurationError, KernelError
from repro.oneapi import (DynamicScheduler, KernelSpec, MemoryStream,
                          NumaArenaScheduler, Queue, RuntimeConfig,
                          StaticScheduler, StreamKind)
from repro.oneapi.scheduler import GpuScheduler
from repro.oneapi.device import DeviceType
from tests.test_oneapi_device import make_device


def spec(name="k", flops=10):
    return KernelSpec(name=name, streams=(
        MemoryStream(name="s", kind=StreamKind.READ, bytes_per_item=8),),
        flops_per_item=flops)


@pytest.mark.parametrize("flops", [-1.0, float("nan"), float("inf")])
def test_kernel_spec_rejects_bad_flops(flops):
    with pytest.raises(KernelError, match="flops_per_item"):
        spec(flops=flops)


class TestRuntimeConfig:
    def test_defaults(self):
        config = RuntimeConfig()
        assert config.runtime == "dpcpp"
        assert config.cpu_places == ""

    def test_rejects_unknown_runtime(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(runtime="tbb")

    def test_rejects_unknown_places(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(cpu_places="numa")


class TestSchedulerSelection:
    def test_openmp_is_static(self):
        queue = Queue(make_device(), RuntimeConfig(runtime="openmp"))
        assert isinstance(queue.scheduler, StaticScheduler)

    def test_dpcpp_default_is_dynamic(self):
        queue = Queue(make_device(), RuntimeConfig(runtime="dpcpp"))
        assert isinstance(queue.scheduler, DynamicScheduler)

    def test_numa_domains_enables_arenas(self):
        queue = Queue(make_device(),
                      RuntimeConfig(cpu_places="numa_domains"))
        assert isinstance(queue.scheduler, NumaArenaScheduler)

    def test_gpu_uses_workgroup_scheduler(self):
        gpu = make_device(device_type=DeviceType.GPU, numa_domains=1)
        queue = Queue(gpu)
        assert isinstance(queue.scheduler, GpuScheduler)

    def test_explicit_override_wins(self):
        override = StaticScheduler()
        queue = Queue(make_device(),
                      RuntimeConfig(scheduler=override))
        assert queue.scheduler is override


class TestKernelLaunches:
    def test_record_accumulation(self):
        queue = Queue(make_device())
        queue.parallel_for(1000, spec())
        queue.parallel_for(1000, spec())
        assert len(queue.records) == 2
        assert all(r.simulated_seconds > 0.0 for r in queue.records)

    def test_jit_charged_once_per_kernel_name(self):
        queue = Queue(make_device())
        first = queue.parallel_for(1000, spec(name="a"))
        second = queue.parallel_for(1000, spec(name="a"))
        other = queue.parallel_for(1000, spec(name="b"))
        assert first.timing.jit_seconds > 0.0
        assert second.timing.jit_seconds == 0.0
        assert other.timing.jit_seconds > 0.0

    def test_openmp_never_jits(self):
        queue = Queue(make_device(), RuntimeConfig(runtime="openmp"))
        record = queue.parallel_for(1000, spec())
        assert record.timing.jit_seconds == 0.0

    def test_kernel_body_executes_once(self):
        queue = Queue(make_device())
        calls = []
        queue.parallel_for(10, spec(), kernel=lambda: calls.append(1))
        assert calls == [1]

    def test_negative_items_rejected(self):
        queue = Queue(make_device())
        with pytest.raises(KernelError):
            queue.parallel_for(-1, spec())

    def test_nsps_metric(self):
        queue = Queue(make_device())
        record = queue.parallel_for(1_000_000, spec())
        steady, first = nsps_from_steps([record.simulated_seconds],
                                        1_000_000, 0)
        assert steady == first == pytest.approx(
            record.simulated_seconds * 1e9 / 1_000_000)

    def test_cost_model_device_mismatch_rejected(self):
        from repro.oneapi import CostModel
        with pytest.raises(ConfigurationError):
            Queue(make_device(), cost_model=CostModel(make_device()))


class TestUsmAndReset:
    def test_malloc_shared_registers_with_queue(self):
        queue = Queue(make_device())
        array = queue.malloc_shared(128, np.float32)
        assert queue.memory.allocation_of(array).nbytes == 512

    def test_reset_records_keeps_jit(self):
        queue = Queue(make_device())
        queue.parallel_for(10, spec(name="x"))
        queue.reset_records()
        assert queue.records == []
        record = queue.parallel_for(10, spec(name="x"))
        assert record.timing.jit_seconds == 0.0

    def test_reset_warmup_recompiles_and_rehomes(self):
        queue = Queue(make_device())
        allocation = queue.memory.virtual(4096)
        allocation.touch(0, 4096, 0)
        queue.parallel_for(10, spec(name="y"))
        queue.reset_warmup()
        assert np.all(allocation.page_domains == -1)
        record = queue.parallel_for(10, spec(name="y"))
        assert record.timing.jit_seconds > 0.0

    def test_wait_is_noop(self):
        Queue(make_device()).wait()
