"""Tests for the datasheet-level device builders."""

import pytest

from repro.errors import ConfigurationError
from repro.fp import Precision
from repro.oneapi.builders import make_cpu_descriptor, make_gpu_descriptor
from repro.oneapi.device import DeviceType


class TestCpuBuilder:
    def test_paper_node_from_datasheet(self):
        # Building the paper's node from public numbers gives a
        # descriptor close to the calibrated one.
        device = make_cpu_descriptor("2x Xeon 8260L", cores_per_socket=24,
                                     sockets=2, clock_ghz=2.4,
                                     memory_channels=6, channel_gbps=23.5)
        assert device.compute_units == 48
        assert device.numa_domains == 2
        assert device.peak_flops(Precision.SINGLE) == \
            pytest.approx(3.69e12, rel=0.01)
        # 6 ch x 23.5 GB/s x 0.62 efficiency ~ 87 GB/s per socket,
        # within 10% of the calibrated 82 GB/s.
        assert device.domain_bandwidth == pytest.approx(82.0e9, rel=0.1)

    def test_laptop_single_socket(self):
        device = make_cpu_descriptor("laptop", cores_per_socket=8,
                                     sockets=1, clock_ghz=3.0,
                                     memory_channels=2,
                                     hyperthreading=False)
        assert device.threads_per_unit == 1
        assert device.smt_bandwidth_boost == 1.0
        assert device.numa_domains == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_cpu_descriptor("bad", cores_per_socket=0)

    def test_type_is_cpu(self):
        device = make_cpu_descriptor("x", cores_per_socket=4)
        assert device.device_type is DeviceType.CPU


class TestGpuBuilder:
    def test_p630_from_datasheet(self):
        device = make_gpu_descriptor("P630", execution_units=24,
                                     clock_ghz=1.15, memory_gbps=35.0)
        assert device.peak_flops(Precision.SINGLE) == \
            pytest.approx(0.44e12, rel=0.01)
        assert device.numa_domains == 1

    def test_discrete_pays_pcie(self):
        integrated = make_gpu_descriptor("iGPU", 24, 1.0, 30.0)
        discrete = make_gpu_descriptor("dGPU", 96, 1.65, 60.0,
                                       discrete=True, pcie_gbps=12.0)
        assert discrete.host_transfer_bandwidth == pytest.approx(12.0e9)
        assert integrated.host_transfer_bandwidth > 1.0e14

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_gpu_descriptor("bad", execution_units=0, clock_ghz=1.0,
                                memory_gbps=10.0)

    def test_usable_with_cost_model(self):
        from repro.bench.metrics import nsps_from_steps
        from repro.fp import Precision as P
        from repro.oneapi import Queue
        from repro.oneapi.runtime import build_push_spec
        from repro.particles import Layout
        device = make_gpu_descriptor("custom", 64, 1.4, 50.0)
        queue = Queue(device)
        spec = build_push_spec(1_000_000, Layout.SOA, P.SINGLE,
                               "precalculated", queue.memory)
        queue.parallel_for(1_000_000, spec, precision=P.SINGLE)  # warm-up
        record = queue.parallel_for(1_000_000, spec, precision=P.SINGLE)
        # 82 effective bytes / 50 GB/s ~ 1.6 ns.
        nsps, _ = nsps_from_steps([record.simulated_seconds], 1_000_000, 0)
        assert 1.0 < nsps < 3.0
