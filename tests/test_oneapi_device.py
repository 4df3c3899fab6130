"""Tests for simulated device descriptors."""

import pytest

from repro.errors import ConfigurationError
from repro.fp import Precision
from repro.oneapi import DeviceDescriptor, DeviceType


def make_device(**overrides):
    """A small, valid 2-domain CPU descriptor for tests."""
    params = dict(
        name="test-cpu", device_type=DeviceType.CPU,
        compute_units=8, threads_per_unit=2, numa_domains=2,
        clock_hz=2.0e9, flops_per_cycle_sp=16.0, dp_throughput_ratio=0.5,
        vector_efficiency=0.5, domain_bandwidth=50.0e9,
        interconnect_bandwidth=30.0e9, unit_bandwidth=10.0e9,
        smt_bandwidth_boost=1.2, cache_per_domain=10.0e6,
    )
    params.update(overrides)
    return DeviceDescriptor(**params)


class TestValidation:
    def test_valid_device_constructs(self):
        assert make_device().units_per_domain == 4

    def test_units_must_divide_domains(self):
        with pytest.raises(ConfigurationError):
            make_device(compute_units=7)

    def test_rejects_zero_units(self):
        with pytest.raises(ConfigurationError):
            make_device(compute_units=0, numa_domains=1)

    def test_rejects_bad_vector_efficiency(self):
        with pytest.raises(ConfigurationError):
            make_device(vector_efficiency=0.0)
        with pytest.raises(ConfigurationError):
            make_device(vector_efficiency=1.5)

    def test_rejects_bad_dp_ratio(self):
        with pytest.raises(ConfigurationError):
            make_device(dp_throughput_ratio=2.0)

    def test_rejects_nonpositive_clock(self):
        with pytest.raises(ConfigurationError):
            make_device(clock_hz=0.0)


class TestDerivedQuantities:
    def test_total_bandwidth(self):
        assert make_device().total_bandwidth == pytest.approx(100.0e9)

    def test_peak_flops_sp(self):
        device = make_device()
        assert device.peak_flops(Precision.SINGLE) == pytest.approx(
            8 * 2.0e9 * 16.0)

    def test_peak_flops_dp_is_half(self):
        device = make_device()
        assert device.peak_flops(Precision.DOUBLE) == pytest.approx(
            device.peak_flops(Precision.SINGLE) / 2.0)

    def test_achievable_flops_scales_with_units(self):
        device = make_device()
        one = device.achievable_flops(Precision.SINGLE, 1)
        four = device.achievable_flops(Precision.SINGLE, 4)
        assert four == pytest.approx(4.0 * one)
        assert one == pytest.approx(2.0e9 * 16.0 * 0.5)

    def test_achievable_flops_validates_units(self):
        device = make_device()
        with pytest.raises(ConfigurationError):
            device.achievable_flops(Precision.SINGLE, 0)
        with pytest.raises(ConfigurationError):
            device.achievable_flops(Precision.SINGLE, 9)


class TestDomainMapping:
    def test_domain_major_unit_numbering(self):
        device = make_device()
        assert device.domain_of_unit(0) == 0
        assert device.domain_of_unit(3) == 0
        assert device.domain_of_unit(4) == 1
        assert device.domain_of_unit(7) == 1

    def test_out_of_range_unit(self):
        with pytest.raises(ConfigurationError):
            make_device().domain_of_unit(8)

    def test_single_domain_gpu(self):
        gpu = make_device(device_type=DeviceType.GPU, numa_domains=1,
                          compute_units=24, threads_per_unit=7)
        assert gpu.units_per_domain == 24
        assert gpu.domain_of_unit(23) == 0
