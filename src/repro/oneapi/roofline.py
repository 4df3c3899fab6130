"""Roofline analysis: why the paper's kernel is memory-bound.

The paper repeatedly explains its results through memory-boundedness
("the main factor limiting performance is not loading data into vector
registers, but working with RAM").  This module makes that argument
quantitative: for a kernel spec and a device it computes the
arithmetic intensity, the device's ridge point, and the predicted
roofline ceiling — the classic Williams/Waterman/Patterson analysis,
driven by the same numbers the cost model uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import KernelError
from ..fp import Precision
from .costmodel import stream_multiplier
from .device import DeviceDescriptor
from .kernelspec import KernelSpec

__all__ = ["RooflinePoint", "analyze_kernel"]


@dataclass(frozen=True)
class RooflinePoint:
    """Position of one kernel on one device's roofline.

    Attributes:
        kernel_name: The analysed kernel.
        device_name: The device.
        arithmetic_intensity: Flops per DRAM byte actually moved.
        ridge_intensity: Device balance point (flops/s over bytes/s);
            kernels below it are memory-bound.
        memory_bound: Whether the kernel sits left of the ridge.
        bandwidth_ceiling_flops: Attainable flops/s at this intensity
            under the bandwidth roof.
        compute_ceiling_flops: The device's sustained compute roof.
        predicted_nsps: Roofline-predicted nanoseconds per item per
            step (no scheduling/NUMA effects — the cost model adds
            those).
    """

    kernel_name: str
    device_name: str
    arithmetic_intensity: float
    ridge_intensity: float
    memory_bound: bool
    bandwidth_ceiling_flops: float
    compute_ceiling_flops: float
    predicted_nsps: float


def _effective_bytes_per_item(spec: KernelSpec,
                              device: DeviceDescriptor) -> float:
    """DRAM traffic per item under the cost model's stream rules."""
    total = 0.0
    for stream in spec.streams:
        total += stream.span_bytes_per_item \
            * stream_multiplier(stream, device.write_allocate)
    return total


def analyze_kernel(spec: KernelSpec, device: DeviceDescriptor,
                   precision: Precision = Precision.SINGLE
                   ) -> RooflinePoint:
    """Place ``spec`` on ``device``'s roofline.

    Uses the device's *sustained* numbers (achievable bandwidth, vector
    efficiency), matching the cost model rather than marketing peaks.
    """
    bytes_per_item = _effective_bytes_per_item(spec, device)
    if bytes_per_item <= 0.0:
        raise KernelError(
            "roofline analysis needs a kernel with memory streams")
    flops = spec.flops_per_item
    intensity = flops / bytes_per_item

    bandwidth = device.total_bandwidth
    compute_roof = (device.compute_units * device.clock_hz
                    * device.flops_per_cycle_sp * device.vector_efficiency)
    if precision is Precision.DOUBLE:
        compute_roof *= device.dp_throughput_ratio
    ridge = compute_roof / bandwidth

    bandwidth_ceiling = bandwidth * intensity
    attainable = min(bandwidth_ceiling, compute_roof)
    # ns per item = flops / attainable flops-rate.
    predicted_nsps = flops / attainable * 1.0e9 if flops > 0 else \
        bytes_per_item / bandwidth * 1.0e9

    return RooflinePoint(
        kernel_name=spec.name,
        device_name=device.name,
        arithmetic_intensity=intensity,
        ridge_intensity=ridge,
        memory_bound=intensity < ridge,
        bandwidth_ceiling_flops=bandwidth_ceiling,
        compute_ceiling_flops=compute_roof,
        predicted_nsps=predicted_nsps,
    )
