"""Predict the paper's benchmark on hardware the authors never had.

The device simulator is not hard-wired to Table 1: build descriptors
for your own machines from datasheet numbers and ask what NSPS the
Boris push would achieve — including the roofline explanation of *why*.

Run:  python examples/model_your_machine.py
"""

from repro.bench import format_table
from repro.bench.calibration import cost_model_for, xeon_8260l_node
from repro.fields import MDipoleWave
from repro.fp import Precision
from repro.oneapi import (Queue, RuntimeConfig, UsmMemoryManager,
                          analyze_kernel, make_cpu_descriptor,
                          make_gpu_descriptor)
from repro.oneapi.costmodel import CostModel
from repro.oneapi.runtime import build_push_spec
from repro.particles import Layout

N = 4_000_000

MACHINES = [
    # The paper's node, rebuilt from public datasheet numbers.
    make_cpu_descriptor("2x Xeon 8260L (datasheet)", cores_per_socket=24,
                        sockets=2, clock_ghz=2.4, memory_channels=6,
                        channel_gbps=23.5),
    # A single-socket desktop.
    make_cpu_descriptor("8-core desktop", cores_per_socket=8, sockets=1,
                        clock_ghz=3.6, memory_channels=2,
                        channel_gbps=25.6, l3_mb_per_socket=16.0),
    # A big dual-socket DDR5 server.
    make_cpu_descriptor("2x 48-core DDR5 server", cores_per_socket=48,
                        sockets=2, clock_ghz=2.7, memory_channels=8,
                        channel_gbps=38.4, flops_per_cycle_sp=64.0),
    # A discrete gaming-class GPU.
    make_gpu_descriptor("discrete GPU (512 EU)", execution_units=512,
                        clock_ghz=2.1, memory_gbps=450.0, l3_mb=16.0,
                        discrete=True),
]


def predicted_nsps(device, scenario):
    queue = Queue(device, RuntimeConfig(runtime="dpcpp",
                                        cpu_places="numa_domains"),
                  CostModel(device))
    field_flops = (MDipoleWave.flops_per_evaluation
                   if scenario == "analytical" else 0.0)
    spec = build_push_spec(N, Layout.SOA, Precision.SINGLE,
                           scenario, queue.memory,
                           field_flops=field_flops)
    records = [queue.parallel_for(N, spec, precision=Precision.SINGLE)
               for _ in range(4)]
    return sum(r.nsps() for r in records[2:]) / 2.0


def main() -> None:
    rows = []
    spec = build_push_spec(
        N, Layout.SOA, Precision.SINGLE, "precalculated",
        UsmMemoryManager())
    for device in MACHINES:
        point = analyze_kernel(spec, device, Precision.SINGLE)
        rows.append([
            device.name,
            f"{device.peak_flops(Precision.SINGLE) / 1e12:.1f} TF",
            f"{device.total_bandwidth / 1e9:.0f} GB/s",
            f"{predicted_nsps(device, 'precalculated'):.2f}",
            f"{predicted_nsps(device, 'analytical'):.2f}",
            "memory" if point.memory_bound else "compute",
        ])
    print(format_table(
        ["machine", "peak SP", "bandwidth", "precalc NSPS",
         "analytical NSPS", "bound"],
        rows, "Predicted Boris-push NSPS (DPC++ NUMA, SoA, float)"))

    reference = cost_model_for(xeon_8260l_node())
    print(f"\n(reference: the calibrated paper node predicts "
          f"{predicted_nsps(reference.device, 'precalculated'):.2f} NSPS "
          f"precalculated — the paper measured 0.58)")


if __name__ == "__main__":
    main()
