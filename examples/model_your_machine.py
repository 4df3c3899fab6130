"""Predict the paper's benchmark on hardware the authors never had.

The device simulator is not hard-wired to Table 1: build descriptors
for your own machines from datasheet numbers and ask what NSPS the
Boris push would achieve — including the roofline explanation of *why*.

Run:  python examples/model_your_machine.py
"""

from repro.analysis import analyze_graph
from repro.bench import format_table
from repro.bench.calibration import xeon_8260l_node
from repro.bench.harness import replay_paper_graph
from repro.bench.metrics import nsps_from_steps
from repro.fp import Precision
from repro.oneapi import (Queue, RuntimeConfig, make_cpu_descriptor,
                          make_gpu_descriptor)
from repro.oneapi.costmodel import CostModel
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


def predict(device, scenario):
    """Steady NSPS and roofline bound of the paper's step on ``device``."""
    queue = Queue(device, RuntimeConfig(runtime="dpcpp",
                                        cpu_places="numa_domains"),
                  CostModel(device))
    graph, records = replay_paper_graph(queue, N, Layout.SOA,
                                        Precision.SINGLE, scenario, steps=4)
    steady, _ = nsps_from_steps([r.simulated_seconds for r in records],
                                N, warmup=2)
    return steady, analyze_graph(graph, device).bound


def main() -> None:
    rows = []
    for device in MACHINES:
        precalculated, bound = predict(device, "precalculated")
        analytical, _ = predict(device, "analytical")
        rows.append([
            device.name,
            f"{device.peak_flops(Precision.SINGLE) / 1e12:.1f} TF",
            f"{device.total_bandwidth / 1e9:.0f} GB/s",
            f"{precalculated:.2f}",
            f"{analytical:.2f}",
            bound,
        ])
    print(format_table(
        ["machine", "peak SP", "bandwidth", "precalc NSPS",
         "analytical NSPS", "bound"],
        rows, "Predicted Boris-push NSPS (DPC++ NUMA, SoA, float)"))

    reference, _ = predict(xeon_8260l_node(), "precalculated")
    print(f"\n(reference: the calibrated paper node predicts "
          f"{reference:.2f} NSPS "
          f"precalculated — the paper measured 0.58)")


if __name__ == "__main__":
    main()
