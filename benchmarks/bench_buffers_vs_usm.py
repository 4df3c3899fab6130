"""Ablation: USM vs buffers/accessors on a discrete device.

The paper (Section 4.2) chose USM as "the simplest, but quite
functional option"; the buffer/accessor model is the alternative it
describes first.  On the shared-memory devices the paper used, the two
are equivalent in cost.  This ablation also models a *discrete* card
(PCIe-attached) to show where the choice starts to matter: buffers make
the host<->device traffic explicit, and a naive pattern that syncs the
particle array to the host every iteration pays the link bandwidth.

Run:  pytest benchmarks/bench_buffers_vs_usm.py --benchmark-only -s
"""

import numpy as np

from repro.bench import format_table
from repro.bench.calibration import cost_model_for, iris_xe_max
from repro.bench.metrics import nsps_from_steps
from repro.fp import Precision
from repro.oneapi import AccessMode, Queue
from repro.oneapi.builders import make_gpu_descriptor
from repro.oneapi.runtime import build_push_spec
from repro.particles import Layout

from conftest import once

N = 1_000_000
STEPS = 5


def _steady(records):
    """Steady NSPS of one-launch steps, skipping two warm-up steps."""
    steady, _ = nsps_from_steps([r.simulated_seconds for r in records], N,
                                warmup=2)
    return steady


def _steady_nsps(queue, spec, accessors=None):
    records = []
    for _ in range(STEPS):
        if accessors is None:
            records.append(queue.parallel_for(N, spec,
                                              precision=Precision.SINGLE))
        else:
            records.append(queue.submit(N, spec, accessors(),
                                        precision=Precision.SINGLE))
    return _steady(records)


def test_buffers_free_on_shared_memory_device(benchmark):
    """On the paper's integrated GPU, buffers cost the same as USM."""
    def run():
        device = iris_xe_max()
        queue = Queue(device, cost_model=cost_model_for(device))
        spec = build_push_spec(N, Layout.SOA, Precision.SINGLE,
                               "precalculated", queue.memory)
        usm = _steady_nsps(queue, spec)
        particle_buffer = queue.create_buffer(np.zeros(N, dtype=np.float32))
        buffered = _steady_nsps(
            queue, spec,
            accessors=lambda: [queue.access(particle_buffer,
                                            AccessMode.READ_WRITE)])
        return usm, buffered

    usm, buffered = once(benchmark, run)
    benchmark.extra_info["usm"] = round(usm, 3)
    benchmark.extra_info["buffers"] = round(buffered, 3)
    assert buffered < usm * 1.02


def test_host_sync_every_step_hurts_discrete_card(benchmark):
    """A host read-back per step on a PCIe card dominates the kernel."""
    def run():
        device = make_gpu_descriptor("discrete-xe", 96, 1.65, 60.0,
                                     discrete=True, pcie_gbps=12.0)
        queue = Queue(device)
        spec = build_push_spec(N, Layout.SOA, Precision.SINGLE,
                               "precalculated", queue.memory)
        data = queue.create_buffer(np.zeros((N, 8), dtype=np.float32),
                                   name="particles")

        resident = []
        for _ in range(STEPS):
            resident.append(queue.submit(
                N, spec, [queue.access(data, AccessMode.READ_WRITE)],
                precision=Precision.SINGLE))

        syncing = []
        for _ in range(STEPS):
            syncing.append(queue.submit(
                N, spec, [queue.access(data, AccessMode.READ_WRITE)],
                precision=Precision.SINGLE))
            data.host_data(write=True)     # host touches it every step
        resident_nsps = _steady(resident)
        syncing_nsps = _steady(syncing)
        return resident_nsps, syncing_nsps, data

    resident_nsps, syncing_nsps, data = once(benchmark, run)
    print(f"\ndevice-resident: {resident_nsps:.2f} NSPS   "
          f"host-sync every step: {syncing_nsps:.2f} NSPS")
    print(format_table(
        ["counter", "value"],
        [["uploads", data.transfers_to_device],
         ["write-backs", data.transfers_to_host],
         ["bytes to device", f"{data.bytes_to_device / 1e6:.0f} MB"]],
        "Buffer traffic"))
    benchmark.extra_info["resident"] = round(resident_nsps, 3)
    benchmark.extra_info["syncing"] = round(syncing_nsps, 3)
    # 32 MB over 12 GB/s ~ 2.7 ms per step vs ~1.4 ms kernel: the
    # sync-happy pattern must be at least ~2x slower.
    assert syncing_nsps > 2.0 * resident_nsps
