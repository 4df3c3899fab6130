"""Ablation: TBB grain size of the dynamic scheduler.

DESIGN.md calls out the dynamic-scheduling grain as a knob the paper's
TBB runtime tunes automatically.  Too-fine grains multiply per-chunk
overhead; too-coarse grains lose the balancing that justifies dynamic
scheduling.  This sweep shows the flat optimum the auto-partitioner
targets.

Run:  pytest benchmarks/bench_ablation_grain.py --benchmark-only -s
"""

from repro.bench import format_table
from repro.bench.calibration import cost_model_for, xeon_8260l_node
from repro.bench.harness import replay_paper_graph
from repro.bench.metrics import nsps_from_steps
from repro.fp import Precision
from repro.oneapi import (DynamicScheduler, Queue, RuntimeConfig)
from repro.particles import Layout

from conftest import once


def _nsps_with_grain(model_n, grain_size):
    device = xeon_8260l_node()
    config = RuntimeConfig(runtime="dpcpp",
                           scheduler=DynamicScheduler(grain_size=grain_size,
                                                      seed=9))
    queue = Queue(device, config, cost_model_for(device))
    _, records = replay_paper_graph(queue, model_n, Layout.SOA,
                                    Precision.SINGLE, "analytical", steps=4)
    steady, _ = nsps_from_steps([r.simulated_seconds for r in records],
                                model_n, warmup=2)
    return steady


def test_grain_size_sweep(benchmark, model_n):
    # From per-chunk-overhead-dominated (32) to imbalance-dominated
    # (one or two huge chunks per thread).
    grains = (32, 512, 4_096, 16_384, model_n // 96)

    def sweep():
        return {g: _nsps_with_grain(model_n, g) for g in grains}

    result = once(benchmark, sweep)
    rows = [[g, f"{v:.3f}"] for g, v in result.items()]
    print()
    print(format_table(["grain size", "NSPS"], rows,
                       "Dynamic-scheduling grain sweep (DPC++, SoA, float)"))
    benchmark.extra_info.update(
        {f"grain {g}": round(v, 3) for g, v in result.items()})

    # Both extremes lose: tiny grains drown in per-chunk scheduling
    # overhead, huge grains lose the balance that dynamic scheduling
    # exists to provide (a thread that randomly draws two chunks takes
    # twice as long as one that draws one).
    best = min(result.values())
    assert result[32] > 1.1 * best
    assert result[model_n // 96] > 1.1 * best
    # The auto-partitioner's regime (many-but-not-tiny grains) is
    # near-optimal.
    assert result[4_096] < 1.1 * best
