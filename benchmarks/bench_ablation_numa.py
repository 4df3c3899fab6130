"""Ablation: decompose the DPC++-vs-OpenMP gap into its mechanisms.

Table 2 shows three regimes (OpenMP, plain DPC++, DPC++ NUMA).  The
simulator lets us attribute the differences: remote-traffic fraction
under each scheduler, the UPI bottleneck, and the residual dynamic-
runtime penalty — the mechanistic story behind the paper's findings
1 and 2.

Run:  pytest benchmarks/bench_ablation_numa.py --benchmark-only -s
"""

from repro.bench import format_table
from repro.bench.calibration import cost_model_for, xeon_8260l_node
from repro.bench.harness import replay_paper_graph
from repro.bench.metrics import nsps_from_steps
from repro.bench.scenarios import runtime_config_for
from repro.fp import Precision
from repro.oneapi import Queue
from repro.particles import Layout

from conftest import once


def _steady_launch(model_n, parallelization):
    """NSPS and timing of the last of four replayed steps.

    Plain DPC++ places its chunks anew on every launch, so its remote
    traffic and NSPS vary from step to step; both figures come from the
    same step, the last (three warm-up steps).
    """
    device = xeon_8260l_node()
    queue = Queue(device, runtime_config_for(parallelization),
                  cost_model_for(device))
    _, records = replay_paper_graph(queue, model_n, Layout.SOA,
                                    Precision.SINGLE, "precalculated",
                                    steps=4)
    steady, _ = nsps_from_steps([r.simulated_seconds for r in records],
                                model_n, warmup=3)
    return steady, records[-1].timing


def test_remote_traffic_attribution(benchmark, model_n):
    def attribute():
        out = {}
        for parallelization in ("OpenMP", "DPC++", "DPC++ NUMA"):
            nsps, timing = _steady_launch(model_n, parallelization)
            out[parallelization] = {
                "nsps": nsps,
                "remote_fraction": timing.remote_bytes
                / max(timing.bytes_moved, 1.0),
            }
        return out

    result = once(benchmark, attribute)
    rows = [[name, f"{v['nsps']:.3f}", f"{100 * v['remote_fraction']:.1f}%"]
            for name, v in result.items()]
    print()
    print(format_table(["implementation", "NSPS", "remote traffic"], rows,
                       "NUMA attribution (precalculated, SoA, float)"))
    for name, values in result.items():
        benchmark.extra_info[f"{name} remote%"] = round(
            100 * values["remote_fraction"], 1)

    # The mechanism: only plain DPC++ leaves traffic on the interconnect.
    assert result["OpenMP"]["remote_fraction"] < 0.01
    assert result["DPC++ NUMA"]["remote_fraction"] < 0.01
    assert result["DPC++"]["remote_fraction"] > 0.3
    # And that is what costs it the factor the paper measures.
    assert result["DPC++"]["nsps"] > 1.2 * result["DPC++ NUMA"]["nsps"]
