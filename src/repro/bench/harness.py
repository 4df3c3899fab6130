"""Experiment runners for every table and figure of the paper.

Each public function regenerates one artefact; return shapes are fixed
API (the CLI, validation suite and observability layer all consume
them):

* :func:`model_push_nsps` — one benchmark cell; returns a
  :class:`ModelResult`;
* :func:`table2_rows` — Table 2 (CPU NSPS, 6 implementations x 2
  scenarios x 2 precisions); returns
  ``rows[(layout, parallelization)][(scenario, precision)] -> float``;
* :func:`table3_rows` — Table 3 (GPU NSPS, single precision); returns
  ``rows[layout][(scenario, device_name)] -> float``;
* :func:`fig1_series` — Fig. 1 (strong-scaling speedup, 1-48 cores);
  returns ``series["OpenMP/AoS"] -> [(cores, speedup), ...]``;
* :func:`first_iteration_ratio` — the in-text "first iteration takes
  50% longer"; returns ``{parallelization: ratio}`` (dimensionless
  ``float``) for DPC++ NUMA, plain DPC++ and OpenMP;
* :func:`thread_sweep` — the in-text "96 threads is empirically best"
  hyperthreading observation; returns
  ``sweep[cores][threads_per_core] -> nsps`` over 12/24/36/48 cores at
  1 and 2 threads per core (plain ``int`` keys, ``float`` NSPS).

All runners work on the *modelled* device times (the paper's hardware
does not exist here); the real numpy kernels can be measured separately
via :func:`repro.bench.metrics.measure_real_nsps`.

Every runner reports into the observability layer when a tracer is
installed (``python -m repro trace table2 --out t.json``, or
:func:`repro.observability.tracing` in code): one ``bench``-category
span per artefact, one ``cell:...`` span per benchmark cell — the cell
span is the scope under which the traced kernel statistics are keyed,
so per-cell NSPS can be recomputed from the trace alone.  Tracing only
observes; traced and untraced runs produce identical numbers (enforced
by ``tests/test_observability.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..fields.dipole import MDipoleWave
from ..observability.tracer import trace_span
from ..fp import Precision
from ..oneapi.device import DeviceDescriptor
from ..oneapi.queue import Queue, RuntimeConfig
from ..oneapi.runtime import build_virtual_push_spec
from ..particles.ensemble import Layout
from ..resilience.recovery import allocate_with_retry, launch_with_retry
from .calibration import cost_model_for, device_by_name, xeon_8260l_node
from .metrics import nsps_from_records
from .scenarios import (BenchmarkCase, CPU_PARALLELIZATIONS,
                        PAPER_PARTICLES, PAPER_STEPS_PER_ITERATION,
                        runtime_config_for)

__all__ = ["ModelResult", "model_push_nsps", "table2_rows", "table3_rows",
           "fig1_series", "first_iteration_ratio", "thread_sweep",
           "fusion_rows", "autotune_rows"]

#: Modelled launches per experiment cell: enough to get past first-touch
#: and JIT warm-up plus a few steady-state samples.
DEFAULT_MODEL_STEPS = 6


@dataclass
class ModelResult:
    """Modelled NSPS of one benchmark cell."""

    case: BenchmarkCase
    nsps: float
    first_launch_nsps: float
    steady_launch_seconds: float
    first_launch_seconds: float
    bound: str

    def first_iteration_ratio(self,
                              steps: int = PAPER_STEPS_PER_ITERATION
                              ) -> float:
        """Modelled (first iteration time) / (steady iteration time).

        An "iteration" is ``steps`` launches; only the first launch of
        the first iteration carries JIT and cold-page costs.
        """
        steady_iteration = steps * self.steady_launch_seconds
        first_iteration = (self.first_launch_seconds
                           + (steps - 1) * self.steady_launch_seconds)
        return first_iteration / steady_iteration


def _device_for(case: BenchmarkCase) -> DeviceDescriptor:
    if case.parallelization in CPU_PARALLELIZATIONS:
        return xeon_8260l_node()
    return device_by_name(case.parallelization)


def _config_for(case: BenchmarkCase,
                units: Optional[int] = None,
                threads_per_unit: Optional[int] = None) -> RuntimeConfig:
    if case.parallelization in CPU_PARALLELIZATIONS:
        return runtime_config_for(case.parallelization, units,
                                  threads_per_unit)
    return RuntimeConfig(runtime="dpcpp")


def model_push_nsps(case: BenchmarkCase,
                    n: int = PAPER_PARTICLES,
                    steps: int = DEFAULT_MODEL_STEPS,
                    units: Optional[int] = None,
                    threads_per_unit: Optional[int] = None) -> ModelResult:
    """Model one benchmark cell and return its NSPS figures.

    ``units``/``threads_per_unit`` restrict the CPU core count (for the
    Fig. 1 sweep); None uses the whole device.
    """
    if steps < 3:
        raise ConfigurationError("need at least 3 launches (warm-up + steady)")
    cores = "" if units is None and threads_per_unit is None else \
        f"@{units or 'all'}c/{threads_per_unit or 'all'}t"
    with trace_span(f"cell:{case.label}{cores}", "bench",
                    n_particles=n, steps=steps):
        device = _device_for(case)
        queue = Queue(device, _config_for(case, units, threads_per_unit),
                      cost_model_for(device))
        field_flops = (MDipoleWave.flops_per_evaluation
                       if case.scenario == "analytical" else 0.0)
        # spec construction registers USM allocations, so under
        # --fault-plan it can hit an injected alloc-failure too
        spec = allocate_with_retry(
            lambda: build_virtual_push_spec(n, case.layout, case.precision,
                                            case.scenario, queue.memory,
                                            field_flops=field_flops),
            queue)
        # launch_with_retry is a 1:1 parallel_for when no fault injector
        # is installed; under --fault-plan it retries transient faults,
        # charging the backoff to the simulated timeline (and NSPS).
        records = [launch_with_retry(queue, n, spec,
                                     precision=case.precision)
                   for _ in range(steps)]
        steady = nsps_from_records(records)
    return ModelResult(
        case=case,
        nsps=steady,
        first_launch_nsps=records[0].nsps(),
        steady_launch_seconds=steady * 1.0e-9 * n,
        first_launch_seconds=records[0].simulated_seconds,
        bound=records[-1].timing.bound,
    )


def table2_rows(n: int = PAPER_PARTICLES,
                steps: int = DEFAULT_MODEL_STEPS
                ) -> Dict[Tuple[str, str], Dict[Tuple[str, str], float]]:
    """Regenerate Table 2: modelled CPU NSPS for all 24 cells.

    Returns ``rows[(layout, parallelization)][(scenario, precision)]``.
    """
    rows: Dict[Tuple[str, str], Dict[Tuple[str, str], float]] = {}
    with trace_span("table2", "bench", n_particles=n):
        for layout in (Layout.AOS, Layout.SOA):
            for parallelization in CPU_PARALLELIZATIONS:
                row: Dict[Tuple[str, str], float] = {}
                for scenario in ("precalculated", "analytical"):
                    for precision in (Precision.SINGLE, Precision.DOUBLE):
                        case = BenchmarkCase(scenario, layout, precision,
                                             parallelization)
                        row[(scenario, precision.value)] = \
                            model_push_nsps(case, n, steps).nsps
                rows[(layout.value, parallelization)] = row
    return rows


def table3_rows(n: int = PAPER_PARTICLES,
                steps: int = DEFAULT_MODEL_STEPS
                ) -> Dict[str, Dict[Tuple[str, str], float]]:
    """Regenerate Table 3: modelled single-precision NSPS on GPUs vs CPU.

    The "CPU" column is the same DPC++ NUMA build the paper carried
    over from Table 2.  Returns ``rows[layout][(scenario, device)]``.
    """
    rows: Dict[str, Dict[Tuple[str, str], float]] = {}
    with trace_span("table3", "bench", n_particles=n):
        for layout in (Layout.AOS, Layout.SOA):
            row: Dict[Tuple[str, str], float] = {}
            for scenario in ("precalculated", "analytical"):
                for device_name in ("cpu", "p630", "iris-xe-max"):
                    parallelization = ("DPC++ NUMA" if device_name == "cpu"
                                       else device_name)
                    case = BenchmarkCase(scenario, layout, Precision.SINGLE,
                                         parallelization)
                    row[(scenario, device_name)] = \
                        model_push_nsps(case, n, steps).nsps
            rows[layout.value] = row
    return rows


def fig1_series(core_counts: Optional[Sequence[int]] = None,
                n: int = PAPER_PARTICLES,
                steps: int = DEFAULT_MODEL_STEPS
                ) -> Dict[str, List[Tuple[int, float]]]:
    """Regenerate Fig. 1: strong-scaling speedup on 1-48 cores.

    Precalculated fields, single precision, OpenMP and DPC++ NUMA, AoS
    and SoA; 2 threads per core (the paper binds both hyperthreads).
    Speedup is relative to the same implementation on one core.
    Returns ``series["OpenMP/AoS"] = [(cores, speedup), ...]``.
    """
    if core_counts is None:
        core_counts = (1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48)
    series: Dict[str, List[Tuple[int, float]]] = {}
    with trace_span("fig1", "bench", n_particles=n):
        for parallelization in ("OpenMP", "DPC++ NUMA"):
            for layout in (Layout.AOS, Layout.SOA):
                case = BenchmarkCase("precalculated", layout,
                                     Precision.SINGLE, parallelization)
                base = model_push_nsps(case, n, steps, units=1,
                                       threads_per_unit=2).nsps
                points = []
                for cores in core_counts:
                    result = model_push_nsps(case, n, steps, units=cores,
                                             threads_per_unit=2)
                    points.append((cores, base / result.nsps))
                series[f"{parallelization}/{layout.value}"] = points
    return series


#: First-iteration configurations: the paper's DPC++ NUMA benchmark
#: plus the plain DPC++ and OpenMP builds it is compared against.
FIRST_ITERATION_CONFIGS = ("DPC++ NUMA", "DPC++", "OpenMP")

#: Core counts of the hyperthreading sweep (one socket to two).
THREAD_SWEEP_CORES = (12, 24, 36, 48)


def first_iteration_ratio(n: int = PAPER_PARTICLES,
                          steps: int = DEFAULT_MODEL_STEPS,
                          steps_per_iteration: int =
                          PAPER_STEPS_PER_ITERATION) -> Dict[str, float]:
    """Modelled first-iteration slowdown of the paper's CPU builds.

    The paper: "the first iteration takes 50% longer time than the
    subsequent ones" (JIT + cold memory).  Returns the modelled ratio
    per parallelization in :data:`FIRST_ITERATION_CONFIGS` (SoA, float,
    precalculated); OpenMP pays the cold pages but no JIT.
    """
    ratios: Dict[str, float] = {}
    with trace_span("first-iter", "bench", n_particles=n):
        for parallelization in FIRST_ITERATION_CONFIGS:
            case = BenchmarkCase("precalculated", Layout.SOA,
                                 Precision.SINGLE, parallelization)
            ratios[parallelization] = model_push_nsps(
                case, n, steps).first_iteration_ratio(steps_per_iteration)
    return ratios


def thread_sweep(n: int = PAPER_PARTICLES,
                 steps: int = DEFAULT_MODEL_STEPS
                 ) -> Dict[int, Dict[int, float]]:
    """NSPS of the OpenMP build at 1 vs 2 threads per core.

    The paper: "employing 96 threads is empirically the best, that is,
    the use of hyperthreading technology improves performance".
    Returns ``sweep[cores][threads_per_core] -> nsps`` for every core
    count in :data:`THREAD_SWEEP_CORES`; ``sweep[48][2]`` is the
    96-thread run.
    """
    case = BenchmarkCase("precalculated", Layout.SOA, Precision.SINGLE,
                         "OpenMP")
    with trace_span("threads", "bench", n_particles=n):
        return {cores: {threads: model_push_nsps(
                            case, n, steps, units=cores,
                            threads_per_unit=threads).nsps
                        for threads in (1, 2)}
                for cores in THREAD_SWEEP_CORES}


def fusion_rows(n: int = 200_000, steps: int = 8, warmup: int = 2,
                device: str = "iris-xe-max") -> "Dict[str, object]":
    """The kernel-graph fusion artefact: unfused vs fused, cold vs warm.

    Runs the paper's best GPU configuration (precalculated fields,
    SoA, float) twice through :func:`repro.api.run_push` — once with
    the per-step kernel graph unfused, once with the fusion pass on —
    and verifies the two final particle states are bit-identical
    (fusion only composes the same kernel bodies; it must never change
    physics).  Returns ``{"unfused": RunReport, "fused": RunReport}``;
    each report carries the warm steady NSPS, the cold first-step NSPS
    (one JIT compile per program-cache miss) and the fusion/cache
    counters — everything ``benchmarks/BENCH_fusion.json`` records.
    """
    from ..api import RunConfig, run_push
    from ..errors import GraphError

    reports: Dict[str, object] = {}
    with trace_span("fusion-bench", "bench", n_particles=n):
        for name, fusion in (("unfused", False), ("fused", True)):
            reports[name] = run_push(RunConfig(
                scenario="precalculated", layout=Layout.SOA,
                precision=Precision.SINGLE, n_particles=n, steps=steps,
                warmup=warmup, device=device, fusion=fusion))
    if reports["fused"].digest != reports["unfused"].digest:
        raise GraphError(
            "fused and unfused runs diverged: fusion must be bit-exact "
            f"({reports['fused'].digest} != {reports['unfused'].digest})")
    return reports


def autotune_rows(n: int = 50_000, steps: int = 6, warmup: int = 2,
                  device: str = "iris-xe-max") -> "Dict[str, object]":
    """The autotuner acceptance artefact: auto vs every candidate.

    Runs ``RunConfig(config="auto")`` once, then *measures* every
    candidate the tuner enumerated by running it through the same
    facade — the simulated-clock ground truth the predictions are
    judged against.  Returns ``{"auto": RunReport,
    "candidates": {label: RunReport}}``; the auto report carries the
    :class:`~repro.analysis.autotune.TuningReport` and the
    predicted-vs-measured comparison.

    The smoke assertion (CI's autotune job,
    ``benchmarks/bench_autotune.py``) is that the auto pick's measured
    warm NSPS is no worse than the worst measured candidate — i.e. the
    search cannot select a pessimal config — and within the
    calibration tolerance of its own prediction.
    """
    from ..analysis.autotune import apply_candidate, enumerate_candidates
    from ..api import RunConfig, run_push

    def base() -> "RunConfig":
        return RunConfig(scenario="precalculated", n_particles=n,
                         steps=steps, warmup=warmup, device=device)

    with trace_span("autotune-bench", "bench", n_particles=n):
        auto_config = base()
        auto_config.config = "auto"
        auto = run_push(auto_config)
        candidates: Dict[str, object] = {}
        for candidate in enumerate_candidates(base()):
            candidates[candidate.label] = run_push(
                apply_candidate(base(), candidate))
    return {"auto": auto, "candidates": candidates}
