"""repro — reproduction of the PACT 2021 Boris-pusher-on-DPC++ study.

A production-quality Python implementation of the Boris particle pusher
and its surrounding systems from *"High Performance Implementation of
Boris Particle Pusher on DPC++. A First Look at oneAPI"* (Volokitin et
al., PACT 2021):

* :mod:`repro.core` — the Boris pusher (scalar reference and vectorized
  kernels) plus the Vay and Higuera-Cary alternatives;
* :mod:`repro.particles` — AoS / SoA particle ensembles, proxies,
  species table and initializers;
* :mod:`repro.fields` — analytical sources including the paper's
  standing m-dipole wave, grid fields and per-particle precalculated
  field arrays;
* :mod:`repro.pic` — the full Particle-in-Cell substrate (FDTD Maxwell
  solver, interpolation, current deposition, diagnostics);
* :mod:`repro.oneapi` — an execution-model simulator of the DPC++
  runtime (USM memory, static/dynamic scheduling, NUMA arenas, JIT
  warm-up, roofline device timing) that stands in for the Intel
  hardware of the paper's evaluation;
* :mod:`repro.bench` — the benchmark harness regenerating every table
  and figure of the paper (see DESIGN.md / EXPERIMENTS.md);
* :mod:`repro.observability` — structured tracing/profiling of the
  simulated runtime: nestable spans, per-kernel counters and Chrome
  ``trace_event`` export (see docs/PROFILING.md).

Quickstart::

    import repro

    wave = repro.MDipoleWave()                      # P = 0.1 PW, 0.9 um
    electrons = repro.paper_benchmark_ensemble(10_000)
    dt = 2.0 * 3.141592653589793 / wave.omega / 100.0
    repro.setup_leapfrog(electrons, wave, dt)
    repro.advance(electrons, wave, dt, steps=100)
    print(electrons.component("gamma").max())
"""

from .constants import (
    SPEED_OF_LIGHT,
    ELEMENTARY_CHARGE,
    ELECTRON_MASS,
    PROTON_MASS,
)
from .fp import FP3, Precision
from .errors import (
    ReproError,
    ConfigurationError,
    LayoutError,
    DeviceError,
    MemoryModelError,
    AllocationFailedError,
    KernelError,
    DeviceLostError,
    LaunchTimeoutError,
    FieldError,
    SimulationError,
    TraceError,
)
from .particles import (
    Layout,
    Particle,
    ParticleProxy,
    ParticleEnsemble,
    ParticleArrayAoS,
    ParticleArraySoA,
    ParticleSpecies,
    ParticleTypeTable,
    default_type_table,
    make_ensemble,
    cold_sphere,
    uniform_box,
    paper_benchmark_ensemble,
)
from .fields import (
    FieldSource,
    FieldValues,
    NullField,
    UniformField,
    CrossedField,
    PlaneWave,
    MDipoleWave,
    PrecalculatedField,
    YeeGrid,
)
from .analysis import (
    EscapeCurve,
    remaining_fraction,
    run_escape_study,
    escape_rate_sweep,
)
from .observability import (
    Tracer,
    tracing,
    active_tracer,
    write_chrome_trace,
    kernel_summary,
    format_kernel_summary,
)
from .resilience import (
    Checkpointer,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    active_fault_injector,
    fault_injection,
    named_plan,
)
from .core import (
    BorisPusher,
    VayPusher,
    HigueraCaryPusher,
    RadiationReactionPusher,
    boris_push,
    boris_push_particle,
    available_pushers,
    get_pusher,
    setup_leapfrog,
    undo_leapfrog,
    advance,
    TrajectoryRecorder,
    integrate_trajectory_rk4,
)
from .api import RunConfig, RunReport, run_push

__version__ = "1.0.0"

__all__ = [
    "SPEED_OF_LIGHT",
    "ELEMENTARY_CHARGE",
    "ELECTRON_MASS",
    "PROTON_MASS",
    "FP3",
    "Precision",
    "ReproError",
    "ConfigurationError",
    "LayoutError",
    "DeviceError",
    "MemoryModelError",
    "AllocationFailedError",
    "KernelError",
    "DeviceLostError",
    "LaunchTimeoutError",
    "FieldError",
    "SimulationError",
    "TraceError",
    "Layout",
    "Particle",
    "ParticleProxy",
    "ParticleEnsemble",
    "ParticleArrayAoS",
    "ParticleArraySoA",
    "ParticleSpecies",
    "ParticleTypeTable",
    "default_type_table",
    "make_ensemble",
    "cold_sphere",
    "uniform_box",
    "paper_benchmark_ensemble",
    "FieldSource",
    "FieldValues",
    "NullField",
    "UniformField",
    "CrossedField",
    "PlaneWave",
    "MDipoleWave",
    "PrecalculatedField",
    "YeeGrid",
    "BorisPusher",
    "VayPusher",
    "HigueraCaryPusher",
    "RadiationReactionPusher",
    "EscapeCurve",
    "remaining_fraction",
    "run_escape_study",
    "escape_rate_sweep",
    "boris_push",
    "boris_push_particle",
    "available_pushers",
    "get_pusher",
    "setup_leapfrog",
    "undo_leapfrog",
    "advance",
    "TrajectoryRecorder",
    "integrate_trajectory_rk4",
    "Tracer",
    "tracing",
    "active_tracer",
    "write_chrome_trace",
    "kernel_summary",
    "format_kernel_summary",
    "Checkpointer",
    "FaultPlan",
    "FaultRule",
    "RetryPolicy",
    "active_fault_injector",
    "fault_injection",
    "named_plan",
    "RunConfig",
    "RunReport",
    "run_push",
    "__version__",
]
