"""The PIC loop lowered onto the kernel-graph IR.

:func:`record_step_graph` is the one place the PIC step's stages are
listed: it records a :class:`~repro.pic.simulation.PicSimulation`'s
step as a :class:`~repro.oneapi.graph.KernelGraph`, per species:

* **gather** — interpolate E and B from the Yee grid to per-particle
  arrays (elementwise; its output streams are declared ``transient``
  so a fused group carries them in registers);
* **push** — the Boris push over the gathered fields (elementwise);
* **Monte Carlo operators** — collisions / field ionization
  (elementwise, counter-based RNG — see :mod:`repro.pic.montecarlo`);
* **deposit** — current deposition + the periodic position wrap
  (a *barrier* node: scatter-add has cross-particle dependencies, so
  nothing fuses across it — the canonical barrier kernel of the graph
  IR's docstring); with ``deposition="none"`` a **wrap** node, which
  only wraps the positions into the periodic box (elementwise, no
  grid streams), takes its place;

and then once per step:

* **field-advance** — the Maxwell solve over the grid cells (barrier).

Both drivers of the loop replay that one recording.
:class:`PicEngine` records it with its queue's memory manager and
replays it through a simulated :class:`~repro.oneapi.queue.Queue`;
:meth:`~repro.pic.simulation.PicSimulation.step` records it without
one (nothing is registered) and runs the bodies in order on the host.
The bodies call the simulation's stage methods
(:meth:`~repro.pic.simulation.PicSimulation.gather`,
:meth:`~repro.pic.simulation.PicSimulation.push`,
:meth:`~repro.pic.simulation.PicSimulation.deposit`), so there is one
implementation of each stage and one stage order.  Because the
executor runs node bodies in recorded order whether or not launches
are fused, fused, unfused and host runs are bit-exact; the Monte Carlo
draws are keyed on the logical step.  The declared read/write sets
make the whole step visible to the fusion pass, the hazard detector,
the roofline analyzer, tracing and fault injection — the same
machinery the push engines enjoy.  The particle streams of every spec
come from the push engine's one builder,
:func:`~repro.oneapi.runtime.particle_streams`.
"""

from __future__ import annotations

import hashlib
from typing import List

import numpy as np

from ..errors import SimulationError
from ..observability.tracer import trace_span
from ..oneapi.graph import GraphExecutor, KernelGraph, KernelNode
from ..oneapi.kernelspec import KernelSpec, MemoryStream, StreamKind
from ..oneapi.queue import Queue
from ..oneapi.runtime import PUSH_FLOPS, particle_streams
from ..particles.ensemble import COMPONENTS, ParticleEnsemble
from ..resilience.faults import active_fault_injector
# Not called here (the deposit body calls PicSimulation.deposit); kept as
# a module attribute because benchmarks/host/test_host_bench.py checks
# that the host recorder patches and restores this imported copy.
from .deposition import deposit_current_esirkepov  # noqa: F401
from .simulation import PicSimulation

__all__ = ["GATHER_FLOPS", "DEPOSIT_FLOPS", "WRAP_FLOPS", "ADVANCE_FLOPS",
           "pic_state_digest", "build_gather_spec", "build_pic_push_spec",
           "build_operator_spec", "build_deposit_spec", "build_wrap_spec",
           "build_advance_spec", "record_step_graph", "PicEngine"]

#: Arithmetic per particle of the six-component staggered gather
#: (support^3 weighted sum per component, CIC support assumed for the
#: estimate; the builders scale by the actual support).
GATHER_FLOPS = 5.0
#: Arithmetic per particle of the Esirkepov window scatter (per window
#: point); the builders scale by the window volume.
DEPOSIT_FLOPS = 14.0
#: Arithmetic per particle of the periodic position wrap.
WRAP_FLOPS = 6.0
#: Arithmetic per grid cell of one FDTD leapfrog step.
ADVANCE_FLOPS = {"fdtd": 36.0, "spectral": 220.0}

#: The six per-particle gathered field components.
_FIELD_COMPONENTS = ("ex", "ey", "ez", "bx", "by", "bz")

#: Particle components each stage touches, with its access.
_GATHER_KINDS = dict.fromkeys(("x", "y", "z"), StreamKind.READ)
_PUSH_KINDS = {**dict.fromkeys(("x", "y", "z", "px", "py", "pz"),
                               StreamKind.READ_WRITE),
               "type": StreamKind.READ, "gamma": StreamKind.WRITE}
_DEPOSIT_KINDS = {**dict.fromkeys(("x", "y", "z"), StreamKind.READ_WRITE),
                  **dict.fromkeys(("px", "py", "pz", "gamma", "weight",
                                   "type"), StreamKind.READ)}
_WRAP_KINDS = dict.fromkeys(("x", "y", "z"), StreamKind.READ_WRITE)


def pic_state_digest(simulation: PicSimulation) -> str:
    """SHA-256 digest of the complete PIC state.

    Hashes every floating-point component of every ensemble (weight
    included — ionization grows it) plus the grid's fields and
    currents, in a fixed order, so two runs agree iff they are
    bit-exact end to end.
    """
    digest = hashlib.sha256()
    for ensemble in simulation.ensembles:
        for name in COMPONENTS:
            digest.update(np.ascontiguousarray(
                ensemble.component(name)).tobytes())
    grid = simulation.grid
    for name in sorted(grid.fields):
        digest.update(grid.fields[name].tobytes())
    for name in sorted(grid.currents):
        digest.update(grid.currents[name].tobytes())
    return digest.hexdigest()


# -- stream builders -------------------------------------------------------


def _suffix(species: int, count: int) -> str:
    """Stream-name suffix keeping multi-species streams distinct."""
    return "" if count == 1 else f"@{species}"


def _gathered_field_streams(ensemble: ParticleEnsemble, memory,
                            kind: StreamKind, suffix: str,
                            components=_FIELD_COMPONENTS) -> List[MemoryStream]:
    """The per-particle gathered field arrays (always float64)."""
    streams = []
    for component in components:
        name = f"pic-fields-{component}{suffix}"
        allocation = memory.virtual(ensemble.size * 8, name=name) \
            if memory is not None else None
        streams.append(MemoryStream(
            name=name, kind=kind, bytes_per_item=8, contiguous=True,
            allocation=allocation))
    return streams


def _grid_streams(grid, memory, names, kind: StreamKind,
                  bytes_per_item: float,
                  contiguous: bool = True) -> List[MemoryStream]:
    streams = []
    for name in names:
        store = grid.currents[name] if name.startswith("j") \
            else grid.fields[name]
        allocation = memory.register(store, name=f"grid-{name}") \
            if memory is not None else None
        streams.append(MemoryStream(
            name=f"grid-{name}", kind=kind, bytes_per_item=bytes_per_item,
            contiguous=contiguous, allocation=allocation))
    return streams


# -- spec builders ---------------------------------------------------------


def build_gather_spec(ensemble: ParticleEnsemble, shape, memory,
                      suffix: str = "") -> KernelSpec:
    """Gather stage: read positions, write the six per-particle fields."""
    support = shape.support
    streams = particle_streams(_GATHER_KINDS, ensemble.size,
                               ensemble.layout, ensemble.precision, memory,
                               ensemble, suffix)
    streams += _gathered_field_streams(ensemble, memory, StreamKind.WRITE,
                                       suffix)
    flops = 6.0 * support ** 3 * GATHER_FLOPS + 15.0
    name = (f"pic-gather-{shape.name.lower()}-{ensemble.layout.value}"
            f"-{ensemble.precision.value}{suffix}")
    return KernelSpec(name=name, streams=tuple(streams),
                      flops_per_item=flops)


def build_pic_push_spec(ensemble: ParticleEnsemble, memory,
                        suffix: str = "") -> KernelSpec:
    """Push stage: Boris rotation over the gathered per-particle fields."""
    streams = particle_streams(_PUSH_KINDS, ensemble.size, ensemble.layout,
                               ensemble.precision, memory, ensemble, suffix)
    streams += _gathered_field_streams(ensemble, memory, StreamKind.READ,
                                       suffix)
    name = (f"pic-push-{ensemble.layout.value}"
            f"-{ensemble.precision.value}{suffix}")
    return KernelSpec(name=name, streams=tuple(streams),
                      flops_per_item=float(PUSH_FLOPS))


def build_operator_spec(ensemble: ParticleEnsemble, operator, memory,
                        suffix: str = "") -> KernelSpec:
    """Monte Carlo operator stage (collision / ionization)."""
    read_write = ["px", "py", "pz"]
    if operator.mutates_weight:
        read_write.append("weight")
    streams = particle_streams(
        dict.fromkeys(read_write, StreamKind.READ_WRITE), ensemble.size,
        ensemble.layout, ensemble.precision, memory, ensemble, suffix)
    if operator.reads_fields:
        streams += _gathered_field_streams(
            ensemble, memory, StreamKind.READ, suffix,
            components=("ex", "ey", "ez"))
    name = (f"pic-{operator.tag}-{ensemble.layout.value}"
            f"-{ensemble.precision.value}{suffix}")
    return KernelSpec(name=name, streams=tuple(streams),
                      flops_per_item=float(operator.flops_per_item))


def build_deposit_spec(ensemble: ParticleEnsemble, deposition: str,
                       shape, grid, memory,
                       suffix: str = "") -> KernelSpec:
    """Deposit stage: scatter-add currents + the periodic wrap (barrier)."""
    from .deposition import _window_parameters
    if deposition == "esirkepov":
        _, width = _window_parameters(shape)
    else:
        width = shape.support
    streams = particle_streams(_DEPOSIT_KINDS, ensemble.size,
                               ensemble.layout, ensemble.precision, memory,
                               ensemble, suffix)
    streams += _grid_streams(grid, memory, ("jx", "jy", "jz"),
                             StreamKind.READ_WRITE,
                             bytes_per_item=width ** 3 * 8.0,
                             contiguous=False)
    flops = 3.0 * width ** 3 * DEPOSIT_FLOPS + 30.0
    name = (f"pic-deposit-{deposition}-{ensemble.layout.value}"
            f"-{ensemble.precision.value}{suffix}")
    return KernelSpec(name=name, streams=tuple(streams),
                      flops_per_item=flops)


def build_wrap_spec(ensemble: ParticleEnsemble, memory,
                    suffix: str = "") -> KernelSpec:
    """Wrap stage of ``deposition="none"``: positions into the box."""
    streams = particle_streams(_WRAP_KINDS, ensemble.size, ensemble.layout,
                               ensemble.precision, memory, ensemble, suffix)
    name = (f"pic-wrap-{ensemble.layout.value}"
            f"-{ensemble.precision.value}{suffix}")
    return KernelSpec(name=name, streams=tuple(streams),
                      flops_per_item=WRAP_FLOPS)


def build_advance_spec(grid, solver_kind: str, memory) -> KernelSpec:
    """Field-advance stage: the Maxwell solve over the grid (barrier)."""
    streams = _grid_streams(grid, memory, ("jx", "jy", "jz"),
                            StreamKind.READ, bytes_per_item=8.0)
    streams += _grid_streams(grid, memory, _FIELD_COMPONENTS,
                             StreamKind.READ_WRITE, bytes_per_item=8.0)
    return KernelSpec(name=f"pic-advance-{solver_kind}",
                      streams=tuple(streams),
                      flops_per_item=float(ADVANCE_FLOPS[solver_kind]))


def record_step_graph(simulation: PicSimulation,
                      memory=None) -> KernelGraph:
    """The PIC step of ``simulation`` as a kernel graph bound to its
    arrays — the one place the stage order is written.

    Specs are built, and with a ``memory`` manager their arrays
    registered, in node order; ``memory=None`` registers nothing.  The
    bodies read the simulation's state (the Monte Carlo step count)
    when they run, so the graph is recorded once and replayed.
    """
    shape = simulation.interpolation
    count = len(simulation.ensembles)
    # Per-species results handed from one stage body to the next.
    gathered: List = [None] * count
    old_positions: List = [None] * count

    def gather(species: int):
        def body() -> None:
            gathered[species] = simulation.gather(species)
        return body

    def push(species: int):
        def body() -> None:
            old_positions[species] = simulation.push(species,
                                                     gathered[species])
        return body

    def operate(species: int, operator):
        ensemble = simulation.ensembles[species]

        def body() -> None:
            operator.apply(ensemble, gathered[species],
                           simulation.step_count, simulation.dt,
                           stream=species)
        return body

    def deposit(species: int):
        def body() -> None:
            simulation.deposit(species, old_positions[species])
        return body

    graph = KernelGraph()
    for species, ensemble in enumerate(simulation.ensembles):
        suffix = _suffix(species, count)
        node = dict(n_items=ensemble.size, layout=ensemble.layout.value,
                    precision=ensemble.precision)
        graph.add(KernelNode(
            spec=build_gather_spec(ensemble, shape, memory, suffix),
            body=gather(species),
            transient=frozenset(f"pic-fields-{c}{suffix}"
                                for c in _FIELD_COMPONENTS),
            tag="gather", **node))
        graph.add(KernelNode(
            spec=build_pic_push_spec(ensemble, memory, suffix),
            body=push(species), tag="push", **node))
        for operator in simulation.operators:
            graph.add(KernelNode(
                spec=build_operator_spec(ensemble, operator, memory,
                                         suffix),
                body=operate(species, operator),
                tag=f"mc:{operator.tag}", **node))
        if simulation.deposition == "none":
            graph.add(KernelNode(
                spec=build_wrap_spec(ensemble, memory, suffix),
                body=deposit(species), tag="wrap", **node))
        else:
            graph.add(KernelNode(
                spec=build_deposit_spec(
                    ensemble, simulation.deposition, shape,
                    simulation.grid, memory, suffix),
                body=deposit(species), barrier=True, tag="deposit",
                **node))
    graph.add(KernelNode(
        spec=build_advance_spec(simulation.grid, simulation.solver_kind,
                                memory),
        n_items=simulation.grid.num_cells,
        body=simulation.solver.step, layout="grid",
        barrier=True, tag="field-advance"))
    return graph


class PicEngine:
    """Drives real PIC steps through a queue by replaying one graph.

    The step is recorded once, by :func:`record_step_graph` with the
    queue's memory manager, in :attr:`graph`, and every step replays it
    through a :class:`~repro.oneapi.graph.GraphExecutor`, which planned
    it once; with fusion on, gather + push + Monte Carlo operators (and
    the wrap of ``deposition="none"``) merge into one launch per
    species (the deposit and field-advance barriers never fuse), with
    fusion off every stage launches separately.

    Both modes run identical stage bodies in identical order, so their
    final state digests (:func:`pic_state_digest`) are equal, and equal
    to the host loop :meth:`~repro.pic.simulation.PicSimulation.step`.

    Args:
        queue: The simulated queue (device + runtime + scheduling).
        simulation: The PIC loop to lower; its ensembles, grid, solver
            and Monte Carlo operators are used in place.
        fusion: Run the fusion pass over the step graph.
        validate: Replay every step's launches through the hazard
            detector.
    """

    def __init__(self, queue: Queue, simulation: PicSimulation,
                 fusion: bool = True, validate: bool = False) -> None:
        self.queue = queue
        self.simulation = simulation
        self.fusion = bool(fusion)
        self.step_seconds: List[float] = []
        #: The step graph, recorded once; its stage bodies read the
        #: simulation's state (the Monte Carlo step count) when they run.
        self.graph = record_step_graph(simulation, queue.memory)
        self.executor = GraphExecutor(queue, self.graph, fusion=self.fusion,
                                      validate=validate)

    @property
    def time(self) -> float:
        """Current simulation time [s]."""
        return self.simulation.time

    # -- stepping ----------------------------------------------------------

    def step(self, depends_on=None):
        """Advance the whole PIC loop by one timed step.

        Returns the last launch record (whose event is the step's
        completion, for dependency chaining).  Under an active fault
        injector the step is a device-loss opportunity before any
        state changes, exactly like the push engines.
        """
        injector = active_fault_injector()
        if injector is not None:
            injector.on_device_step(self.queue.device.name)
        simulation = self.simulation
        with trace_span("pic-engine-step", "runner",
                        step=simulation.step_count):
            simulation.grid.clear_currents()
            records = self.executor.run(depends_on=depends_on)
        simulation.step_count += 1
        self.step_seconds.append(
            sum(r.simulated_seconds for r in records))
        return records[-1]

    def run(self, steps: int):
        """Run ``steps`` full PIC steps; returns the last records."""
        if steps < 0:
            raise SimulationError(f"steps must be >= 0, got {steps}")
        return [self.step() for _ in range(steps)]

    def queues(self) -> tuple:
        """Every queue this engine submits to (uniform across engines)."""
        return (self.queue,)
